"""Exterior and multivector calculus with polynomial coefficients.

Multivectors and forms are stored in antisymmetry normal form: a finite map
from strictly increasing index tuples to nonzero :class:`~dqkit.kernel.Poly`
coefficients.  Degree 0 uses the empty tuple as its single key.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import DegreeError, DimensionMismatchError
from .kernel import Poly, _add_term, _as_poly


def sort_indices(indices):
    """Sort an index sequence, returning (sign, tuple) or (0, None) on repeats.

    The sign is the parity of the sorting permutation.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0, None
    sign = 1
    # insertion sort; counts transpositions exactly
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(idx)


class _AltTensor:
    """Shared storage for alternating tensors (multivectors and forms).

    Indices run over 1..index_bound.  That is ``dim`` for tensors on R^n; a
    subclass whose indices name something else (frame elements of a Lie
    algebroid) overrides ``index_bound``, ``index_name`` and ``_like``.

    ``_shape`` holds ``(field, error, message)`` triples in check order.  ``+``
    and ``-`` take two tensors of the same type whose fields all agree; the
    first field that differs raises ``error(message.format(mine, theirs))``.
    The fields also take part in ``==`` and ``hash``.
    """

    __slots__ = ("dim", "degree", "terms")
    _shape = (
        ("dim", DimensionMismatchError, "dimensions differ: {} vs {}"),
        ("index_bound", DimensionMismatchError, "index bounds differ: {} vs {}"),
        ("degree", DegreeError, "degrees differ: {} vs {}"),
    )
    index_name = "index"

    def __init__(self, dim: int, degree: int, terms=None):
        # degrees above the index bound are allowed: their term space is
        # empty, so such tensors are identically zero (needed e.g. for a zero
        # 3-form on R^2)
        if degree < 0:
            raise DegreeError(f"degree {degree} is negative")
        self.dim = dim
        self.degree = degree
        bound = self.index_bound
        clean = {}
        if terms:
            for idx, coeff in terms.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise DegreeError(f"index tuple {idx} has length != degree={degree}")
                if not all(type(i) is int and 1 <= i <= bound for i in idx):
                    raise DegreeError(f"{self.index_name} out of range 1..{bound} in {idx}")
                if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                    raise DegreeError(f"index tuple {idx} not strictly increasing")
                coeff = _as_poly(dim, coeff)
                if coeff.dim != dim:
                    raise DimensionMismatchError(
                        f"coefficient dim {coeff.dim} != ambient dim {dim}"
                    )
                if not coeff.is_zero():
                    _add_term(clean, idx, coeff)
        self.terms = clean

    @property
    def index_bound(self) -> int:
        return self.dim

    def _like(self, degree: int, terms) -> "_AltTensor":
        """A tensor of the same kind and index bound, of the given degree."""
        return type(self)(self.dim, degree, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def _shape_values(self) -> tuple:
        return tuple(getattr(self, field) for field, _, _ in self._shape)

    def _check_same(self, other):
        if type(self) is not type(other):
            raise TypeError(f"mixed kinds: {type(self).__name__} vs {type(other).__name__}")
        for field, error, message in self._shape:
            mine, theirs = getattr(self, field), getattr(other, field)
            if mine != theirs:
                raise error(message.format(mine, theirs))

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(out, key, c)
        return self._like(self.degree, out)

    def __neg__(self):
        return self._like(self.degree, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        """Multiply every coefficient by a Poly or rational."""
        factor = _as_poly(self.dim, factor)
        if factor.is_zero():
            return self._like(self.degree, {})
        # Q[x] has no zero divisors, so no product below is zero
        return self._like(self.degree, {key: c * factor for key, c in self.terms.items()})

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self._shape_values() == other._shape_values() and self.terms == other.terms

    def __hash__(self):
        return hash((*self._shape_values(), frozenset(self.terms.items())))

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, dim, degree):
        return cls(dim, degree)

    @classmethod
    def from_poly(cls, p: Poly):
        """Degree-0 tensor holding a single polynomial."""
        return cls(p.dim, 0, {(): p})

    @classmethod
    def basis(cls, dim: int, index: int):
        """The coordinate element of degree 1: d/dx_index or dx_index."""
        return cls(dim, 1, {(index,): Poly.one(dim)})

    def as_poly(self) -> Poly:
        if self.degree != 0:
            raise DegreeError("only degree-0 tensors reduce to a polynomial")
        return self.terms.get((), Poly.zero(self.dim))

    def coeff(self, idx) -> Poly:
        sign, key = sort_indices(idx)
        if sign == 0:
            return Poly.zero(self.dim)
        c = self.terms.get(key)
        if c is None:
            return Poly.zero(self.dim)
        return c if sign == 1 else -c

    # ------------------------------------------------------------------

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}({self.dim}, deg={self.degree}, 0)"
        body = ", ".join(f"{idx}: {c!r}" for idx, c in self.sorted_terms())
        return f"{name}({self.dim}, deg={self.degree}, {{{body}}})"


class MultiVec(_AltTensor):
    """Polynomial-coefficient p-vector field on R^n."""

    def apply_to(self, f: Poly) -> Poly:
        """Apply a vector field (degree 1) to a function as a derivation."""
        if self.degree != 1:
            raise DegreeError("only degree-1 multivectors act on functions")
        out = Poly.zero(self.dim)
        for (i,), c in self.terms.items():
            out = out + c * f.partial(i)
        return out


class Form(_AltTensor):
    """Polynomial-coefficient differential p-form on R^n."""

    @classmethod
    def d_of(cls, f: Poly) -> "Form":
        """df as a 1-form."""
        return cls(f.dim, 1, {(i,): f.partial(i) for i in range(1, f.dim + 1)})


# ----------------------------------------------------------------------
# operations


def wedge(A, B):
    """Graded-commutative wedge product of two tensors of the same kind."""
    if type(A) is not type(B):
        raise TypeError("wedge requires two multivectors or two forms")
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimensions differ: {A.dim} vs {B.dim}")
    degree = A.degree + B.degree
    out = {}
    for i1, c1 in A.terms.items():
        for i2, c2 in B.terms.items():
            sign, key = sort_indices(i1 + i2)
            if sign == 0:
                continue
            c = c1 * c2
            _add_term(out, key, c if sign > 0 else -c)
    return A._like(degree, out)


def exterior_d(omega: Form) -> Form:
    """De Rham differential; raises the degree by one and squares to zero.
    It is the Cartan differential of the tangent algebroid: identity anchor, no brackets."""
    if not isinstance(omega, Form):
        raise TypeError("exterior_d acts on forms")
    rows = [(a, [(a, 1)]) for a in range(1, omega.dim + 1)]
    return Form(omega.dim, omega.degree + 1, _cartan(omega.terms, rows, {}))


def _cartan(terms, anchor_rows, brackets) -> dict:
    """The Cartan differential on a form's term map {K: f}, over the frame:

    (d omega)(b_0..b_p) = sum_i (-1)^i sigma(b_i) omega(.. b_i ..)
                        + sum_{i<j} (-1)^{i+j} omega([b_i,b_j], .. b_i, b_j ..)

    ``anchor_rows`` lists (a, [(i, sigma(e_a)^i)]) and ``brackets`` maps k to
    [(a, b, c_{ab}^k)], nonzero entries only.  sigma(e_a) f goes to K + {a}
    for each a not in K, and c_{ab}^k f to (K - {k}) + {a, b} for each k in K,
    each with the sign of its positions in the sorted key, so the cost grows
    with the nonzero terms, not with the frame keys.
    """
    out = {}
    for key, f in terms.items():
        partials = {}  # d_i f, taken once per term and only where an anchor entry needs it
        for a, entries in anchor_rows:
            if a in key:
                continue
            val = None
            for i, s in entries:
                df = partials.get(i)
                if df is None:
                    df = partials[i] = f.partial(i)
                if not df.is_zero():
                    val = s * df if val is None else val + s * df
            if val is not None and not val.is_zero():
                pos = bisect_left(key, a)
                _add_term(out, key[:pos] + (a,) + key[pos:], -val if pos % 2 else val)
        for pos, k in enumerate(key):
            rest = key[:pos] + key[pos + 1 :]
            for a, b, c in brackets.get(k, ()):
                if a in rest or b in rest:
                    continue
                # a lands at position i and b at j + 1 of the sorted key
                i, j = bisect_left(rest, a), bisect_left(rest, b)
                term = c * f
                _add_term(out, rest[:i] + (a,) + rest[i:j] + (b,) + rest[j:],
                          -term if (i + j + 1 + pos) % 2 else term)
    return out


def interior(X: MultiVec, omega: Form) -> Form:
    """Contraction of a vector field into the first slot of a form."""
    if not (isinstance(X, MultiVec) and X.degree == 1):
        raise DegreeError("interior product needs a degree-1 multivector")
    if not isinstance(omega, Form):
        raise TypeError("interior product contracts a form")
    if X.dim != omega.dim:
        raise DimensionMismatchError(f"dimensions differ: {X.dim} vs {omega.dim}")
    if omega.degree == 0:
        raise DegreeError("cannot contract into a degree-0 form")
    out = {}
    for idx, c in omega.terms.items():
        for pos, i in enumerate(idx):
            xc = X.terms.get((i,))
            if xc is None:
                continue
            coeff = xc * c
            _add_term(out, idx[:pos] + idx[pos + 1 :], -coeff if pos % 2 else coeff)
    return Form(omega.dim, omega.degree - 1, out)


def lie_derivative(X: MultiVec, omega: Form) -> Form:
    """Cartan formula L_X = i_X d + d i_X (exact, no flows)."""
    if not (isinstance(X, MultiVec) and X.degree == 1):
        raise DegreeError("Lie derivative needs a degree-1 multivector")
    if X.dim != omega.dim:
        raise DimensionMismatchError(f"dimensions differ: {X.dim} vs {omega.dim}")
    if omega.degree == 0:
        # L_X f = X(f); i_X of a 0-form is not defined
        return Form.from_poly(X.apply_to(omega.as_poly()))
    return interior(X, exterior_d(omega)) + exterior_d(interior(X, omega))


def schouten(A: MultiVec, B: MultiVec) -> MultiVec:
    """Schouten-Nijenhuis bracket of multivector fields.

    Sign convention (validated against the Leibniz/antisymmetry recursion in
    the test suite):  with each stored term c*d_I decomposed as
    (c d_{i1}) ^ d_{i2} ^ ... the bracket of decomposables is

        [c d_I, e d_J] = sum_r (-1)^(a+r) c (d_{i_r} e) d_{I\\i_r} ^ d_J
                       + sum_s (-1)^s     e (d_{j_s} c) d_I ^ d_{J\\j_s}

    where a = |I| and r, s count from 1.
    """
    if not (isinstance(A, MultiVec) and isinstance(B, MultiVec)):
        raise TypeError("schouten bracket acts on multivectors")
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimensions differ: {A.dim} vs {B.dim}")
    dim = A.dim
    degree = A.degree + B.degree - 1
    if degree < 0:  # [f, g] = 0 lives in degree -1; report as scalar zero
        return MultiVec.zero(dim, 0)
    out = {}

    # coefficients are products of nonzero polynomials, so never zero
    def add(seq, coeff):
        sign, key = sort_indices(seq)
        if sign == 0:
            return
        _add_term(out, key, coeff if sign > 0 else -coeff)

    for I, c in A.terms.items():
        a = len(I)
        for J, e in B.terms.items():
            # first half: A differentiates B's coefficient
            for r0, i in enumerate(I):
                d_e = e.partial(i)
                if d_e.is_zero():
                    continue
                coeff = c * d_e
                if (a + r0 + 1) % 2 == 1:
                    coeff = -coeff
                add(I[:r0] + I[r0 + 1 :] + J, coeff)
            # second half: B differentiates A's coefficient
            for s0, j in enumerate(J):
                d_c = c.partial(j)
                if d_c.is_zero():
                    continue
                coeff = e * d_c
                if (s0 + 1) % 2 == 1:
                    coeff = -coeff
                add(I + J[:s0] + J[s0 + 1 :], coeff)
    return MultiVec(dim, degree, out)


def anchor(pi: MultiVec, alpha: Form) -> MultiVec:
    """The anchor map: pi~(alpha)^j = sum_i alpha_i pi^{ij}, a vector field."""
    if not (isinstance(alpha, Form) and alpha.degree == 1):
        raise DegreeError("anchor applies to 1-forms")
    if pi.dim != alpha.dim:
        raise DimensionMismatchError("dimension mismatch in anchor")
    if pi.degree != 2:
        raise DegreeError("pi must be a bivector")
    terms = {}
    for (i,), ai in alpha.terms.items():
        for j in range(1, pi.dim + 1):
            pij = pi.coeff((i, j))
            if pij.is_zero():
                continue
            _add_term(terms, (j,), ai * pij)
    return MultiVec(pi.dim, 1, terms)


def anchor_pullback(pi: MultiVec, omega: Form) -> MultiVec:
    """Raise every index of a p-form through the bivector.

    Each index of omega is contracted against the first slot of a copy of pi:
    T^{k_1..k_p} = omega_{j_1..j_p} pi^{j_1 k_1} .. pi^{j_p k_p}.
    Equivalently, T evaluated on covectors a^1..a^p equals
    (-1)^p omega(pi~ a^1, .., pi~ a^p); for p = 1 this is the anchor itself,
    and for p = 2 the value on (dx_i, dx_j) is omega(pi~ dx_i, pi~ dx_j).
    It is summed over omega's nonzero terms w dx_J as
    w (pi~ dx_{j_1}) ^ .. ^ (pi~ dx_{j_p}).
    """
    if pi.degree != 2:
        raise DegreeError("anchor_pullback needs a bivector")
    if pi.dim != omega.dim:
        raise DimensionMismatchError(f"dimensions differ: {pi.dim} vs {omega.dim}")
    return _raised(omega, [pi] * omega.degree)


def _raised(omega: Form, pis) -> MultiVec:
    """sum over omega's nonzero terms w dx_J of
    w (pis[0]~ dx_{j_1}) ^ .. ^ (pis[p-1]~ dx_{j_p}): slot s raised through pis[s]."""
    dim = omega.dim
    terms = {}
    for J, w in omega.terms.items():
        t = MultiVec.from_poly(w)
        for pi, j in zip(pis, J):
            t = wedge(t, anchor(pi, Form.basis(dim, j)))
        for key, c in t.terms.items():
            _add_term(terms, key, c)
    return MultiVec(dim, omega.degree, terms)
