"""Exterior and multivector calculus with polynomial coefficients.

A multivector or form lives in Q[x] (x) Lambda(xi_1 .. xi_r), xi_i standing
for d/dx_i, dx_i or a frame element, and is the third kind of
:class:`~dqkit.kernel._Stored`: each term's index set is a mask above its
exponent block and ``arity`` is the shape (degree, index bound), so sums,
scaling, ``==`` and ``hash`` are the kernel's.  ``terms`` is a read-only
``{index tuple: Poly}`` view in ascending index order.  Every operation is a
chain of the kernel's ``_alt_flip`` (xi_i times, or d/dxi_i): ``wedge``,
``interior`` (sum_i X^i d/dxi_i), ``anchor`` (sum_i alpha_i dpi/dxi_i),
``schouten`` (the odd Poisson bracket) and ``_cartan``, the homological
vector field sum_a xi_a sigma(e_a) - sum_{a<b} c_{ab}^k xi_a xi_b d/dxi_k
behind ``exterior_d``, ``algebroid_d`` and ``lichnerowicz_d`` (Vaintrob,
Russian Math. Surveys 52, 1997).
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType

from .errors import DegreeError, DimensionMismatchError
from .kernel import Poly, _Stored, _Sum, _alt_flip, _as_poly, _indices, _mask, _summed


def _perm_sign(seq) -> int:
    """(-1)^(number of inversions of seq), or 0 if an entry repeats."""
    if len(set(seq)) != len(seq):
        return 0
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


class _AltTensor(_Stored):
    """An alternating tensor with Poly coefficients (see the module docstring).

    Indices run over 1..index_bound.  That is ``dim`` for tensors on R^n; a
    subclass whose indices name something else (frame elements of a Lie
    algebroid) passes its own bound to ``_read`` and names its indices by
    ``index_name``.  ``+`` and ``-`` take two tensors of the same type, dim,
    index bound and degree, checked in that order.
    """

    __slots__ = ()
    index_name = "index"

    def __init__(self, dim: int, degree: int, terms=None):
        self._read(dim, dim, degree, terms)

    def _read(self, dim: int, bound: int, degree: int, terms) -> None:
        """Check and pack ``{index tuple: coefficient}`` (coefficients Poly, int
        or Fraction); a tuple repeated after conversion adds up.  A degree above
        the index bound is allowed: its term space is empty, so such a tensor
        is zero (a zero 3-form on R^2, say)."""
        if degree < 0:
            raise DegreeError(f"degree {degree} is negative")
        parts = []
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DegreeError(f"index tuple {idx} has length != degree={degree}")
            if not all(type(i) is int and 1 <= i <= bound for i in idx):
                raise DegreeError(f"{self.index_name} out of range 1..{bound} in {idx}")
            if any(idx[k] >= idx[k + 1] for k in range(len(idx) - 1)):
                raise DegreeError(f"index tuple {idx} not strictly increasing")
            coeff = _as_poly(dim, coeff)
            if coeff.dim != dim:
                raise DimensionMismatchError(f"coefficient dim {coeff.dim} != ambient dim {dim}")
            parts.append((_mask(idx), coeff))
        _Stored.__init__(self, dim, (degree, bound), *_summed(dim, parts))

    @property
    def degree(self) -> int:
        return self.arity[0]

    @property
    def index_bound(self) -> int:
        return self.arity[1]

    @property
    def terms(self):
        """A read-only {index tuple: Poly} view of the nonzero terms, in
        ascending order of the index tuples, computed on each access."""
        return MappingProxyType(dict(sorted((_indices(h), c) for h, c in self._coeffs().items())))

    def sorted_terms(self):
        return list(self.terms.items())

    def __add__(self, other):
        if type(self) is not type(other):
            raise TypeError(f"mixed kinds: {type(self).__name__} vs {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimensions differ: {self.dim} vs {other.dim}")
        (p, r), (q, s) = self.arity, other.arity
        if r != s:
            raise DimensionMismatchError(f"index bounds differ: {r} vs {s}")
        if p != q:
            raise DegreeError(f"degrees differ: {p} vs {q}")
        return self._sum(other)

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
        return self._coeffs().get(0, Poly.zero(self.dim))

    def coeff(self, idx) -> Poly:
        """The coefficient at an index sequence in any order: zero on a repeat,
        negated for an odd permutation of a stored index tuple."""
        sign = _perm_sign(idx)
        c = self.terms.get(tuple(sorted(idx))) if sign else None
        if c is None:
            return Poly.zero(self.dim)
        return c if sign == 1 else -c

    # ------------------------------------------------------------------

    def __repr__(self):
        name = type(self).__name__
        if self.is_zero():
            return f"{name}({self.dim}, deg={self.degree}, 0)"
        body = ", ".join(f"{idx}: {c!r}" for idx, c in self.sorted_terms())
        return f"{name}({self.dim}, deg={self.degree}, {{{body}}})"


def _total(like: _AltTensor, degree: int, pieces) -> _AltTensor:
    """The sum of the tensors `pieces` of like's kind and index bound, in the
    given degree, each added once into one running sum."""
    acc = _Sum()
    for t in pieces:
        acc.add(t)
    return like._normal(like.dim, (degree, like.index_bound), acc.terms, acc.den)


class MultiVec(_AltTensor):
    """Polynomial-coefficient p-vector field on R^n."""

    def apply_to(self, f: Poly) -> Poly:
        """Apply a vector field (degree 1) to a function as a derivation."""
        if self.degree != 1:
            raise DegreeError("only degree-1 multivectors act on functions")
        return sum((c * f.partial(i) for (i,), c in self.terms.items()), Poly.zero(self.dim))


class Form(_AltTensor):
    """Polynomial-coefficient differential p-form on R^n."""

    @classmethod
    def d_of(cls, f: Poly) -> "Form":
        """df as a 1-form."""
        return cls(f.dim, 1, {(i,): f.partial(i) for i in range(1, f.dim + 1)})


# ----------------------------------------------------------------------
# operations


def _flips(t, flips):
    """t after each flip (i, into) of `flips` in turn."""
    for i, into in flips:
        t = _alt_flip(t, i, into)
    return t


def wedge(A, B):
    """Graded-commutative wedge product of two tensors of the same kind:
    for each term f xi_I of A, f xi_{i_1} (.. (xi_{i_p} B))."""
    if type(A) is not type(B):
        raise TypeError("wedge requires two multivectors or two forms")
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimensions differ: {A.dim} vs {B.dim}")
    if A.index_bound != B.index_bound:
        raise DimensionMismatchError(f"index bounds differ: {A.index_bound} vs {B.index_bound}")
    return _total(A, A.degree + B.degree, (_flips(B, [(i, True) for i in reversed(_indices(mask))])._times(f)
                                           for mask, f in A._coeffs().items()))


def exterior_d(omega: Form) -> Form:
    """De Rham differential; raises the degree by one and squares to zero.
    It is the Cartan differential of the tangent algebroid: identity anchor, no brackets."""
    if not isinstance(omega, Form):
        raise TypeError("exterior_d acts on forms")
    return _cartan(omega, [(a, [(a, 1)]) for a in range(1, omega.dim + 1)], {})


def _cartan(omega: _AltTensor, anchor_rows, brackets) -> _AltTensor:
    """The Cartan differential of a form over a frame, the homological vector field

        d = sum_a xi_a sigma(e_a) - sum_{a<b} c_{ab}^k xi_a xi_b d/dxi_k,

    sigma(e_a) = sum_i sigma_a^i d/dx_i acting on coefficients, from the
    nonzero entries (a, [(i, sigma_a^i)]) of ``anchor_rows`` and k -> [(a, b,
    c_{ab}^k)] of ``brackets``.  One pass over omega's terms f xi_K sums, per
    frame element a not in K, sum_i sigma_a^i d_i f, and per k in K and (a, b)
    repeating no index of K - {k}, -c_{ab}^k f; each sum then takes its flips
    once (xi_a; or d/dxi_k, xi_b, xi_a), so the cost grows with the nonzero terms.
    """
    chains = {}  # flips -> (mask, Poly) parts of the tensor they act on
    for mask, f in omega._coeffs().items():
        held = set(_indices(mask))
        partials = {}  # d_i f, taken once per term and only where an anchor entry needs it
        for a, entries in anchor_rows:
            if a in held or f.is_constant():
                continue
            val = None
            for i, s in entries:
                df = partials.get(i)
                if df is None:
                    df = partials[i] = f.partial(i)
                if not df.is_zero():
                    val = s * df if val is None else val + s * df
            if val is not None and not val.is_zero():
                chains.setdefault(((a, True),), []).append((mask, val))
        for k in held:
            for a, b, c in brackets.get(k, ()):
                if (a in held and a != k) or (b in held and b != k):
                    continue
                chains.setdefault(((k, False), (b, True), (a, True)), []).append((mask, -(c * f)))
    return _total(omega, omega.degree + 1, (_flips(omega._normal(omega.dim, omega.arity, *_summed(omega.dim, parts)), flips)
                                            for flips, parts in chains.items()))


def interior(X: MultiVec, omega: Form) -> Form:
    """Contraction of a vector field into the first slot of a form: sum_i X^i d omega / d xi_i."""
    if not (isinstance(X, MultiVec) and X.degree == 1):
        raise DegreeError("interior product needs a degree-1 multivector")
    if not isinstance(omega, Form):
        raise TypeError("interior product contracts a form")
    if X.dim != omega.dim:
        raise DimensionMismatchError(f"dimensions differ: {X.dim} vs {omega.dim}")
    if omega.degree == 0:
        raise DegreeError("cannot contract into a degree-0 form")
    return _contracted(omega, X)


def _contracted(t, v):
    """sum_i v^i dt/dxi_i for a degree-1 tensor v."""
    return _total(t, t.degree - 1, (_alt_flip(t, i, False)._times(c) for (i,), c in v.terms.items()))


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
    """Schouten-Nijenhuis bracket of multivector fields, the odd Poisson bracket

        [A, B] = sum_i (-1)^(a+1) dA/dxi_i ^ d_i B - d_i A ^ dB/dxi_i      (a = deg A),

    so that [X, Y] is the Lie bracket of vector fields (sign convention
    validated against the Leibniz/antisymmetry recursion in the test suite).
    """
    if not (isinstance(A, MultiVec) and isinstance(B, MultiVec)):
        raise TypeError("schouten bracket acts on multivectors")
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimensions differ: {A.dim} vs {B.dim}")
    degree = A.degree + B.degree - 1
    if degree < 0:  # [f, g] = 0 lives in degree -1; report as scalar zero
        return MultiVec.zero(A.dim, 0)
    sign = -1 if A.degree % 2 == 0 else 1
    pieces = []
    for i in range(1, A.dim + 1):
        for left, right, s in ((_alt_flip(A, i, False), B.partial(i), sign), (A.partial(i), _alt_flip(B, i, False), -1)):
            if not (left.is_zero() or right.is_zero()):
                pieces.append(wedge(left, right).scale(s))
    return _total(A, degree, pieces)


def anchor(pi: MultiVec, alpha: Form) -> MultiVec:
    """The anchor map: pi~(alpha)^j = sum_i alpha_i pi^{ij}, the vector field
    sum_i alpha_i dpi/dxi_i."""
    if not (isinstance(alpha, Form) and alpha.degree == 1):
        raise DegreeError("anchor applies to 1-forms")
    if pi.dim != alpha.dim:
        raise DimensionMismatchError("dimension mismatch in anchor")
    if pi.degree != 2:
        raise DegreeError("pi must be a bivector")
    return _contracted(pi, alpha)


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
    w (pis[0]~ dx_{j_1}) ^ .. ^ (pis[p-1]~ dx_{j_p}): slot s raised through
    pis[s], whose image of dx_j is dpis[s]/dxi_j."""
    pieces = []
    for J, w in omega.terms.items():
        t = MultiVec.from_poly(w)
        for pi, j in zip(pis, J):
            t = wedge(t, _alt_flip(pi, j, False))
        pieces.append(t)
    return _total(MultiVec.zero(omega.dim, 0), omega.degree, pieces)
