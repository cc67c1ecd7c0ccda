"""Polydifferential operators: application, slotwise composition, Hochschild calculus.

Operators are kept in normal form (all derivatives to the right of the
coefficient), so equality is structural: zero defect means an empty term map.
Sampling on polynomials appears only as an independent test oracle.

Every composition, and every sum of compositions (Hochschild coboundaries,
the order-by-order series products of ``starprod``), is summed in one
:class:`_OpAcc`: integer numerators keyed by order tuple and exponent tuple,
over one common denominator that is raised to the lcm when a coefficient with
a new denominator arrives.  No ``Poly`` is built per term pair; the result
gets one normalized ``Poly`` per order tuple that survives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, gcd, prod
from operator import add

from .errors import ArityMismatchError, DimensionMismatchError
from .kernel import Poly, _PolyMap, _add_term, _reduced


def _zero_mi(dim):
    return (0,) * dim


class PolyDiffOp(_PolyMap):
    """Operator in k arguments: (f_1..f_k) -> sum coeff * d^{a_1}f_1 ... d^{a_k}f_k.

    ``terms`` maps k-tuples of multi-indices (each of length dim) to nonzero
    Poly coefficients.

    The public constructor checks and normalizes its input.  Internal code that
    builds a term map which is already clean (keys are ``arity``-tuples of
    length-``dim`` tuples of non-negative ints, values are nonzero ``Poly`` of
    dimension ``dim``) wraps it with :meth:`_make`, which skips those checks and
    takes ownership of the dict.
    """

    __slots__ = ("dim", "arity", "terms")
    _shape = (
        ("dim", DimensionMismatchError, "operator dimensions differ"),
        ("arity", ArityMismatchError, "operator arities differ"),
    )

    def __init__(self, dim: int, arity: int, terms=None):
        if arity < 1:
            raise ArityMismatchError("arity must be >= 1")
        self.dim = dim
        self.arity = arity
        clean = {}
        if terms:
            for orders, coeff in terms.items():
                orders = tuple(tuple(o) for o in orders)
                if len(orders) != arity:
                    raise ArityMismatchError(f"order tuple {orders} has arity != {arity}")
                for o in orders:
                    if len(o) != dim or not all(type(e) is int and e >= 0 for e in o):
                        raise DimensionMismatchError(f"bad multi-index {o} for dim {dim}")
                if isinstance(coeff, (int, Fraction)):
                    coeff = Poly.const(dim, coeff)
                if coeff.dim != dim:
                    raise DimensionMismatchError("coefficient dimension mismatch")
                if not coeff.is_zero():
                    _add_term(clean, orders, coeff)
        self.terms = clean

    @classmethod
    def _make(cls, dim: int, arity: int, terms: dict) -> "PolyDiffOp":
        """Wrap a term map that is clean by construction (see the class docstring)."""
        op = object.__new__(cls)
        op.dim = dim
        op.arity = arity
        op.terms = terms
        return op

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, dim, arity):
        return cls(dim, arity)

    @classmethod
    def identity(cls, dim):
        """The arity-1 identity operator."""
        return cls(dim, 1, {(_zero_mi(dim),): Poly.one(dim)})

    @classmethod
    def multiplication(cls, dim, arity=2):
        """(f_1..f_k) -> f_1 * ... * f_k."""
        return cls(dim, arity, {(_zero_mi(dim),) * arity: Poly.one(dim)})

    @classmethod
    def partial(cls, dim, index):
        """The arity-1 operator d/dx_index."""
        o = [0] * dim
        o[index - 1] = 1
        return cls(dim, 1, {(tuple(o),): Poly.one(dim)})

    def max_order(self):
        """Largest |alpha| over all slots and terms (0 for the zero operator)."""
        best = 0
        for orders in self.terms:
            for o in orders:
                best = max(best, sum(o))
        return best

    def total_order(self):
        """Largest total order (summed over slots) of any term."""
        best = 0
        for orders in self.terms:
            best = max(best, sum(sum(o) for o in orders))
        return best

    def _with_terms(self, terms):
        return PolyDiffOp._make(self.dim, self.arity, terms)

    def __repr__(self):
        return f"PolyDiffOp(dim={self.dim}, arity={self.arity}, {len(self.terms)} terms)"


# ----------------------------------------------------------------------


def apply_op(D: PolyDiffOp, *args: Poly) -> Poly:
    """Exact evaluation on polynomial arguments."""
    if len(args) != D.arity:
        raise ArityMismatchError(f"operator arity {D.arity}, got {len(args)} arguments")
    for f in args:
        if f.dim != D.dim:
            raise DimensionMismatchError("argument dimension mismatch")
    out = Poly.zero(D.dim)
    for orders, coeff in D.terms.items():
        term = coeff
        dead = False
        for o, f in zip(orders, args):
            df = f.partial_multi(o)
            if df.is_zero():
                dead = True
                break
            term = term * df
        if not dead:
            out = out + term
    return out


def _exponent_cap(op: PolyDiffOp):
    """The largest exponent of each coordinate over all coefficients of `op`.

    A derivative of order gamma with gamma_c > cap_c in some coordinate c kills
    every coefficient of `op`.
    """
    cap = [0] * op.dim
    for coeff in op.terms.values():
        for exps in coeff.exponents():
            cap = list(map(max, cap, exps))
    return cap


def _splittings(alpha, parts, cap):
    """Yield (multinomial coefficient, tuple of `parts` multi-indices summing to alpha),
    leaving out those whose first part exceeds `cap` in some coordinate.

    The multinomial coefficient is prod_coords alpha_c! / prod_j gamma_{j,c}!.
    alpha must be nonempty.  The splittings kept come in the same order as
    without a cap.
    """
    per_coord = [list(_compositions_with_coeff(a, parts, c)) for a, c in zip(alpha, cap)]
    for combo in product(*per_coord):
        coeffs, comps = zip(*combo)
        # comps[c][j] is the share of coordinate c given to part j
        yield prod(coeffs), tuple(zip(*comps))


def _compositions_with_coeff(total, parts, first_max=None):
    """All ordered decompositions of `total` into `parts` non-negative ints whose
    first part is at most `first_max` (no bound when None), with their
    multinomial coefficients."""
    if parts == 1:
        yield 1, (total,)
        return
    top = total if first_max is None else min(total, first_max)
    for first in range(top + 1):
        c0 = comb(total, first)
        for c, rest in _compositions_with_coeff(total - first, parts - 1):
            yield c0 * c, (first,) + rest


def _derivative_of(alpha, inner: PolyDiffOp, cap) -> dict:
    """The term map of d^alpha o inner, expanded by the Leibniz rule.

    d^alpha (c * prod_l d^{beta_l} g_l) distributes alpha over the coefficient
    (part 0) and the arity(inner) argument factors.  `cap` is
    _exponent_cap(inner): a coefficient share above it differentiates every
    coefficient to zero, so those splittings are never formed.
    """
    if not any(alpha):
        return inner.terms
    out = {}
    for mult, gammas in _splittings(alpha, inner.arity + 1, cap):
        gamma0, rest = gammas[0], gammas[1:]
        for i_orders, i_coeff in inner.terms.items():
            dcoeff = i_coeff.partial_multi(gamma0)
            if dcoeff.is_zero():
                continue
            orders = tuple(tuple(map(add, beta, gamma)) for beta, gamma in zip(i_orders, rest))
            _add_term(out, orders, dcoeff * mult if mult != 1 else dcoeff)
    return out


class _OpAcc:
    """A running sum of operators of one dimension over one common denominator.

    ``terms`` maps order tuples to ``{exps: int numerator}`` and ``den`` is one
    positive int, so the sum is sum(n x^exps d^orders) / den.  A product of two
    coefficients is added monomial pair by monomial pair, each one tuple add
    and one int multiply-add; a numerator that cancels is dropped.  A
    coefficient whose denominator does not divide ``den`` first rescales every
    stored numerator once, raising ``den`` to the lcm; ``den`` at least doubles
    each time, so that happens at most log2(final den) times.  Coefficients
    become ``Poly`` objects only in :meth:`op`.
    """

    __slots__ = ("dim", "terms", "den")

    def __init__(self, dim: int):
        self.dim = dim
        self.terms = {}
        self.den = 1

    def _add(self, key, left, right, d: int, sign: int) -> None:
        """Add sign * sum(n1 * n2 * x^(e1 + e2)) / d at order tuple `key`, the sum
        over the (exps, numerator) pairs (e1, n1) of `left` and (e2, n2) of `right`."""
        den = self.den
        if den % d:
            f = d // gcd(den, d)
            for sub in self.terms.values():
                for e in sub:
                    sub[e] *= f
            den = self.den = den * f
        m = den // d * sign
        sub = self.terms.get(key)
        if sub is None:
            sub = self.terms[key] = {}
        for e1, n1 in left:
            n1 *= m
            for e2, n2 in right:
                e = tuple(map(add, e1, e2))
                v = sub.get(e, 0) + n1 * n2
                if v:
                    sub[e] = v
                else:
                    del sub[e]

    def add_op(self, op: PolyDiffOp, sign: int = 1) -> None:
        """Add sign * op."""
        one = (((0,) * self.dim, 1),)
        for orders, c in op.terms.items():
            self._add(orders, one, c._num.items(), c._den, sign)

    def add_compose(self, outer: PolyDiffOp, slot: int, inner: PolyDiffOp, sign: int = 1,
                    expanded: dict | None = None) -> None:
        """Add sign * compose_into_slot(outer, slot, inner); the arguments must
        already be checked.

        `expanded` maps alpha to the term map of d^alpha o inner; entries missing
        from it are computed and added.  A caller that composes the same inner
        operator several times (into other outers, other slots, other orders)
        passes one dict for that inner operator to every such call.  The caller
        owns it: one dict per inner operator, never shared between two inner
        operators, and dropped when the caller's own call returns.  Its values
        are read-only (the alpha = 0 entry is inner.terms itself).  By default
        the dict is local to this call.
        """
        if expanded is None:
            expanded = {}
        j = slot - 1
        cap = None
        for o_orders, o_coeff in outer.terms.items():
            alpha = o_orders[j]
            d_inner = expanded.get(alpha)
            if d_inner is None:
                if cap is None:
                    cap = _exponent_cap(inner)
                d_inner = expanded[alpha] = _derivative_of(alpha, inner, cap)
            head, tail = o_orders[:j], o_orders[j + 1 :]
            o_num, o_den = o_coeff._num.items(), o_coeff._den
            for orders, c in d_inner.items():
                self._add(head + orders + tail, o_num, c._num.items(), o_den * c._den, sign)

    def op(self, arity: int) -> PolyDiffOp:
        """The sum as an operator of `arity` arguments, one normalized ``Poly``
        per order tuple left nonzero; the accumulator is empty afterwards."""
        dim, den, terms = self.dim, self.den, self.terms
        self.terms, self.den = {}, 1
        return PolyDiffOp._make(dim, arity, {orders: _reduced(dim, sub, den)
                                             for orders, sub in terms.items() if sub})


def compose_into_slot(outer: PolyDiffOp, slot: int, inner: PolyDiffOp) -> PolyDiffOp:
    """Plug `inner` into argument slot `slot` (1-based) of `outer`.

    The derivative falling on inner's output is expanded by the multivariate
    Leibniz rule with multinomial coefficients, so the result is again in
    normal form and the identity
    apply(result, args) = apply(outer, ..., apply(inner, middle args), ...)
    holds for all polynomial arguments.
    """
    if not 1 <= slot <= outer.arity:
        raise ArityMismatchError(f"slot {slot} out of range 1..{outer.arity}")
    if outer.dim != inner.dim:
        raise DimensionMismatchError("operator dimensions differ")
    acc = _OpAcc(outer.dim)
    acc.add_compose(outer, slot, inner)
    return acc.op(outer.arity + inner.arity - 1)


def transpose(P: PolyDiffOp) -> PolyDiffOp:
    """Swap the two argument slots of an arity-2 operator."""
    if P.arity != 2:
        raise ArityMismatchError("transpose needs arity 2")
    return PolyDiffOp._make(P.dim, 2, {(b, a): c for (a, b), c in P.terms.items()})


def transpose_parts(P: PolyDiffOp):
    """Symmetrization and skew-symmetrization: sym + skew = P."""
    if P.arity != 2:
        raise ArityMismatchError("transpose_parts needs arity 2")
    Pt = transpose(P)
    half = Fraction(1, 2)
    sym = (P + Pt).scale(half)
    skew = (P - Pt).scale(half)
    return sym, skew


def hochschild_delta(Q: PolyDiffOp) -> PolyDiffOp:
    """The Hochschild coboundary of an arity-1 operator:
    dQ(f,g) = Q(fg) - Q(f)g - fQ(g), as an exact operator identity."""
    if Q.arity != 1:
        raise ArityMismatchError("hochschild_delta needs arity 1")
    mul = PolyDiffOp.multiplication(Q.dim)
    acc = _OpAcc(Q.dim)
    acc.add_compose(Q, 1, mul)
    acc.add_compose(mul, 1, Q, -1)
    acc.add_compose(mul, 2, Q, -1)
    return acc.op(2)


def cocycle_defect(P: PolyDiffOp) -> PolyDiffOp:
    """The degree-2 Hochschild cocycle condition of an arity-2 operator:
    (f,g,h) -> f P(g,h) - P(fg,h) + P(f,gh) - P(f,g) h."""
    if P.arity != 2:
        raise ArityMismatchError("cocycle_defect needs arity 2")
    mul = PolyDiffOp.multiplication(P.dim)
    acc = _OpAcc(P.dim)
    acc.add_compose(mul, 2, P)
    acc.add_compose(P, 1, mul, -1)
    acc.add_compose(P, 2, mul)
    acc.add_compose(mul, 1, P, -1)
    return acc.op(3)


def partial_apply(D: PolyDiffOp, slot: int, f: Poly) -> PolyDiffOp:
    """Fill one argument slot with a fixed polynomial (arity drops by one)."""
    if D.arity < 2:
        raise ArityMismatchError("partial_apply needs arity >= 2")
    if not 1 <= slot <= D.arity:
        raise ArityMismatchError(f"slot {slot} out of range 1..{D.arity}")
    if f.dim != D.dim:
        raise DimensionMismatchError("argument dimension mismatch")
    j = slot - 1
    out = {}
    for orders, coeff in D.terms.items():
        df = f.partial_multi(orders[j])
        if df.is_zero():
            continue
        _add_term(out, orders[:j] + orders[j + 1 :], coeff * df)
    return PolyDiffOp._make(D.dim, D.arity - 1, out)


def find_nonzero_args(D: PolyDiffOp):
    """A tuple of monomials on which a nonzero operator evaluates nonzero.

    Take a term whose order tuple alpha is minimal in the componentwise order
    (one of least total order is) and pass x^{alpha_j} in slot j.  Every other
    term has a slot whose derivative kills its argument, so the value is
    c_alpha * prod_j alpha_j!, which is nonzero.
    """
    if D.is_zero():
        return None
    alpha = min(D.terms, key=lambda orders: (sum(map(sum, orders)), orders))
    return tuple(Poly.monomial(D.dim, a) for a in alpha)
