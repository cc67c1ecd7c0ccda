"""Truncated star products and their gauge theory.

Everything is truncated at a fixed order N: star products are P_1..P_N
(bidifferential operators, P_0 = multiplication), gauge operators are
R = 1 + sum R_i t^i, and all cited identities are checked order by order as
exact operator identities in normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from operator import attrgetter

from .calculus import MultiVec, _perm_sign
from .diffop import (
    PolyDiffOp,
    _OpAcc,
    apply_op,
    compose_into_slot,
    find_nonzero_args,
    hochschild_delta,
    partial_apply,
    solve_coboundary,
    transpose,
    transpose_parts,
)
from .errors import (
    DegreeError,
    DimensionMismatchError,
    OrderMismatchError,
    PreconditionError,
)
from .kernel import MAX_PACKED, Poly, TPoly, _add_products, _check_budget, _over_budget, _summed
from .poisson import bracket, hamiltonian


class _OpSeries:
    """A truncated t-series X_0 + sum_{k=1..N} X_k t^k of polydifferential
    operators whose order-0 term X_0 is a fixed unit.

    A subclass declares three class attributes: ``key``, the letter naming
    X_1..X_N in messages and in documents; ``arity``, the arity every X_k
    must have; and ``unit``, the constructor of X_0 from ``dim``.
    """

    __slots__ = ("dim", "order", "ops")

    def __init__(self, dim: int, order: int, ops):
        key = self.key
        if order < 1:
            raise OrderMismatchError("truncation order must be >= 1")
        ops = tuple(ops)
        if len(ops) != order:
            raise OrderMismatchError(f"need {order} operators {key}_1..{key}_{order}, got {len(ops)}")
        for op in ops:
            if op.dim != dim:
                raise DimensionMismatchError(f"{key}_i dimension mismatch")
            if op.arity != self.arity:
                raise DegreeError(f"{key}_i must have arity {self.arity}")
        self.dim = dim
        self.order = order
        self.ops = ops

    def op(self, k: int) -> PolyDiffOp:
        """X_k, with X_0 the unit (built afresh on every call)."""
        if k == 0:
            return self.unit(self.dim)
        return self.ops[k - 1]

    def _act(self, *args: TPoly) -> TPoly:
        """sum_k t^k sum_{l+|i|=k} X_l(args_i) mod t^{N+1}, with X_0 the unit and
        args_i the arguments' coefficients at the t-orders i = (i_1, ..)."""
        coeffs = [a.coeffs for a in args]
        parts = []  # (t-degree, Poly), summed once
        for k in range(self.order + 1):
            for l in range(k + 1):
                X = self.op(l)
                if X.is_zero():
                    continue
                for i in product(range(k - l + 1), repeat=len(args)):
                    if sum(i) != k - l:
                        continue
                    cs = [c[j] for c, j in zip(coeffs, i)]
                    if not any(c.is_zero() for c in cs):
                        parts.append((k, apply_op(X, *cs)))
        return TPoly._normal(self.dim, self.order, *_summed(self.dim, parts))

    @classmethod
    def zero(cls, dim: int, order: int):
        """The series of the unit alone: every X_k with k >= 1 is zero."""
        return cls(dim, order, [PolyDiffOp.zero(dim, cls.arity) for _ in range(order)])

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return (self.dim, self.order, self.ops) == (other.dim, other.order, other.ops)

    def __hash__(self):
        return hash((self.dim, self.order, self.ops))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, order={self.order})"


class StarProduct(_OpSeries):
    """f * g = fg + sum_{i=1..N} P_i(f,g) t^i, truncated at order N."""

    __slots__ = ()
    key = "P"
    arity = 2
    unit = PolyDiffOp.multiplication
    P = property(attrgetter("ops"))
    commutative = classmethod(_OpSeries.zero.__func__)


class GaugeOp(_OpSeries):
    """R = 1 + sum_{i=1..N} R_i t^i with R_i differential operators (arity 1)."""

    __slots__ = ()
    key = "R"
    arity = 1
    unit = PolyDiffOp.identity
    R = property(attrgetter("ops"))
    identity_gauge = classmethod(_OpSeries.zero.__func__)

    @classmethod
    def from_vector_field(cls, xi: MultiVec, order: int) -> "GaugeOp":
        """R_xi = 1 + xi t."""
        ops = [PolyDiffOp.zero(xi.dim, 1) for _ in range(order)]
        ops[0] = multiderivation(xi)
        return cls(xi.dim, order, ops)

    def apply(self, f: TPoly) -> TPoly:
        """(R f)_k = sum_{i+j=k} R_i(f_j)."""
        if f.order != self.order or f.dim != self.dim:
            raise OrderMismatchError("gauge operator and argument disagree")
        return self._act(f)

    def apply_poly(self, f: Poly) -> TPoly:
        """The standard section determined by R: f -> sum R_i(f) t^i."""
        return self.apply(TPoly.from_poly(f, self.order))


def multiderivation(T: MultiVec) -> PolyDiffOp:
    """The p-vector T as an operator of arity p (the Hochschild-Kostant-Rosenberg map):

    (f_1..f_p) -> sum_I T^I sum_s sgn(s) d_{s(I)_1} f_1 ... d_{s(I)_p} f_p,

    over the orderings s of each index tuple I.  A vector field is the
    derivation f -> xi(f), and a bivector c the biderivation
    (f,g) -> sum_{i<j} c^{ij} (d_i f d_j g - d_j f d_i g).
    """
    n = T.dim
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    terms = {}
    for idx, c in T.terms.items():
        for s in permutations(idx):
            terms[tuple(unit[i - 1] for i in s)] = c if _perm_sign(s) > 0 else -c
    return PolyDiffOp(n, T.degree, terms)


def _multivector_of(D: PolyDiffOp):
    """The p-vector T with multiderivation(T) == D for an operator D of arity
    p, or None if D is not a multiderivation.

    T^I is read off D's coefficient of d_{i1} (x) ... (x) d_{ip}, i1 < ... < ip.
    """
    terms = {}
    for orders, c in D.terms.items():
        if all(sum(o) == 1 for o in orders):
            idx = tuple(o.index(1) + 1 for o in orders)
            if all(a < b for a, b in zip(idx, idx[1:])):
                terms[idx] = c
    T = MultiVec(D.dim, D.arity, terms)
    return T if multiderivation(T) == D else None


@dataclass(frozen=True)
class Sigma1:
    """Class of the special standard section 1 + xi t modulo t^2, over its
    base star product."""

    base: StarProduct
    xi: MultiVec

    def __post_init__(self):
        if not is_special(self.base):
            raise PreconditionError("Sigma1 requires a special base star product")
        if self.xi.degree != 1 or self.xi.dim != self.base.dim:
            raise DegreeError("Sigma1 class must be a vector field of matching dimension")

    def gauge(self) -> GaugeOp:
        """The standard section's gauge R = 1 + xi t."""
        return GaugeOp.from_vector_field(self.xi, self.base.order)


# ----------------------------------------------------------------------
# core operations


def star_mul(S: StarProduct, a: TPoly, b: TPoly) -> TPoly:
    """a * b mod t^{N+1}."""
    if a.order != S.order or b.order != S.order:
        raise OrderMismatchError("operand truncation orders must match the product")
    if a.dim != S.dim or b.dim != S.dim:
        raise DimensionMismatchError("operand dimensions must match the product")
    return S._act(a, b)


def star_commutator(S: StarProduct, a: TPoly, b: TPoly) -> TPoly:
    return star_mul(S, a, b) - star_mul(S, b, a)


def moyal(pi: MultiVec, order: int) -> StarProduct:
    """The Weyl-Moyal product of a constant bivector:

    P_k(f,g) = 1/(2^k k!) sum pi^{i1 j1}..pi^{ik jk} d_{i..}f d_{j..}g.

    Special and associative; the standard witness that star products exist.
    P_k is built from its symbol (B/2)^k / k!, B = sum pi^{ij} xi_i eta_j, as
    P_k = P_{k-1} B / (2k): one product per order over the 2n symbols.
    """
    if pi.degree != 2:
        raise DegreeError("moyal needs a bivector")
    if order > MAX_PACKED:
        raise _over_budget(order)
    for (i, j), c in pi.terms.items():
        if not c.is_constant():
            raise PreconditionError(f"moyal needs constant coefficients; pi^{(i,j)} = {c!r}")
    # B is the operator of pi's biderivation, with constant coefficients, and
    # the key of a product of two such terms is the sum of their keys
    B = multiderivation(pi)
    num, den = {0: 1}, 1  # P_0, multiplication
    ops = []
    for k in range(1, order + 1):
        terms = {}
        _add_products(terms, num.items(), B._num.items())
        _check_budget(terms, 3 * pi.dim)
        P = PolyDiffOp._normal(pi.dim, 2, terms, den * 2 * k * B._den)
        ops.append(P)
        num, den = P._num, P._den
    return StarProduct(pi.dim, order, ops)


def unitality_defects(S: StarProduct):
    """Orders at which P_i(1,.) or P_i(.,1) fails to vanish, as operators."""
    one = Poly.one(S.dim)
    out = []
    for k in range(1, S.order + 1):
        left = partial_apply(S.op(k), 1, one)
        right = partial_apply(S.op(k), 2, one)
        if not (left.is_zero() and right.is_zero()):
            out.append((k, left, right))
    return out


def gauge_unitality_defects(R: GaugeOp):
    """Orders at which R_i(1) != 0, with the offending value."""
    one = Poly.one(R.dim)
    out = []
    for k in range(1, R.order + 1):
        val = apply_op(R.op(k), one)
        if not val.is_zero():
            out.append((k, val))
    return out


def _assoc_defects(S: StarProduct):
    """Yield D_1, D_2, ... (see assoc_defect) one t-order at a time.

    The four terms with P_0 = multiplication (i = 0 and i = k) are -delta(P_k),
    added in closed form by diffop._OpAcc.add_coboundary, so only 0 < i < k is
    composed.  For each such i the slot-2 term P_i o_2 P_{k-i} is subtracted
    right after the slot-1 term P_i o_1 P_{k-i} is added, so terms that cancel
    leave the sum before the next i adds more.
    """
    P = (None, *S.P)  # P_0 = multiplication is never composed
    acc = _OpAcc(S.dim)  # one handle per P_i, shared by both slots and every order
    for k in range(1, S.order + 1):
        acc.add_coboundary(P[k], -1)
        for i in range(1, k):
            acc.add_compose(P[i], 1, P[k - i])
            acc.add_compose(P[i], 2, P[k - i], -1)
        yield acc.op(3)


def assoc_defect(S: StarProduct):
    """Order-by-order associativity defects, one arity-3 operator per t-order:

    D_k = sum_{i+j=k} P_i(P_j(f,g), h) - P_i(f, P_j(g,h)),  P_0 = multiplication,
        = -delta(P_k) + sum_{0<i<k} P_i(P_{k-i}(f,g), h) - P_i(f, P_{k-i}(g,h)),

    with delta the Hochschild coboundary (Gerstenhaber 1964): the terms with P_0
    are -delta(P_k).  S is associative iff every D_k is structurally zero.
    """
    return list(_assoc_defects(S))


def is_associative(S: StarProduct) -> bool:
    """Whether every D_k is zero; stops at the first order whose defect is not."""
    return all(D.is_zero() for D in _assoc_defects(S))


def is_special(S: StarProduct) -> bool:
    """Special: P_1 skew-symmetric."""
    sym, _ = transpose_parts(S.op(1))
    return sym.is_zero()


def assoc_poisson(S: StarProduct) -> MultiVec:
    """The associated Poisson bivector: value on (dx_i, dx_j) is
    P_1(x_i,x_j) - P_1(x_j,x_i)."""
    P1 = S.op(1)
    skew2 = P1 - transpose(P1)  # 2 * skew part
    # a biderivation's value on (x_i, x_j) is its coefficient of d_i (x) d_j
    result = _multivector_of(skew2)
    if result is None:
        raise PreconditionError(
            "skew part of P_1 is not a biderivation", witness=skew2
        )
    return result


def _convolve(acc: _OpAcc, k: int, outer, slot: int, inner, sign=1) -> None:
    """Add sign * sum_{0<i<k} outer[i] o_slot inner[k-i] into the call's one
    composition sum `acc`: the order-k coefficient of a product of two
    operator series but for its two terms with a unit X_0, which every caller
    adds in closed form.  `outer` and `inner` are operators indexed by
    t-order; index 0 is not read.
    """
    for i in range(1, k):
        X, Y = outer[i], inner[k - i]
        if not (X.is_zero() or Y.is_zero()):
            acc.add_compose(X, slot, Y, sign)


def gauge_transform(S: StarProduct, R: GaugeOp) -> StarProduct:
    """The unique S' with R(f *' g) = R(f) * R(g) as exact operator identities:

    P'_k = sum_{i+j+l=k} P_i(R_j ., R_l .) - sum_{i=1..k} R_i o P'_{k-i}.

    Composition is linear in the outer operator, so the triple sum is
    V_k = sum_{m+l=k} U_m o_2 R_l with U_m = sum_{i+j=m} P_i o_1 R_j.  No term
    with P_0 = multiplication is composed: P_0 o_1 R_k = R_k(f) g is R_k's own
    map (slot 2 of order 0), which U_k keeps for later orders, and the other
    two, U_0 o_2 R_k - R_k o_1 P'_0 = f R_k(g) - R_k(fg), are delta(R_k) minus
    that map, added in closed form by diffop._OpAcc.add_coboundary; so both
    convolutions run over 0 < i < k only.
    """
    if (S.dim, S.order) != (R.dim, R.order):
        raise OrderMismatchError("gauge operator must match the star product")
    P, Rs = (None, *S.P), (None, *R.R)  # index 0, the unit, is never composed
    U = [None]  # U_0 = P_0
    new_P = [None]  # P'_0 = P_0
    acc = _OpAcc(S.dim)
    for k in range(1, S.order + 1):
        acc.add(P[k])  # P_k o_1 R_0 = P_k
        acc.add(Rs[k])  # P_0 o_1 R_k = R_k(f) g
        _convolve(acc, k, P, 1, Rs)
        U.append(acc.op(2))
        acc.add(U[k])  # U_k o_2 R_0 = U_k
        acc.add_coboundary(Rs[k])  # f R_k(g) - R_k(fg) = delta(R_k) - R_k(f) g
        acc.add(Rs[k], -1)
        _convolve(acc, k, U, 2, Rs)
        _convolve(acc, k, Rs, 1, new_P, -1)
        new_P.append(acc.op(2))
    return StarProduct(S.dim, S.order, new_P[1:])


def invert_gauge(R: GaugeOp) -> GaugeOp:
    """Two-sided inverse mod t^{N+1}: the unique Q with R o Q = 1, order by order:

    Q_k = -sum_{i=1..k} R_i o Q_{k-i},  Q_0 = 1.

    In the group 1 + tD[[t]] a right inverse is also a left inverse.
    """
    Rs = (None, *R.R)  # index 0, R_0 = 1, is never composed
    Q = [None]  # Q_0 = 1, then each Q_k, composed at every later order
    acc = _OpAcc(R.dim)
    for k in range(1, R.order + 1):
        acc.add(Rs[k], -1)  # -R_k o Q_0 = -R_k
        _convolve(acc, k, Rs, 1, Q, -1)
        Q.append(acc.op(1))
    return GaugeOp(R.dim, R.order, Q[1:])


def exp_gauge(Q: PolyDiffOp, order: int) -> GaugeOp:
    """Truncated exp(tQ): R_i = Q^i / i!."""
    if Q.arity != 1:
        raise DegreeError("exp_gauge needs an arity-1 generator")
    ops = [Q]
    power = Q
    acc = _OpAcc(Q.dim)  # Q's one handle serves every power
    for i in range(2, order + 1):
        acc.add_compose(Q, 1, power)
        power = acc.op(1)
        ops.append(power.scale(Fraction(1, factorial(i))))
    return GaugeOp(Q.dim, order, ops)


# ----------------------------------------------------------------------
# specialization (Hochschild coboundary solve)


def specialize(S: StarProduct, degree_bound: int) -> GaugeOp:
    """A gauge R = exp(tQ) with gauge_transform(S, R) special.

    Q solves the Hochschild coboundary equation delta Q = sym(P_1) over
    operators x^e d^alpha with polynomial coefficient degree |e| <= degree_bound,
    by diffop.solve_coboundary, which reads each unknown off its own row and
    raises SolveError with the residual sym(P_1) - delta Q when it is not zero.
    """
    if not is_associative(S):
        raise PreconditionError("specialize requires an associative star product")
    sym, _ = transpose_parts(S.op(1))
    if sym.is_zero():
        return GaugeOp.identity_gauge(S.dim, S.order)
    return exp_gauge(solve_coboundary(sym, degree_bound), S.order)


# ----------------------------------------------------------------------
# Sigma_1, subprincipal curvature, inner automorphisms


def sigma1_class(S: StarProduct, R: GaugeOp) -> Sigma1:
    """Extract the class of the section R~ special relative to S; it is R_1,
    which the speciality forces to be a derivation.

    delta(x^e d^alpha) with |alpha| != 1 is nonzero on rows that no other term
    of R_1 shares, so an R_1 that is not a vector field has delta R_1 != 0,
    and the witness is read off that defect.
    """
    if (S.dim, S.order) != (R.dim, R.order):
        raise OrderMismatchError("section gauge must match its base star product")
    if not is_special(S):
        raise PreconditionError("Sigma1 classes live over a special base")
    R1 = R.op(1)
    xi = _multivector_of(R1)
    if xi is None:
        witness = find_nonzero_args(hochschild_delta(R1))
        raise PreconditionError(
            "section is not special: R_1 is not a derivation",
            witness=(witness[0], witness[1]),
        )
    return Sigma1(S, xi)


def sigma1_act(phi: Sigma1, xi: MultiVec) -> Sigma1:
    """The torsor action: phi + xi."""
    if xi.dim != phi.base.dim or xi.degree != 1:
        raise DegreeError("action argument must be a matching vector field")
    return Sigma1(phi.base, phi.xi + xi)


def subprincipal(S: StarProduct, R: GaugeOp) -> MultiVec:
    """The subprincipal curvature of the special section phi = R~:

    c(phi)(f,g) = [coeff of t^2 in phi(f)*phi(g) - phi(g)*phi(f)]
                - [coeff of t^1 in phi({f,g})],

    assembled into a bivector from values on coordinate pairs.  With *' the
    gauged product, phi(f)*phi(g) = R(f *' g), and P'_1 keeps P_1's skew part,
    so the R_1{f,g} terms cancel: c(phi)(x_i, x_j) = P'_2(x_i, x_j) - P'_2(x_j, x_i).
    """
    if (S.dim, S.order) != (R.dim, R.order):
        raise OrderMismatchError("section gauge must match its base star product")
    if S.order < 2:
        raise OrderMismatchError("subprincipal curvature needs truncation order >= 2")
    gauged = gauge_transform(S, R)
    sym, _ = transpose_parts(gauged.op(1))
    if not sym.is_zero():
        witness = find_nonzero_args(sym)
        raise PreconditionError(
            "section is not special: induced P_1 has a symmetric part",
            witness=witness,
        )
    assoc_poisson(S)  # refuses a P_1 whose skew part is not a biderivation
    P2 = gauged.op(2)
    return _on_coordinate_pairs(P2 - transpose(P2))


def _on_coordinate_pairs(D: PolyDiffOp) -> MultiVec:
    """The bivector with c^{ij} = D(x_i, x_j) for i < j."""
    n = D.dim
    xs = [Poly.variable(n, i) for i in range(1, n + 1)]
    return MultiVec(n, 2, {(i, j): apply_op(D, xs[i - 1], xs[j - 1])
                           for i in range(1, n + 1) for j in range(i + 1, n + 1)})


def ad_exp(S: StarProduct, alpha: TPoly, b: TPoly) -> TPoly:
    """Ad(exp alpha)(b) = sum_i (ad alpha)^i(b) / i!, finite by truncation."""
    if alpha.order != S.order or b.order != S.order:
        raise OrderMismatchError("operands must match the star product order")
    acc = b
    term = b
    for i in range(1, S.order + 1):
        term = star_commutator(S, alpha, term)
        if term.is_zero():
            break
        acc = acc + term * Fraction(1, factorial(i))
    return acc


def sigma1_of_ad(alpha: TPoly, phi: Sigma1) -> Sigma1:
    """The class of f -> Ad(exp alpha)(phi(f)) over phi's base, checked to
    equal phi + X_{sigma(alpha)} (the Hamiltonian field of the classical part).

    Raises PreconditionError when the class is not a derivation or the check
    fails: either means the sign or ordering conventions broke.
    """
    S = phi.base
    n = S.dim
    pi = assoc_poisson(S)
    R = phi.gauge()
    xs = [Poly.variable(n, i) for i in range(1, n + 1)]
    vals = [ad_exp(S, alpha, R.apply_poly(x)).coeff(1) for x in xs]
    extracted = MultiVec(n, 1, {(i,): v for i, v in enumerate(vals, start=1)})
    # derivation sanity on quadratic monomials
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            got = ad_exp(S, alpha, R.apply_poly(xs[i - 1] * xs[j - 1])).coeff(1)
            want = xs[i - 1] * vals[j - 1] + xs[j - 1] * vals[i - 1]
            if got != want:
                raise PreconditionError(
                    "inner automorphism class is not a derivation; convention breakage",
                    witness=xs[i - 1] * xs[j - 1],
                )
    expected = sigma1_act(phi, hamiltonian(pi, alpha.sigma))
    if extracted != expected.xi:
        raise PreconditionError(
            "Sigma1(Ad exp alpha) disagrees with phi + X_{sigma(alpha)}; convention breakage",
            witness=extracted,
        )
    return expected


# ----------------------------------------------------------------------
# bimodules and the contravariant connection


class BimoduleModel:
    """Free rank-one bimodule twisted by an algebra isomorphism.

    star1 is A_1; G encodes Phi: A_0 -> A_1 with A_0 = gauge_transform(star1, G);
    the bimodule action is a.m.b = a *1 m *1 Phi(b).  phi0 and phi1 are the
    Sigma1 classes of the vector fields xi0 over A_0 and xi1 over A_1.
    """

    __slots__ = ("star1", "G", "phi0", "phi1")

    def __init__(self, star1: StarProduct, G: GaugeOp, xi0: MultiVec, xi1: MultiVec):
        self.star1 = star1
        self.G = G
        self.phi0 = Sigma1(gauge_transform(star1, G), xi0)
        self.phi1 = Sigma1(star1, xi1)

    @property
    def star0(self) -> StarProduct:
        """A_0 = gauge_transform(star1, G), built once by the constructor."""
        return self.phi0.base


def contravariant_nabla(M: BimoduleModel, f: Poly, m: Poly) -> Poly:
    """nabla_{df}(m): coefficient of t^1 in phi1(f) *1 m - m *1 Phi(phi0(f))."""
    S1 = M.star1
    if S1.order < 2:
        raise OrderMismatchError("the bimodule connection needs truncation order >= 2")
    if f.dim != S1.dim or m.dim != S1.dim:
        raise DimensionMismatchError("argument dimension mismatch")
    return apply_op(nabla_operator(M, f), m)


def nabla_operator(M: BimoduleModel, f: Poly) -> PolyDiffOp:
    """nabla_{df} as an arity-1 operator in the module argument:

    P_1(f, .) - P_1(., f) + (xi1(f) - xi0(f) - G_1(f)) * id.
    """
    S1 = M.star1
    P1 = S1.op(1)
    op = partial_apply(P1, 1, f) - partial_apply(P1, 2, f)
    mult = (
        M.phi1.xi.apply_to(f)
        - M.phi0.xi.apply_to(f)
        - apply_op(M.G.op(1), f)
    )
    if not mult.is_zero():
        op = op + PolyDiffOp(S1.dim, 1, {((0,) * S1.dim,): mult})
    return op


def nabla_curvature(M: BimoduleModel) -> MultiVec:
    """c(nabla)(df,dg) = nabla_df nabla_dg - nabla_dg nabla_df - nabla_{[df,dg]_pi},
    evaluated as a multiplication operator and assembled into a bivector."""
    S1 = M.star1
    if S1.order < 2:
        raise OrderMismatchError("the bimodule connection needs truncation order >= 2")
    n = S1.dim
    pi = assoc_poisson(S1)
    xs = [Poly.variable(n, i) for i in range(1, n + 1)]
    Ds = [nabla_operator(M, x) for x in xs]
    order0 = ((0,) * n,)  # the one order tuple of a multiplication operator
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            Di, Dj = Ds[i - 1], Ds[j - 1]
            # [df_i, df_j]_pi = d{f_i, f_j}: the bracket of exact forms is exact
            Dij = nabla_operator(M, bracket(pi, xs[i - 1], xs[j - 1]))
            curv = (
                compose_into_slot(Di, 1, Dj)
                - compose_into_slot(Dj, 1, Di)
                - Dij
            )
            view = curv.terms
            if view.keys() - {order0}:
                raise PreconditionError(
                    "connection curvature is not a multiplication operator",
                    witness=curv,
                )
            terms[(i, j)] = view.get(order0, Poly.zero(n))
    return MultiVec(n, 2, terms)
