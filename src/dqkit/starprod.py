"""Truncated star products and their gauge theory.

Everything is truncated at a fixed order N: star products are P_1..P_N
(bidifferential operators, P_0 = multiplication), gauge operators are
R = 1 + sum R_i t^i, and all cited identities are checked order by order as
exact operator identities in normal form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod
from operator import attrgetter

from .calculus import MultiVec
from .diffop import (
    PolyDiffOp,
    _compose_acc,
    apply_op,
    compose_into_slot,
    find_nonzero_args,
    hochschild_delta,
    partial_apply,
    transpose,
    transpose_parts,
)
from .errors import (
    DegreeError,
    DimensionMismatchError,
    OrderMismatchError,
    PreconditionError,
    SolveError,
)
from .kernel import Poly, TPoly, _add_term
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
        ops[0] = vector_field_op(xi)
        return cls(xi.dim, order, ops)

    def apply(self, f: TPoly) -> TPoly:
        """(R f)_k = sum_{i+j=k} R_i(f_j)."""
        if f.order != self.order or f.dim != self.dim:
            raise OrderMismatchError("gauge operator and argument disagree")
        out = [Poly.zero(self.dim) for _ in range(self.order + 1)]
        for k in range(self.order + 1):
            acc = f.coeff(k)  # R_0 = 1
            for i in range(1, k + 1):
                Ri = self.op(i)
                if not Ri.is_zero():
                    acc = acc + apply_op(Ri, f.coeff(k - i))
            out[k] = acc
        return TPoly(self.order, out)

    def apply_poly(self, f: Poly) -> TPoly:
        """The standard section determined by R: f -> sum R_i(f) t^i."""
        return self.apply(TPoly.from_poly(f, self.order))


def vector_field_op(xi: MultiVec) -> PolyDiffOp:
    """A degree-1 multivector as an arity-1 differential operator."""
    if xi.degree != 1:
        raise DegreeError("need a vector field")
    terms = {}
    for (i,), c in xi.terms.items():
        o = [0] * xi.dim
        o[i - 1] = 1
        terms[(tuple(o),)] = c
    return PolyDiffOp(xi.dim, 1, terms)


def derivation_to_vector_field(op: PolyDiffOp) -> MultiVec:
    """Inverse of vector_field_op; requires a first-order operator."""
    terms = {}
    for (o,), c in op.terms.items():
        if sum(o) != 1:
            raise DegreeError("operator is not a vector field (has order != 1 terms)")
        i = o.index(1) + 1
        terms[(i,)] = c
    return MultiVec(op.dim, 1, terms)


@dataclass(frozen=True)
class Section:
    """A standard section phi = R~ restricted to O, inside the star model."""

    base: StarProduct
    R: GaugeOp

    def __post_init__(self):
        if (self.base.dim, self.base.order) != (self.R.dim, self.R.order):
            raise OrderMismatchError("section gauge must match its base star product")

    def value(self, f: Poly) -> TPoly:
        return self.R.apply_poly(f)


@dataclass(frozen=True)
class Sigma1:
    """Class of the special standard section 1 + xi t modulo t^2."""

    base: StarProduct
    xi: MultiVec

    def __post_init__(self):
        if not is_special(self.base):
            raise PreconditionError("Sigma1 requires a special base star product")
        if self.xi.degree != 1 or self.xi.dim != self.base.dim:
            raise DegreeError("Sigma1 class must be a vector field of matching dimension")

    def section(self) -> Section:
        return Section(self.base, GaugeOp.from_vector_field(self.xi, self.base.order))


# ----------------------------------------------------------------------
# core operations


def star_mul(S: StarProduct, a: TPoly, b: TPoly) -> TPoly:
    """a * b mod t^{N+1}."""
    if a.order != S.order or b.order != S.order:
        raise OrderMismatchError("operand truncation orders must match the product")
    if a.dim != S.dim or b.dim != S.dim:
        raise DimensionMismatchError("operand dimensions must match the product")
    out = [Poly.zero(S.dim) for _ in range(S.order + 1)]
    for k in range(S.order + 1):
        acc = Poly.zero(S.dim)
        for l in range(k + 1):
            Pl = S.op(l)
            if Pl.is_zero():
                continue
            for i in range(k - l + 1):
                ai = a.coeff(i)
                if ai.is_zero():
                    continue
                bj = b.coeff(k - l - i)
                if bj.is_zero():
                    continue
                acc = acc + apply_op(Pl, ai, bj)
        out[k] = acc
    return TPoly(S.order, out)


def star_commutator(S: StarProduct, a: TPoly, b: TPoly) -> TPoly:
    return star_mul(S, a, b) - star_mul(S, b, a)


def moyal(pi: MultiVec, order: int) -> StarProduct:
    """The Weyl-Moyal product of a constant bivector:

    P_k(f,g) = 1/(2^k k!) sum pi^{i1 j1}..pi^{ik jk} d_{i..}f d_{j..}g.

    Special and associative; the standard witness that star products exist.
    """
    if pi.degree != 2:
        raise DegreeError("moyal needs a bivector")
    n = pi.dim
    entries = {}
    for (i, j), c in pi.terms.items():
        if not c.is_constant():
            raise PreconditionError(f"moyal needs constant coefficients; pi^{(i,j)} = {c!r}")
        v = c.constant_value()
        entries[(i, j)] = v
        entries[(j, i)] = -v
    ops = []
    for k in range(1, order + 1):
        terms = {}
        # one multiset of k entries stands for its k! / prod m_e! orderings;
        # keys first appear in the same order as over all k-tuples
        for pairs in combinations_with_replacement(entries.items(), k):
            coeff = Fraction(1, 2**k * prod(map(factorial, Counter(pairs).values())))
            alpha = [0] * n
            beta = [0] * n
            for (i, j), v in pairs:
                coeff *= v
                alpha[i - 1] += 1
                beta[j - 1] += 1
            key = (tuple(alpha), tuple(beta))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        ops.append(
            PolyDiffOp(n, 2, {k2: v for k2, v in terms.items() if v != 0})
        )
    return StarProduct(n, order, ops)


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


def assoc_defect(S: StarProduct):
    """Order-by-order associativity defects, one arity-3 operator per t-order:

    D_k = sum_{i+j=k} P_i(P_j(f,g), h) - P_i(f, P_j(g,h)),  P_0 = multiplication.

    S is associative iff every D_k is structurally zero.
    """
    ops = [S.op(i) for i in range(S.order + 1)]
    expanded = [{} for _ in ops]  # d^alpha o P_j, shared by both slots and every order
    out = []
    for k in range(1, S.order + 1):
        terms = {}
        _convolve(terms, k, ops, 1, ops, expanded)
        _convolve(terms, k, ops, 2, ops, expanded, sign=-1)
        out.append(PolyDiffOp._make(S.dim, 3, terms))
    return out


def is_associative(S: StarProduct) -> bool:
    return all(D.is_zero() for D in assoc_defect(S))


def is_special(S: StarProduct) -> bool:
    """Special: P_1 skew-symmetric."""
    sym, _ = transpose_parts(S.op(1))
    return sym.is_zero()


def biderivation(c: MultiVec) -> PolyDiffOp:
    """The operator (f,g) -> sum_{i<j} c^{ij} (d_i f d_j g - d_j f d_i g) of a bivector."""
    if c.degree != 2:
        raise DegreeError("biderivation needs a bivector")
    n = c.dim
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    terms = {}
    for (i, j), cij in c.terms.items():
        terms[(unit[i - 1], unit[j - 1])] = cij
        terms[(unit[j - 1], unit[i - 1])] = -cij
    return PolyDiffOp._make(n, 2, terms)


def assoc_poisson(S: StarProduct) -> MultiVec:
    """The associated Poisson bivector: value on (dx_i, dx_j) is
    P_1(x_i,x_j) - P_1(x_j,x_i)."""
    n = S.dim
    P1 = S.op(1)
    skew2 = P1 - transpose(P1)  # 2 * skew part
    xs = [Poly.variable(n, i) for i in range(1, n + 1)]
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            terms[(i, j)] = apply_op(skew2, xs[i - 1], xs[j - 1])
    result = MultiVec(n, 2, terms)
    # twice the skew part of P_1 must be the biderivation of these values
    if biderivation(result) != skew2:
        raise PreconditionError(
            "skew part of P_1 is not a biderivation", witness=skew2
        )
    return result


def _convolve(acc: dict, k: int, outer, slot: int, inner, expanded, sign=1, lo=0, hi=None) -> None:
    """Add sign * sum_{i=lo..hi} outer[i] o_slot inner[k-i] into the term map
    `acc`: the order-k coefficient of a product of two operator series.

    `outer` and `inner` are indexed by t-order and `hi` defaults to k.
    `expanded[j]` is the expansion dict of inner[j] in the sense of
    diffop._compose_acc, which states who owns it and for how long.
    """
    for i in range(lo, k + 1 if hi is None else hi + 1):
        X, Y = outer[i], inner[k - i]
        if not (X.is_zero() or Y.is_zero()):
            _compose_acc(acc, X, slot, Y, sign, expanded[k - i])


def gauge_transform(S: StarProduct, R: GaugeOp) -> StarProduct:
    """The unique S' with R(f *' g) = R(f) * R(g) as exact operator identities:

    P'_k = sum_{i+j+l=k} P_i(R_j ., R_l .) - sum_{i=1..k} R_i o P'_{k-i}.

    Composition is linear in the outer operator, so the triple sum is
    V_k = sum_{m+l=k} U_m o_2 R_l with U_m = sum_{i+j=m} P_i o_1 R_j.
    """
    if (S.dim, S.order) != (R.dim, R.order):
        raise OrderMismatchError("gauge operator must match the star product")
    ops = [S.op(i) for i in range(S.order + 1)]
    rops = [R.op(j) for j in range(R.order + 1)]
    r_expanded = [{} for _ in rops]  # d^alpha o R_j, shared by both slots and every order
    us = [ops[0]]  # U_0 = P_0 = multiplication
    new_P = [ops[0]]  # P'_0 = multiplication
    p_expanded = [{} for _ in ops]  # d^alpha o P'_m, one dict per P'_m
    for k in range(1, S.order + 1):
        u = dict(ops[k].terms)  # P_k o_1 R_0 = P_k
        _convolve(u, k, ops, 1, rops, r_expanded, hi=k - 1)
        us.append(PolyDiffOp._make(S.dim, 2, u))
        acc = dict(u)  # U_k o_2 R_0 = U_k
        _convolve(acc, k, us, 2, rops, r_expanded, hi=k - 1)
        _convolve(acc, k, rops, 1, new_P, p_expanded, sign=-1, lo=1)
        new_P.append(PolyDiffOp._make(S.dim, 2, acc))
    return StarProduct(S.dim, S.order, new_P[1:])


def gauge_compose(R: GaugeOp, Q: GaugeOp) -> GaugeOp:
    """(R o Q)(f) = R(Q(f)); series composition order by order."""
    if (R.dim, R.order) != (Q.dim, Q.order):
        raise OrderMismatchError("gauge operators disagree")
    rops = [R.op(i) for i in range(R.order + 1)]
    qops = [Q.op(j) for j in range(Q.order + 1)]
    expanded = [{} for _ in qops]  # d^alpha o Q_j, shared by every order
    ops = []
    for k in range(1, R.order + 1):
        acc = dict(rops[k].terms)  # R_k o Q_0 = R_k
        _convolve(acc, k, rops, 1, qops, expanded, hi=k - 1)
        ops.append(PolyDiffOp._make(R.dim, 1, acc))
    return GaugeOp(R.dim, R.order, ops)


def invert_gauge(R: GaugeOp) -> GaugeOp:
    """Two-sided inverse mod t^{N+1}: the unique Q with R o Q = 1, order by order:

    Q_k = -sum_{i=1..k} R_i o Q_{k-i},  Q_0 = 1.

    In the group 1 + tD[[t]] a right inverse is also a left inverse.
    """
    rops = [R.op(i) for i in range(R.order + 1)]
    qops = [rops[0]]  # Q_0 = 1
    expanded = [{} for _ in rops]  # d^alpha o Q_j, shared by every order
    for k in range(1, R.order + 1):
        acc = {orders: -c for orders, c in rops[k].terms.items()}  # -R_k o Q_0 = -R_k
        _convolve(acc, k, rops, 1, qops, expanded, sign=-1, lo=1, hi=k - 1)
        qops.append(PolyDiffOp._make(R.dim, 1, acc))
    return GaugeOp(R.dim, R.order, qops[1:])


def exp_gauge(Q: PolyDiffOp, order: int) -> GaugeOp:
    """Truncated exp(tQ): R_i = Q^i / i!."""
    if Q.arity != 1:
        raise DegreeError("exp_gauge needs an arity-1 generator")
    ops = []
    power = Q
    for i in range(1, order + 1):
        ops.append(power.scale(Fraction(1, factorial(i))))
        if i < order:
            power = compose_into_slot(Q, 1, power)
    return GaugeOp(Q.dim, order, ops)


# ----------------------------------------------------------------------
# specialization (Hochschild coboundary solve)


def _delta_matrix_rows(op: PolyDiffOp):
    """Flatten an arity-2 operator into {(orders, coeff-exponents): Fraction}."""
    rows = {}
    for orders, coeff in op.terms.items():
        for exps, val in coeff.items():
            rows[(orders, exps)] = val
    return rows


def _coboundary_pattern(alpha):
    """The terms [(orders, coefficient)] of delta(d^alpha), in the key order of
    hochschild_delta:

        delta(d^alpha) = sum_{0 < beta < alpha} C(alpha, beta) d^beta (x) d^(alpha - beta),

    with C(alpha, beta) = prod_i binom(alpha_i, beta_i) and beta in
    itertools.product order; delta(1) = -(f (x) g).  Multiplying every term by
    x^e gives delta(x^e d^alpha).  Empty for |alpha| = 1 (a derivation).
    """
    if not any(alpha):
        return [((alpha, alpha), Fraction(-1))]
    out = []
    for beta in product(*(range(a + 1) for a in alpha)):
        if beta == alpha or not any(beta):
            continue
        rest = tuple(a - b for a, b in zip(alpha, beta))
        out.append(((beta, rest), Fraction(prod(comb(a, b) for a, b in zip(alpha, beta)))))
    return out


def _solve_exact(columns, target_rows, row_index):
    """Solve sum_j u_j col_j = target over Q.  Returns (solution, residual_rows).

    columns: list of row-dicts; target_rows: row-dict; row_index: ordered keys.
    On inconsistency the solution solves the consistent subsystem and the
    residual is nonzero.

    Gauss-Jordan elimination on sparse rows: column by column, the pivot is the
    first row at or below the current position (in current row order) with a
    nonzero entry, and only rows holding a nonzero in the pivot column are
    reduced.  Zero entries are never stored, so every exact operation is one a
    dense elimination with the same pivot rule does on a nonzero entry.
    """
    m = len(row_index)
    n = len(columns)
    pos = {key: r for r, key in enumerate(row_index)}
    rows = [{} for _ in range(m)]  # by original row: {column: nonzero Fraction}
    where = [set() for _ in range(n + 1)]  # column -> original rows holding a nonzero
    for j, col in enumerate([*columns, target_rows]):  # the target is column n
        for key, val in col.items():
            if val:
                i = pos[key]
                rows[i][j] = val
                where[j].add(i)
    perm = list(range(m))  # original row per current position
    place = list(range(m))  # current position per original row
    pivots = []  # (original row, column)
    r = 0
    for c in range(n):
        below = [place[i] for i in where[c] if place[i] >= r]
        if not below:
            continue
        p = min(below)
        i, k = perm[p], perm[r]
        perm[r], perm[p] = i, k
        place[i], place[k] = r, p
        pv = rows[i][c]
        rows[i] = row = {j: x / pv for j, x in rows[i].items()}
        for t in list(where[c]):
            if t == i:
                continue
            other = rows[t]
            f = other[c]
            for j, y in row.items():
                x = other.get(j)
                if x is None:
                    other[j] = -(f * y)
                    where[j].add(t)
                else:
                    x -= f * y
                    if x:
                        other[j] = x
                    else:
                        del other[j]
                        where[j].discard(t)
        pivots.append((i, c))
        r += 1
        if r == m:
            break
    solution = [Fraction(0)] * n
    for i, c in pivots:
        solution[c] = rows[i].get(n, Fraction(0))
    residual = {}
    for rr in range(len(pivots), m):
        val = rows[perm[rr]].get(n)
        if val:
            residual[row_index[perm[rr]]] = val
    return solution, residual


def specialize(S: StarProduct, degree_bound: int) -> GaugeOp:
    """A gauge R = exp(tQ) with gauge_transform(S, R) special.

    Q solves the Hochschild coboundary equation delta Q = sym(P_1) by an
    exact linear solve over operators with order <= total order of P_1 and
    polynomial coefficient degree <= degree_bound.  The solve is sparse and
    exact: the columns delta(x^e d^alpha) come in closed form and the
    elimination works over Fraction on nonzero entries only.
    """
    if not is_associative(S):
        raise PreconditionError("specialize requires an associative star product")
    sym, _ = transpose_parts(S.op(1))
    n = S.dim
    if sym.is_zero():
        return GaugeOp.identity_gauge(n, S.order)
    maxord = S.op(1).total_order()
    # unknown basis: monomial coefficient x^e times d^alpha
    alphas = [a for a in product(range(maxord + 1), repeat=n) if sum(a) <= maxord]
    monos = [e for e in product(range(degree_bound + 1), repeat=n) if sum(e) <= degree_bound]
    unknowns = []
    columns = []
    keys = {}
    for alpha in alphas:
        pattern = _coboundary_pattern(alpha)
        if not pattern:
            continue  # |alpha| = 1: x^e d^alpha is a derivation, so delta is zero
        for e in monos:
            col = {(orders, e): c for orders, c in pattern}
            unknowns.append((alpha, e))
            columns.append(col)
            for key in col:
                keys.setdefault(key, len(keys))
    target = _delta_matrix_rows(sym)
    for key in target:
        keys.setdefault(key, len(keys))
    solution, residual = _solve_exact(columns, target, list(keys))
    terms = {}
    for u, (alpha, e) in zip(solution, unknowns):
        if u:
            _add_term(terms, (alpha,), Poly._term(n, e, u))
    Q = PolyDiffOp._make(n, 1, terms)
    if residual:
        raise SolveError(
            "no Hochschild coboundary solution within bounds",
            residual=sym - hochschild_delta(Q),
        )
    return exp_gauge(Q, S.order)


# ----------------------------------------------------------------------
# Sigma_1, subprincipal curvature, inner automorphisms


def sigma1_class(S: StarProduct, sec: Section) -> Sigma1:
    """Extract the class of a section special relative to S; it is R_1, which
    the speciality forces to be a derivation."""
    if not is_special(S):
        raise PreconditionError("Sigma1 classes live over a special base")
    if sec.base != S:
        raise PreconditionError("section is based on a different star product")
    R1 = sec.R.op(1)
    defect = hochschild_delta(R1)
    if not defect.is_zero():
        witness = find_nonzero_args(defect)
        raise PreconditionError(
            "section is not special: R_1 is not a derivation",
            witness=(witness[0], witness[1]),
        )
    return Sigma1(S, derivation_to_vector_field(R1))


def sigma1_act(phi: Sigma1, xi: MultiVec) -> Sigma1:
    """The torsor action: phi + xi."""
    if xi.dim != phi.base.dim or xi.degree != 1:
        raise DegreeError("action argument must be a matching vector field")
    return Sigma1(phi.base, phi.xi + xi)


def subprincipal(S: StarProduct, sec: Section) -> MultiVec:
    """The subprincipal curvature of a special section:

    c(phi)(f,g) = [coeff of t^2 in phi(f)*phi(g) - phi(g)*phi(f)]
                - [coeff of t^1 in phi({f,g})],

    assembled into a bivector from values on coordinate pairs.
    """
    if S.order < 2:
        raise OrderMismatchError("subprincipal curvature needs truncation order >= 2")
    if sec.base != S:
        raise PreconditionError("section is based on a different star product")
    gauged = gauge_transform(S, sec.R)
    sym, _ = transpose_parts(gauged.op(1))
    if not sym.is_zero():
        witness = find_nonzero_args(sym)
        raise PreconditionError(
            "section is not special: induced P_1 has a symmetric part",
            witness=witness,
        )
    n = S.dim
    pi = assoc_poisson(S)
    R1 = sec.R.op(1)
    xs = [Poly.variable(n, i) for i in range(1, n + 1)]
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            fi = sec.value(xs[i - 1])
            fj = sec.value(xs[j - 1])
            comm = star_commutator(S, fi, fj)
            terms[(i, j)] = comm.coeff(2) - apply_op(R1, bracket(pi, xs[i - 1], xs[j - 1]))
    return MultiVec(n, 2, terms)


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


def sigma1_of_ad(S: StarProduct, alpha: TPoly, phi: Sigma1) -> Sigma1:
    """The class of f -> Ad(exp alpha)(phi(f)), checked to equal
    phi + X_{sigma(alpha)} (the Hamiltonian field of the classical part).

    Raises PreconditionError when the class is not a derivation or the check
    fails: either means the sign or ordering conventions broke.
    """
    if phi.base != S:
        raise PreconditionError("class is based on a different star product")
    n = S.dim
    pi = assoc_poisson(S)
    sec = phi.section()
    xs = [Poly.variable(n, i) for i in range(1, n + 1)]
    vals = [ad_exp(S, alpha, sec.value(x)).coeff(1) for x in xs]
    extracted = MultiVec(n, 1, {(i,): v for i, v in enumerate(vals, start=1)})
    # derivation sanity on quadratic monomials
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            got = ad_exp(S, alpha, sec.value(xs[i - 1] * xs[j - 1])).coeff(1)
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


@dataclass(frozen=True)
class BimoduleModel:
    """Free rank-one bimodule twisted by an algebra isomorphism.

    star1 is A_1; G encodes Phi: A_0 -> A_1 with A_0 = gauge_transform(star1, G);
    the bimodule action is a.m.b = a *1 m *1 Phi(b).  phi0 and phi1 are Sigma1
    classes over A_0 and A_1.
    """

    star1: StarProduct
    G: GaugeOp
    phi0: Sigma1
    phi1: Sigma1

    def __post_init__(self):
        if (self.star1.dim, self.star1.order) != (self.G.dim, self.G.order):
            raise OrderMismatchError("gauge operator must match the star product")
        if self.phi1.base != self.star1:
            raise PreconditionError("phi1 must be a class over star1")
        if self.phi0.base != self.star0:
            raise PreconditionError("phi0 must be a class over gauge_transform(star1, G)")

    @property
    def star0(self) -> StarProduct:
        return gauge_transform(self.star1, self.G)


def contravariant_nabla(M: BimoduleModel, f: Poly, m: Poly) -> Poly:
    """nabla_{df}(m): coefficient of t^1 in phi1(f) *1 m - m *1 Phi(phi0(f))."""
    S1 = M.star1
    if S1.order < 2:
        raise OrderMismatchError("the bimodule connection needs truncation order >= 2")
    if f.dim != S1.dim or m.dim != S1.dim:
        raise DimensionMismatchError("argument dimension mismatch")
    mf = TPoly.from_poly(m, S1.order)
    left = star_mul(S1, M.phi1.section().value(f), mf)
    right = star_mul(S1, mf, M.G.apply(M.phi0.section().value(f)))
    return (left - right).coeff(1)


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
    zero_mi = (0,) * n
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            Di = nabla_operator(M, xs[i - 1])
            Dj = nabla_operator(M, xs[j - 1])
            # [df_i, df_j]_pi = d{f_i, f_j}: the bracket of exact forms is exact
            Dij = nabla_operator(M, bracket(pi, xs[i - 1], xs[j - 1]))
            curv = (
                compose_into_slot(Di, 1, Dj)
                - compose_into_slot(Dj, 1, Di)
                - Dij
            )
            for orders in curv.terms:
                if orders != (zero_mi,):
                    raise PreconditionError(
                        "connection curvature is not a multiplication operator",
                        witness=curv,
                    )
            val = curv.terms.get((zero_mi,))
            if val is not None:
                terms[(i, j)] = val
    return MultiVec(n, 2, terms)
