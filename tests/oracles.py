"""Test-only reference implementations that the library's fast paths are checked against."""

import json
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, lcm, perm, prod
from operator import add, sub

from dqkit.calculus import Form, MultiVec, anchor, exterior_d, lie_derivative, wedge
from dqkit.diffop import (
    PolyDiffOp,
    apply_op,
    compose_into_slot,
    hochschild_delta,
    transpose_parts,
)
from dqkit.errors import DegreeError, DimensionMismatchError, IndexRangeError, SchemaError, SolveError
from dqkit.kernel import MAX_PACKED, Poly, TPoly, _key, _over_budget, grlex_key
from dqkit.liealgebroid import AlgebroidCheck, AlgebroidForm, AlgebroidPresentation
from dqkit.parser import _leaf, poly_to_text
from dqkit.poisson import bracket, koszul_bracket
from dqkit.starprod import GaugeOp, StarProduct, assoc_poisson, exp_gauge, star_commutator, star_mul


def canonical_json_reference(obj) -> str:
    """The canonical text as json's own encoder writes it: what parser.canonical_json
    must match byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def tensor_to_payload_by_views(t) -> dict:
    """The payload of a multivector or form written from its terms view, one
    poly_to_text per term: the route parser.tensor_to_payload replaced."""
    return {
        "degree": t.degree,
        "terms": [
            {"indices": list(idx), "coeff": poly_to_text(c)}
            for idx, c in sorted(t.terms.items())
        ],
    }


def diffop_to_payload_by_terms(op: PolyDiffOp) -> dict:
    """The payload of an operator written from its terms view: the order tuples
    sorted, each coefficient's text by poly_to_text.  parser.diffop_to_payload,
    which writes from the packed map, is checked against it."""
    return {
        "arity": op.arity,
        "terms": [{"coeff": poly_to_text(c), "orders": [list(o) for o in orders]}
                  for orders, c in sorted(op.terms.items(), key=lambda term: term[0])],
    }


def _as_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def dense_solve(columns, target_rows, row_index):
    """Solve sum_j u_j col_j = target over Q by dense Gauss-Jordan elimination.

    columns: list of row-dicts; target_rows: row-dict; row_index: the ordered
    row keys.  Returns (solution, residual_rows): on an inconsistent system the
    solution solves the consistent subsystem and the residual, keyed by row in
    elimination order, is nonzero.

    Column by column, the pivot is the first row at or below the current
    position with a nonzero entry; every other row is reduced by it.
    """
    m = len(row_index)
    n = len(columns)
    A = [[Fraction(0)] * (n + 1) for _ in range(m)]
    pos = {key: r for r, key in enumerate(row_index)}
    for j, col in enumerate(columns):
        for key, val in col.items():
            A[pos[key]][j] = val
    for key, val in target_rows.items():
        A[pos[key]][n] = val
    pivots = []
    perm = list(range(m))  # original row key per current position
    r = 0
    for c in range(n):
        pivot = None
        for rr in range(r, m):
            if A[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        perm[r], perm[pivot] = perm[pivot], perm[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for rr in range(m):
            if rr != r and A[rr][c] != 0:
                f = A[rr][c]
                A[rr] = [x - f * y for x, y in zip(A[rr], A[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    solution = [Fraction(0)] * n
    for rr, cc in pivots:
        solution[cc] = A[rr][n]
    residual = {}
    for rr in range(len(pivots), m):
        if A[rr][n] != 0:
            residual[row_index[perm[rr]]] = A[rr][n]
    return solution, residual


def delta_matrix_rows(op: PolyDiffOp):
    """Flatten an arity-2 operator into {(orders, coeff-exponents): Fraction}."""
    rows = {}
    for orders, coeff in op.terms.items():
        for exps, val in coeff.items():
            rows[(orders, exps)] = val
    return rows


def coboundary_pattern(alpha):
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


def pivot_row(alpha):
    """The row that fixes the unknown x^e d^alpha of specialize's system, the
    rule diffop._pivot applies to packed keys: (orders, c) with
    c x^e (d^orders[0] (x) d^orders[1]) a term of delta(x^e d^alpha) and of no
    other delta(x^e' d^alpha'), or None for a derivation (|alpha| = 1), whose
    delta is zero.

    delta(x^e) = -x^e (f (x) g), and for |alpha| >= 2 the row is beta = e_i,
    with i the last index where alpha_i > 0, in

        delta(x^e d^alpha) = x^e sum_{0 < beta < alpha} C(alpha, beta) d^beta (x) d^(alpha - beta).
    """
    if not any(alpha):
        return (alpha, alpha), -1
    if sum(alpha) < 2:
        return None
    i = max(k for k, a in enumerate(alpha) if a)
    beta = tuple(int(k == i) for k in range(len(alpha)))
    return (beta, tuple(a - b for a, b in zip(alpha, beta))), alpha[i]


def specialize_by_oracle(S, degree_bound):
    """specialize(S, degree_bound) without its precondition, built the unfused way:
    one hochschild_delta per unknown x^e d^alpha, solved by dense_solve."""
    n = S.dim
    sym, _ = transpose_parts(S.op(1))
    maxord = max((sum(map(sum, orders)) for orders in S.op(1).terms), default=0)
    alphas = [a for a in product(range(maxord + 1), repeat=n) if sum(a) <= maxord]
    monos = [e for e in product(range(degree_bound + 1), repeat=n) if sum(e) <= degree_bound]
    basis = []
    columns = []
    keys = {}
    for alpha in alphas:
        for e in monos:
            q = PolyDiffOp(n, 1, {(alpha,): Poly.monomial(n, e)})
            col = delta_matrix_rows(hochschild_delta(q))
            if not col:
                continue
            basis.append(q)
            columns.append(col)
            for key in col:
                keys.setdefault(key, len(keys))
    target = delta_matrix_rows(sym)
    for key in target:
        keys.setdefault(key, len(keys))
    solution, residual = dense_solve(columns, target, list(keys))
    Q = PolyDiffOp.zero(n, 1)
    for u, q in zip(solution, basis):
        if u != 0:
            Q = Q + q.scale(u)
    if residual:
        raise SolveError(
            "no Hochschild coboundary solution within bounds",
            residual=sym - hochschild_delta(Q),
        )
    return exp_gauge(Q, S.order)


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


def _add_term(out: dict, key, coeff: Poly) -> None:
    """Add a nonzero Poly coefficient into a term map, dropping the key if it cancels."""
    acc = out.get(key)
    if acc is None:
        out[key] = coeff
        return
    acc = acc + coeff
    if acc.is_zero():
        del out[key]
    else:
        out[key] = acc


def _tensor_like(t, degree: int, terms):
    """A tensor of t's kind and index bound, of the given degree."""
    if isinstance(t, AlgebroidForm):
        return AlgebroidForm(t.dim, t.rank, degree, terms)
    return type(t)(t.dim, degree, terms)


def wedge_by_sorting(A, B):
    """wedge by sorting the concatenated index tuples of every pair of terms:
    the sign is the parity of the sort, and a repeated index drops the pair."""
    out = {}
    for i1, c1 in A.terms.items():
        for i2, c2 in B.terms.items():
            sign, key = sort_indices(i1 + i2)
            if sign == 0:
                continue
            c = c1 * c2
            _add_term(out, key, c if sign > 0 else -c)
    return _tensor_like(A, A.degree + B.degree, out)


def interior_by_sorting(X: MultiVec, omega: Form) -> Form:
    """interior by removing each index i of each term of omega, with the sign
    of its position, times X's coefficient of d/dx_i."""
    out = {}
    for idx, c in omega.terms.items():
        for pos, i in enumerate(idx):
            xc = X.terms.get((i,))
            if xc is None:
                continue
            coeff = xc * c
            _add_term(out, idx[:pos] + idx[pos + 1 :], -coeff if pos % 2 else coeff)
    return Form(omega.dim, omega.degree - 1, out)


def schouten_by_recursion(A: MultiVec, B: MultiVec) -> MultiVec:
    """Reference Schouten bracket, reduced term by term through the defining
    recursion: [X,f] = X(f), [X,Y] = Lie bracket, the graded Leibniz rule in
    the second slot, and graded antisymmetry.  Exponential-time; kept as the
    independent oracle for the coordinate implementation.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError("dimension mismatch")
    dim = A.dim
    degree = max(A.degree + B.degree - 1, 0)
    total = MultiVec.zero(dim, degree)
    for I, c in A.terms.items():
        for J, e in B.terms.items():
            u = _factors(dim, I, c)
            v = _factors(dim, J, e)
            total = total + _sn_rec(dim, u, v)
    return total


def _factors(dim, idx, coeff):
    """Decompose c*d_I into vector-field factors; degree 0 stays a scalar."""
    if not idx:
        return [("f", coeff)]
    out = [("v", MultiVec(dim, 1, {(idx[0],): coeff}))]
    for i in idx[1:]:
        out.append(("v", MultiVec.basis(dim, i)))
    return out


def _wedge_factors(dim, factors):
    acc = None
    scalar = None
    for kind, val in factors:
        if kind == "f":
            scalar = val if scalar is None else scalar * val
        else:
            acc = val if acc is None else wedge(acc, val)
    if acc is None:
        return MultiVec.from_poly(scalar if scalar is not None else Poly.one(dim))
    if scalar is not None:
        acc = acc.scale(scalar)
    return acc


def _sn_rec(dim, u, v):
    """[u, v] for lists of factors (each ('v', vector) or a single ('f', poly))."""
    a = sum(1 for k, _ in u if k == "v")
    b = sum(1 for k, _ in v if k == "v")
    if a == 0 and b == 0:
        return MultiVec.zero(dim, 0)
    if b == 0:
        # [A, f] = -(-1)^{(a-1)(0-1)} [f, A]
        res = _sn_rec(dim, v, u)
        if (a - 1) % 2 == 0:
            res = -res
        return res
    if a == 0:
        f = u[0][1]
        if b == 1:
            # [f, X] = -X(f)
            return MultiVec.from_poly(-v[0][1].apply_to(f))
        # [f, Y ^ C] = [f,Y] ^ C + (-1)^{(0-1)*1} Y ^ [f,C]
        head, tail = v[0][1], v[1:]
        first = _wedge_factors(dim, tail).scale(_sn_rec(dim, u, [("v", head)]).as_poly())
        second = wedge(head, _sn_rec(dim, u, tail))
        return first - second
    if a == 1 and b == 1:
        X, Y = u[0][1], v[0][1]
        terms = {}
        for (j,), yc in Y.terms.items():
            c = X.apply_to(yc)
            if not c.is_zero():
                acc = terms.get((j,))
                terms[(j,)] = c if acc is None else acc + c
        for (i,), xc in X.terms.items():
            c = Y.apply_to(xc)
            if not c.is_zero():
                acc = terms.get((i,))
                nc = -c
                terms[(i,)] = nc if acc is None else acc + nc
        return MultiVec(dim, 1, {k: v2 for k, v2 in terms.items() if not v2.is_zero()})
    if b > 1:
        # [A, Y ^ C] = [A,Y] ^ C + (-1)^{(a-1)*1} Y ^ [A,C]
        head, tail = v[0][1], v[1:]
        left = _sn_rec(dim, u, [("v", head)])
        first = _wedge_or_scale(dim, left, tail)
        second = wedge(head, _sn_rec(dim, u, tail))
        if (a - 1) % 2 == 1:
            second = -second
        return first + second
    # a > 1, b == 1: swap via graded antisymmetry
    res = _sn_rec(dim, v, u)
    if ((a - 1) * (b - 1)) % 2 == 0:
        res = -res
    return res


def _wedge_or_scale(dim, left, factors):
    right = _wedge_factors(dim, factors)
    if left.degree == 0:
        return right.scale(left.as_poly())
    if right.degree == 0:
        return left.scale(right.as_poly())
    return wedge(left, right)


def koszul_frame_bracket(pi: MultiVec, i: int, j: int) -> Form:
    """[dx_i, dx_j]_pi as a 1-form (used to cross-check from_poisson)."""
    n = pi.dim
    return koszul_bracket(pi, Form.basis(n, i), Form.basis(n, j))


def anchor_apply(A: AlgebroidPresentation, a: int, f: Poly) -> Poly:
    """sigma(e_a)(f)."""
    out = Poly.zero(A.dim)
    for i, p in enumerate(A.anchor[a - 1], start=1):
        if not p.is_zero():
            out = out + p * f.partial(i)
    return out


def frame_bracket(A: AlgebroidPresentation, a: int, b: int):
    """[e_a, e_b] as a coefficient vector of length rank."""
    zero = Poly.zero(A.dim)
    if a == b:
        return tuple([zero] * A.rank)
    if a < b:
        return A.structure.get((a, b), tuple([zero] * A.rank))
    cs = A.structure.get((b, a))
    if cs is None:
        return tuple([zero] * A.rank)
    return tuple(-p for p in cs)


def algebroid_d_by_frame(A: AlgebroidPresentation, omega: AlgebroidForm) -> AlgebroidForm:
    """algebroid_d by the dense Cartan formula: every frame key of degree p+1,
    every position and every pair of positions in it,

    (d omega)(b_0..b_p) = sum_i (-1)^i sigma(b_i) omega(.. b_i ..)
                        + sum_{i<j} (-1)^{i+j} omega([b_i,b_j], .. b_i, b_j ..)
    """
    if omega.rank != A.rank or omega.dim != A.dim:
        raise DimensionMismatchError("form does not match the algebroid presentation")
    p = omega.degree
    terms = {}
    for key in combinations(range(1, A.rank + 1), p + 1):
        val = Poly.zero(A.dim)
        for i_pos, a in enumerate(key):
            rest = key[:i_pos] + key[i_pos + 1 :]
            term = anchor_apply(A, a, omega.value(rest))
            if i_pos % 2 == 1:
                term = -term
            val = val + term
        for i_pos in range(len(key)):
            for j_pos in range(i_pos + 1, len(key)):
                a, b = key[i_pos], key[j_pos]
                rest = tuple(k for t, k in enumerate(key) if t not in (i_pos, j_pos))
                cs = frame_bracket(A, a, b)
                term = Poly.zero(A.dim)
                for k in range(1, A.rank + 1):
                    ck = cs[k - 1]
                    if not ck.is_zero():
                        term = term + ck * omega.value((k,) + rest)
                if (i_pos + j_pos) % 2 == 1:
                    term = -term
                val = val + term
        terms[key] = val
    return AlgebroidForm(A.dim, A.rank, p + 1, terms)


def _section_bracket(A, u, v):
    """Bracket of sections given as coefficient vectors, via the Leibniz rule:
    [sum_a u_a e_a, sum_b v_b e_b] = sum_{a,b} (u_a v_b [e_a,e_b]
        + u_a sigma(e_a)(v_b) e_b - v_b sigma(e_b)(u_a) e_a)."""
    zero = Poly.zero(A.dim)
    out = [zero] * A.rank
    for a in range(1, A.rank + 1):
        ua = u[a - 1]
        for b in range(1, A.rank + 1):
            vb = v[b - 1]
            if not ua.is_zero() and not vb.is_zero():
                cs = frame_bracket(A, a, b)
                for k in range(A.rank):
                    if not cs[k].is_zero():
                        out[k] = out[k] + ua * vb * cs[k]
            if not ua.is_zero():
                out[b - 1] = out[b - 1] + ua * anchor_apply(A, a, vb)
            if not vb.is_zero():
                out[a - 1] = out[a - 1] - vb * anchor_apply(A, b, ua)
    return tuple(out)


def check_algebroid_by_brackets(A: AlgebroidPresentation) -> AlgebroidCheck:
    """The Lie algebroid axioms on the frame, expanded through brackets: the
    anchor is a morphism of brackets on each pair, then the Jacobi total of
    each triple (expanded through Leibniz) vanishes.  Same scan order and
    result as check_algebroid."""
    n, r = A.dim, A.rank
    for a, b in combinations(range(1, r + 1), 2):
        cs = frame_bracket(A, a, b)
        lhs = [Poly.zero(n)] * n
        for k in range(r):
            if cs[k].is_zero():
                continue
            for i in range(n):
                lhs[i] = lhs[i] + cs[k] * A.anchor[k][i]
        Xa, Xb = (MultiVec(n, 1, {(i,): p for i, p in enumerate(A.anchor[e - 1], start=1)})
                  for e in (a, b))
        for i in range(1, n + 1):
            rhs_i = Xa.apply_to(Xb.coeff((i,))) - Xb.apply_to(Xa.coeff((i,)))
            if lhs[i - 1] != rhs_i:
                return AlgebroidCheck(False, "anchor", (a, b), (i, rhs_i - lhs[i - 1]))
    zero = Poly.zero(n)
    basis = []
    for a in range(r):
        e = [zero] * r
        e[a] = Poly.one(n)
        basis.append(tuple(e))
    for a, b, c in combinations(range(1, r + 1), 3):
        total = [zero] * r
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = _section_bracket(A, basis[y - 1], basis[z - 1])
            outer = _section_bracket(A, basis[x - 1], inner)
            for k in range(r):
                total[k] = total[k] + outer[k]
        if any(not t.is_zero() for t in total):
            return AlgebroidCheck(False, "jacobi", (a, b, c), tuple(total))
    return AlgebroidCheck(True)


def derivative_uncapped(alpha, inner: PolyDiffOp) -> dict:
    """The term map of d^alpha o inner over every Leibniz splitting, dead ones
    included: the splittings of each coordinate in lexicographic order,
    combined in itertools.product order, each applied to every term of inner."""
    if not any(alpha):
        return inner.terms
    parts = inner.arity + 1
    per_coord = []
    for a in alpha:
        comps = [c for c in product(range(a + 1), repeat=parts) if sum(c) == a]
        per_coord.append([(factorial(a) // prod(map(factorial, c)), c) for c in comps])
    out = {}
    for combo in product(*per_coord):
        mult = prod(m for m, _ in combo)
        gamma0, *rest = zip(*(c for _, c in combo))
        for i_orders, i_coeff in inner.terms.items():
            dcoeff = i_coeff.partial_multi(gamma0)
            if dcoeff.is_zero():
                continue
            orders = tuple(
                tuple(b + g for b, g in zip(beta, gamma)) for beta, gamma in zip(i_orders, rest)
            )
            _add_term(out, orders, dcoeff * mult)
    return out


def compositions(total: int, parts: int):
    """(total! / (g_1! ... g_parts!), (g_1, ..., g_parts)) over the ordered ways
    to write `total` as `parts` non-negative ints, in lexicographic order, by
    recursion on the first part: the enumeration that diffop._shares builds
    slot by slot."""
    if parts == 1:
        yield 1, (total,)
        return
    for first in range(total + 1):
        c = comb(total, first)
        for m, rest in compositions(total - first, parts - 1):
            yield c * m, (first, *rest)


def compose_acc_by_poly(out: dict, outer: PolyDiffOp, slot: int, inner: PolyDiffOp, sign: int,
                        expanded: dict | None = None) -> None:
    """Add sign * compose_into_slot(outer, slot, inner) into the term map `out`
    through Poly arithmetic: one Poly product per (outer term, Leibniz term)
    pair, added with _add_term, over the Leibniz expansion derivative_uncapped.
    The summation route diffop._OpAcc replaced; `expanded` maps alpha to
    derivative_uncapped(alpha, inner), filled on first use."""
    if expanded is None:
        expanded = {}
    j = slot - 1
    for o_orders, o_coeff in outer.terms.items():
        alpha = o_orders[j]
        d_inner = expanded.get(alpha)
        if d_inner is None:
            d_inner = expanded[alpha] = derivative_uncapped(alpha, inner)
        if sign < 0:
            o_coeff = -o_coeff
        for orders, c in d_inner.items():
            _add_term(out, o_orders[:j] + orders + o_orders[j + 1 :], o_coeff * c)


# The operator algebra on {orders tuple: Poly} term maps: the routes PolyDiffOp
# took before it stored packed keys.


def add_by_terms(A: dict, B: dict) -> dict:
    out = dict(A)
    for orders, c in B.items():
        _add_term(out, orders, c)
    return out


def neg_by_terms(A: dict) -> dict:
    return {orders: -c for orders, c in A.items()}


def scale_by_terms(A: dict, factor: Poly) -> dict:
    if factor.is_zero():
        return {}
    # Q[x] has no zero divisors, so no product below is zero
    return {orders: c * factor for orders, c in A.items()}


def transpose_by_terms(P: dict) -> dict:
    return {(b, a): c for (a, b), c in P.items()}


def partial_apply_by_terms(D: dict, slot: int, f: Poly) -> dict:
    j = slot - 1
    out = {}
    for orders, coeff in D.items():
        df = f.partial_multi(orders[j])
        if not df.is_zero():
            _add_term(out, orders[:j] + orders[j + 1 :], coeff * df)
    return out


def apply_by_terms(D: dict, dim: int, *args: Poly) -> Poly:
    out = Poly.zero(dim)
    for orders, coeff in D.items():
        term = coeff
        for o, f in zip(orders, args):
            df = f.partial_multi(o)
            if df.is_zero():
                break
            term = term * df
        else:
            out = out + term
    return out


def invert_gauge_by_neumann(R: GaugeOp) -> GaugeOp:
    """The inverse of R = 1 + A mod t^{N+1} by the finite Neumann series
    sum_{m>=0} (-A)^m: the powers A^m of the pure part, which has valuation
    >= 1, are iterated until truncation kills them."""
    N, dim = R.order, R.dim
    power = {k: R.op(k) for k in range(1, N + 1) if not R.op(k).is_zero()}
    total = [PolyDiffOp.zero(dim, 1) for _ in range(N)]
    sign = -1
    while power:
        for k, op in power.items():
            total[k - 1] = total[k - 1] + (op if sign > 0 else -op)
        # next power: A^{m+1} = A o A^m, truncated
        nxt = {}
        for i in range(1, N + 1):
            for j, Bj in power.items():
                if i + j <= N:
                    term = compose_into_slot(R.op(i), 1, Bj)
                    nxt[i + j] = nxt[i + j] + term if i + j in nxt else term
        power = {k: op for k, op in nxt.items() if not op.is_zero()}
        sign = -sign
    return GaugeOp(dim, N, total)


def gauge_compose_reference(R: GaugeOp, Q: GaugeOp) -> GaugeOp:
    """(R o Q)(f) = R(Q(f)) mod t^{N+1}: (R o Q)_k = sum_{i+j=k} R_i o Q_j, one
    compose_into_slot per pair."""
    ops = []
    for k in range(1, R.order + 1):
        acc = PolyDiffOp.zero(R.dim, 1)
        for i in range(k + 1):
            acc = acc + compose_into_slot(R.op(i), 1, Q.op(k - i))
        ops.append(acc)
    return GaugeOp(R.dim, R.order, ops)


def coboundary_by_composition(D: PolyDiffOp) -> PolyDiffOp:
    """The Hochschild coboundary of an operator of arity p, built from public
    compositions with the multiplication m, the route diffop._OpAcc.add_coboundary
    replaced:

        delta(D) = m o_2 D + sum_{i=1..p} (-1)^i D o_i m + (-1)^(p+1) m o_1 D,

    that is (f_0, ..., f_p) -> f_0 D(f_1, ..., f_p) + sum_i (-1)^i D(.., f_{i-1} f_i, ..)
    + (-1)^(p+1) D(f_0, ..., f_{p-1}) f_p.  hochschild_delta(Q) is -delta(Q) and
    cocycle_defect(P) is delta(P)."""
    m = PolyDiffOp.multiplication(D.dim)
    out = compose_into_slot(m, 2, D)
    for i in range(1, D.arity + 1):
        merged = compose_into_slot(D, i, m)
        out = out - merged if i % 2 else out + merged
    last = compose_into_slot(m, 1, D)
    return out + last if D.arity % 2 else out - last


def assoc_defects_by_composition(S: StarProduct) -> list:
    """D_k = sum_{i+j=k} P_i o_1 P_j - P_i o_2 P_j for k = 1..N, all k + 1 terms
    composed, the P_0 = multiplication terms included: the route that
    starprod._assoc_defects replaced with -delta(P_k) for i = 0 and i = k."""
    out = []
    for k in range(1, S.order + 1):
        D = PolyDiffOp.zero(S.dim, 3)
        for i in range(k + 1):
            Pi, Pj = S.op(i), S.op(k - i)
            D = D + compose_into_slot(Pi, 1, Pj) - compose_into_slot(Pi, 2, Pj)
        out.append(D)
    return out


def gauge_transform_by_composition(S: StarProduct, R: GaugeOp) -> StarProduct:
    """P'_k = sum_{i+j+l=k} P_i(R_j ., R_l .) - sum_{i=1..k} R_i o P'_{k-i}, one
    compose_into_slot per term, the P_0 = multiplication terms included: the
    route whose P_0 terms starprod.gauge_transform adds in closed form."""
    new_P = []
    for k in range(1, S.order + 1):
        acc = PolyDiffOp.zero(S.dim, 2)
        for i in range(k + 1):
            for j in range(k - i + 1):
                term = compose_into_slot(S.op(i), 1, R.op(j))
                acc = acc + compose_into_slot(term, 2, R.op(k - i - j))
        for i in range(1, k + 1):
            prev = new_P[k - i - 1] if k - i else PolyDiffOp.multiplication(S.dim)
            acc = acc - compose_into_slot(R.op(i), 1, prev)
        new_P.append(acc)
    return StarProduct(S.dim, S.order, new_P)


def vector_field_op(xi: MultiVec) -> PolyDiffOp:
    """A vector field as the arity-1 operator sum_i xi^i d_i, written out for
    degree 1: the builder that starprod.multiderivation replaced."""
    if xi.degree != 1:
        raise ValueError("need a vector field")
    terms = {}
    for (i,), c in xi.terms.items():
        o = [0] * xi.dim
        o[i - 1] = 1
        terms[(tuple(o),)] = c
    return PolyDiffOp(xi.dim, 1, terms)


def biderivation(c: MultiVec) -> PolyDiffOp:
    """The operator (f,g) -> sum_{i<j} c^{ij} (d_i f d_j g - d_j f d_i g) of a
    bivector, written out for degree 2: the builder that
    starprod.multiderivation replaced."""
    if c.degree != 2:
        raise ValueError("biderivation needs a bivector")
    n = c.dim
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    terms = {}
    for (i, j), cij in c.terms.items():
        terms[(unit[i - 1], unit[j - 1])] = cij
        terms[(unit[j - 1], unit[i - 1])] = -cij
    return PolyDiffOp(n, 2, terms)


def bivector_by_pair_lookup(D: PolyDiffOp):
    """The bivector c with biderivation(c) == D for an arity-2 D, or None:
    c^{ij} is looked up at d_i (x) d_j pair by pair, as assoc_poisson read
    it before starprod._multivector_of."""
    n = D.dim
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    view = D.terms
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            c = view.get((unit[i - 1], unit[j - 1]))
            if c is not None:
                terms[(i, j)] = c
    result = MultiVec(n, 2, terms)
    return result if biderivation(result) == D else None


def poly_by_fraction_sum(dim: int, terms) -> Poly:
    """Poly(dim, terms) by the former constructor: each coefficient summed as
    a Fraction at its key, then the numerators put over the lcm of the reduced
    denominators, which is already the normalized form."""
    clean = {}
    for exps, coeff in terms.items():
        coeff = _as_rat(coeff)
        if coeff:
            coeff += clean.get(exps, 0)
            if coeff:
                clean[exps] = coeff
            else:
                del clean[exps]
    den = lcm(*(c.denominator for c in clean.values()))
    return Poly._make(dim, 0, {_key(e): c.numerator * (den // c.denominator) for e, c in clean.items()}, den)


def fraction_sum(pairs) -> dict:
    """{key: Fraction} of (key, nonzero rational) pairs summed in turn: keys in
    the order of their first addition, a key whose sum cancels dropped and, if
    it comes back, added again at the end.  kernel._Sum.add and
    kernel._add_products, which sum int numerators over one denominator, are
    checked against it."""
    out = {}
    for k, v in pairs:
        v = out.get(k, 0) + Fraction(v)
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def diffop_from_payload_by_entries(payload, dim, path, arity=None) -> PolyDiffOp:
    """parser.diffop_from_payload by the former route: every entry checked in
    turn and its leaf read by parser._leaf on its own, however often its text
    repeats, and the entries summed in order as operators built by the
    PolyDiffOp constructor.  Refusals carry the reader's messages and paths."""

    def refuse_above_budget(value, where):
        if value > MAX_PACKED:
            raise SchemaError(str(_over_budget(value)), where)

    if isinstance(payload, dict):
        if not set(payload) <= {"arity", "terms"}:
            raise SchemaError("expected keys arity/terms", path)
        arity = payload.get("arity", arity)
        if type(arity) is not int or arity < 1:
            raise SchemaError("arity must be a positive integer", f"{path}.arity")
        entries = payload.get("terms", [])
        if not isinstance(entries, list):
            raise SchemaError("terms must be an array", f"{path}.terms")
        base = f"{path}.terms"
    elif isinstance(payload, list):
        entries, base = payload, path
    else:
        raise SchemaError("expected an array of {coeff, orders}", path)
    read = []
    for idx, entry in enumerate(entries):
        epath = f"{base}[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError("expected an object {coeff, orders}", epath)
        if set(entry) != {"coeff", "orders"}:
            raise SchemaError("expected keys coeff/orders", epath)
        orders = entry["orders"]
        if not (isinstance(orders, list) and all(
                isinstance(o, list) and all(type(e) is int and e >= 0 for e in o) for o in orders)):
            raise SchemaError("orders must be an array of multi-indices", f"{epath}.orders")
        if arity is None:
            arity = len(orders)
        if len(orders) != arity:
            raise SchemaError(f"orders must list {arity} multi-indices", f"{epath}.orders")
        if any(len(o) != dim for o in orders):
            raise SchemaError(f"multi-index length must equal dim = {dim}", f"{epath}.orders")
        orders = tuple(map(tuple, orders))
        refuse_above_budget(max(sum(orders, ()), default=0), f"{epath}.orders")
        # a leaf with an exponent above the budget is refused by _leaf itself
        coeff = _leaf(entry["coeff"], dim, f"{epath}.coeff")
        read.append((orders, coeff))
    if arity is None:
        raise SchemaError("empty diffop needs an explicit arity", path)
    if arity < 1:
        raise SchemaError("arity must be >= 1", path)
    total = PolyDiffOp.zero(dim, arity)
    for orders, coeff in read:
        total = total + PolyDiffOp(dim, arity, {orders: coeff})
    return total


def subprincipal_by_commutator(S: StarProduct, R: GaugeOp) -> MultiVec:
    """subprincipal(S, R) as its definition reads, on t-series of polynomials:
    c(phi)(x_i, x_j) is the t^2 coefficient of phi(x_i) * phi(x_j) - phi(x_j) * phi(x_i)
    less the t^1 coefficient R_1{x_i, x_j} of phi({x_i, x_j})."""
    n = S.dim
    pi = assoc_poisson(S)
    R1 = R.op(1)
    xs = [Poly.variable(n, i) for i in range(1, n + 1)]
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            comm = star_commutator(S, R.apply_poly(xs[i - 1]), R.apply_poly(xs[j - 1]))
            terms[(i, j)] = comm.coeff(2) - apply_op(R1, bracket(pi, xs[i - 1], xs[j - 1]))
    return MultiVec(n, 2, terms)


def contravariant_nabla_by_star_mul(M, f: Poly, m: Poly) -> Poly:
    """contravariant_nabla(M, f, m) as its definition reads: the t^1 coefficient
    of phi1(f) *1 m - m *1 Phi(phi0(f)), by star_mul on t-series."""
    S1 = M.star1
    mf = TPoly.from_poly(m, S1.order)
    left = star_mul(S1, M.phi1.gauge().apply_poly(f), mf)
    right = star_mul(S1, mf, M.G.apply(M.phi0.gauge().apply_poly(f)))
    return (left - right).coeff(1)


def moyal_by_tuples(pi: MultiVec, order: int) -> StarProduct:
    """moyal(pi, order) summed over all k-tuples of bivector entries, |E|^k per
    order: the sum as the formula writes it."""
    n = pi.dim
    entries = {}
    for (i, j), c in pi.terms.items():
        v = c.constant_value()
        entries[(i, j)] = v
        entries[(j, i)] = -v
    ops = []
    for k in range(1, order + 1):
        scale = Fraction(1, 2**k * factorial(k))
        terms = {}
        for pairs in product(entries.items(), repeat=k):
            coeff = scale
            alpha = [0] * n
            beta = [0] * n
            for (i, j), v in pairs:
                coeff *= v
                alpha[i - 1] += 1
                beta[j - 1] += 1
            if coeff == 0:
                continue
            key = (tuple(alpha), tuple(beta))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        ops.append(PolyDiffOp(n, 2, {k2: v for k2, v in terms.items() if v != 0}))
    return StarProduct(n, order, ops)


def exterior_d_by_sorting(omega: Form) -> Form:
    """exterior_d by sorting dx_i ^ dx_K for every term f dx_K and every i:
    the sign of d_i f is the parity of the sort, and a repeated index drops it."""
    out = {}
    for idx, c in omega.terms.items():
        for i in range(1, omega.dim + 1):
            p = c.partial(i)
            if p.is_zero():
                continue
            sign, key = sort_indices((i,) + idx)
            if sign == 0:
                continue
            _add_term(out, key, p if sign > 0 else -p)
    return Form(omega.dim, omega.degree + 1, out)


def pair(A: MultiVec, *alphas: Form) -> Poly:
    """Full antisymmetric contraction of a p-vector with p one-forms."""
    if not isinstance(A, MultiVec):
        raise TypeError("pair contracts a multivector with one-forms")
    if len(alphas) != A.degree:
        raise DegreeError(f"need {A.degree} one-forms, got {len(alphas)}")
    for a in alphas:
        if not (isinstance(a, Form) and a.degree == 1):
            raise DegreeError("pair arguments must be 1-forms")
        if a.dim != A.dim:
            raise DimensionMismatchError("dimension mismatch in pair")
    return _contract(A, alphas)


def form_eval(omega: Form, vectors) -> Poly:
    """Evaluate a p-form on p vector fields."""
    vectors = list(vectors)
    if len(vectors) != omega.degree:
        raise DegreeError(f"need {omega.degree} vectors, got {len(vectors)}")
    for v in vectors:
        if not (isinstance(v, MultiVec) and v.degree == 1):
            raise DegreeError("form_eval arguments must be vector fields")
        if v.dim != omega.dim:
            raise DimensionMismatchError("dimension mismatch in form_eval")
    return _contract(omega, vectors)


def _contract(T, vs) -> Poly:
    """Sum over T's terms of c * det(v_col(index_row)): T contracted with p dual 1-tensors."""
    if T.degree == 0:
        return T.as_poly()
    out = Poly.zero(T.dim)
    for idx, c in T.terms.items():
        out = out + c * _det([[v.coeff((i,)) for v in vs] for i in idx])
    return out


def _det(rows) -> Poly:
    """Exact determinant of a small square matrix of Polys (Laplace expansion)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = None
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        if j % 2 == 1:
            term = -term
        out = term if out is None else out + term
    return out


def koszul_bracket_by_pair(pi: MultiVec, alpha: Form, beta: Form) -> Form:
    """koszul_bracket with pi(alpha, beta) taken by the determinant contraction
    ``pair`` instead of <pi~ alpha, beta>."""
    return (
        lie_derivative(anchor(pi, alpha), beta)
        - lie_derivative(anchor(pi, beta), alpha)
        - exterior_d(Form.from_poly(pair(pi, alpha, beta)))
    )


def from_poisson_by_anchor(pi: MultiVec) -> AlgebroidPresentation:
    """from_poisson by the anchor of each basis 1-form and a scan of all n^2
    entries of pi: row i is pi~(dx_i), structure c_{ij}^k = d_k(pi^{ij})."""
    n = pi.dim
    rows = []
    for i in range(1, n + 1):
        v = anchor(pi, Form.basis(n, i))
        rows.append([v.coeff((j,)) for j in range(1, n + 1)])
    structure = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pij = pi.coeff((i, j))
            cs = [pij.partial(k) for k in range(1, n + 1)]
            if any(not c.is_zero() for c in cs):
                structure[(i, j)] = cs
    return AlgebroidPresentation(n, n, rows, structure)


def anchor_pullback_by_images(pi: MultiVec, omega: Form) -> MultiVec:
    """anchor_pullback from its values on coordinate differentials: for every
    key K of C(n, p), (-1)^p omega(pi~ dx_{k_1}, .., pi~ dx_{k_p})."""
    dim, p = pi.dim, omega.degree
    if p == 0:
        return MultiVec.from_poly(omega.as_poly())
    images = {i: anchor(pi, Form.basis(dim, i)) for i in range(1, dim + 1)}
    sign = -1 if p % 2 else 1
    terms = {}
    for key in combinations(range(1, dim + 1), p):
        val = form_eval(omega, [images[i] for i in key])
        terms[key] = val if sign == 1 else -val
    return MultiVec(dim, p, terms)


def triple_contraction_by_images(Q, m: int) -> MultiVec:
    """qclimit._triple_contraction from its values on coordinate differentials:
    for every key K of C(n, 3), sum_{i+j+k=m} H(pi_i~ dx_{k_1}, pi_j~ dx_{k_2},
    pi_k~ dx_{k_3}).  The summands are not alternating one by one; their sum is."""
    n = Q.dim
    images = {k: {i: anchor(Q.pi(k), Form.basis(n, i)) for i in range(1, n + 1)}
              for k in range(1, Q.order + 1)}
    terms = {}
    for key in combinations(range(1, n + 1), 3):
        val = Poly.zero(n)
        for i in range(1, min(Q.order, m - 2) + 1):
            for j in range(1, min(Q.order, m - i - 1) + 1):
                k = m - i - j
                if 1 <= k <= Q.order:
                    val = val + form_eval(Q.H, [images[i][key[0]], images[j][key[1]], images[k][key[2]]])
        terms[key] = val
    return MultiVec(n, 3, terms)


def star_mul_by_convolution(S: StarProduct, a: TPoly, b: TPoly) -> TPoly:
    """(a * b)_k = sum_{l+i+j=k} P_l(a_i, b_j), P_0 = multiplication."""
    out = []
    for k in range(S.order + 1):
        acc = Poly.zero(S.dim)
        for l in range(k + 1):
            for i in range(k - l + 1):
                acc = acc + apply_op(S.op(l), a.coeff(i), b.coeff(k - l - i))
        out.append(acc)
    return TPoly(S.order, out)


def gauge_apply_by_convolution(R: GaugeOp, f: TPoly) -> TPoly:
    """(R f)_k = f_k + sum_{i=1..k} R_i(f_{k-i})."""
    out = []
    for k in range(R.order + 1):
        acc = f.coeff(k)
        for i in range(1, k + 1):
            acc = acc + apply_op(R.op(i), f.coeff(k - i))
        out.append(acc)
    return TPoly(R.order, out)


class RefPoly:
    """Sparse multivariate polynomial over the rationals: the kernel's former
    {exps: Fraction} implementation, kept unchanged as the reference that the
    integer stored form of dqkit.kernel.Poly is checked against.

    ``terms`` maps exponent tuples of length ``dim`` to nonzero Fractions.
    Zero coefficients are never stored, so structural equality of the term
    maps is polynomial equality.

    The public constructor checks and normalizes its input.  Internal code that
    builds a term map which is already clean (tuple keys of length ``dim``,
    non-negative exponents, nonzero ``Fraction`` values only) wraps it with
    :meth:`_make`, which skips those checks and takes ownership of the dict.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        if dim < 0:
            raise ValueError("dim must be non-negative")
        self.dim = dim
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != dim:
                    raise ValueError(f"exponent vector {exps} has length != dim={dim}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = _as_rat(coeff)
                if coeff != 0:
                    clean[exps] = clean.get(exps, Fraction(0)) + coeff
                    if clean[exps] == 0:
                        del clean[exps]
        self.terms = clean

    @classmethod
    def _make(cls, dim: int, terms: dict) -> "RefPoly":
        """Wrap a term map that is clean by construction (see the class docstring)."""
        p = object.__new__(cls)
        p.dim = dim
        p.terms = terms
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dim: int) -> "RefPoly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value) -> "RefPoly":
        value = _as_rat(value)
        if value == 0:
            return cls(dim)
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def one(cls, dim: int) -> "RefPoly":
        return cls.const(dim, 1)

    @classmethod
    def variable(cls, dim: int, index: int) -> "RefPoly":
        """Coordinate x_index, 1-based."""
        if not 1 <= index <= dim:
            raise ValueError(f"coordinate index {index} out of range 1..{dim}")
        exps = [0] * dim
        exps[index - 1] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, dim: int, exps, coeff=1) -> "RefPoly":
        return cls(dim, {tuple(exps): _as_rat(coeff)})

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero for the zero poly)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.dim, Fraction(0))

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical emission order)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_dim(self, other: "RefPoly"):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"polynomial dimensions differ: {self.dim} vs {other.dim}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
                continue
            acc += coeff
            if acc:
                out[exps] = acc
            else:
                del out[exps]
        return RefPoly._make(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly._make(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_rat(other)
            if other == 0:
                return RefPoly(self.dim)
            return RefPoly._make(self.dim, {e: c * other for e, c in self.terms.items()})
        self._check_dim(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = out.get(exps)
                if acc is None:
                    out[exps] = c
                    continue
                acc += c
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return RefPoly._make(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = RefPoly.one(self.dim)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def partial(self, index: int) -> "RefPoly":
        """Formal partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.dim:
            raise IndexRangeError(f"coordinate index {index} out of range 1..{self.dim}")
        i = index - 1
        out = {}
        for exps, coeff in self.terms.items():
            k = exps[i]
            if k:
                # lowering one exponent is injective, so no two terms collide
                out[exps[:i] + (k - 1,) + exps[i + 1 :]] = coeff * k
        return RefPoly._make(self.dim, out)

    def partial_multi(self, orders) -> "RefPoly":
        """Iterated partial derivative along a multi-index (length dim)."""
        if len(orders) != self.dim:
            raise IndexRangeError(f"multi-index {tuple(orders)} has length != dim={self.dim}")
        if not any(orders):
            return self
        out = {}
        for exps, coeff in self.terms.items():
            mult = 1
            for e, k in zip(exps, orders):
                if e < k:
                    break
                mult *= perm(e, k)
            else:
                # exps -> exps - orders is injective, so no two terms collide
                out[tuple(map(sub, exps, orders))] = coeff * mult if mult != 1 else coeff
        return RefPoly._make(self.dim, out)

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.dim, other)
        if not isinstance(other, RefPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"RefPoly({self.dim}, 0)"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e > 0
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return f"RefPoly({self.dim}, {' + '.join(bits)})"
