"""Test-only reference implementations that the library's fast paths are checked against."""

from fractions import Fraction
from itertools import product

from dqkit.diffop import PolyDiffOp, hochschild_delta, transpose_parts
from dqkit.errors import SolveError
from dqkit.kernel import Poly
from dqkit.starprod import _delta_matrix_rows, exp_gauge


def dense_solve(columns, target_rows, row_index):
    """Dense Gauss-Jordan over Fraction with the contract of starprod._solve_exact.

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


def specialize_by_oracle(S, degree_bound):
    """specialize(S, degree_bound) without its precondition, built the unfused way:
    one hochschild_delta per unknown x^e d^alpha, solved by dense_solve."""
    n = S.dim
    sym, _ = transpose_parts(S.op(1))
    maxord = S.op(1).total_order()
    alphas = [a for a in product(range(maxord + 1), repeat=n) if sum(a) <= maxord]
    monos = [e for e in product(range(degree_bound + 1), repeat=n) if sum(e) <= degree_bound]
    basis = []
    columns = []
    keys = {}
    for alpha in alphas:
        for e in monos:
            q = PolyDiffOp(n, 1, {(alpha,): Poly.monomial(n, e)})
            col = _delta_matrix_rows(hochschild_delta(q))
            if not col:
                continue
            basis.append(q)
            columns.append(col)
            for key in col:
                keys.setdefault(key, len(keys))
    target = _delta_matrix_rows(sym)
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
