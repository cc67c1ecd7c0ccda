"""The sparse Hochschild solve in specialize against the dense, unfused route.

`oracles.dense_solve` is the dense Gauss-Jordan elimination specialize used
before its solve went sparse; `oracles.specialize_by_oracle` builds every
column from a hochschild_delta call.  Both routes must agree exactly:
solution, residual, and the order of the residual's rows.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dqkit.calculus import MultiVec
from dqkit.diffop import PolyDiffOp, hochschild_delta
from dqkit.errors import SolveError
from dqkit.kernel import Poly
from dqkit.starprod import (
    GaugeOp,
    StarProduct,
    _coboundary_pattern,
    _delta_matrix_rows,
    _solve_exact,
    gauge_transform,
    moyal,
    specialize,
)

from conftest import rand_diffop1
from oracles import dense_solve, specialize_by_oracle

VALUES = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def linear_systems(draw):
    """Small systems: dense or sparse entries, columns that copy a multiple of an
    earlier column or are zero, and targets in the column span, perturbed off it
    or drawn freely (mostly inconsistent)."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 6))
    pool = VALUES + [None] * draw(st.integers(0, 12))
    cols = []
    for j in range(n):
        kind = draw(st.sampled_from(["free", "copy", "zero"])) if j else "free"
        if kind == "copy":
            k = draw(st.integers(0, j - 1))
            s = draw(st.sampled_from(VALUES))
            cols.append([None if c is None else c * s for c in cols[k]])
        elif kind == "zero":
            cols.append([None] * m)
        else:
            cols.append([draw(st.sampled_from(pool)) for _ in range(m)])
    mode = draw(st.sampled_from(["span", "perturbed", "free"]))
    if mode == "free":
        target = [draw(st.sampled_from(pool)) or Fraction(0) for _ in range(m)]
    else:
        target = [Fraction(0)] * m
        for col in cols:
            u = draw(st.sampled_from(VALUES + [Fraction(0)]))
            target = [t + u * (c or 0) for t, c in zip(target, col)]
        if mode == "perturbed":
            r = draw(st.integers(0, m - 1))
            target[r] += draw(st.sampled_from(VALUES))
    keys = [("row", r) for r in range(m)]
    columns = [{keys[r]: c for r, c in enumerate(col) if c is not None} for col in cols]
    target_rows = {keys[r]: t for r, t in enumerate(target) if t != 0}
    row_index = draw(st.permutations(keys))
    return columns, target_rows, row_index


@settings(max_examples=300)
@given(linear_systems())
def test_sparse_solve_matches_dense(system):
    solution, residual = _solve_exact(*system)
    want_solution, want_residual = dense_solve(*system)
    assert solution == want_solution
    assert all(type(u) is Fraction for u in solution)
    assert list(residual.items()) == list(want_residual.items())


def test_solve_inconsistent_and_rank_deficient():
    a, b, c = ("row", 0), ("row", 1), ("row", 2)
    columns = [{a: Fraction(2), b: Fraction(4)}, {a: Fraction(1), b: Fraction(2)}, {}]
    target = {a: Fraction(1), c: Fraction(5)}
    solution, residual = _solve_exact(columns, target, [a, b, c])
    assert solution == [Fraction(1, 2), 0, 0]
    assert list(residual.items()) == [(b, Fraction(-2)), (c, Fraction(5))]
    assert (solution, residual) == dense_solve(columns, target, [a, b, c])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_columns_match_hochschild_delta(n):
    monos = [e for e in product(range(3), repeat=n) if sum(e) <= 2]
    for alpha in product(range(6), repeat=n):
        if sum(alpha) > 5:
            continue
        pattern = _coboundary_pattern(alpha)
        for e in monos:
            q = PolyDiffOp(n, 1, {(alpha,): Poly.monomial(n, e)})
            want = list(_delta_matrix_rows(hochschild_delta(q)).items())
            got = [((orders, e), c) for orders, c in pattern]
            assert got == want, (alpha, e)
            assert all(type(c) is Fraction for _, c in got)


def test_specialize_matches_oracle_route():
    rng = random.Random(4242)
    outcomes = set()
    for _ in range(12):
        dim = rng.choice([2, 3])
        N = rng.choice([1, 2])
        if rng.random() < 0.5:
            base, unital = moyal(MultiVec(dim, 2, {(1, 2): 1}), N), True
        else:
            base, unital = StarProduct.commutative(dim, N), False
        R = GaugeOp(
            dim, N, [rand_diffop1(rng, dim, rng.randint(1, 3), rng.randint(0, 3), 2, unital) for _ in range(N)]
        )
        S = gauge_transform(base, R)
        for degree in range(3):
            try:
                want = specialize_by_oracle(S, degree)
            except SolveError as exc:
                with pytest.raises(SolveError) as info:
                    specialize(S, degree)
                assert info.value.residual == exc.residual
                outcomes.add("residual")
            else:
                got = specialize(S, degree)
                assert got == want
                assert [list(op.terms.items()) for op in got.R] == [
                    list(op.terms.items()) for op in want.R
                ]
                outcomes.add("solved")
    assert outcomes == {"residual", "solved"}
