"""The closed-form Hochschild solve in specialize against the dense, unfused route.

`oracles.specialize_by_oracle` builds every column from a hochschild_delta
call and solves the whole system by `oracles.dense_solve`, a dense Gauss-Jordan
elimination.  Both routes must agree exactly: the gauge, the residual, and the
order of their terms.
"""

from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from dqkit.calculus import MultiVec
from dqkit.diffop import PolyDiffOp, _key, _pivot, hochschild_delta, transpose_parts
from dqkit.errors import SolveError
from dqkit.kernel import Poly
from dqkit.starprod import (
    GaugeOp,
    StarProduct,
    gauge_transform,
    moyal,
    specialize,
)

from oracles import coboundary_pattern, delta_matrix_rows, pivot_row, specialize_by_oracle

VALUES = [Fraction(v) for v in (-3, -2, -1, 1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]


def _multi_indices(dim, top):
    return [a for a in product(range(top + 1), repeat=dim) if sum(a) <= top]


@st.composite
def gauged_products(draw):
    """A Moyal product of a constant bivector, or the commutative product, of
    dimension 2-3 and order 1-2, gauged by operators of order <= 2 whose
    coefficients have degree <= 3; gauges of the commutative product may have
    an order-0 part."""
    dim = draw(st.integers(2, 3))
    N = draw(st.integers(1, 2))
    if draw(st.booleans()):
        pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
        pi = draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from(VALUES), min_size=1))
        base, lowest = moyal(MultiVec(dim, 2, pi), N), 1
    else:
        base, lowest = StarProduct.commutative(dim, N), 0
    orders = [a for a in _multi_indices(dim, 2) if sum(a) >= lowest]
    monos = _multi_indices(dim, 3)
    ops = []
    for _ in range(N):
        terms = draw(st.dictionaries(
            st.sampled_from(orders),
            st.builds(lambda e, c: Poly.monomial(dim, e, c), st.sampled_from(monos), st.sampled_from(VALUES)),
            max_size=3,
        ))
        ops.append(PolyDiffOp(dim, 1, {(a,): c for a, c in terms.items()}))
    return gauge_transform(base, GaugeOp(dim, N, ops))


def _term_list(op):
    """The terms of an operator in storage order, each coefficient's too."""
    return [(orders, list(c.items())) for orders, c in op.terms.items()]


def _sym_degree(S):
    """The largest coefficient degree of sym(P_1), -1 when it is zero."""
    sym, _ = transpose_parts(S.op(1))
    return max((c.total_degree() for c in sym.terms.values()), default=-1)


def test_specialize_matches_oracle_route():
    seen = set()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(gauged_products(), st.integers(0, 3))
    def run(S, degree):
        try:
            want = specialize_by_oracle(S, degree)
        except SolveError as exc:
            with pytest.raises(SolveError) as info:
                specialize(S, degree)
            assert info.value.residual == exc.residual
            seen.add("residual")
        else:
            got = specialize(S, degree)
            assert got == want
            seen.add("identity" if got == GaugeOp.identity_gauge(S.dim, S.order) else "solved")

    run()
    assert seen == {"identity", "solved", "residual"}


def test_gauge_from_a_reverse_stored_sym():
    """The gauge is the oracle's however sym(P_1) is stored: here its pivot
    rows and their coefficients come in reverse order."""
    x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
    R1 = PolyDiffOp(2, 1, {((2, 0),): x1 + x2 * x2, ((1, 1),): x1 * x2 + 1, ((0, 2),): x2})
    S = gauge_transform(StarProduct.commutative(2, 1), GaugeOp(2, 1, [R1]))
    P1 = PolyDiffOp(2, 2, {orders: Poly(2, dict(sorted(c.items(), reverse=True)))
                           for orders, c in sorted(S.op(1).terms.items(), reverse=True)})
    S = StarProduct(2, 1, [P1])
    sym, _ = transpose_parts(P1)
    pivots = []
    for orders, c in sym.terms.items():
        alpha = tuple(map(sum, zip(*orders)))
        if pivot_row(alpha)[0] == orders:
            pivots.append((alpha, list(c.exponents())))
    assert pivots[0] == ((2, 0), [(1, 0), (0, 2)])
    assert [a for a, _ in pivots] == [(2, 0), (1, 1), (0, 2)]
    assert specialize(S, 2) == specialize_by_oracle(S, 2)


def test_work_does_not_depend_on_the_degree_bound():
    """Once the bound reaches sym(P_1)'s coefficient degree, a larger bound
    gives the same gauge: an enormous one included."""
    seen = set()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(gauged_products())
    def run(S):
        degree = max(_sym_degree(S), 0)
        far = specialize(S, 10**9)
        for bound in (degree, degree + 2):
            got = specialize(S, bound)
            assert got == far
            assert [_term_list(op) for op in got.R] == [_term_list(op) for op in far.R]
        seen.add(min(degree, 2))

    run()
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pivot_row_is_the_first_pattern_row(n):
    """specialize reads each unknown off the row that oracles.dense_solve pivots on:
    the first term of delta(d^alpha) in hochschild_delta's key order.  diffop._pivot
    names that row on packed keys: every key x^e (d^beta (x) d^gamma) with
    |beta + gamma| <= 5 is checked against oracles.pivot_row."""
    for alpha in _multi_indices(n, 5):
        pattern = coboundary_pattern(alpha)
        assert pivot_row(alpha) == (pattern[0] if pattern else None), alpha
    e = tuple(range(n))  # any coefficient exponent rides along unchanged
    for orders in _multi_indices(2 * n, 5):
        beta, gamma = orders[:n], orders[n:]
        alpha = tuple(map(add, beta, gamma))
        want = pivot_row(alpha)
        if want is not None and want[0] == (beta, gamma):
            want = (_key(e + alpha), want[1])
        else:
            want = None
        assert _pivot(_key(e + orders), n) == want, orders


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_columns_match_hochschild_delta(n):
    for alpha in _multi_indices(n, 5):
        pattern = coboundary_pattern(alpha)
        for e in _multi_indices(n, 2):
            q = PolyDiffOp(n, 1, {(alpha,): Poly.monomial(n, e)})
            want = list(delta_matrix_rows(hochschild_delta(q)).items())
            got = [((orders, e), c) for orders, c in pattern]
            assert got == want, (alpha, e)
            assert all(type(c) is Fraction for _, c in got)
