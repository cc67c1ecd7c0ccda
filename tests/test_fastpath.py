"""Pins the fast composition path against slow, independent routes.

The kernel and the operator layer wrap term maps they build themselves
without re-validating them, and the star-product routines sum Leibniz terms
straight into one dict, sharing one expansion of d^alpha o inner per inner
operator across a call and forming no splitting that differentiates every
coefficient to zero.  These tests check the results by evaluation, against
unfused and uncapped references, and by walking every output for the
invariants the trusted constructors no longer check.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dqkit.calculus import MultiVec
from dqkit.diffop import (
    PolyDiffOp,
    _compose_acc,
    _derivative_of,
    _exponent_cap,
    _splittings,
    apply_op,
    cocycle_defect,
    compose_into_slot,
    hochschild_delta,
)
from dqkit.errors import IndexRangeError
from dqkit.kernel import Poly
from dqkit.starprod import (
    GaugeOp,
    StarProduct,
    assoc_defect,
    gauge_compose,
    gauge_transform,
    invert_gauge,
    moyal,
)

from conftest import assert_clean_poly, rand_diffop1, rand_gauge
from oracles import derivative_uncapped, invert_gauge_by_neumann, moyal_by_tuples

DIM = 2

small_exps = st.tuples(*[st.integers(0, 3)] * DIM)
polys = st.dictionaries(small_exps, st.integers(-3, 3), max_size=3).map(
    lambda d: Poly(DIM, d)
)
multi_indices = st.tuples(*[st.integers(0, 2)] * DIM)


@st.composite
def ops(draw, arity=None):
    if arity is None:
        arity = draw(st.integers(1, 3))
    terms = draw(
        st.dictionaries(st.tuples(*[multi_indices] * arity), polys, max_size=3)
    )
    return PolyDiffOp(DIM, arity, terms)


# ----------------------------------------------------------------------
# invariant walker


def assert_clean(obj):
    """Every invariant a trusted constructor takes on trust, checked recursively."""
    if isinstance(obj, Poly):
        assert_clean_poly(obj, obj.dim)
    elif isinstance(obj, PolyDiffOp):
        assert obj.arity >= 1 and type(obj.terms) is dict
        for orders, c in obj.terms.items():
            assert type(orders) is tuple and len(orders) == obj.arity
            for o in orders:
                assert type(o) is tuple and len(o) == obj.dim
                assert all(type(e) is int and e >= 0 for e in o)
            assert_clean_poly(c, obj.dim)
            assert not c.is_zero()
    elif isinstance(obj, StarProduct):
        for op in obj.P:
            assert_clean(op)
    elif isinstance(obj, GaugeOp):
        for op in obj.R:
            assert_clean(op)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            assert_clean(item)
    else:
        raise AssertionError(f"unexpected output type {type(obj).__name__}")


# ----------------------------------------------------------------------
# (a) evaluation oracle for the Leibniz expansion


@given(st.data())
def test_compose_matches_evaluation(data):
    outer = data.draw(ops())
    inner = data.draw(ops())
    slot = data.draw(st.integers(1, outer.arity))
    arity = outer.arity + inner.arity - 1
    args = data.draw(st.lists(polys, min_size=arity, max_size=arity))
    composed = compose_into_slot(outer, slot, inner)
    assert_clean(composed)
    j = slot - 1
    middle = apply_op(inner, *args[j : j + inner.arity])
    want = apply_op(outer, *args[:j], middle, *args[j + inner.arity :])
    assert apply_op(composed, *args) == want


# ----------------------------------------------------------------------
# (b) unfused references built from public compose_into_slot and +/-


def ref_assoc_defect(S):
    out = []
    for k in range(1, S.order + 1):
        D = PolyDiffOp.zero(S.dim, 3)
        for i in range(k + 1):
            Pi, Pj = S.op(i), S.op(k - i)
            D = D + compose_into_slot(Pi, 1, Pj) - compose_into_slot(Pi, 2, Pj)
        out.append(D)
    return out


def ref_gauge_transform(S, R):
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


def ref_invert_gauge(R):
    # the inverse is the unique Q with R o Q = 1: Q_k = -sum_{i=1..k} R_i o Q_{k-i}
    Q = []
    for k in range(1, R.order + 1):
        acc = PolyDiffOp.zero(R.dim, 1)
        for i in range(1, k + 1):
            prev = Q[k - i - 1] if k - i else PolyDiffOp.identity(R.dim)
            acc = acc - compose_into_slot(R.op(i), 1, prev)
        Q.append(acc)
    return GaugeOp(R.dim, R.order, Q)


def ref_gauge_compose(R, Q):
    ops = []
    for k in range(1, R.order + 1):
        acc = PolyDiffOp.zero(R.dim, 1)
        for i in range(k + 1):
            acc = acc + compose_into_slot(R.op(i), 1, Q.op(k - i))
        ops.append(acc)
    return GaugeOp(R.dim, R.order, ops)


def ref_hochschild_delta(Q):
    mul = PolyDiffOp.multiplication(Q.dim)
    return (
        compose_into_slot(Q, 1, mul)
        - compose_into_slot(mul, 1, Q)
        - compose_into_slot(mul, 2, Q)
    )


def ref_cocycle_defect(P):
    mul = PolyDiffOp.multiplication(P.dim)
    return (
        compose_into_slot(mul, 2, P)
        - compose_into_slot(P, 1, mul)
        + compose_into_slot(P, 2, mul)
        - compose_into_slot(mul, 1, P)
    )


def std_moyal(n, order):
    pi = MultiVec(n, 2, {(i, i + 1): Poly.one(n) for i in range(1, n, 2)})
    return moyal(pi, order)


def gauged_moyals():
    rng = random.Random(20151)
    for n, N in [(2, 3), (4, 2), (2, 4)]:
        S = std_moyal(n, N)
        R = rand_gauge(rng, n, N)
        yield S, R, gauge_transform(S, R)


def test_fused_routines_match_unfused_references():
    for S, R, S2 in gauged_moyals():
        assert_clean(S2)
        assert S2 == ref_gauge_transform(S, R)
        defects = assoc_defect(S2)
        assert_clean(defects)
        assert defects == ref_assoc_defect(S2)
        assert all(D.is_zero() for D in defects)
        Rinv = invert_gauge(R)
        assert_clean(Rinv)
        assert Rinv == ref_invert_gauge(R)
        assert Rinv == invert_gauge_by_neumann(R)
        back = gauge_compose(R, Rinv)
        assert_clean(back)
        assert back == GaugeOp.identity_gauge(S.dim, S.order)
        assert gauge_compose(Rinv, R) == back
        assert gauge_transform(S2, Rinv) == S


@given(st.data())
def test_fused_routines_match_references_on_random_stars(data):
    # random stars are not associative and carry polynomial coefficients, so
    # no cancellation hides a wrong term and every exponent cap is exercised
    N = data.draw(st.integers(1, 3))
    S = StarProduct(DIM, N, [data.draw(ops(arity=2)) for _ in range(N)])
    R = GaugeOp(DIM, N, [data.draw(ops(arity=1)) for _ in range(N)])
    Q = GaugeOp(DIM, N, [data.draw(ops(arity=1)) for _ in range(N)])
    defects = assoc_defect(S)
    assert_clean(defects)
    assert defects == ref_assoc_defect(S)
    S2 = gauge_transform(S, R)
    assert_clean(S2)
    assert S2 == ref_gauge_transform(S, R)
    Rinv = invert_gauge(R)
    assert_clean(Rinv)
    assert Rinv == ref_invert_gauge(R)
    assert Rinv == invert_gauge_by_neumann(R)
    one = GaugeOp.identity_gauge(DIM, N)
    assert gauge_compose(R, Rinv) == one
    assert gauge_compose(Rinv, R) == one
    RQ = gauge_compose(R, Q)
    assert_clean(RQ)
    assert RQ == ref_gauge_compose(R, Q)


def test_fused_hochschild_matches_unfused():
    rng = random.Random(7)
    for _ in range(10):
        Q = rand_diffop1(rng, 3, max_order=3, unital=False)
        delta = hochschild_delta(Q)
        assert_clean(delta)
        assert delta == ref_hochschild_delta(Q)
    for _, _, S2 in gauged_moyals():
        for P in S2.P:
            cocycle = cocycle_defect(P)
            assert_clean(cocycle)
            assert cocycle == ref_cocycle_defect(P)


def test_cancellation_leaves_no_zero():
    # terms that cancel exactly must leave no stored zero behind
    Q = rand_diffop1(random.Random(3), 2, max_order=2)
    D = PolyDiffOp(2, 1, {}) + Q - Q
    assert D.terms == {} and compose_into_slot(Q, 1, Q - Q).terms == {}
    assert Q.scale(0).terms == {} and Q.scale(Poly.zero(2)).terms == {}


# ----------------------------------------------------------------------
# (c) the shared expansion dict and the exponent cap


@given(st.data())
def test_shared_expansion_matches_fresh_compose(data):
    inner = data.draw(ops())
    outers = data.draw(st.lists(ops(), min_size=1, max_size=4))
    inner_terms = list(inner.terms.items())
    expanded = {}  # one dict for `inner`, shared by every outer and slot
    for outer in outers:
        for slot in range(1, outer.arity + 1):
            sign = data.draw(st.sampled_from((1, -1)))
            out = {}
            _compose_acc(out, outer, slot, inner, sign, expanded)
            want = compose_into_slot(outer, slot, inner)
            if sign < 0:
                want = -want
            assert list(out.items()) == list(want.terms.items())
    # the cached expansions were only read: each still equals a fresh one
    cap = _exponent_cap(inner)
    for alpha, d_inner in expanded.items():
        assert list(d_inner.items()) == list(_derivative_of(alpha, inner, cap).items())
    assert list(inner.terms.items()) == inner_terms


@given(ops(), st.tuples(*[st.integers(0, 5)] * DIM))
def test_capped_derivative_matches_uncapped(inner, alpha):
    got = _derivative_of(alpha, inner, _exponent_cap(inner))
    assert list(got.items()) == list(derivative_uncapped(alpha, inner).items())


def test_capped_derivative_at_the_cap():
    x1sq = Poly(2, {(2, 0): 3})  # exponent 2 sits at the cap of x1
    inner = PolyDiffOp(2, 2, {((1, 0), (0, 0)): x1sq, ((0, 0), (0, 1)): Poly(2, {(1, 0): -1})})
    cap = _exponent_cap(inner)
    assert cap == [2, 0]  # x2 appears in no coefficient: its cap is 0
    for alpha in [(1, 0), (2, 0), (3, 0), (0, 1), (0, 3), (2, 2), (4, 1)]:
        got = _derivative_of(alpha, inner, cap)
        assert list(got.items()) == list(derivative_uncapped(alpha, inner).items())
    # the share x1^2 of alpha = (2, 0) falls on the coefficient and leaves 6
    assert _derivative_of((2, 0), inner, cap)[((1, 0), (0, 0))] == Poly.const(2, 6)


def test_multiplication_keeps_only_the_zero_coefficient_share():
    # P o m: the coefficient of m is 1, so every gamma_0 != 0 is dead
    m = PolyDiffOp.multiplication(3)
    cap = _exponent_cap(m)
    assert cap == [0, 0, 0]
    alpha = (2, 1, 3)
    kept = list(_splittings(alpha, 3, cap))
    assert all(gammas[0] == (0, 0, 0) for _, gammas in kept)
    assert len(kept) == 3 * 2 * 4  # alpha_c + 1 two-part splittings per coordinate
    everything = list(_splittings(alpha, 3, alpha))
    assert kept == [s for s in everything if s[1][0] == (0, 0, 0)]
    assert list(_derivative_of(alpha, m, cap).items()) == list(derivative_uncapped(alpha, m).items())


# ----------------------------------------------------------------------
# (d) moyal over multisets against the sum over all tuples


@st.composite
def constant_bivectors(draw):
    n = draw(st.sampled_from((2, 3, 4, 6)))
    order = draw(st.integers(1, 4))
    # keep |E|^order, the oracle's tuple count, small: |E| = 2 * (nonzero entries)
    most = {1: 15, 2: 15, 3: 6, 4: 3}[order]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=most, unique=True))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    return MultiVec(n, 2, {p: Poly.const(n, draw(values)) for p in chosen}), order


@given(constant_bivectors())
def test_moyal_matches_sum_over_tuples(case):
    pi, order = case
    got = moyal(pi, order)
    want = moyal_by_tuples(pi, order)
    assert got == want
    assert [list(P.terms.items()) for P in got.P] == [list(P.terms.items()) for P in want.P]
    assert_clean(got)


# ----------------------------------------------------------------------
# (e) one-pass partial_multi against iterated partial


@given(
    st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), st.integers(-5, 5), max_size=5),
    st.tuples(*[st.integers(0, 6)] * 3),
)
def test_partial_multi_matches_iterated_partial(terms, orders):
    p = Poly(3, terms)
    want = p
    for i, k in enumerate(orders, start=1):
        for _ in range(k):
            want = want.partial(i)
    got = p.partial_multi(orders)
    assert got == want
    assert_clean(got)


def test_partial_multi_orders_above_exponents():
    p = Poly(2, {(2, 1): 3, (0, 4): 1})
    assert p.partial_multi((3, 0)).is_zero()
    assert p.partial_multi((0, 2)) == Poly(2, {(0, 2): 12})
    assert p.partial_multi((2, 1)) == Poly.const(2, 6)
    assert p.partial_multi((0, 0)) == p
    with pytest.raises(IndexRangeError):
        p.partial_multi((1,))


@given(polys, polys)
def test_kernel_arithmetic_outputs_are_clean(p, q):
    for r in (p + q, p - q, -p, p * q, p * 3, p * Fraction(-1, 2), p.partial(1)):
        assert_clean(r)
    assert (p - p).terms == {}

