"""Pins the fast composition path against slow, independent routes.

The kernel and the operator layer wrap term maps they build themselves
without re-validating them.  Every composition works on packed keys, one int
per (order tuple, exponent tuple) with 16-bit fields.  Each call makes one
diffop._OpAcc, a sum of int numerators over one common denominator, rescaled
when an operand with a new denominator arrives, whose map becomes the
result's own once it is normalized.  It packs each operator it composes once
into a diffop._Packed handle, which expands d^alpha o op by the Leibniz rule
one coordinate block at a time.  These tests check the results by
evaluation, against unfused, uncapped and Poly-per-pair references, at the
edge of the 16-bit fields, and by walking every output for the invariants
the trusted constructors no longer check.  Coefficients are drawn with
denominators 1, 2, 3, 4 and 6, so the common denominator is rescaled in most
examples.  The Hochschild coboundary, which the accumulator adds in closed
form, is checked against its composition route with the multiplication
(oracles).
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dqkit.calculus import MultiVec
from dqkit import diffop, kernel, starprod
from dqkit.diffop import (
    PolyDiffOp,
    _OpAcc,
    apply_op,
    cocycle_defect,
    compose_into_slot,
    hochschild_delta,
    partial_apply,
    transpose,
)
from dqkit.errors import BudgetError, IndexRangeError, SolveError
from dqkit.kernel import MAX_PACKED, Poly, _check_budget
from dqkit.starprod import (
    GaugeOp,
    StarProduct,
    assoc_defect,
    exp_gauge,
    gauge_transform,
    invert_gauge,
    is_associative,
    moyal,
    specialize,
)

from conftest import assert_clean_poly, rand_diffop1, rand_gauge
from oracles import (
    RefPoly,
    add_by_terms,
    apply_by_terms,
    assoc_defects_by_composition,
    coboundary_by_composition,
    compose_acc_by_poly,
    derivative_uncapped,
    gauge_compose_reference,
    gauge_transform_by_composition,
    invert_gauge_by_neumann,
    moyal_by_tuples,
    neg_by_terms,
    partial_apply_by_terms,
    scale_by_terms,
    transpose_by_terms,
)

DIM = 2

small_exps = st.tuples(*[st.integers(0, 3)] * DIM)
rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 4, 6)))
polys = st.dictionaries(small_exps, rationals, max_size=3).map(lambda d: Poly(DIM, d))
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
        assert obj.arity >= 1 and type(obj._num) is dict and type(obj._den) is int and obj._den > 0
        assert all(type(k) is int and k >= 0 and type(n) is int and n for k, n in obj._num.items())
        assert gcd(obj._den, *obj._num.values()) == 1 and (obj._num or obj._den == 1)
        width = obj.dim * (obj.arity + 1)
        assert all(k >> 16 * width == 0 and max(field(k, i) for i in range(width)) <= MAX_PACKED
                   for k in obj._num)
        for orders, c in obj.terms.items():
            assert type(orders) is tuple and len(orders) == obj.arity
            for o in orders:
                assert type(o) is tuple and len(o) == obj.dim
                assert all(type(e) is int and e >= 0 for e in o)
            assert_clean_poly(c, obj.dim)
            assert not c.is_zero()
        # a coefficient's keys are the low blocks of the operator's keys, as they are
        low = (1 << 16 * obj.dim) - 1
        assert sorted(k for c in obj.terms.values() for k in c._num) == sorted(k & low for k in obj._num)
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


def field(key, i):
    return key >> 16 * i & 0xFFFF


def as_op(dim, arity, terms, den):
    """The operator of a packed map over den, built from a copy: a handle's
    maps stay as they are."""
    terms = dict(terms)
    _check_budget(terms, dim * (arity + 1))
    return PolyDiffOp._normal(dim, arity, terms, den)


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
        assert S2 == gauge_transform_by_composition(S, R)
        defects = assoc_defect(S2)
        assert_clean(defects)
        assert defects == assoc_defects_by_composition(S2)
        assert all(D.is_zero() for D in defects)
        assert is_associative(S2)
        Rinv = invert_gauge(R)
        assert_clean(Rinv)
        assert Rinv == ref_invert_gauge(R)
        assert Rinv == invert_gauge_by_neumann(R)
        back = gauge_compose_reference(R, Rinv)
        assert_clean(back)
        assert back == GaugeOp.identity_gauge(S.dim, S.order)
        assert gauge_compose_reference(Rinv, R) == back
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
    assert defects == assoc_defects_by_composition(S)
    # is_associative stops at the first nonzero order and must agree
    assert is_associative(S) == all(D.is_zero() for D in defects)
    S2 = gauge_transform(S, R)
    assert_clean(S2)
    assert S2 == gauge_transform_by_composition(S, R)
    Rinv = invert_gauge(R)
    assert_clean(Rinv)
    assert Rinv == ref_invert_gauge(R)
    assert Rinv == invert_gauge_by_neumann(R)
    one = GaugeOp.identity_gauge(DIM, N)
    assert gauge_compose_reference(R, Rinv) == one
    assert gauge_compose_reference(Rinv, R) == one
    assert_clean(gauge_compose_reference(R, Q))


def test_fused_hochschild_matches_unfused():
    rng = random.Random(7)
    for _ in range(10):
        Q = rand_diffop1(rng, 3, max_order=3, unital=False)
        delta = hochschild_delta(Q)
        assert_clean(delta)
        assert delta == -coboundary_by_composition(Q)
    for _, _, S2 in gauged_moyals():
        for P in S2.P:
            cocycle = cocycle_defect(P)
            assert_clean(cocycle)
            assert cocycle == coboundary_by_composition(P)


# ----------------------------------------------------------------------
# (b') the closed-form Hochschild coboundary against the composition route


def slotted_ops(dim, arity):
    """Operators on R^dim of the given arity whose slots are often of order 0:
    each slot is zero or a multi-index with fields 0..2, and each coefficient
    has one or two terms with denominators 1, 2, 3, 4 and 6."""
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    coeffs = st.dictionaries(exps, rationals, min_size=1, max_size=2).map(lambda d: Poly(dim, d))
    slot = st.one_of(st.just((0,) * dim), exps)
    return st.dictionaries(st.tuples(*[slot] * arity), coeffs, max_size=3).map(
        lambda terms: PolyDiffOp(dim, arity, terms))


def zero_slot_kinds(D):
    """The kinds of order-0 slot among D's terms."""
    kinds = set()
    for orders in D.terms:
        zero = [not any(o) for o in orders]
        if all(zero):
            kinds.add("order 0 throughout")
        elif any(zero):
            kinds.add("order-0 slot")
    return kinds


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_closed_form_coboundary_matches_composition(dim):
    """_OpAcc.add_coboundary, hochschild_delta and cocycle_defect against
    f_0 D, the merges with the multiplication and D f_p, composed: arity 1..3,
    added with either sign to a sum that already holds an operator."""
    seen = set()

    @settings(max_examples=60, derandomize=True)
    @given(st.data())
    def run(data):
        p = data.draw(st.integers(1, 3))
        D = data.draw(slotted_ops(dim, p))
        held = data.draw(slotted_ops(dim, p + 1))
        sign = data.draw(st.sampled_from((1, -1)))
        want = coboundary_by_composition(D)
        acc = _OpAcc(dim)
        acc.add(held)
        acc.add_coboundary(D, sign)
        got = acc.op(p + 1)
        assert_clean(got)
        assert got == held + (want if sign > 0 else -want)
        if p == 1:
            assert hochschild_delta(D) == -want
        elif p == 2:
            assert cocycle_defect(D) == want
        seen.add(p)
        seen.update(zero_slot_kinds(D))
        if D._den != 1:
            seen.add("denominator")

    run()
    assert seen == {1, 2, 3, "order-0 slot", "order 0 throughout", "denominator"}


@settings(max_examples=30, derandomize=True)
@given(st.data())
def test_coboundary_tables_for_mixed_slot_orders(data):
    """Coboundaries of arity 1-3 whose three terms put order 0, a first order
    and a higher order in turn into each slot, so every slot reads all three
    kinds of split table in one call and every term of arity 2 or 3 mixes
    them: against the composition route, added with either sign."""
    dim = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    higher = exps.filter(lambda o: sum(o) >= 2)

    def order(kind):
        if kind == 0:
            return (0,) * dim
        if kind == 1:
            j = data.draw(st.integers(0, dim - 1))
            return tuple(int(i == j) for i in range(dim))
        return data.draw(higher)

    coeffs = st.dictionaries(exps, rationals.filter(bool), min_size=1, max_size=2)
    D = PolyDiffOp(dim, p, {tuple(order((t + i) % 3) for i in range(p)): Poly(dim, data.draw(coeffs))
                            for t in range(3)})
    # every slot has an order 0, a first order and a higher one, so it reads all three kinds of table
    for i in range(p):
        assert {min(sum(orders[i]), 2) for orders in D.terms} == {0, 1, 2}
    sign = data.draw(st.sampled_from((1, -1)))
    want = coboundary_by_composition(D)
    acc = _OpAcc(dim)
    acc.add_coboundary(D, sign)
    got = acc.op(p + 1)
    assert_clean(got)
    assert got == (want if sign > 0 else -want)
    if p == 1:
        assert hochschild_delta(D) == -want
    elif p == 2:
        assert cocycle_defect(D) == want


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_assoc_defects_match_composition(dim):
    """assoc_defect, whose P_0 terms are -delta(P_k) in closed form, against all
    k + 1 composed terms, on random stars of orders 1..3; is_associative agrees."""
    seen = set()

    @settings(max_examples=30, derandomize=True)
    @given(st.data())
    def run(data):
        N = data.draw(st.integers(1, 3))
        S = StarProduct(dim, N, [data.draw(slotted_ops(dim, 2)) for _ in range(N)])
        defects = assoc_defect(S)
        assert_clean(defects)
        assert defects == assoc_defects_by_composition(S)
        assert is_associative(S) == all(D.is_zero() for D in defects)
        seen.add(N)
        for P in S.P:
            seen.update(zero_slot_kinds(P))
            if P._den != 1:
                seen.add("denominator")
        if N == 3 and not defects[1].is_zero() and not defects[2].is_zero():
            seen.add("D_2 and D_3 nonzero")

    run()
    assert seen == {1, 2, 3, "order-0 slot", "order 0 throughout", "denominator", "D_2 and D_3 nonzero"}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_gauge_transform_matches_composition(dim):
    """gauge_transform, whose P_0 terms are R_k's own map and delta(R_k) in
    closed form, against every term composed, on random stars and gauges of
    orders 1..3 whose R_k are often zero or carry terms of order 0."""
    seen = set()

    @settings(max_examples=30, derandomize=True)
    @given(st.data())
    def run(data):
        N = data.draw(st.integers(1, 3))
        S = StarProduct(dim, N, [data.draw(slotted_ops(dim, 2)) for _ in range(N)])
        R = GaugeOp(dim, N, [data.draw(slotted_ops(dim, 1)) for _ in range(N)])
        got = gauge_transform(S, R)
        assert_clean(got)
        assert got == gauge_transform_by_composition(S, R)
        seen.add(N)
        for Rk in R.R:
            if Rk.is_zero():
                seen.add("zero R_k")
            if "order 0 throughout" in zero_slot_kinds(Rk):
                seen.add("order-0 gauge term")
            if Rk._den != 1:
                seen.add("denominator")

    run()
    assert seen == {1, 2, 3, "zero R_k", "order-0 gauge term", "denominator"}


def test_cancellation_leaves_no_zero():
    # terms that cancel exactly must leave no stored zero behind
    Q = rand_diffop1(random.Random(3), 2, max_order=2)
    D = PolyDiffOp(2, 1, {}) + Q - Q
    assert D.terms == {} and compose_into_slot(Q, 1, Q - Q).terms == {}
    assert Q.scale(0).terms == {} and Q.scale(Poly.zero(2)).terms == {}


# ----------------------------------------------------------------------
# (c) packed handles, the block Leibniz expansion and the 16-bit fields


def pack(fields):
    """The packed int of a field sequence, field i at bit 16 i."""
    return sum(f << 16 * i for i, f in enumerate(fields))


@given(st.data())
def test_shared_expansion_matches_fresh_compose(data):
    inner = data.draw(ops())
    outers = data.draw(st.lists(ops(), min_size=1, max_size=4))
    inner_terms = list(inner.terms.items())
    acc = _OpAcc(DIM)
    handle = acc.packed(inner)  # one handle for `inner`, shared by every outer and slot
    packed = dict(handle.op._num)
    for outer in outers:
        for slot in range(1, outer.arity + 1):
            sign = data.draw(st.sampled_from((1, -1)))
            acc.add_compose(outer, slot, inner, sign)
            got = acc.op(outer.arity + inner.arity - 1)
            assert_clean(got)
            want = compose_into_slot(outer, slot, inner)
            if sign < 0:
                want = -want
            assert got.terms == want.terms
    # the cached expansions were only read: each still equals a fresh one,
    # key order included, and the packed operator is unchanged
    assert acc.packed(inner) is handle
    fresh = _OpAcc(DIM).packed(inner)
    for alpha, expansion in handle._exp.items():
        assert list(expansion.items()) == list(fresh._expanded(alpha).items())
    assert handle.op._num == packed and list(handle.op._num) == list(packed)
    assert list(inner.terms.items()) == inner_terms


@given(st.data())
def test_accumulated_sum_matches_poly_per_pair_route(data):
    # one accumulator takes operators and compositions of either sign, in any
    # order, and must equal the same sum formed by one Poly product per pair;
    # as in _assoc_defects, one handle per operator serves every slot and
    # every later sum
    arity = data.draw(st.integers(1, 3))
    inner = data.draw(ops(arity=data.draw(st.integers(1, arity))))
    outer_arity = arity - inner.arity + 1
    outers = data.draw(st.lists(ops(arity=outer_arity), min_size=1, max_size=2))
    acc = _OpAcc(DIM)
    for _ in range(2):
        want = {}
        for _ in range(data.draw(st.integers(1, 4))):
            sign = data.draw(st.sampled_from((1, -1)))
            if data.draw(st.booleans()):
                op = data.draw(ops(arity=arity))
                acc.add(op, sign)
                compose_acc_by_poly(want, PolyDiffOp.identity(DIM), 1, op, sign)
            else:
                outer = data.draw(st.sampled_from(outers))
                for slot in range(1, outer_arity + 1):
                    acc.add_compose(outer, slot, inner, sign)
                    compose_acc_by_poly(want, outer, slot, inner, sign)
        got = acc.op(arity)
        assert_clean(got)
        assert got.terms == want
        # op() empties the accumulator
        assert acc.op(arity).is_zero() and acc.den == 1


def test_accumulator_rescales_to_new_denominators():
    # denominators 2, 3 and 4 arrive in turn: den goes 1 -> 2 -> 6 -> 12, and
    # a term that cancels leaves no zero numerator behind
    x, y = (1, 0), (0, 1)
    a, b = ((1, 0),), ((0, 1),)

    def op(terms):
        return PolyDiffOp(DIM, 1, {orders: Poly(DIM, c) for orders, c in terms.items()})

    steps = [
        op({a: {x: Fraction(1, 2), y: 1}, b: {y: Fraction(1, 2)}}),
        op({a: {x: Fraction(1, 3)}, b: {y: Fraction(-1, 2)}}),
        op({a: {x: Fraction(-5, 6), y: Fraction(1, 4)}}),
    ]
    acc = _OpAcc(DIM)
    want = PolyDiffOp.zero(DIM, 1)
    dens = []
    for step in steps:
        acc.add(step)
        want = want + step
        dens.append(acc.den)
    assert dens == [2, 6, 12]
    # y d_2 cancelled at den 6 and x d_1 at den 12: only y d_1 is stored
    assert pack((*y, *b[0])) not in acc.terms and pack((*x, *a[0])) not in acc.terms
    assert acc.terms == {pack((*y, *a[0])): 15}
    assert all(acc.terms.values())
    got = acc.op(1)
    assert_clean(got)
    assert got == want
    assert got.terms == {a: Poly(DIM, {y: Fraction(5, 4)})}
    assert got.terms[a]._den == 4


@given(ops(), st.tuples(*[st.integers(0, 5)] * DIM))
def test_block_expansion_matches_uncapped(inner, alpha):
    handle = _OpAcc(DIM).packed(inner)
    got = as_op(DIM, inner.arity, handle._expanded(pack(alpha)), handle.op._den)
    assert_clean(got)
    assert got.terms == derivative_uncapped(alpha, inner)
    # the same expansion through the public composition d^alpha o inner
    assert compose_into_slot(PolyDiffOp(DIM, 1, {(alpha,): 1}), 1, inner).terms == got.terms


def test_block_expansion_at_the_exponent():
    x1sq = Poly(2, {(2, 0): 3})  # a share of x1 above 2 kills this coefficient
    inner = PolyDiffOp(2, 2, {((1, 0), (0, 0)): x1sq, ((0, 0), (0, 1)): Poly(2, {(1, 0): -1})})
    handle = _OpAcc(2).packed(inner)
    for alpha in [(1, 0), (2, 0), (3, 0), (0, 1), (0, 3), (2, 2), (4, 1)]:
        got = as_op(2, 2, handle._expanded(pack(alpha)), handle.op._den)
        assert got.terms == derivative_uncapped(alpha, inner)
    # the share x1^2 of alpha = (2, 0) falls on the coefficient and leaves 6
    d2 = as_op(2, 2, handle._expanded(pack((2, 0))), handle.op._den)
    assert d2.terms[((1, 0), (0, 0))] == Poly.const(2, 6)
    # alpha' of (2, 2) is (2, 0), and it is kept in the handle
    assert pack((2, 0)) in handle._exp


def test_multiplication_keeps_only_the_zero_coefficient_share():
    # d^alpha o m: the coefficient of m is 1, so only g_0 = 0 is ever formed
    m = PolyDiffOp.multiplication(3)
    alpha = (2, 1, 3)
    handle = _OpAcc(3).packed(m)
    expansion = handle._expanded(pack(alpha))
    assert all(key & (1 << 48) - 1 == 0 for key in expansion)  # coefficient fields stay 0
    assert len(expansion) == 3 * 2 * 4  # alpha_c + 1 two-slot shares per coordinate
    got = as_op(3, 2, expansion, handle.op._den)
    assert list(got.terms.items()) == list(derivative_uncapped(alpha, m).items())


@settings(max_examples=30, derandomize=True)
@given(st.data())
def test_leibniz_tables_at_each_side_of_the_exponent(data):
    """d^alpha o op for an op of arity 1-3 whose terms have exponent e_c below,
    equal to and above alpha_c at one coordinate c, so the block at c caps the
    coefficient share g_0 at three exponents in one base (other coordinates of
    alpha add blocks before and after it): against the uncapped expansion, and
    through compose_into_slot."""
    dim = data.draw(st.integers(1, 3))
    arity = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(0, dim - 1))
    a = data.draw(st.integers(1, 3))
    small = st.integers(0, 2)
    terms = {}
    edges = {data.draw(st.integers(0, a - 1)), a, data.draw(st.integers(a + 1, a + 2))}
    for e_c in edges:
        e = [data.draw(small) for _ in range(dim)]
        e[c] = e_c
        orders = tuple(tuple(data.draw(small) for _ in range(dim)) for _ in range(arity))
        # monomials with different e_c never cancel, so all three stay
        terms[orders] = terms.get(orders, Poly.zero(dim)) + Poly(dim, {tuple(e): data.draw(rationals.filter(bool))})
    op = PolyDiffOp(dim, arity, terms)
    alpha = tuple(a if j == c else data.draw(st.integers(0, 1)) for j in range(dim))
    handle = _OpAcc(dim).packed(op)
    calls = []  # (right side, left numerators) of every _add_products call

    def recording(terms, left, right, m=1):
        left = list(left)
        calls.append((right, [n for _, n in left]))
        kernel._add_products(terms, left, right, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffop, "_add_products", recording)
        got = as_op(dim, arity, handle._expanded(pack(alpha)), handle.op._den)
    # the block at c formed each share g_0 <= min(a, e_c) of a base term once,
    # and none above e_c, whose weight perm(e_c, g_0) is zero
    at_c = [t for (_, shift, _), t in handle.shares.items() if shift == 16 * c]
    base = handle._exp[pack(alpha) & (1 << 16 * c) - 1]
    rows = sum(len(ns) for right, ns in calls if any(right is t for t in at_c))
    assert rows == sum(min(a, key >> 16 * c & 0xFFFF) + 1 for key in base)
    assert all(all(ns) for _, ns in calls)
    assert_clean(got)
    assert got.terms == derivative_uncapped(alpha, op)
    assert compose_into_slot(PolyDiffOp(dim, 1, {(alpha,): 1}), 1, op).terms == got.terms


def test_fields_at_the_budget_compose_exactly():
    # exponents and orders of exactly MAX_PACKED next to each other: the
    # coefficient fields of a product reach 2 * MAX_PACKED = 2^16 - 2 and an
    # order field MAX_PACKED + 2, and nothing carries into the next field.
    # Such a sum is over the budget, so its operator is refused when it is
    # built, and so is a Poly product past it; the accumulator's packed sum is
    # read here directly, against coefficient products of the tuple-keyed RefPoly
    top = MAX_PACKED
    outer = PolyDiffOp(2, 2, {
        ((2, 0), (top, 1)): Poly(2, {(top, 0): Fraction(1, 3), (0, top): 1}),
        ((0, 1), (0, top)): Poly(2, {(1, top): -2}),
    })
    inner = PolyDiffOp(2, 1, {((top, 0),): Poly(2, {(top, 2): Fraction(1, 2), (top, top): 5})})
    # the slot that is composed has the small orders; the other keeps its own
    for slot, op in [(1, outer), (2, transpose(outer))]:
        want = {}
        j = slot - 1
        for o_orders, o_coeff in op.terms.items():
            for orders, c in derivative_uncapped(o_orders[j], inner).items():
                key = o_orders[:j] + orders + o_orders[j + 1:]
                want[key] = want.get(key, 0) + RefPoly(2, o_coeff.terms) * RefPoly(2, c.terms)
        acc = _OpAcc(2)
        acc.add_compose(op, slot, inner)
        got = {k: Fraction(n, acc.den) for k, n in acc.terms.items()}
        assert got == {pack(e + sum(orders, ())): v for orders, c in want.items() for e, v in c.terms.items()}
        with pytest.raises(BudgetError) as info:
            compose_into_slot(op, slot, inner)
        assert "65534 is above" in str(info.value)
    # the term ((0, top), (top, 1)) of the last sum
    assert got[pack((top + 1, top + 2, 0, top, top, 1))] == -1
    assert got[pack((top + 1, 2 * top, 0, top, top, 1))] == -10


def test_packing_above_the_budget_is_refused_before_any_work(monkeypatch):
    # an operator above the budget is refused when it is built, so no
    # composition ever takes one as an operand
    def no_work(*args):
        raise AssertionError("composed past the budget")

    monkeypatch.setattr(_OpAcc, "add_compose", no_work)
    monkeypatch.setattr(_OpAcc, "add", no_work)
    over = MAX_PACKED + 1

    def x_over():  # no Poly holds an exponent above the budget, so the coefficient is refused first
        return Poly.monomial(2, (over, 0))

    builds = [
        x_over,
        lambda: PolyDiffOp(2, 1, {((0, 0),): x_over()}),
        lambda: PolyDiffOp(2, 2, {((0, 0), (0, over)): Poly.one(2)}),
        lambda: PolyDiffOp.partial(2, 1).scale(x_over()),
        lambda: partial_apply(PolyDiffOp.multiplication(2), 2, x_over()),
    ]
    for build in builds:
        with pytest.raises(BudgetError) as info:
            build()
        assert f"{over}" in str(info.value) and "MAX_PACKED = 32767" in str(info.value)
    # a product that reaches over the budget is refused when its result is built
    x_top = PolyDiffOp(1, 1, {((0,),): Poly.monomial(1, (MAX_PACKED,))})
    x_top2 = PolyDiffOp(1, 2, {((0,), (0,)): Poly.monomial(1, (MAX_PACKED,))})
    monkeypatch.undo()
    for build in (lambda: compose_into_slot(x_top, 1, PolyDiffOp(1, 1, {((0,),): Poly.variable(1, 1)})),
                  lambda: x_top.scale(Poly.variable(1, 1)),
                  lambda: partial_apply(x_top2, 2, Poly.variable(1, 1))):
        with pytest.raises(BudgetError) as info:
            build()
        assert f"{over}" in str(info.value)
    # the budget has one name, kernel.MAX_PACKED
    assert kernel.MAX_PACKED == 2**15 - 1 and not hasattr(diffop, "MAX_PACKED")


def module_state():
    """The size of every dict, list and set and of every functools cache held
    at module level in kernel, diffop and starprod."""
    state = {}
    for mod in (kernel, diffop, starprod):
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set)):
                state[mod.__name__, name] = len(value)
            elif hasattr(value, "cache_info"):
                state[mod.__name__, name] = value.cache_info().currsize
    return state


def test_one_table_set_per_call_and_nothing_kept(monkeypatch):
    """Each of gauge_transform, assoc_defect, invert_gauge, exp_gauge and
    compose_into_slot makes exactly one _OpAcc, builds each _splits and _shares
    table at most once, and builds the same tables again when it is called
    again, so no table outlives its call; no module-level state grows across
    calls."""
    rng = random.Random(30)
    S, R = std_moyal(2, 3), rand_gauge(rng, 2, 3)
    S2 = gauge_transform(S, R)
    Q = rand_diffop1(rng, 2, max_order=3, unital=False)
    sums = []  # every _OpAcc, as each is made

    def recording(self, *args, _init=_OpAcc.__init__):
        _init(self, *args)
        sums.append(self)

    monkeypatch.setattr(_OpAcc, "__init__", recording)
    built = []  # (table, arguments) of every table built
    for name in ("_splits", "_shares"):
        def counted(*args, _build=getattr(diffop, name), _name=name):
            built.append((_name, args))
            return _build(*args)

        monkeypatch.setattr(diffop, name, counted)
    before = module_state()
    rounds = []
    calls = (lambda: gauge_transform(S, R), lambda: assoc_defect(S2), lambda: invert_gauge(R),
             lambda: exp_gauge(Q, 3), lambda: compose_into_slot(S2.op(2), 2, Q))
    for call in calls * 2:
        sums.clear()
        built.clear()
        call()
        assert len(sums) == 1
        assert built and len(set(built)) == len(built)
        rounds.append(sorted(built))
    assert rounds[:len(calls)] == rounds[len(calls):]  # a second call builds every table again
    assert module_state() == before


# ----------------------------------------------------------------------
# (d) moyal from its symbol against the sum over all tuples


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
    assert_clean(got)


def test_moyal_past_a_cancellation():
    # pi^13 pi^24 + pi^14 pi^23 = 0: the key xi_1 xi_2 eta_3 eta_4 cancels in
    # P_2, and P_3, built on P_2's map, is still the oracle's
    one = Poly.one(4)
    pi = MultiVec(4, 2, {(1, 3): one, (2, 4): one, (1, 4): one, (2, 3): -one})
    got = moyal(pi, 3)
    assert ((1, 1, 0, 0), (0, 0, 1, 1)) not in got.op(2).terms
    assert got == moyal_by_tuples(pi, 3)
    with pytest.raises(BudgetError) as info:
        moyal(pi, MAX_PACKED + 1)
    assert "32768" in str(info.value)


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



# ----------------------------------------------------------------------
# (f) the operator algebra on packed keys against {orders: Poly} term maps


@given(st.data())
def test_key_algebra_matches_term_map_oracles(data):
    arity = data.draw(st.integers(1, 3))
    A, B = data.draw(ops(arity=arity)), data.draw(ops(arity=arity))
    factor, q = data.draw(polys), data.draw(rationals)
    cases = [
        (A + B, add_by_terms(A.terms, B.terms)),
        (A - B, add_by_terms(A.terms, neg_by_terms(B.terms))),
        (-A, neg_by_terms(A.terms)),
        (A.scale(factor), scale_by_terms(A.terms, factor)),
        (A.scale(q), scale_by_terms(A.terms, Poly.const(DIM, q))),
    ]
    if arity == 2:
        cases.append((transpose(A), transpose_by_terms(A.terms)))
    if arity >= 2:
        slot, f = data.draw(st.integers(1, arity)), data.draw(polys)
        cases.append((partial_apply(A, slot, f), partial_apply_by_terms(A.terms, slot, f)))
    for got, want in cases:
        assert_clean(got)
        assert got.terms == want
    args = data.draw(st.lists(polys, min_size=arity, max_size=arity))
    assert apply_op(A, *args) == apply_by_terms(A.terms, DIM, *args)
    # == and hash agree with equality of the term maps, whatever the key order
    assert (A == B) == (A.terms == B.terms)
    again = PolyDiffOp(DIM, arity, dict(reversed(A.terms.items())))
    for same in (again, A + B - B, (A - B) + B):
        assert same == A and hash(same) == hash(A) and same.terms == A.terms


def test_no_star_product_call_decodes_operators(monkeypatch):
    """The operator calls work on packed keys only: with every decoding view of
    PolyDiffOp failing, each gives what it gives with the views working."""
    rng = random.Random(4)
    S = gauge_transform(std_moyal(2, 2), GaugeOp(2, 2, [PolyDiffOp(2, 1, {((2, 0),): Poly.variable(2, 2)}),
                                                         rand_diffop1(rng, 2)]))
    R = rand_gauge(rng, 2, 2)
    Q = rand_diffop1(rng, 2, max_order=3, unital=False)

    def calls():
        try:
            specialize(S, 0)
        except SolveError as exc:
            residual = exc.residual
        return [gauge_transform(S, R), assoc_defect(S), invert_gauge(R), exp_gauge(Q, 3),
                hochschild_delta(Q), cocycle_defect(S.op(1)), compose_into_slot(S.op(1), 2, Q),
                specialize(S, 1), residual]

    want = calls()

    def forbidden(*args):
        raise AssertionError("an operator was decoded")

    monkeypatch.setattr(PolyDiffOp, "_coeffs", forbidden)
    monkeypatch.setattr(PolyDiffOp, "terms", property(forbidden))
    assert calls() == want
