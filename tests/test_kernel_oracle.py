"""The packed integer stored form of Poly against the former Fraction-map kernel.

``oracles.RefPoly`` is the kernel as it was before polynomials were stored as
int numerators over one denominator, with exponent tuples as keys.  Every
kernel operation is run on both from the same input, on R^1 to R^4 with
exponents up to ``MAX_PACKED``, and the results must agree term by term, in
the same order, with every result in normalized stored form; or, where the
reference's result has an exponent above ``MAX_PACKED``, the kernel must
refuse it with ``BudgetError``.

``TPoly``, a truncated t-series on the same stored form, is checked against
the former list-of-coefficients arithmetic (``oracles.series_*``).
"""

import operator
from fractions import Fraction

import pytest
from math import gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqkit.errors import BudgetError, DimensionMismatchError, DqkitError
from dqkit.kernel import MAX_PACKED, Poly, TPoly, _Sum, _add_products, _fields, _key

from conftest import assert_clean_poly
from oracles import (
    RefPoly, fraction_sum, poly_by_fraction_sum, series_add, series_coeff, series_mul, series_neg, series_shift,
    series_sub,
)

DIM = 2

# integers and fractions with assorted denominators, zero included
rats = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


def exponents(top):
    """Exponents up to `top`: small ones, so that terms meet and cancel, any,
    and the largest few, so that sums of two reach past MAX_PACKED."""
    return st.one_of(st.integers(0, 3), st.integers(0, top), st.integers(top - 2, top))


@st.composite
def cases(draw, count, top=MAX_PACKED):
    """(dim, [(Poly, RefPoly)] * count) on R^1..R^4, each pair built from one term map."""
    dim = draw(st.integers(1, 4))
    monomials = st.tuples(*[exponents(top)] * dim)
    out = []
    for _ in range(count):
        terms = draw(st.dictionaries(monomials, rats, max_size=4))
        out.append((Poly(dim, terms), RefPoly(dim, terms)))
    return dim, out


def _over(n):
    return f"exponent or derivative order {n} is above the packing budget kernel.MAX_PACKED = {MAX_PACKED}"


def assert_same(p, r):
    """p (kernel) and r (reference) are the same polynomial, read every way."""
    assert_clean_poly(p, r.dim)
    assert list(p.terms.items()) == list(r.terms.items())
    assert list(p.items()) == list(r.terms.items())
    assert list(p.exponents()) == list(r.terms)
    assert p.term_count() == len(r.terms)
    assert p.sorted_terms() == r.sorted_terms()
    den, nums = p.sorted_numerators()
    assert [(e, Fraction(n, den)) for e, n in nums] == r.sorted_terms()
    assert p.is_zero() == r.is_zero()
    assert p.is_constant() == r.is_constant()
    if r.is_constant():
        assert p.constant_value() == r.constant_value()
    assert p.total_degree() == r.total_degree()
    assert repr(p) == "Poly" + repr(r).removeprefix("RefPoly")


def assert_product(p, q, r):
    """p * q against the reference product r: the same polynomial, or, when r
    has an exponent above MAX_PACKED, BudgetError naming r's largest (the
    largest exponent of each variable in a product never cancels)."""
    top = max((max(e) for e in r.terms), default=0)
    if top <= MAX_PACKED:
        assert_same(p * q, r)
        return
    with pytest.raises(BudgetError) as info:
        p * q
    assert str(info.value) == _over(top)


@given(cases(1))
def test_constructor_matches_reference(case):
    _, [(p, r)] = case
    assert_same(p, r)


@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.just(dim), rats, st.tuples(*[exponents(MAX_PACKED)] * dim), st.integers(1, dim))))
def test_named_constructors_match_reference(case):
    dim, c, e, i = case
    assert_same(Poly.zero(dim), RefPoly.zero(dim))
    assert_same(Poly.one(dim), RefPoly.one(dim))
    assert_same(Poly.const(dim, c), RefPoly.const(dim, c))
    assert_same(Poly.variable(dim, i), RefPoly.variable(dim, i))
    assert_same(Poly.monomial(dim, e, c), RefPoly.monomial(dim, e, c))
    assert_same(Poly.monomial(dim, e), RefPoly.monomial(dim, e))


@given(cases(2))
def test_ring_operations_match_reference(case):
    _, [(p, r), (q, s)] = case
    assert_same(p + q, r + s)
    assert_same(p - q, r - s)
    assert_same(-p, -r)
    assert_product(p, q, r * s)
    assert (p == q) == (r == s)


@given(cases(1), rats)
def test_scalar_operations_match_reference(case, c):
    _, [(p, r)] = case
    assert_same(p * c, r * c)
    assert_same(c * p, c * r)
    assert_same(p + c, r + c)
    assert_same(c + p, c + r)
    assert_same(p - c, r - c)
    assert_same(c - p, c - r)
    assert (p == c) == (r == c)


@given(cases(1), st.integers(0, 4))
def test_power_matches_reference(case, n):
    _, [(p, r)] = case
    want = r**n
    if max((max(e) for e in want.terms), default=0) <= MAX_PACKED:
        assert_same(p**n, want)
    else:
        # refused before any product, naming the power's top exponent: n times the base's
        with pytest.raises(BudgetError) as info:
            p**n
        assert str(info.value) == _over(max(max(e) for e in want.terms))


@given(cases(1).flatmap(lambda case: st.tuples(
    st.just(case), st.integers(1, case[0]), st.tuples(*[st.integers(0, 3)] * case[0]))))
def test_derivatives_match_reference(drawn):
    (_, [(p, r)]), i, orders = drawn
    assert_same(p.partial(i), r.partial(i))
    assert_same(p.partial_multi(orders), r.partial_multi(orders))


@given(cases(2, top=MAX_PACKED // 2), rats)
def test_equal_polynomials_hash_equal(case, c):
    dim, [(p, _), (q, _)] = case
    routes = [
        (p + q) - q,
        q + p - q,
        Poly(dim, p.terms),
        p * Poly.one(dim),
        -(-p),
        p * (q + 1) - p * q,
        p * 6 * Fraction(1, 6),
    ]
    if c:
        routes.append(p * c * (1 / Fraction(c)))
    for x in routes:
        assert_clean_poly(x, dim)
        assert x == p and hash(x) == hash(p)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_budget_is_max_packed(dim):
    """The constructor, monomial, * and ** accept an exponent of MAX_PACKED
    in any variable and refuse MAX_PACKED + 1."""
    for i in range(dim):
        at = tuple(MAX_PACKED if j == i else j for j in range(dim))
        over = tuple(MAX_PACKED + 1 if j == i else j for j in range(dim))
        want = RefPoly.monomial(dim, at, 3)
        assert_same(Poly(dim, {at: 3}), want)
        assert_same(Poly.monomial(dim, at, 3), want)
        x = Poly.variable(dim, i + 1)
        assert_same(x**MAX_PACKED, RefPoly.variable(dim, i + 1) ** MAX_PACKED)
        assert_same(x ** (MAX_PACKED - 1) * x, RefPoly.variable(dim, i + 1) ** MAX_PACKED)
        for build in (lambda: Poly(dim, {over: 3}), lambda: Poly.monomial(dim, over, 3),
                      lambda: x**MAX_PACKED * x, lambda: x ** (MAX_PACKED + 1)):
            with pytest.raises(BudgetError) as info:
                build()
            assert str(info.value) == _over(MAX_PACKED + 1)


def test_power_past_the_budget_names_its_top_exponent():
    """** is refused before it multiplies, naming n times the base's largest
    exponent (not the first square past the budget); a value of more than 64
    bits is named by its bit length."""
    with pytest.raises(BudgetError) as info:
        Poly.monomial(1, (9000,)) ** 5
    assert str(info.value) == _over(45000)
    x = Poly.variable(2, 2) + 1
    for n, shown in ((2**64 - 1, "18446744073709551615"), (2**64, "of 65 bits"), (2**4000, "of 4001 bits")):
        with pytest.raises(BudgetError) as info:
            x**n
        assert str(info.value) == f"exponent or derivative order {shown} is above the packing budget " \
                                  f"kernel.MAX_PACKED = {MAX_PACKED}"
    # a constant has no exponent to grow
    assert Poly.const(0, 2) ** 10 == 1024


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_product_past_the_budget_carries_into_no_field(dim):
    """Every field of a product's key at 2 * MAX_PACKED = 2^16 - 2, each next
    to another: the product is refused, naming that exponent, and the sum of
    the two keys holds each field's own sum, with no carry into the next."""
    top = (MAX_PACKED,) * dim
    assert _fields(_key(top) + _key(top), dim) == (2 * MAX_PACKED,) * dim
    p = Poly.monomial(dim, top, Fraction(1, 3)) - Poly.one(dim)
    with pytest.raises(BudgetError) as info:
        p * p
    assert str(info.value) == _over(2 * MAX_PACKED)
    # one field past the budget, the others at it: only that one is named
    q = Poly.monomial(dim, (1,) + (0,) * (dim - 1))
    with pytest.raises(BudgetError) as info:
        p * q
    assert str(info.value) == _over(MAX_PACKED + 1)


def test_product_content_cancels():
    a = Poly.monomial(2, (1, 0), Fraction(2, 3))
    b = Poly.monomial(2, (0, 1), Fraction(3, 2))
    ab = a * b
    assert_clean_poly(ab, 2)
    assert ab == Poly.monomial(2, (1, 1)) and ab._den == 1
    assert hash(ab) == hash(Poly.monomial(2, (1, 1)))


def test_sum_over_different_denominators_reduces():
    s = Poly.const(2, Fraction(1, 6)) + Poly.const(2, Fraction(1, 3))
    assert_clean_poly(s, 2)
    assert s == Poly.const(2, Fraction(1, 2)) and s._den == 2
    # equal denominators whose sum shares a factor with them
    t = Poly.const(2, Fraction(1, 4)) + Poly.const(2, Fraction(1, 4))
    assert t._den == 2
    z = Poly.const(2, Fraction(1, 3)) - Poly.const(2, Fraction(1, 3))
    assert_clean_poly(z, 2)
    assert z.is_zero() and z._den == 1


def test_scaling_and_derivatives_reduce():
    x, y = Poly.variable(2, 1), Poly.variable(2, 2)
    half = (x + y) * Fraction(1, 2)
    assert half._den == 2
    assert (half * 2) == x + y and (half * 2)._den == 1
    assert (x * Fraction(2, 3)) * Fraction(3, 4) == x * Fraction(1, 2)
    assert (x * x * Fraction(1, 2)).partial(1) == x
    assert (x * x * x * Fraction(1, 6)).partial_multi((3, 0)) == Poly.one(2)
    for r in (half * 2, x.partial(1), (x * x * Fraction(1, 2)).partial(1), half * 0):
        assert_clean_poly(r, 2)


def test_terms_view_is_read_only():
    p = Poly.const(2, Fraction(1, 2)) + Poly.variable(2, 1)
    view = p.terms
    with pytest.raises(TypeError):
        view[(0, 0)] = Fraction(7)
    assert dict(view) == {(0, 0): Fraction(1, 2), (1, 0): Fraction(1)}


class _Pairs:
    """A term source whose items() may repeat a key, so that terms cancel."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return iter(self.pairs)


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * DIM), st.one_of(st.booleans(), rats)), max_size=6),
       st.integers(0, 6))
def test_constructor_matches_fraction_sum(pairs, cancelled):
    """Poly(dim, terms) sums over a running common denominator; the former
    Fraction sum per key gives the same stored form, term order included, with
    repeated keys, terms that cancel and bool, int and Fraction coefficients."""
    terms = _Pairs(pairs + [(e, -c) for e, c in pairs[:cancelled]])
    got, want = Poly(DIM, terms), poly_by_fraction_sum(DIM, terms)
    assert_clean_poly(got, DIM)
    assert (got._den, list(got._num.items())) == (want._den, list(want._num.items()))


# the two write loops of the kernel against one Fraction sum per key: keys on R^1
# below 4, some with a high part 1 or 2 above the exponent field, so that sums meet
_HIGH = 1 << 16
low_keys = st.integers(0, 3)
any_keys = st.builds(lambda e, h: e + h * _HIGH, low_keys, st.integers(0, 2))
numerators = st.integers(-3, 3).filter(bool)
rows = st.lists(st.tuples(low_keys, numerators), max_size=4)


@settings(max_examples=300, derandomize=True)
@given(st.dictionaries(any_keys, numerators, max_size=4), rows,
       st.lists(st.tuples(any_keys, numerators), max_size=4), st.sampled_from((1, -1, 2, -3)))
@example({}, [(0, 1), (0, -1), (0, 1)], [(_HIGH, 2)], 1)  # key HIGH cancels, then comes back
@example({1: 6}, [(0, 2), (1, 1)], [(1, 3)], -1)  # the start's key cancels, another is new
@example({1: 6}, [], [(1, 3)], 2)  # an empty side adds nothing
@example({1: 6}, [(1, 3)], [], 2)
def test_add_products_matches_fraction_sum(start, left, right, m):
    """_add_products adds m * n1 * n2 at k1 + k2 in the order of left, each
    row in the order of right, and drops a key whose sum cancels."""
    terms = dict(start)
    _add_products(terms, left, right, m)
    assert all(terms.values())
    want = fraction_sum([*start.items(), *((k1 + k2, m * n1 * n2) for k1, n1 in left for k2, n2 in right)])
    assert list(terms.items()) == list(want.items())


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.tuples(any_keys, rats.filter(bool)), max_size=5),
       st.dictionaries(st.tuples(low_keys), rats, max_size=4),
       st.sampled_from((1, -1)), st.integers(0, 2))
@example([(_HIGH + 1, Fraction(1, 2))], {(1,): Fraction(1, 3)}, 1, 1)  # den 2 rescaled to 6
@example([(_HIGH + 1, Fraction(1, 2))], {(1,): Fraction(1, 2)}, -1, 1)  # cancels at the high key
def test_sum_add_matches_fraction_sum(seed, value, sign, high):
    """_Sum.add of sign * value, its keys moved up by `high`, into a sum seeded
    term by term: one Fraction sum per key, over the lcm of every
    denominator, rescaling the seeded numerators when value's does not divide it."""
    acc = _Sum()
    for k, c in seed:
        acc.add_term(k, c.numerator, c.denominator)
    p = Poly(1, value)
    acc.add(p, sign, high * _HIGH)
    assert all(acc.terms.values())
    assert acc.den == lcm(*(c.denominator for _, c in seed), p._den)
    want = fraction_sum([*seed, *((k + high * _HIGH, sign * Fraction(n, p._den)) for k, n in p._num.items())])
    assert [(k, Fraction(n, acc.den)) for k, n in acc.terms.items()] == list(want.items())


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        Poly.one(2) + Poly.one(3)
    with pytest.raises(DimensionMismatchError):
        Poly.one(2) * Poly.one(3)


# ----------------------------------------------------------------------
# truncated t-series


@st.composite
def series_cases(draw):
    """(order, a, b, c) on R^1 or R^2 at orders 1..3: two coefficient lists
    of small polynomials, so that sums cancel and products reach past the
    order, and a scalar c, an int, a Fraction or a Poly."""
    dim = draw(st.integers(1, 2))
    order = draw(st.integers(1, 3))
    poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), rats, max_size=3).map(lambda t: Poly(dim, t))
    a, b = (draw(st.lists(poly, min_size=order + 1, max_size=order + 1)) for _ in range(2))
    return order, a, b, draw(st.one_of(rats, poly))


def assert_series(t, ref):
    """t (kernel) and ref (reference coefficient list) are the same series, in
    normalized stored form: the t-degree above each key's exponent block."""
    assert type(t) is TPoly and (t.dim, t.order) == (ref[0].dim, len(ref) - 1)
    assert list(t.coeffs) == ref and t.sigma == ref[0]
    for c in t.coeffs:
        assert_clean_poly(c, t.dim)
    assert all(type(n) is int and n and k >> 16 * t.dim <= t.order for k, n in t._num.items())
    assert gcd(t._den, *t._num.values()) == 1 and (t._num or t._den == 1)
    assert t.is_zero() == all(c.is_zero() for c in ref)
    assert t == TPoly(t.order, ref) and hash(t) == hash(TPoly(t.order, ref))


@settings(max_examples=300, derandomize=True)
@given(series_cases())
def test_tpoly_matches_coefficient_lists(case):
    order, a, b, c = case
    A, B = TPoly(order, a), TPoly(order, b)
    assert_series(A, a)
    assert_series(A + B, series_add(a, b))
    assert_series(A - B, series_sub(a, b))
    assert_series(-A, series_neg(a))
    assert_series(A * B, series_mul(a, b))
    assert_series(A + c, series_add(a, c))
    assert_series(A - c, series_sub(a, c))
    assert_series(A * c, series_mul(a, c))
    # a scalar on the left, a Poly included: the series answers through its reflected methods
    assert_series(c + A, series_add(a, c))
    assert_series(c - A, series_neg(series_sub(a, c)))
    assert_series(c * A, series_mul(a, c))
    for k in range(order + 3):  # 0, within the order and past it
        assert_series(A.t_shift(k), series_shift(a, k))
        assert A.coeff(k) == series_coeff(a, k)
    assert (A == B) == (a == b)
    assert (A + B) - B == A and hash((A + B) - B) == hash(A)


def _refusal(fn, *args):
    with pytest.raises(DqkitError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_tpoly_refusals_match_coefficient_lists():
    """Series of mixed orders or dims, and scalars of another dim on either
    side, are refused with the former texts: orders first, then dims."""
    line, plane = Poly.variable(1, 1), Poly.variable(2, 1)
    a, longer, flat = [line, line], [line] * 3, [plane, plane]
    for ops in ((operator.add, series_add), (operator.sub, series_sub), (operator.mul, series_mul)):
        for b in (longer, flat, [plane] * 3):
            want = _refusal(ops[1], a, b)
            assert _refusal(ops[0], TPoly(1, a), TPoly(len(b) - 1, b)) == want
        # a Poly of another dim, on either side
        want = _refusal(ops[1], a, plane)
        assert _refusal(ops[0], TPoly(1, a), plane) == _refusal(ops[0], plane, TPoly(1, a)) == want
    assert _refusal(TPoly, 1, [line, plane]) == (DimensionMismatchError, "mixed coefficient dimensions: [1, 2]")
    # a product over the budget within the order is refused; past the order it is never formed
    top, zero = Poly.monomial(1, (MAX_PACKED,)), Poly.zero(1)
    assert _refusal(operator.mul, TPoly(1, [line, top]), TPoly(1, a)) == (BudgetError, _over(MAX_PACKED + 1))
    assert _refusal(series_mul, [line, top], a) == (BudgetError, _over(MAX_PACKED + 1))
    assert_series(TPoly(1, [zero, top]) * TPoly(1, [zero, top]), series_mul([zero, top], [zero, top]))
    with pytest.raises(ValueError, match="negative t-shift"):
        TPoly(1, a).t_shift(-1)
    with pytest.raises(ValueError, match="negative t-degree"):
        TPoly(1, a).coeff(-1)
