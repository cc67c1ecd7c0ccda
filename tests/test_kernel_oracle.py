"""The packed integer stored form of Poly against the former Fraction-map kernel.

``oracles.RefPoly`` is the kernel as it was before polynomials were stored as
int numerators over one denominator, with exponent tuples as keys.  Every
kernel operation is run on both from the same input, on R^1 to R^4 with
exponents up to ``MAX_PACKED``, and the results must agree term by term, in
the same order, with every result in normalized stored form; or, where the
reference's result has an exponent above ``MAX_PACKED``, the kernel must
refuse it with ``BudgetError``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqkit.errors import BudgetError, DimensionMismatchError
from dqkit.kernel import MAX_PACKED, Poly, _fields, _key

from conftest import assert_clean_poly
from oracles import RefPoly, poly_by_fraction_sum

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
    return f"exponent or derivative order {n} is above the packing budget diffop.MAX_PACKED = {MAX_PACKED}"


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
        # square-and-multiply is refused at its first product past the budget
        with pytest.raises(BudgetError, match="is above the packing budget"):
            p**n


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


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        Poly.one(2) + Poly.one(3)
    with pytest.raises(DimensionMismatchError):
        Poly.one(2) * Poly.one(3)
