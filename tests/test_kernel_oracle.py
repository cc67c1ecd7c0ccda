"""The integer stored form of Poly against the former Fraction-map kernel.

``oracles.RefPoly`` is the kernel as it was before polynomials were stored as
int numerators over one denominator.  Every kernel operation is run on both
from the same input, and the results must agree term by term, in the same
order, with every result in normalized stored form.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqkit.errors import DimensionMismatchError
from dqkit.kernel import Poly

from conftest import assert_clean_poly
from oracles import RefPoly, poly_by_fraction_sum

DIM = 2

# integers and fractions with assorted denominators, zero included
rats = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)
exps = st.tuples(*[st.integers(0, 3)] * DIM)
term_maps = st.dictionaries(exps, rats, max_size=4)
multi_indices = st.tuples(*[st.integers(0, 2)] * DIM)


@st.composite
def pairs(draw):
    """(Poly, RefPoly) built from one term map."""
    terms = draw(term_maps)
    return Poly(DIM, terms), RefPoly(DIM, terms)


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


@given(term_maps)
def test_constructor_matches_reference(terms):
    assert_same(Poly(DIM, terms), RefPoly(DIM, terms))


@given(rats, exps, st.integers(1, DIM))
def test_named_constructors_match_reference(c, e, i):
    assert_same(Poly.zero(DIM), RefPoly.zero(DIM))
    assert_same(Poly.one(DIM), RefPoly.one(DIM))
    assert_same(Poly.const(DIM, c), RefPoly.const(DIM, c))
    assert_same(Poly.variable(DIM, i), RefPoly.variable(DIM, i))
    assert_same(Poly.monomial(DIM, e, c), RefPoly.monomial(DIM, e, c))
    assert_same(Poly.monomial(DIM, e), RefPoly.monomial(DIM, e))


@given(pairs(), pairs())
def test_ring_operations_match_reference(a, b):
    (p, r), (q, s) = a, b
    assert_same(p + q, r + s)
    assert_same(p - q, r - s)
    assert_same(-p, -r)
    assert_same(p * q, r * s)
    assert (p == q) == (r == s)


@given(pairs(), rats)
def test_scalar_operations_match_reference(a, c):
    p, r = a
    assert_same(p * c, r * c)
    assert_same(c * p, c * r)
    assert_same(p + c, r + c)
    assert_same(c + p, c + r)
    assert_same(p - c, r - c)
    assert_same(c - p, c - r)
    assert (p == c) == (r == c)


@given(pairs(), st.integers(0, 4))
def test_power_matches_reference(a, n):
    p, r = a
    assert_same(p**n, r**n)


@given(pairs(), st.integers(1, DIM), multi_indices)
def test_derivatives_match_reference(a, i, orders):
    p, r = a
    assert_same(p.partial(i), r.partial(i))
    assert_same(p.partial_multi(orders), r.partial_multi(orders))


@given(pairs(), pairs(), rats)
def test_equal_polynomials_hash_equal(a, b, c):
    p, q = a[0], b[0]
    routes = [
        (p + q) - q,
        q + p - q,
        Poly(DIM, p.terms),
        p * Poly.one(DIM),
        -(-p),
        p * (q + 1) - p * q,
        p * 6 * Fraction(1, 6),
    ]
    if c:
        routes.append(p * c * (1 / Fraction(c)))
    for x in routes:
        assert_clean_poly(x, DIM)
        assert x == p and hash(x) == hash(p)


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
