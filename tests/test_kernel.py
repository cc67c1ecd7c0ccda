from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dqkit.errors import DimensionMismatchError, IndexRangeError, OrderMismatchError
from dqkit.kernel import Poly, TPoly


def x(dim=2):
    return Poly.variable(dim, 1)


def y(dim=2):
    return Poly.variable(dim, 2)


# ----------------------------------------------------------------------
# hypothesis strategies for small exact polynomials

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw, dim=2):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        e = draw(exponents)
        c = draw(coeffs)
        terms[e] = terms.get(e, 0) + c
    return Poly(dim, {k: v for k, v in terms.items() if v})


class TestPolyBasics:
    def test_binomial_identity(self):
        assert (x() + y()) * (x() - y()) == x() * x() - y() * y()

    def test_zero_annihilates(self):
        p = 3 * x() * y() + y()
        assert (Poly.zero(2) * p).is_zero()

    def test_rational_coefficient_product(self):
        a = Poly.const(2, Fraction(1, 2)) * x()
        b = Poly.const(2, Fraction(2, 3)) * y()
        assert a * b == Poly.const(2, Fraction(1, 3)) * x() * y()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            x(2) * x(3)

    def test_no_zero_coefficients_stored(self):
        p = x() - x()
        assert p.terms == {}

    def test_power(self):
        assert x() ** 0 == Poly.one(2)
        assert (x() + 1) ** 2 == x() * x() + 2 * x() + 1


class TestConstructorChecks:
    @pytest.mark.parametrize("bad", [1.5, 1.0, True, Fraction(1)], ids=repr)
    def test_non_integer_exponent_rejected(self, bad):
        # x1^1.5 would differentiate to 1.5*x1
        with pytest.raises(ValueError):
            Poly(2, {(bad, 0): 1})
        with pytest.raises(ValueError):
            Poly.monomial(2, (0, bad))

    @pytest.mark.parametrize("bad", [1.0, True], ids=repr)
    def test_non_integer_variable_index_rejected(self, bad):
        with pytest.raises(ValueError):
            Poly.variable(2, bad)


class TestPartial:
    def test_power_rule(self):
        assert (x() * x() * y()).partial(1) == 2 * x() * y()

    def test_constant_in_other_variable(self):
        assert (x() * x()).partial(2).is_zero()

    def test_rational(self):
        assert (Poly.const(2, Fraction(3, 2)) * x()).partial(1) == Poly.const(2, Fraction(3, 2))

    def test_index_out_of_range(self):
        with pytest.raises(IndexRangeError):
            x().partial(3)


class TestTPoly:
    def test_truncation_at_order_1(self):
        one = Poly.one(2)
        a = TPoly(1, [one, x()])
        b = TPoly(1, [one, -x()])
        assert a * b == TPoly.from_poly(one, 1)

    def test_expansion_at_order_2(self):
        one = Poly.one(2)
        a = TPoly(2, [one, x(), Poly.zero(2)])
        b = TPoly(2, [one, -x(), Poly.zero(2)])
        prod = a * b
        assert prod.coeff(0) == one
        assert prod.coeff(1).is_zero()
        assert prod.coeff(2) == -(x() * x())

    def test_excess_degree_dropped(self):
        n = 3
        tN = TPoly.from_poly(Poly.one(2), n).t_shift(n)
        t1 = TPoly.from_poly(Poly.one(2), n).t_shift(1)
        assert (tN * t1).is_zero()

    def test_sigma_is_classical_part(self):
        f = TPoly(2, [x(), y(), Poly.one(2)])
        assert f.sigma == x()

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatchError):
            TPoly.from_poly(x(), 1) * TPoly.from_poly(x(), 2)


# ----------------------------------------------------------------------
# ring axioms, exact, by structural equality after canonicalization


@given(polys(), polys(), polys())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys(), polys(), polys())
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(polys())
def test_partials_commute(p):
    assert p.partial(1).partial(2) == p.partial(2).partial(1)


@given(polys(), polys(), st.integers(1, 3))
def test_tpoly_degreewise_cauchy(a, b, order):
    """Coefficient of t^k in the product of t-constant embeddings matches the
    degreewise convolution of coefficient lists."""
    at = TPoly(order, [a] + [b] * order)
    bt = TPoly(order, [b] + [a] * order)
    prod = at * bt
    for k in range(order + 1):
        expected = Poly.zero(2)
        for i in range(k + 1):
            expected = expected + at.coeff(i) * bt.coeff(k - i)
        assert prod.coeff(k) == expected
