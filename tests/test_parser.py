import glob
import os
import sys
from fractions import Fraction

import pytest

from dqkit.calculus import MultiVec
from dqkit.errors import BudgetError, PolyParseError, SchemaError
from dqkit.kernel import Poly, TPoly
from dqkit import parser
from dqkit.parser import (
    MAX_NESTING,
    parse_document,
    parse_poly,
    poly_to_text,
    serialize_document,
)

from conftest import rand_poly

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

x = Poly.variable(2, 1)
y = Poly.variable(2, 2)


class TestGrammar:
    def test_direct_reading(self):
        got = parse_poly("3/2*x^2*y - y + 1", 2)
        assert got == Poly.const(2, Fraction(3, 2)) * x * x * y - y + 1

    def test_unary_minus_of_square(self):
        assert parse_poly("-(x - y)^2", 2) == -(x * x) + 2 * x * y - y * y

    def test_fractional_exponent_rejected(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly("x^(1/2)", 2)
        assert "exponent not a non-negative integer" in str(info.value)

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("x^(0-2)", 2)

    # one accepted and one rejected input per production
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", 42),
            ("7/3", Fraction(7, 3)),
            ("x", None),
            ("x1", None),
            ("x + y", None),
            ("x - y - 1", None),
            ("2*x*y", None),
            ("x^3", None),
            ("x^2^3", None),  # right-associative exponent tower
            ("-x^2", None),
            ("((x))", None),
            ("x/2 + 1/2", None),
        ],
    )
    def test_accepted(self, text, expected):
        p = parse_poly(text, 2)
        if expected is not None:
            assert p == Poly.const(2, expected)

    @pytest.mark.parametrize(
        "text",
        [
            "",          # empty atom
            "x +",       # dangling operator
            "* x",       # leading operator
            "x y",       # no implicit multiplication
            "(x",        # unclosed paren
            "x)",        # stray paren
            "z",         # out-of-range alias for dim 2
            "x3",        # out-of-range numbered variable
            "q",         # unknown name
            "1/x",       # non-constant divisor
            "1/0",       # zero divisor
            "x^y",       # non-constant exponent
            "x^-1",      # negative exponent
            "x$",        # illegal character
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(PolyParseError):
            parse_poly(text, 2)

    def test_positions_reported(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly("x + q", 2)
        assert info.value.position == 4

    @pytest.mark.parametrize(
        "deep, pos",
        [
            (lambda k: "(" * k + "x" + ")" * k, MAX_NESTING),
            (lambda k: "-" * k + "x", MAX_NESTING),
            (lambda k: "x" + "^1" * k, 2 * MAX_NESTING),
        ],
        ids=["parens", "signs", "powers"],
    )
    def test_nesting_bound(self, deep, pos):
        # MAX_NESTING - 1 levels sit inside the top-level expression
        assert parse_poly(deep(MAX_NESTING - 1), 2) in (x, -x)
        for k in (MAX_NESTING, 5000):
            with pytest.raises(PolyParseError) as info:
                parse_poly(deep(k), 2)
            assert info.value.position == pos

    def test_power_budget(self, monkeypatch):
        monkeypatch.setattr(parser, "MAX_POWER_TERMS", 10)
        # (x + 1)^9 has 10 terms: at the budget
        assert parse_poly("(x + 1)^9", 2).term_count() == 10
        with pytest.raises(PolyParseError) as info:
            parse_poly("(x + 1)^10", 2)
        assert "11 terms" in str(info.value) and "budget of 10" in str(info.value)
        assert info.value.position == 8
        # the bound is the smaller of the multiset count and the monomial count:
        # (1 + x + y + x*y)^10 has C(13, 3) = 286 multisets of 10 terms but
        # only C(22, 2) = 231 monomials of degree <= 20 in 2 variables
        monkeypatch.setattr(parser, "MAX_POWER_TERMS", 231)
        assert parse_poly("(1 + x + y + x*y)^10", 2).term_count() == 121
        monkeypatch.setattr(parser, "MAX_POWER_TERMS", 230)
        with pytest.raises(PolyParseError):
            parse_poly("(1 + x + y + x*y)^10", 2)
        # monomials and constants have one term at any power
        assert parse_poly("(2*x*y)^1000", 2).term_count() == 1

    def test_power_bit_budget(self, monkeypatch):
        monkeypatch.setattr(parser, "MAX_POWER_BITS", 12)
        # numerators of (2*x + 2)^6 reach 4^6 = 2^12: at the budget
        assert parse_poly("(2*x + 2)^6", 2) == parse_poly("64*(x + 1)^6", 2)
        with pytest.raises(PolyParseError) as info:
            parse_poly("(2*x + 2)^7", 2)
        assert "up to 2^14" in str(info.value) and "budget of 2^12" in str(info.value)
        # the denominator is bounded too, and one-term bases as well
        assert parse_poly("(x/4)^6", 2) == parse_poly("x^6/4096", 2)
        with pytest.raises(PolyParseError):
            parse_poly("(x/5)^6", 2)
        with pytest.raises(PolyParseError):
            parse_poly("3^7", 2)
        # 0 and 1 do not grow
        assert parse_poly("1^1000000000 + 0^1000000000", 2) == Poly.one(2)

    def test_power_bit_budget_checked_before_multiplying(self):
        for text in ("(2*x1)^100000000", "2^1000000000", "(x1/3)^100000000"):
            with pytest.raises(PolyParseError) as info:
                parse_poly(text, 2)
            assert f"budget of 2^{parser.MAX_POWER_BITS}" in str(info.value)

    def test_power_budget_checked_before_multiplying(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly("(x + y + 1)^1000000000", 2)
        assert f"budget of {parser.MAX_POWER_TERMS}" in str(info.value)

    def test_integer_literal_digit_limit(self):
        limit = parser.MAX_INT_DIGITS
        assert parse_poly("9" * limit, 1) == Poly.const(1, 10**limit - 1)
        with pytest.raises(PolyParseError) as info:
            parse_poly("x1 + 1" + "0" * limit, 1)
        assert info.value.position == 5
        assert info.value.message == f"integer literal of {limit + 1} digits is above parser.MAX_INT_DIGITS = {limit}"

    def test_aliases_only_low_dims(self):
        assert parse_poly("z", 3) == Poly.variable(3, 3)
        with pytest.raises(PolyParseError):
            parse_poly("y", 4)
        assert parse_poly("x2", 4) == Poly.variable(4, 2)


class TestCanonicalText:
    def test_round_trip_random(self, rng):
        for _ in range(30):
            p = rand_poly(rng, 3, max_degree=4, terms=4)
            text = poly_to_text(p)
            assert parse_poly(text, 3) == p
            assert poly_to_text(parse_poly(text, 3)) == text

    def test_zero(self):
        assert poly_to_text(Poly.zero(2)) == "0"
        assert parse_poly("0", 2).is_zero()

    def test_descending_graded_lex(self):
        p = parse_poly("1 + x + y + x^2*y", 2)
        assert poly_to_text(p) == "x1^2*x2 + x1 + x2 + 1"

    def test_coefficient_digit_limit(self):
        limit = parser.MAX_INT_DIGITS
        big = 10**limit
        assert poly_to_text(Poly.const(1, big - 1)) == "9" * limit
        assert poly_to_text(Poly.const(1, Fraction(1, big - 1))) == "1/" + "9" * limit
        for p in (Poly.const(1, big), Poly.const(1, Fraction(1, big)), Poly.variable(1, 1) * -big):
            with pytest.raises(BudgetError) as info:
                poly_to_text(p)
            assert str(info.value) == f"a coefficient of {limit + 1} digits is above parser.MAX_INT_DIGITS = {limit}"
        # digit counts on both sides of a power of ten
        for value, digits in ((10**5000 - 1, 5000), (10**5000, 5001), (10**5000 + 1, 5001)):
            with pytest.raises(BudgetError, match=f"of {digits} digits"):
                poly_to_text(Poly.const(1, value))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string limit")
    def test_digit_limit_does_not_follow_the_interpreter(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(PolyParseError):
                parse_poly("1" * (parser.MAX_INT_DIGITS + 1), 1)
            with pytest.raises(BudgetError):
                poly_to_text(Poly.const(1, 10**parser.MAX_INT_DIGITS))
        finally:
            sys.set_int_max_str_digits(saved)


class TestDocuments:
    def test_minimal_bivector(self):
        doc = parse_document(
            '{"kind":"multivec","dim":2,"payload":[{"indices":[1,2],"coeff":"1"}]}'
        )
        assert doc.payload == MultiVec(2, 2, {(1, 2): 1})

    def test_star_with_one_p1(self):
        doc = parse_document(
            '{"kind":"star","dim":2,"payload":{"P":[{"arity":2,"terms":'
            '[{"coeff":"1/2","orders":[[1,0],[0,1]]}]}]}}'
        )
        assert doc.payload.order == 1

    @pytest.mark.parametrize(
        "text, order",
        [
            ('{"kind":"star","dim":1,"payload":{"P":[{"arity":2,"terms":[]},{"arity":2,"terms":[]}]}}', 2),
            ('{"kind":"gauge","dim":1,"payload":{"R":[{"arity":1,"terms":[]}]}}', 1),
            ('{"kind":"qc","dim":3,"payload":{"pis":[{"degree":2,"terms":[]},{"degree":2,"terms":[]}],'
             '"H":{"degree":3,"terms":[]}}}', 2),
        ],
        ids=["star", "gauge", "qc"],
    )
    def test_series_order_from_payload(self, text, order):
        doc = parse_document(text)
        assert doc.order == doc.payload.order == order
        assert f'"order": {order}' in serialize_document(doc)

    def test_kind_payload_mismatch(self):
        with pytest.raises(SchemaError):
            parse_document('{"kind":"star","dim":2,"payload":{"R":[]}}')

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            parse_document('{"kind":"mystery","dim":2,"payload":"x"}')

    def test_leaf_error_carries_path(self):
        with pytest.raises(SchemaError) as info:
            parse_document(
                '{"kind":"multivec","dim":2,"payload":[{"indices":[1,2],"coeff":"3***"}]}'
            )
        assert "$.payload[0].coeff" in str(info.value)

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_document("{nope")

    def test_tseries_poly(self):
        doc = parse_document('{"kind":"poly","dim":2,"order":2,"payload":["x","y","0"]}')
        assert isinstance(doc.payload, TPoly)
        assert doc.payload.coeff(1) == y

    def test_tseries_requires_order(self):
        with pytest.raises(SchemaError):
            parse_document('{"kind":"poly","dim":2,"payload":["x","y"]}')

    def test_explicit_degree_zero_form(self):
        doc = parse_document(
            '{"kind":"form","dim":2,"payload":{"degree":3,"terms":[]}}'
        )
        assert doc.payload.degree == 3 and doc.payload.is_zero()

    def test_idempotent_serialization(self):
        text = (
            '{"kind":"bundle","payload":{"a":{"kind":"poly","dim":2,"payload":"y + x"},'
            '"b":{"kind":"form","dim":2,"payload":[{"indices":[1],"coeff":"2*x"}]}}}'
        )
        doc = parse_document(text)
        once = serialize_document(doc)
        assert serialize_document(parse_document(once)) == once


def test_idempotence_over_shipped_corpus():
    files = sorted(glob.glob(os.path.join(CORPUS, "*.json")))
    assert files, "corpus files missing"
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = parse_document(text)
        once = serialize_document(doc)
        assert serialize_document(parse_document(once)) == once, path
        # shipped files are already canonical
        assert once == text, path
