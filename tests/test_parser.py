import enum
import glob
import hashlib
import json
import os
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dqkit.calculus import Form, MultiVec, _AltTensor
from dqkit.diffop import PolyDiffOp
from dqkit.errors import BudgetError, PolyParseError, SchemaError
from dqkit.kernel import Poly, TPoly
from dqkit import cli, parser
from dqkit.parser import (
    MAX_NESTING,
    Document,
    canonical_json,
    diffop_to_payload,
    document_to_obj,
    parse_document,
    parse_poly,
    poly_to_text,
    serialize_document,
    tensor_to_payload,
)
from dqkit.liealgebroid import AlgebroidForm

from conftest import assert_clean_poly, polys, rand_poly
import oracles
from oracles import canonical_json_reference


def read_leaf(text, dim):
    """The Poly parser._read_leaf reads, or None."""
    read = parser._read_leaf(text, dim)
    return None if read is None else Poly._normal(dim, 0, *read)


_OVER = "exponent or derivative order {} is above the packing budget kernel.MAX_PACKED = 32767"


def _over(n):
    """The refusal of an exponent n above the budget; a value of more than 64 bits is named by its bit length."""
    return _OVER.format(n if n.bit_length() <= 64 else f"of {n.bit_length()} bits")


def _leaf_over(n, pos):
    """The refusal of a leaf whose power or product at `pos` has an exponent n above the budget."""
    return f"leaf parse error: {_over(n)} (at position {pos})"


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

    def test_product_budget_checked_before_multiplying(self):
        # each factor has 84 terms, and two of them at most C(6 + 6, 6) = 924 monomials; a
        # third factor may give C(9 + 6, 6) = 5005, so the second '*' is refused before it multiplies
        factor = "(x1+x2+x3+x4+x5+x6+1)^3"
        assert parse_poly(f"{factor}*{factor}", 6) == parse_poly(factor[:-1] + "6", 6)
        with pytest.raises(PolyParseError) as info:
            parse_poly("*".join([factor] * 8), 6)
        assert info.value.position == 2 * len(factor) + 1
        assert info.value.message == (
            f"product may have up to 5005 terms, above the budget of {parser.MAX_POWER_TERMS} (parser.MAX_POWER_TERMS)"
        )

    def test_product_budget(self, monkeypatch):
        monkeypatch.setattr(parser, "MAX_POWER_TERMS", 10)
        # the bound is the smaller of the term pairs and the monomial count: 6 * 2 = 12 pairs,
        # but at most C(3 + 2, 2) = 10 monomials of degree <= 3 in 2 variables
        assert parse_poly("(x + y + 1)^2*(x + 1)", 2) == parse_poly("(x + y + 1)^2", 2) * (x + 1)
        with pytest.raises(PolyParseError) as info:
            parse_poly("(x + y + 1)^2*(x^2 + y)", 2)
        assert info.value.message == "product may have up to 12 terms, above the budget of 10 (parser.MAX_POWER_TERMS)"
        assert info.value.position == 13
        # a product of monomials has one term, and a zero factor none
        assert parse_poly("*".join(["x*y"] * 50), 2).term_count() == 1
        assert parse_poly("0*0", 1) == Poly.zero(1)

    def test_product_bit_budget_is_the_power_budget(self):
        # a product is refused exactly where the power of the same size is: 2^4096 is read
        # both ways, 2^4097 neither; a denominator is held to the same bound
        assert parse_poly("2^2048*2^2048", 1) == parse_poly("2^4096", 1)
        assert parse_poly("(x1/2^2048)*(x1/2^2048)", 1) == parse_poly("x1^2/2^4096", 1)
        for text, what in (("2^2048*2^2049", "product"), ("2^4097", "power"),
                           ("(x1/2^2048)*(x1/2^2049)", "product"), ("(2^4000)*(2^4000)", "product")):
            with pytest.raises(PolyParseError) as info:
                parse_poly(text, 1)
            assert info.value.message.startswith(f"{what} may have coefficients up to 2^")
            assert f"above the budget of 2^{parser.MAX_POWER_BITS}" in info.value.message

    def test_integer_literal_digit_limit(self):
        limit = parser.MAX_INT_DIGITS
        assert parse_poly("9" * limit, 1) == Poly.const(1, 10**limit - 1)
        with pytest.raises(PolyParseError) as info:
            parse_poly("x1 + 1" + "0" * limit, 1)
        assert info.value.position == 5
        assert info.value.message == f"integer literal of {limit + 1} digits is above parser.MAX_INT_DIGITS = {limit}"

    def test_power_exponent_digit_limit(self):
        # every power is inside the term and bit budgets, and the first, x1^(2^4000), is far
        # above kernel.MAX_PACKED, long before any exponent nears parser.MAX_INT_DIGITS:
        # Poly.__pow__ refuses it before it multiplies, and the grammar reports that refusal
        # at the exponent, as it reports the term and bit budgets; 2^4000 is named by its bit length
        text = "(((x1^(2^4000))^(2^4000))^(2^4000))^(2^4000)"
        with pytest.raises(PolyParseError) as info:
            parse_poly(text, 1)
        assert (info.value.message, info.value.position) == (_over(2**4000), 6)
        assert info.value.message.endswith("order of 4001 bits is above the packing budget kernel.MAX_PACKED = 32767")
        # k times the base's largest exponent is checked: 32767 = 7 * 4681 is read, one step above
        # it is refused, and so is an exponent of more digits than may be written
        assert poly_to_text(parse_poly("(x1^7)^4681", 2)) == "x1^32767"
        assert poly_to_text(parse_poly("(x1*x2^2)^16383", 2)) == "x1^16383*x2^32766"
        limit = parser.MAX_INT_DIGITS
        for text, top, pos in (("(x1^7)^4682", 32774, 7), ("(x1*x2^2)^16384", 32768, 10), ("x1^32768", 32768, 3),
                               (f"(x1^10)^{10 ** (limit - 1)}", 10**limit, 8)):
            with pytest.raises(PolyParseError) as info:
                parse_poly(text, 2)
            assert (info.value.message, info.value.position) == (_over(top), pos)
        # constants have no exponent to grow
        assert parse_poly(f"1^{'9' * limit}", 1) == Poly.one(1)

    def test_variable_index_digit_limit(self):
        name = "x" + "1" * (parser.MAX_INT_DIGITS + 1)
        with pytest.raises(PolyParseError) as info:
            parse_poly(f"2*{name}", 2)
        assert info.value.position == 2
        assert info.value.message.startswith("unknown variable 'x111")

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

    def test_exponent_digit_limit(self):
        """A product of monomials adds exponents, but no Poly holds one above
        kernel.MAX_PACKED, far below parser.MAX_INT_DIGITS: the product is
        refused when it is read, by the leaf reader and the grammar alike, and
        every exponent a Poly holds can be written."""
        assert poly_to_text(parse_poly("x1^32766*x1", 1)) == "x1^32767"
        assert parse_poly("x1^32767*x1^0", 1) == parse_poly("(x1^32767)", 1) == Poly.monomial(1, (32767,))
        top = "9" * parser.MAX_INT_DIGITS
        # refused at the '*' that would make it, or at the exponent of a power past the budget
        for text, dim, over, pos in (("x1^32767*x1", 1, 32768, 8), ("(x1^32767)*x1", 1, 32768, 10),
                                     ("x2 + 3*x1*x2^32767*x2", 2, 32768, 18),
                                     (f"x1^{top}*x1", 1, 10**len(top) - 1, 3)):
            with pytest.raises(PolyParseError) as info:
                parse_poly(text, dim)
            assert (info.value.message, info.value.position) == (_over(over), pos)

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


def _agrees_with_grammar(text, dim):
    """The leaf reader on text: None, or exactly the grammar's Poly, stored
    terms in the same order.  True when the reader read it."""
    got = read_leaf(text, dim)
    if got is None:
        return False
    want = parser._ExprParser(text, dim).parse()
    assert (got.dim, got._den, list(got._num.items())) == (want.dim, want._den, list(want._num.items()))
    assert_clean_poly(got, dim)
    return True


@st.composite
def _rational_polys(draw):
    dim = draw(st.integers(1, 6))
    coeffs = st.fractions(max_denominator=10**6).filter(bool) | st.integers(-(10**30), 10**30).filter(bool)
    monomials = st.tuples(*[st.integers(0, 12)] * dim)
    return Poly(dim, draw(st.dictionaries(monomials, coeffs, max_size=6)))


def _near_canonical_leaves():
    """Leaves close to the canonical shape: mostly canonical pieces, and the
    spellings next to them that the reader must decline or read exactly as
    the grammar does."""

    def pick(canonical, other):
        # eight canonical draws to each other one, so that many whole leaves are canonical
        return st.sampled_from(canonical * 8 + other)

    coeff = pick(["", "", "1", "3", "12", "5/3"], ["0", "007", "2/4", "0/7", "1/0", "-2", "x"])
    var = pick(["x1", "x2", "x3"], ["x01", "x0", "x", "y", "x12"])
    power = pick(["", "", "^2", "^11"], ["^0", "^1", "^(2)", "^2^2"])
    mono = st.lists(st.tuples(var, power).map("".join), max_size=3).map("*".join)
    term = st.tuples(coeff, mono).map(lambda cm: "*".join(filter(None, cm)))
    sep = pick([" + ", " - "], ["+", " -", "  + ", " + -", " - -", " * ", " "])
    lead = pick(["", "-"], ["+", " ", "--"])
    tail = pick([""], [" ", "\n", " +"])
    return st.builds(
        lambda lead, first, rest, tail: lead + first + "".join(s + t for s, t in rest) + tail,
        lead, term, st.lists(st.tuples(sep, term), max_size=4), tail,
    )


class TestLeafReader:
    """parser._read_leaf, the direct reader of canonical leaves, against the grammar."""

    @settings(max_examples=300, derandomize=True)
    @given(_rational_polys())
    def test_reads_canonical_text(self, p):
        text = poly_to_text(p)
        assert _agrees_with_grammar(text, p.dim)
        assert read_leaf(text, p.dim) == p

    @settings(max_examples=500, derandomize=True)
    @given(st.integers(1, 4), st.text(alphabet="x0123456789 +-*/^()yz", max_size=30))
    def test_any_text_over_the_alphabet(self, dim, text):
        try:
            _agrees_with_grammar(text, dim)
        except PolyParseError:
            pytest.fail(f"the reader read {text!r}, which the grammar refuses")

    def test_near_canonical_text(self):
        read = []

        @settings(max_examples=500, derandomize=True)
        @given(st.sampled_from([1, 2, 3, 3, 3]), _near_canonical_leaves())
        def run(dim, text):
            try:
                read.append(_agrees_with_grammar(text, dim))
            except PolyParseError:
                pytest.fail(f"the reader read {text!r}, which the grammar refuses")

        run()
        assert any(read) and not all(read)

    @pytest.mark.parametrize(
        "text, dim",
        [
            ("x1 - x1", 1),
            ("x1 + x2 - x1 + x1", 2),  # a cancelled term comes back last, as in Poly.__add__
            ("-0", 1),
            ("0*x1 + x1^0", 1),
            ("x1 + -x2", 2),
            ("x1 - -3/2", 1),
            ("x2*x1*x2^2", 2),
            ("3/6*x1 - 1/4 + 1/12*x1", 1),
            ("-" + "9" * parser.MAX_INT_DIGITS + "/" + "7" * parser.MAX_INT_DIGITS, 1),
            ("x1^32767*x2^32767 - x1^32767", 2),
        ],
    )
    def test_read(self, text, dim):
        assert _agrees_with_grammar(text, dim)

    @pytest.mark.parametrize(
        "text, dim",
        [
            ("", 1), ("x1 + ", 1), ("x1\n", 1), (" x1", 1), ("x1  + x1", 1), ("+x1", 1),
            ("x3", 2), ("x", 2), ("1/0", 1), ("3x1", 1), ("x1^2^2", 1), ("2*3", 1), ("x1/2", 1),
            ("1" * (parser.MAX_INT_DIGITS + 1), 1), ("x1^1" + "0" * parser.MAX_INT_DIGITS, 1),
            ("1/1" + "0" * parser.MAX_INT_DIGITS, 1),
            # exponents above kernel.MAX_PACKED, in one factor or summed over several
            ("x1^" + "9" * parser.MAX_INT_DIGITS, 1), ("x1^32768", 1), ("x2 + x1^16384*x1^16384", 2),
        ],
    )
    def test_left_to_the_grammar(self, text, dim):
        assert read_leaf(text, dim) is None


# leaves for operator documents, drawn from a small pool so that texts repeat:
# (kind, coefficient) pairs that read, and the refused ones a damaged entry takes
_LEAF_DRAWS = st.sampled_from(
    [("canonical", c) for c in ("x1", "-x1", "x1*x2 - 1/3", "-x1*x2 + 1/3", "1/2", "0")] * 2
    + [("grammar", c) for c in ("(x1 + 1)^2", "-(x1 + 1)^2", "x*y", "2*(x1 - x2)/3")]
)
_BAD_LEAF_DRAWS = st.sampled_from(
    [("over budget", c) for c in ("x1^40000", "(x1^2)^20000", "x2 + x1^32768*x2")]
    # terms above the budget are refused as they are read, even where they would cancel
    + [("over budget", c) for c in ("x2 + x1^40000 - x1^40000", "(x2 + x1^40000 - x1^40000)")]
    + [("unreadable", c) for c in ("x1 + q", "(", "")]
    + [("not a str", c) for c in (5, None, ["x1"])]
)
# each leaf of the pool that has its negative there
_NEGATED = {"x1": "-x1", "-x1": "x1", "x1*x2 - 1/3": "-x1*x2 + 1/3", "-x1*x2 + 1/3": "x1*x2 - 1/3",
            "(x1 + 1)^2": "-(x1 + 1)^2", "-(x1 + 1)^2": "(x1 + 1)^2"}


def _damaged_orders(kind, orders):
    """A copy of an entry's orders with one refusal: a value in the last slot
    that is not a JSON integer or is over the budget, a negative one, a short
    multi-index, a missing or an extra slot, or no array at all."""
    orders = [list(o) for o in orders]
    if kind == "true in a later slot":
        orders[-1][-1] = True
    elif kind == "32768 in a later slot":
        orders[-1][-1] = 32768
    elif kind == "negative order":
        orders[0][0] = -1
    elif kind == "short multi-index":
        orders[-1] = orders[-1][:1]
    elif kind == "missing slot":
        orders = orders[:-1]
    elif kind == "extra slot":
        orders = orders + [orders[-1]]
    else:
        orders = "x"
    return orders


def _damage(entries, at, field, kind):
    """Damage entries[at]: its coefficient becomes `kind` (field "coeff"), its
    orders get the refusal `kind` (field "orders"), or it gets a third key or
    stops being an object (field "entry")."""
    entry = entries[at] = dict(entries[at])
    if field == "coeff":
        entry["coeff"] = kind
    elif field == "orders":
        entry["orders"] = _damaged_orders(kind, entry["orders"])
    elif kind == "third key":
        entry["x"] = 1
    else:
        entries[at] = ["coeff", "orders"]


_ORDERS_DAMAGE = ["true in a later slot", "32768 in a later slot", "negative order", "short multi-index",
                  "missing slot", "extra slot", "orders not an array"]
_ENTRY_DAMAGE = ["third key", "not an object"]


@st.composite
def _diffop_payloads(draw):
    """(payload, arity, entries, leaf kinds, damages) of a diffop payload on R^2
    of arity 1-3 with up to 40 entries, their orders drawn from the
    multi-indices of order at most 1 so that they repeat, and up to two
    damages, each to another field (a leaf, an orders, or an entry itself), at
    two entries or at one: damages is the (position, field, kind) of each."""
    arity = draw(st.integers(1, 3))
    slot = st.lists(st.integers(0, 1), min_size=2, max_size=2)
    drawn = draw(st.lists(st.tuples(_LEAF_DRAWS, st.lists(slot, min_size=arity, max_size=arity)), max_size=40))
    entries = [{"coeff": leaf, "orders": orders} for (_, leaf), orders in drawn]
    damage = st.one_of(
        st.tuples(st.just("coeff"), _BAD_LEAF_DRAWS),
        st.tuples(st.just("orders"), st.sampled_from(_ORDERS_DAMAGE)),
        st.tuples(st.just("entry"), st.sampled_from(_ENTRY_DAMAGE)),
    )
    damages = []
    if entries:
        picks = draw(st.lists(st.tuples(st.integers(0, len(entries) - 1), damage),
                              max_size=2, unique_by=lambda d: d[1][0]))
        if len(picks) == 2 and draw(st.booleans()):  # both fields of one entry
            picks[1] = picks[0][0], picks[1][1]
        # an entry that stops being an object takes no further damage, so that one goes last
        for at, (field, kind) in sorted(picks, key=lambda d: d[1][0] == "entry"):
            if field == "coeff":
                kind, text = kind
                _damage(entries, at, field, text)
            else:
                _damage(entries, at, field, kind)
            damages.append((at, field, kind))
    bare = draw(st.booleans())
    payload = entries if bare else {"arity": arity, "terms": entries}
    return payload, arity, entries, {kind for (kind, _), _ in drawn}, damages


# The ids of test_diffop_errors, written out so that a changed refusal message
# does not rename a case; they are the ids pytest made from the messages when
# these cases were written, kept so that each case keeps its name.
_DIFFOP_ERROR_IDS = [
    'payload0-$.payload.terms[0].orders: orders must be an array of multi-indices',
    'payload1-$.payload.terms[0].orders: orders must be an array of multi-indices',
    'payload2-$.payload.terms[0].orders: orders must be an array of multi-indices',
    'payload3-$.payload.terms[0].orders: orders must be an array of multi-indices',
    'payload4-$.payload.terms[0].orders: orders must be an array of multi-indices',
    'payload5-$.payload.terms[0].orders: orders must list 2 multi-indices',
    'payload6-$.payload.terms[0].orders: multi-index length must equal dim = 2',
    "payload7-$.payload.terms[1].coeff: leaf parse error: unknown variable 'q' (dim = 2) (at position 0)",
    'payload8-$.payload: arity must be >= 1',
    'payload9-$.payload[1].coeff: leaf parse error: unexpected end of input (at position 1)',
    'payload10-$.payload: empty diffop needs an explicit arity',
    'payload11-$.payload.terms[0].orders: exponent or derivative order 32768 is above the packing budget kernel.MAX_PACKED = 32767',
    'payload12-$.payload[0].orders: exponent or derivative order 70000 is above the packing budget kernel.MAX_PACKED = 32767',
    'payload13-$.payload.terms[1].coeff: leaf parse error: exponent or derivative order 32768 is above the packing budget kernel.MAX_PACKED = 32767 (at position 3)',
    'payload14-$.payload.terms[0].coeff: leaf parse error: exponent or derivative order 40000 is above the packing budget kernel.MAX_PACKED = 32767 (at position 8)',
    'payload15-$.payload.terms[0].coeff: leaf parse error: exponent or derivative order 40000 is above the packing budget kernel.MAX_PACKED = 32767 (at position 7)',
    'payload16-$.payload.terms[0].coeff: leaf parse error: exponent or derivative order of 14285 bits is above the packing budget kernel.MAX_PACKED = 32767 (at position 3)',
]


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

    @pytest.mark.parametrize("kind, payload", [
        ("poly", "x1"), ("multivec", [{"indices": [1], "coeff": "x1"}]),
        ("diffop", [{"coeff": "x1", "orders": [[0] * parser.MAX_DIM]}]),
    ])
    def test_dim_budget(self, kind, payload):
        # the largest dim is read, and the next one and a 71-bit one are refused
        # before the payload is read
        doc = parse_document(json.dumps({"kind": kind, "dim": parser.MAX_DIM, "payload": payload}))
        assert doc.dim == parser.MAX_DIM
        for dim in (parser.MAX_DIM + 1, 2**70):
            with pytest.raises(SchemaError) as info:
                parse_document(json.dumps({"kind": "bundle", "payload": {"d": {"kind": kind, "dim": dim, "payload": payload}}}))
            assert str(info.value) == f"$.payload.d.dim: dim must be at most parser.MAX_DIM = {parser.MAX_DIM}"

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

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string limit")
    def test_json_integer_over_the_interpreter_limit(self):
        if not sys.get_int_max_str_digits():
            pytest.skip("the interpreter's int-to-string limit is lifted")
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(SchemaError) as info:
            parse_document('{"kind":"poly","dim":' + "1" * digits + ',"payload":"x1"}')
        assert info.value.path == "$"
        assert info.value.message.startswith("invalid JSON: ")

    @pytest.mark.parametrize(
        "payload, error",
        [
            ({"arity": 1, "terms": [{"coeff": "1", "orders": 5}]},
             "$.payload.terms[0].orders: orders must be an array of multi-indices"),
            ({"arity": 1, "terms": [{"coeff": "1", "orders": [[1, -1]]}]},
             "$.payload.terms[0].orders: orders must be an array of multi-indices"),
            ({"arity": 1, "terms": [{"coeff": "1", "orders": [[True, 0]]}]},
             "$.payload.terms[0].orders: orders must be an array of multi-indices"),
            ({"arity": 1, "terms": [{"coeff": "1", "orders": [[1.0, 0]]}]},
             "$.payload.terms[0].orders: orders must be an array of multi-indices"),
            # every multi-index is checked before the arity, the arity before the lengths
            ({"arity": 1, "terms": [{"coeff": "1", "orders": [[1], "x"]}]},
             "$.payload.terms[0].orders: orders must be an array of multi-indices"),
            ({"arity": 2, "terms": [{"coeff": "1", "orders": [[1]]}]},
             "$.payload.terms[0].orders: orders must list 2 multi-indices"),
            ({"arity": 1, "terms": [{"coeff": "1", "orders": [[1]]}]},
             "$.payload.terms[0].orders: multi-index length must equal dim = 2"),
            ({"arity": 1, "terms": [{"coeff": "1", "orders": [[0, 1]]}, {"coeff": "q", "orders": [[0, 0]]}]},
             "$.payload.terms[1].coeff: leaf parse error: unknown variable 'q' (dim = 2) (at position 0)"),
            # a bare array takes its arity from the first orders, here none
            ([{"coeff": "1", "orders": []}], "$.payload: arity must be >= 1"),
            ([{"coeff": "1", "orders": []}, {"coeff": "(", "orders": []}],
             "$.payload[1].coeff: leaf parse error: unexpected end of input (at position 1)"),
            ([], "$.payload: empty diffop needs an explicit arity"),
            # exponents and orders above kernel.MAX_PACKED are refused as each term is read
            ({"arity": 1, "terms": [{"coeff": "1", "orders": [[0, 32768]]}]},
             "$.payload.terms[0].orders: " + _OVER.format(32768)),
            ([{"coeff": "1", "orders": [[70000, 0]]}], "$.payload[0].orders: " + _OVER.format(70000)),
            ({"arity": 1, "terms": [{"coeff": "1", "orders": [[0, 1]]}, {"coeff": "x2^32768", "orders": [[0, 0]]}]},
             "$.payload.terms[1].coeff: " + _leaf_over(32768, 3)),
            ({"arity": 1, "terms": [{"coeff": "x1^20000*x1^20000", "orders": [[0, 0]]}]},
             "$.payload.terms[0].coeff: " + _leaf_over(40000, 8)),
            ({"arity": 1, "terms": [{"coeff": "(x1^2)^20000", "orders": [[0, 0]]}]},
             "$.payload.terms[0].coeff: " + _leaf_over(40000, 7)),
            # an exponent of more than 64 bits is named by its bit length
            ({"arity": 1, "terms": [{"coeff": "x1^" + "9" * 4300 + "*x1", "orders": [[0, 0]]}]},
             "$.payload.terms[0].coeff: " + _leaf_over(10**4300 - 1, 3)),
        ],
        ids=_DIFFOP_ERROR_IDS,
    )
    def test_diffop_errors(self, payload, error):
        with pytest.raises(SchemaError) as info:
            parse_document(json.dumps({"kind": "diffop", "dim": 2, "payload": payload}))
        assert str(info.value) == error

    def test_diffop_terms_summed(self):
        terms = [
            {"coeff": "x1", "orders": [[1, 0]]},
            {"coeff": "0", "orders": [[0, 1]]},
            {"coeff": "1/2", "orders": [[0, 0]]},
            {"coeff": "-x1", "orders": [[1, 0]]},
            {"coeff": "x2", "orders": [[0, 0]]},
            {"coeff": "x1^2", "orders": [[1, 0]]},
        ]
        op = parse_document(json.dumps({"kind": "diffop", "dim": 2, "payload": terms})).payload
        half = Poly.const(2, Fraction(1, 2))
        # no zero coefficient is stored, neither a zero leaf nor a sum that cancels
        assert op == PolyDiffOp(2, 1, {((0, 0),): half + y, ((1, 0),): x * x})

    def test_algebroid_structure_pairs_summed(self):
        def structure(*coeffs):
            payload = {"rank": 2, "anchor": [["1"], ["x1"]],
                       "structure": [{"pair": [1, 2], "coeffs": c} for c in coeffs]}
            return parse_document(json.dumps({"kind": "algebroid", "dim": 1, "payload": payload})).payload.structure

        # a repeated pair adds entrywise, as repeated diffop orders do; a sum that cancels leaves no entry
        x1 = Poly.variable(1, 1)
        assert structure(["1", "0"], ["0", "x1"]) == structure(["1", "x1"]) == {(1, 2): (Poly.one(1), x1)}
        assert structure(["1", "x1"], ["x1", "0"], ["-1", "-x1"]) == {(1, 2): (x1, Poly.zero(1))}
        assert structure(["1", "x1"], ["-1", "-x1"]) == {}

    @pytest.mark.parametrize("coeff", ["x2 + x1^40000 - x1^40000", "(x2 + x1^40000 - x1^40000)"])
    def test_diffop_leaf_whose_terms_over_the_budget_cancel(self, coeff):
        # no Poly holds x1^40000, even for a moment: the leaf reader leaves the
        # text to the grammar, which refuses the power before the terms are summed
        assert parser._read_leaf(coeff, 2) is None
        pos = coeff.index("40000")
        with pytest.raises(PolyParseError) as info:
            parse_poly(coeff, 2)
        assert (info.value.message, info.value.position) == (_over(40000), pos)
        terms = [{"coeff": coeff, "orders": [[1, 0]]}]
        with pytest.raises(SchemaError) as info:
            parse_document(json.dumps({"kind": "diffop", "dim": 2, "payload": terms}))
        assert str(info.value) == "$.payload[0].coeff: " + _leaf_over(40000, pos)

    def test_diffop_reader_matches_the_entry_by_entry_route(self):
        """The reader, which checks an array of parser._WHOLE_ARRAY_MIN entries
        or more whole and reads each leaf text once per operator, against the
        former route, which reads every entry on its own: the same operator with
        its keys in the same order, or the same refusal at the same path, both
        where the whole-array checks pass and where the entry-by-entry scan
        names the first damaged entry."""
        seen = set()

        def outcome(read, payload):
            try:
                op = read(payload, 2, "$.payload")
            except SchemaError as exc:
                return "refused", type(exc), exc.message, exc.path
            return "read", op.arity, op._den, list(op._num.items())

        @settings(max_examples=600, derandomize=True)
        @given(_diffop_payloads())
        def run(drawn):
            payload, arity, entries, leaf_kinds, damages = drawn
            want = outcome(oracles.diffop_from_payload_by_entries, payload)
            assert outcome(parser.diffop_from_payload, payload) == want
            seen.add(want[0])
            seen.add(f"arity {arity}")
            texts = [json.dumps(e["coeff"]) for e in entries if isinstance(e, dict) and "coeff" in e]
            seen.update(leaf_kinds)
            if len(set(texts)) < len(texts):
                seen.add("repeated")
            if len(entries) > 20:
                seen.add("more than 20 entries")
            if want[0] == "refused" and len(entries) >= parser._WHOLE_ARRAY_MIN:
                seen.add("refused after the whole-array checks")
            if want[0] == "read":
                placed = {(json.dumps(e["orders"]), e["coeff"]) for e in entries}
                if any((json.dumps(e["orders"]), _NEGATED.get(e["coeff"])) in placed for e in entries):
                    seen.add("cancels across entries")
                if len(entries) >= parser._WHOLE_ARRAY_MIN:
                    orders = [json.dumps(e["orders"]) for e in entries]
                    seen.add("whole, repeated orders" if len(set(orders)) < len(orders) else "whole, distinct orders")
            for at, field, kind in damages:
                seen.add(kind)
                if kind in ("true in a later slot", "32768 in a later slot") and arity > 1:
                    seen.add(f"{kind}, arity > 1")
            if len(damages) == 2:
                (first, f1, k1), (second, f2, k2) = sorted(damages)
                # a slot missing or extra at a bare array's first entry sets the arity
                sets_arity = not isinstance(payload, dict) and any(
                    at == 0 and kind in ("missing slot", "extra slot") for at, _, kind in damages)
                if first == second:
                    # an entry's type and key set are checked first, then its orders, then its leaf
                    tail = "" if "entry" in (f1, f2) else r"\.orders"
                    if not sets_arity:
                        assert want[0] == "refused" and re.fullmatch(rf"\$\.payload(\.terms)?\[{first}\]{tail}",
                                                                     want[3])
                    if len(entries) >= parser._WHOLE_ARRAY_MIN:
                        seen.add(f"one entry of a large array: {f1} and {f2}")
                else:
                    # the scan names the first damaged entry, whichever field is damaged
                    if not sets_arity:
                        assert want[0] == "refused" and re.fullmatch(rf"\$\.payload(\.terms)?\[{first}\].*",
                                                                     want[3])
                    seen.add(f"{f1} before {f2}")
                    if k2 == "third key":
                        seen.add("third key on a later entry")

        run()
        assert seen == {
            "read", "refused", "refused after the whole-array checks", "arity 1", "arity 2", "arity 3",
            "canonical", "grammar", "repeated",
            "more than 20 entries", "cancels across entries", "whole, repeated orders", "whole, distinct orders",
            "over budget", "unreadable", "not a str", *_ORDERS_DAMAGE, *_ENTRY_DAMAGE,
            "true in a later slot, arity > 1", "32768 in a later slot, arity > 1",
            "coeff before orders", "orders before coeff", "coeff before entry", "entry before coeff",
            "orders before entry", "entry before orders", "third key on a later entry",
            "one entry of a large array: coeff and orders", "one entry of a large array: coeff and entry",
            "one entry of a large array: entry and orders",
        }

    @pytest.mark.parametrize("field, kind", [("coeff", c) for c in ("x1^40000", "x1 + q", 5)]
                             + [("orders", k) for k in _ORDERS_DAMAGE] + [("entry", k) for k in _ENTRY_DAMAGE])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_diffop_reader_names_one_damaged_entry_of_a_large_array(self, field, kind, arity):
        """Each whole-array check catches one damaged entry among a dozen: the
        refusal and its path are the entry-by-entry route's, at that entry."""
        entries = [{"coeff": c, "orders": [[i % 2, i // 2 % 2]] * arity}
                   for i, c in enumerate(["x1", "1/2", "x*y", "-x1"] * 3)]
        assert len(entries) >= parser._WHOLE_ARRAY_MIN
        _damage(entries, 9, field, kind)
        payload = {"arity": arity, "terms": entries}
        with pytest.raises(SchemaError) as want:
            oracles.diffop_from_payload_by_entries(payload, 2, "$.payload")
        with pytest.raises(SchemaError) as got:
            parser.diffop_from_payload(payload, 2, "$.payload")
        assert (got.value.message, got.value.path) == (want.value.message, want.value.path)
        assert got.value.path.startswith("$.payload.terms[9]")

    def test_diffop_reader_shares_monomials_between_distinct_leaves(self):
        """The reader packs each monomial text once per operator, whichever leaf
        has it first: distinct leaves built from one pool of monomials read as the
        entry-by-entry route reads them.  A monomial over the budget or above dim
        in a later leaf is still left to the grammar, which refuses it there."""
        seen = set()

        def outcome(read, payload):
            try:
                op = read(payload, 2, "$.payload")
            except SchemaError as exc:
                return "refused", exc.message, exc.path
            return "read", op._den, list(op._num.items())

        monomial = st.sampled_from(["x1", "x2", "x1*x2", "x1^2*x2^3", "x2^32767"] * 4 + ["x1^40000", "x3"])
        term = st.tuples(st.sampled_from(["+", "-"]), st.sampled_from(["", "2*", "1/3*", "5/2*"]), monomial)

        def leaf(terms):  # "a - b + c", as a canonical leaf joins its terms
            text = " ".join(f"{sign} {scale}{m}" for sign, scale, m in terms)
            return text[2:] if text[0] == "+" else "-" + text[2:]

        @settings(max_examples=200, derandomize=True)
        @given(st.lists(st.tuples(st.lists(term, min_size=1, max_size=3), st.sampled_from([[1, 0], [0, 1], [0, 0]])),
                        min_size=1, max_size=6))
        def run(drawn):
            leaves = [leaf(terms) for terms, _ in drawn]
            payload = {"arity": 1, "terms": [{"coeff": t, "orders": [o]} for t, (_, o) in zip(leaves, drawn)]}
            want = outcome(oracles.diffop_from_payload_by_entries, payload)
            assert outcome(parser.diffop_from_payload, payload) == want
            monos = [{m for _, _, m in terms} for terms, _ in drawn]
            if any(monos[i] & monos[j] and leaves[i] != leaves[j] for j in range(len(drawn)) for i in range(j)):
                seen.add("shared by distinct leaves")
            if want[0] == "refused":
                at = int(re.fullmatch(r"\$\.payload\.terms\[(\d+)\]\.coeff", want[2]).group(1))
                if at:
                    seen.add("over budget later" if "x1^40000" in monos[at] else "above dim later")
            seen.add(want[0])

        run()
        assert seen == {"shared by distinct leaves", "over budget later", "above dim later", "read", "refused"}
        # nothing is kept from one call to the next: x3, read on R^3, is still above dim on R^2
        parser.diffop_from_payload([{"coeff": "x3", "orders": [[0, 0, 0]]}], 3, "$.payload")
        with pytest.raises(SchemaError, match="unknown variable 'x3'"):
            parser.diffop_from_payload([{"coeff": "x3", "orders": [[0, 0]]}], 2, "$.payload")

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

    def test_tensor_payload_matches_view_writer(self):
        """tensor_to_payload, written from the index masks, against the writer
        over the terms view: MultiVec, Form and AlgebroidForm (index bounds
        up to 18, so an index above 16 is reached), zero tensors included."""
        seen = set()

        @settings(max_examples=120, derandomize=True)
        @given(st.data())
        def run(data):
            n = data.draw(st.integers(1, 3))
            cls = data.draw(st.sampled_from((MultiVec, Form, AlgebroidForm)))
            bound = data.draw(st.integers(1, 18)) if cls is AlgebroidForm else n
            degree = data.draw(st.integers(0, min(bound, 3) + 1))
            terms = {}
            if degree <= bound:
                idx = st.lists(st.integers(1, bound), min_size=degree, max_size=degree, unique=True)
                terms = data.draw(st.dictionaries(idx.map(lambda i: tuple(sorted(i))), polys(n), max_size=3))
            t = AlgebroidForm(n, bound, degree, terms) if cls is AlgebroidForm else cls(n, degree, terms)
            assert tensor_to_payload(t) == oracles.tensor_to_payload_by_views(t)
            seen.add("zero" if t.is_zero() else cls.__name__)
            if not t.is_zero() and max(max(i, default=0) for i in t.terms) > 16:
                seen.add("index above 16")

        run()
        assert seen == {"zero", "MultiVec", "Form", "AlgebroidForm", "index above 16"}

    def test_tensor_payload_reads_no_terms_view(self, monkeypatch):
        """tensor_to_payload writes from the masks: with every read of the
        terms view failing, each tensor gives the payload the view writer gave."""
        x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
        tensors = [
            MultiVec(2, 2, {(1, 2): x1 * x2 - Fraction(1, 3)}),
            Form(2, 1, {(1,): Fraction(1, 2) * x2, (2,): x1 ** 2 + 2}),
            AlgebroidForm(2, 17, 2, {(3, 17): x1, (1, 2): Fraction(-5, 6)}),
            Form(2, 3),
        ]
        want = [oracles.tensor_to_payload_by_views(t) for t in tensors]

        def forbidden(self):
            raise AssertionError("tensor terms view read")

        monkeypatch.setattr(_AltTensor, "terms", property(forbidden))
        assert [tensor_to_payload(t) for t in tensors] == want

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


# ----------------------------------------------------------------------
# canonical_json against json's own indented encoder

# quotes, backslashes, control characters, non-ASCII, astral and lone surrogates
_SPECIAL_CHARS = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff"]
_TEXT = st.text(st.one_of(st.sampled_from(_SPECIAL_CHARS), st.characters(exclude_categories=())), max_size=8)
_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
)


def _json_values(depth):
    """Scalars, lists, tuples and dicts with str keys, nested at most depth levels."""
    if depth == 0:
        return _SCALARS
    inner = _json_values(depth - 1)
    return st.one_of(
        _SCALARS,
        st.lists(st.integers(), max_size=6),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    )


class _Tag(str):
    pass


class _Row(list):
    pass


class _Level(enum.IntEnum):
    LOW = 1


class TestCanonicalJson:
    @settings(max_examples=500, derandomize=True)
    @given(_json_values(6))
    def test_matches_json_dumps(self, obj):
        assert canonical_json(obj) == canonical_json_reference(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], {"a": {}}, [[], {}], {"": []}, [1, 2, 3], [1, True], [1, "1"], [1, None], [1, 2.0],
        -0.0, float("nan"), [float("inf"), float("-inf")], 10**4000, -(10**4000), True, None, "\ud800",
        _Tag('a"b'), {_Tag("k"): _Row([1, 2])}, [_Level.LOW, 2], (1, (2, "x")),
    ], ids=lambda obj: type(obj).__name__)
    def test_edge_values(self, obj):
        assert canonical_json(obj) == canonical_json_reference(obj)

    @pytest.mark.parametrize("obj", [{1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {True: 1}, {(1, 2): 1}, set(), {"a": {1}}, [b"x"]])
    def test_key_that_is_not_a_str_or_a_type_json_cannot_encode_raises(self, obj):
        with pytest.raises(TypeError):
            canonical_json(obj)

    @pytest.mark.parametrize("obj", [10**5000, [1, -(10**5000)], {"a": [10**5000, "x"]}], ids=["int", "list", "dict"])
    def test_int_past_the_int_to_string_limit_raises_as_json_does(self, obj):
        with pytest.raises(ValueError) as expected:
            canonical_json_reference(obj)
        with pytest.raises(ValueError) as got:
            canonical_json(obj)
        assert str(got.value) == str(expected.value)


@st.composite
def _operators(draw):
    """Operators of arity 1-3 on R^1..R^4 with up to four terms, each coefficient a
    sum of up to two terms with rational coefficients of either sign: the zero
    operator, and slots of order 0, among them."""
    dim, arity = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    orders = st.tuples(*[st.tuples(*[st.integers(0, 2)] * dim)] * arity)
    return PolyDiffOp(dim, arity, draw(st.dictionaries(orders, polys(dim), max_size=4)))


class TestOperatorWriter:
    """canonical_json writes an operator where it stands as json.dumps writes its payload."""

    def test_payload_is_the_terms_view_written_in_order(self):
        """diffop_to_payload against a writer of the terms view: the same term
        order and coefficient texts, for groups of one monomial and of several."""
        seen = set()

        @settings(max_examples=200, derandomize=True)
        @given(_operators())
        def run(op):
            assert diffop_to_payload(op) == oracles.diffop_to_payload_by_terms(op)
            seen.update("one monomial" if c.term_count() == 1 else "several monomials" for c in op.terms.values())
            if len(op.terms) > 1:
                seen.add("several groups")

        run()
        assert seen == {"one monomial", "several monomials", "several groups"}

    @settings(derandomize=True)
    @given(_operators())
    def test_written_as_its_payload_at_every_depth(self, op):
        payload = diffop_to_payload(op)
        # top level and inside a list
        assert canonical_json(op) == canonical_json_reference(payload)
        assert canonical_json([1, op, [op]]) == canonical_json_reference([1, payload, [payload]])
        # inside a bundle entry: serialize_document keeps the operator in place, and
        # document_to_obj gives plain JSON data
        bundle = Document("bundle", 0, None, {
            "f": Document("poly", op.dim, None, Poly.variable(op.dim, 1)),
            "op": Document("diffop", op.dim, None, op),
        })
        data = document_to_obj(bundle)
        assert data["payload"]["op"]["payload"] == payload
        assert serialize_document(bundle) == canonical_json_reference(data)
        # inside a report's defects
        body = {"command": "star assoc", "ok": False, "payload": {"associative": False}, "defects": []}
        text = cli._build_report(**dict(body, defects=[{"location": "order 1", "detail": op}]), elapsed_ms=0.0)
        want = dict(body, defects=[{"location": "order 1", "detail": payload}])
        digest = hashlib.sha256(canonical_json_reference(want).encode("utf-8")).hexdigest()
        assert text == canonical_json_reference(dict(want, canonical_sha256=digest, timing_ms=0.0))
