"""Text front end: polynomial expression grammar and the JSON document envelope.

Grammar (scalar leaves only; everything structured is JSON):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*        # '/' needs a constant divisor
    unary   := '-' unary | power
    power   := atom ('^' expr)*                  # exponent: non-negative integer
    atom    := INT | NAME | '(' expr ')'

Variables are x1..x<dim>; for dim <= 3 the aliases x, y, z are accepted.
Rational literals p/q come out of '/' binding at '*' precedence with the
divisor restricted to a nonzero constant.  Canonical output always uses
x1..xn and descending graded-lex term order; each monomial is written by
``kernel._mono``, the text ``Poly.__repr__`` uses too.

A leaf in the shape that canonical output has (``[-]c[/d][*]x_i[^e]*...``
terms joined by `` + `` and `` - ``) is read straight into integer
numerators over one denominator at packed ``Poly`` keys; the grammar reads
every other leaf, one with an exponent above ``kernel.MAX_PACKED`` among
them, and reports every error.

A diffop terms array of ``_WHOLE_ARRAY_MIN`` entries or more is checked
whole, each check one pass over the array: the entries' types and key sets,
the coefficients' types, and the orders' types, lengths, entry types
(exactly int) and values, which ``kernel._keys`` packs all at once.  A
smaller array, and one that fails a check, is read entry by entry, and only
that scan names a refusal, at the first entry that has one.  Either way
each distinct leaf text is read once per operator into its numerators and
denominator, each distinct monomial text is packed once per operator, and
``kernel._placed`` writes the operator's map in one call.

Output is ``canonical_json``: JSON data in which a ``PolyDiffOp`` may stand
for a value, the operator written as ``json.dumps(..., sort_keys=True,
indent=2)`` writes its payload, straight from its packed map, one term at a
time.  ``_op_terms`` is the one route from stored keys to a payload's values;
``diffop_to_payload`` (JSON data), the renderer and ``tensor_to_payload``,
which writes multivectors and forms from their index masks, are its sinks.
It decodes the order keys of all of an operator's terms in one batch
(``PolyDiffOp._orders``) and sorts only coefficients of several monomials.
Documents and CLI reports keep their operators in place
(``document_to_obj(doc, None)``); ``document_to_obj(doc)`` gives the same
document as JSON data.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_str
from math import comb, gcd, log10
from operator import itemgetter
from typing import Optional

from .calculus import Form, MultiVec
from .diffop import PolyDiffOp
from .errors import BudgetError, DqkitError, PolyParseError, SchemaError
from .kernel import MAX_PACKED, Poly, TPoly, _Sum, _fields, _indices, _key, _keys, _mono, _placed, grlex_key
from .liealgebroid import AlgebroidPresentation
from .qclimit import QCData
from .starprod import GaugeOp, StarProduct

# ----------------------------------------------------------------------
# expression grammar

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_ALIASES = {"x": 1, "y": 2, "z": 3}

# Most terms a power may have, and the largest power of two its numerators and
# denominator may reach, both bounded before any multiplication.  On a 2-core x86 VM
# (1 + x1)^999 takes 0.5 s of CPU and (15*x1 + 1)^999, near both budgets,
# 1.4 s; (2/3*x1 + 5/7)^999 (3.1 s) is over the bit budget.
MAX_POWER_TERMS = 1000
MAX_POWER_BITS = 4096

# Deepest nesting the parser accepts, both of parentheses, unary signs and '^'
# chains in an expression and of bundles in a document.  Each level costs a
# few Python frames, so this stays well under the interpreter's recursion
# limit.
MAX_NESTING = 100

# Most decimal digits of an integer literal read or a numerator or denominator
# written: Python's default int-to-string limit, fixed here so that the
# refusal does not depend on the interpreter's setting.
MAX_INT_DIGITS = 4300
_INT_TEXT_BOUND = 10**MAX_INT_DIGITS

# Largest dim a document may declare, checked before its payload is read.  It
# bounds the work that dim alone causes, whatever the payload: a leaf packs dim
# exponents, a writer decodes them, and `algebroid from-poisson` writes a dense
# dim x dim anchor.  For a two-term bivector that command writes 133 kB in 0.08
# s of CPU and 21 MB max RSS at dim 100 (about what starting the CLI takes),
# but 13 MB in 1.8 s and 186 MB at dim 1000 (2-core x86 VM, Python 3.11).  The
# largest dim in the tests, corpus, bench and CI is 45.
MAX_DIM = 100

# One term of a canonical leaf and the separator after it (or the end of the
# text).  Digit runs stop at MAX_INT_DIGITS, so the reader never converts a
# longer one: the grammar reads that leaf and refuses it.
_DIGITS = rf"\d{{1,{MAX_INT_DIGITS}}}"
_MONO = rf"x[1-9]\d{{0,8}}(?:\^{_DIGITS})?(?:\*x[1-9]\d{{0,8}}(?:\^{_DIGITS})?)*"
_LEAF_TERM_RE = re.compile(
    rf"(-)?(?:({_DIGITS})(?:/({_DIGITS}))?(?:\*({_MONO}))?|({_MONO}))(?: ([-+]) |\Z)"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            # skip leading whitespace before reporting
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            digits = len(m.group(1))
            if digits > MAX_INT_DIGITS:
                raise PolyParseError(
                    f"integer literal of {digits} digits is above parser.MAX_INT_DIGITS = {MAX_INT_DIGITS}",
                    m.start(1),
                )
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


class _ExprParser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Poly:
        value = self.expr(1)
        kind, val, pos = self.peek()
        if kind != "eof":
            raise PolyParseError(f"unexpected trailing input {val!r}", pos)
        return value

    def expr(self, min_prec: int) -> Poly:
        # every nested parenthesis, unary sign and '^' exponent enters here
        if self.depth == MAX_NESTING:
            raise PolyParseError(f"expression nested deeper than {MAX_NESTING} levels", self.peek()[2])
        self.depth += 1
        lhs = self.unary()
        while True:
            kind, op, pos = self.peek()
            if kind != "op" or op not in _PREC or _PREC[op] < min_prec:
                self.depth -= 1
                return lhs
            self.advance()
            # no '^' gets here: power() takes every '^' that follows an atom
            if op == "/":
                rhs = self.expr(_PREC["/"] + 1)
                lhs = self._divide(lhs, rhs, pos)
            elif op == "*":
                lhs = self._multiply(lhs, self.expr(_PREC["*"] + 1), pos)
            elif op == "+":
                lhs = lhs + self.expr(_PREC["+"] + 1)
            else:
                lhs = lhs - self.expr(_PREC["-"] + 1)
        # not reached

    def unary(self) -> Poly:
        kind, op, _ = self.peek()
        if kind == "op" and op == "-":
            self.advance()
            # binds looser than '^': -x^2 is -(x^2)
            return -self.expr(_PREC["^"])
        return self.power()

    def power(self) -> Poly:
        lhs = self.atom()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op == "^":
                self.advance()
                exp_pos = self.peek()[2]
                rhs = self.expr(_PREC["^"])
                lhs = self._power(lhs, rhs, exp_pos)
            else:
                return lhs

    def atom(self) -> Poly:
        kind, val, pos = self.advance()
        if kind == "num":
            return Poly.const(self.dim, val)
        if kind == "name":
            return Poly.variable(self.dim, self._resolve(val, pos))
        if kind == "op" and val == "(":
            inner = self.expr(1)
            kind2, val2, pos2 = self.advance()
            if not (kind2 == "op" and val2 == ")"):
                raise PolyParseError("expected closing parenthesis", pos2)
            return inner
        if kind == "eof":
            raise PolyParseError("unexpected end of input", pos)
        raise PolyParseError(f"unexpected token {val!r}", pos)

    def _resolve(self, name: str, pos: int) -> int:
        m = re.fullmatch(r"x(\d+)", name)
        # an index too long to convert is no variable either
        if m and len(m.group(1)) <= MAX_INT_DIGITS:
            idx = int(m.group(1))
            if 1 <= idx <= self.dim:
                return idx
            raise PolyParseError(f"unknown variable {name!r} (dim = {self.dim})", pos)
        if self.dim <= 3 and name in _ALIASES:
            idx = _ALIASES[name]
            if idx <= self.dim:
                return idx
        raise PolyParseError(f"unknown variable {name!r} (dim = {self.dim})", pos)

    def _power(self, base: Poly, exponent: Poly, pos: int) -> Poly:
        if not exponent.is_constant():
            raise PolyParseError("exponent not a non-negative integer", pos)
        v = exponent.constant_value()
        if v.denominator != 1 or v < 0:
            raise PolyParseError("exponent not a non-negative integer", pos)
        k = int(v)
        t = base.term_count()
        if t > 1:
            # base^k is a sum of products of k base terms (a multiset of size k
            # from t terms), each of degree at most k * deg in dim variables
            bound = min(comb(k + t - 1, t - 1), comb(k * base.total_degree() + self.dim, self.dim))
            if bound > MAX_POWER_TERMS:
                raise PolyParseError(
                    f"power may have up to {bound} terms, above the budget of {MAX_POWER_TERMS}", pos
                )
        # base^k is a sum of numerators of absolute value at most s^k (s the
        # sum of the base's absolute numerators) over den^k, and both are at
        # most 2^bits
        s = sum(map(abs, base._num.values()))
        bits = k * max(base._den - 1, s - 1).bit_length()
        if bits > MAX_POWER_BITS:
            raise PolyParseError(
                f"power may have coefficients up to 2^{bits}, above the budget of 2^{MAX_POWER_BITS}", pos
            )
        try:
            return base ** k
        except BudgetError as exc:  # an exponent above kernel.MAX_PACKED, refused before any product
            raise PolyParseError(str(exc), pos) from None

    def _multiply(self, a: Poly, b: Poly, pos: int) -> Poly:
        """a * b, held to the budgets of a power before it multiplies."""
        # a * b has at most t_a * t_b terms, each of degree at most deg a + deg b in dim variables
        bound = a.term_count() * b.term_count()
        if bound > MAX_POWER_TERMS:
            bound = min(bound, comb(a.total_degree() + b.total_degree() + self.dim, self.dim))
            if bound > MAX_POWER_TERMS:
                raise PolyParseError(
                    f"product may have up to {bound} terms, above the budget of {MAX_POWER_TERMS} "
                    "(parser.MAX_POWER_TERMS)", pos
                )
        # its numerators are at most s_a * s_b (s the sum of a factor's absolute
        # numerators) over den_a * den_b, and both are at most 2^bits
        s = sum(map(abs, a._num.values())) * sum(map(abs, b._num.values()))
        bits = max(a._den * b._den - 1, s - 1).bit_length()
        if bits > MAX_POWER_BITS:
            raise PolyParseError(
                f"product may have coefficients up to 2^{bits}, above the budget of 2^{MAX_POWER_BITS} "
                "(parser.MAX_POWER_BITS)", pos
            )
        try:
            return a * b
        except BudgetError as exc:  # an exponent above kernel.MAX_PACKED
            raise PolyParseError(str(exc), pos) from None

    def _divide(self, num: Poly, den: Poly, pos: int) -> Poly:
        if not den.is_constant():
            raise PolyParseError("division requires a constant divisor", pos)
        v = den.constant_value()
        if v == 0:
            raise PolyParseError("division by zero", pos)
        return num * (Fraction(1) / v)


def _read_leaf(text: str, dim: int, monos=None):
    """(numerators by packed exponents, denominator) of a leaf in canonical
    shape, not reduced, or None for the grammar to read.

    ``Poly._normal`` of it is the grammar's Poly, down to the order of its
    terms: each term is added in turn by kernel._Sum, so a term that cancels
    leaves the map, as ``Poly.__add__`` does.  None for any text the pattern does not
    cover in full, a variable above ``dim``, an exponent above ``MAX_PACKED``
    and a zero divisor.  ``monos`` maps each monomial text packed so far to its
    key; the caller that passes one dict to many leaves drops it when it returns.
    """
    if monos is None:
        monos = {}
    acc = None  # the running sum, from the second term on
    negative = False
    pos = 0
    match = _LEAF_TERM_RE.match
    while True:
        m = match(text, pos)
        if m is None:
            return None
        minus, c, d, mono, bare, sep = m.groups()
        mono = mono or bare
        key = 0
        if mono:
            key = monos.get(mono)
            if key is None:
                exps = [0] * dim
                for factor in mono.split("*"):
                    var, _, e = factor.partition("^")
                    i = int(var[1:])
                    if i > dim:
                        return None
                    exps[i - 1] += int(e) if e else 1
                if max(exps) > MAX_PACKED:
                    return None
                key = monos[mono] = _key(exps)
        n = int(c) if c else 1
        d = int(d) if d else 1
        if not d:
            return None
        if negative != bool(minus):
            n = -n
        if acc is None:
            if sep is None:  # one term, as a sum of it would hold it
                return ({key: n} if n else {}), d
            acc = _Sum()
        acc.add_term(key, n, d)
        if sep is None:
            return acc.terms, acc.den
        negative = sep == "-"
        pos = m.end()


def parse_poly(text: str, dim: int) -> Poly:
    """Parse an expression into canonical Poly form."""
    if not isinstance(text, str):
        raise PolyParseError("expected an expression string", 0)
    read = _read_leaf(text, dim)
    return _ExprParser(text, dim).parse() if read is None else Poly._normal(dim, 0, *read)


def _over_digit_limit(m: int) -> BudgetError:
    """The refusal of a coefficient m above MAX_INT_DIGITS, with its digit count."""
    # log10 of an int is off by less than one, so one power of ten settles the count
    t = int(log10(m))
    p = 10**t
    digits = t + (m >= p) + (m >= 10 * p)
    return BudgetError(f"a coefficient of {digits} digits is above parser.MAX_INT_DIGITS = {MAX_INT_DIGITS}")


def poly_to_text(p: Poly) -> str:
    """Canonical rendering: descending graded-lex terms, variables x1..xn."""
    den, terms = p.sorted_numerators()
    return _text(den, ((_mono(exps), num) for exps, num in terms))


def _text(den: int, terms) -> str:
    """poly_to_text of sum(n x^exps) / den over (text of x^exps, int n) terms in
    descending graded-lex order; den > 0 need not be reduced against them."""
    parts = []
    for mono, num in terms:
        # the magnitude |num| / den in lowest terms, as str(Fraction) writes it
        mag = abs(num)
        if mag == den:
            body = mono or "1"
        else:
            g = gcd(mag, den)
            top, bottom = mag // g, den // g
            if max(top, bottom) >= _INT_TEXT_BOUND:
                raise _over_digit_limit(max(top, bottom))
            text = str(top) if bottom == 1 else f"{top}/{bottom}"
            body = f"{text}*{mono}" if mono else text
        if not parts:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(parts) or "0"


# ----------------------------------------------------------------------
# document envelope

@dataclass
class Document:
    """A parsed, validated input document."""

    kind: str
    dim: int
    order: Optional[int]
    payload: object


def _expect(cond, message, path):
    if not cond:
        raise SchemaError(message, path)


def _is_int(value) -> bool:
    """A JSON integer: true and false are Python ints but not JSON integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _leaf(text, dim, path, monos=None) -> Poly:
    """The Poly of a leaf text, as parse_poly reads it with ``monos`` (see
    _read_leaf); SchemaError at `path` for a leaf that does not parse, one with
    an exponent above the packing budget among them."""
    return Poly._normal(dim, 0, *_leaf_terms(text, dim, path, monos))


def _leaf_terms(text, dim, path, monos=None):
    """(numerators by packed exponents, denominator), not reduced, of a leaf
    text: the leaf reader's, or the grammar's for a text it leaves to the
    grammar; SchemaError at `path` as for _leaf."""
    _expect(isinstance(text, str), "expected an expression string", path)
    read = _read_leaf(text, dim, monos)
    if read is None:
        try:
            p = _ExprParser(text, dim).parse()
        except PolyParseError as exc:
            raise SchemaError(f"leaf parse error: {exc}", path) from exc
        read = p._num, p._den
    return read


def tensor_from_payload(cls, payload, dim, path):
    """Build a MultiVec/Form from either a bare terms array or
    {"degree": p, "terms": [...]}."""
    if isinstance(payload, list):
        terms_raw = payload
        degree = None
    elif isinstance(payload, dict):
        _expect(set(payload) <= {"degree", "terms"}, "expected keys degree/terms", path)
        degree = payload.get("degree")
        _expect(_is_int(degree) and degree >= 0, "degree must be a non-negative integer", f"{path}.degree")
        terms_raw = payload.get("terms", [])
        _expect(isinstance(terms_raw, list), "terms must be an array", f"{path}.terms")
    else:
        raise SchemaError("expected an array of {indices, coeff} or {degree, terms}", path)
    terms = {}
    for idx, entry in enumerate(terms_raw):
        epath = f"{path}.terms[{idx}]" if isinstance(payload, dict) else f"{path}[{idx}]"
        _expect(isinstance(entry, dict), "expected an object {indices, coeff}", epath)
        _expect(set(entry) == {"indices", "coeff"}, "expected keys indices/coeff", epath)
        indices = entry["indices"]
        _expect(
            isinstance(indices, list) and all(_is_int(i) for i in indices),
            "indices must be an array of integers",
            f"{epath}.indices",
        )
        if degree is None:
            degree = len(indices)
        _expect(len(indices) == degree, f"indices must have length {degree}", f"{epath}.indices")
        coeff = _leaf(entry["coeff"], dim, f"{epath}.coeff")
        key = tuple(indices)
        terms[key] = terms.get(key, Poly.zero(dim)) + coeff
    if degree is None:
        degree = 0
    try:
        return cls(dim, degree, terms)
    except DqkitError as exc:
        raise SchemaError(str(exc), path) from exc


def tensor_to_payload(t) -> dict:
    """The payload of a multivector or form as JSON data, written from its index masks."""
    return {
        "degree": t.degree,
        "terms": [{"indices": list(idx), "coeff": coeff} for idx, coeff in _op_terms(t, partial(map, _indices))],
    }


_TERM_KEYS = frozenset(("coeff", "orders"))
_ORDERS, _COEFF = itemgetter("orders"), itemgetter("coeff")

# Fewest entries of a terms array checked whole.  The whole-array passes cost
# a fixed few microseconds: on a 2-core x86 VM arrays of one to three entries
# read 1.5-3 us faster entry by entry, four about as fast either way, and five
# or more faster whole.
_WHOLE_ARRAY_MIN = 4


def diffop_from_payload(payload, dim, path, arity=None) -> PolyDiffOp:
    """The operator of a diffop payload ({arity?, terms} or a bare array of
    {coeff, orders} entries), its terms array read whole (``_read_whole``)
    or, when it is small or fails a check, entry by entry (``_read_entries``),
    as the module docstring says.  Nothing is kept once the call returns."""
    if isinstance(payload, dict):
        _expect(set(payload) <= {"arity", "terms"}, "expected keys arity/terms", path)
        arity = payload.get("arity", arity)
        _expect(_is_int(arity) and arity >= 1, "arity must be a positive integer", f"{path}.arity")
        terms_raw = payload.get("terms", [])
        _expect(isinstance(terms_raw, list), "terms must be an array", f"{path}.terms")
        base = f"{path}.terms"
    else:
        _expect(isinstance(payload, list), "expected an array of {coeff, orders}", path)
        terms_raw = payload
        base = path
    read = _read_whole(terms_raw, dim, arity) if len(terms_raw) >= _WHOLE_ARRAY_MIN else None
    if read is None:
        read = _read_entries(terms_raw, dim, arity, base, path)
    arity, keys, coeffs, leaves = read
    return PolyDiffOp._normal(dim, arity, *_placed(dim, keys, coeffs, leaves))


def _read_whole(terms, dim, arity):
    """(arity, packed flat orders, leaf texts, {text: _leaf_terms}) of a terms
    array read whole, or None where _read_entries must read it.

    Each check is one pass over the array: the entries' types and key sets,
    the coefficients' types, and the orders (``kernel._keys`` checks and
    packs them all at once); then each distinct leaf text is read once.  On
    operators of hundreds of entries this reads a document about a fifth
    faster than ``_read_entries`` alone.
    """
    if not all(map(isinstance, terms, repeat(dict))) or {*map(len, terms)} != {2}:
        return None
    try:
        orders, coeffs = [*map(_ORDERS, terms)], [*map(_COEFF, terms)]
    except KeyError:  # a key other than coeff and orders
        return None
    if arity is None:  # a bare array's: the length of its first orders
        arity = len(orders[0]) if isinstance(orders[0], list) else 0
    # an arity of 0 is refused only after every leaf is read, entry by entry
    if not arity or not all(map(isinstance, coeffs, repeat(str))):
        return None
    keys = _keys(orders, arity, dim)  # None for orders of another shape or over the budget
    if keys is None:
        return None
    leaves = {}
    monos = {}  # monomial text -> packed exponents, for the leaf reader
    try:
        for text in dict.fromkeys(coeffs):
            leaves[text] = _leaf_terms(text, dim, None, monos)
    except SchemaError:  # named, with its entry, by _read_entries
        return None
    return arity, keys, coeffs, leaves


def _read_entries(terms_raw, dim, arity, base, path):
    """_read_whole's result, read entry by entry: each entry's fields are
    checked in a fixed order and a leaf text is read at the first entry that
    has it, so a bad entry is reported at the first entry that has it."""
    keys, coeffs = [], []
    leaves = {}
    monos = {}
    for idx, entry in enumerate(terms_raw):
        # an entry's paths are built only for a refusal or a text's first reading
        if not isinstance(entry, dict):
            raise SchemaError("expected an object {coeff, orders}", f"{base}[{idx}]")
        if entry.keys() != _TERM_KEYS:
            raise SchemaError("expected keys coeff/orders", f"{base}[{idx}]")
        orders = entry["orders"]
        flat = _orders_fields(orders)
        if flat is None:
            raise SchemaError("orders must be an array of multi-indices", f"{base}[{idx}].orders")
        if arity is None:
            arity = len(orders)
        if len(orders) != arity:
            raise SchemaError(f"orders must list {arity} multi-indices", f"{base}[{idx}].orders")
        for o in orders:
            if len(o) != dim:
                raise SchemaError(f"multi-index length must equal dim = {dim}", f"{base}[{idx}].orders")
        try:
            keys.append(_key(flat))
        except BudgetError as exc:
            raise SchemaError(str(exc), f"{base}[{idx}].orders") from None
        coeff = entry["coeff"]
        if not (isinstance(coeff, str) and coeff in leaves):
            leaves[coeff] = _leaf_terms(coeff, dim, f"{base}[{idx}].coeff", monos)
        coeffs.append(coeff)
    if arity is None:
        raise SchemaError("empty diffop needs an explicit arity", path)
    # a bare array's arity is the length of its first orders, which may be 0
    _expect(arity >= 1, "arity must be >= 1", path)
    return arity, keys, coeffs, leaves


_INT_TYPES = {int}


def _orders_fields(orders):
    """The entries of an array of multi-indices (arrays of non-negative JSON
    integers) in one list, or None for anything else."""
    if not isinstance(orders, list):
        return None
    flat = []
    for o in orders:
        if not isinstance(o, list):
            return None
        flat += o
    # the set of types is exactly {int}: no bool, float or string
    if flat and ({*map(type, flat)} != _INT_TYPES or min(flat) < 0):
        return None
    return flat


def _op_terms(t, decode):
    """(key, coefficient text) of each term group of an operator or
    alternating tensor t, in payload order: ascending keys, which
    decode(highs) gives for all the groups' key parts above the exponent
    block in one call (``op._orders``, or ``kernel._indices`` mapped over
    them).  The one route from stored keys to a payload's values."""

    @cache
    def mono(e):  # (graded-lex key, text) of packed exponents, each decoded once
        exps = _fields(e, t.dim)
        return grlex_key(exps), _mono(exps)

    den = t._den
    groups = t._groups()
    if not groups:  # nothing to decode
        return
    # the decoded keys are distinct, so only they are compared; the map of
    # groups is dropped before any text is written
    groups = sorted(zip(decode(groups), groups.values()))
    for key, sub in groups:
        order = sorted(sub, key=mono, reverse=True) if len(sub) > 1 else sub
        yield key, _text(den, [(mono(e)[1], sub[e]) for e in order])


def diffop_to_payload(op: PolyDiffOp) -> dict:
    """The payload of an operator as JSON data."""
    return {
        "arity": op.arity,
        "terms": [{"coeff": coeff, "orders": [list(o) for o in orders]}
                  for orders, coeff in _op_terms(op, op._orders)],
    }


def _render_op(op: PolyDiffOp, nl: str, emit) -> None:
    """Emit the text of diffop_to_payload(op) at indent nl, one term at a time."""
    i1 = nl + "  "
    i2, i3, i4, i5 = i1 + "  ", i1 + "    ", i1 + "      ", i1 + "        "
    head, mid, slot_sep, tail = "{" + i3 + '"coeff": ', "," + i3 + '"orders": [' + i4, "," + i4, i3 + "]" + i2 + "}"
    emit("{" + i1 + '"arity": ' + repr(op.arity) + "," + i1 + '"terms": ')
    multi = {}  # multi-index -> its text at this indent
    sep = "[" + i2
    for orders, coeff in _op_terms(op, op._orders):
        slots = []
        for o in orders:
            text = multi.get(o)
            if text is None:
                text = multi[o] = "[" + i5 + ("," + i5).join(map(int.__repr__, o)) + i4 + "]"
            slots.append(text)
        emit(f"{sep}{head}{_encode_str(coeff)}{mid}{slot_sep.join(slots)}{tail}")
        sep = "," + i2
    emit(("[]" if sep[0] == "[" else i1 + "]") + nl + "}")


def op_series_from_payload(cls, payload, dim, order, path):
    """A star product or a gauge, cls with its ``key`` and ``arity``:
    {key: [diffop, ...]} listing the operators of orders 1..N."""
    key, arity = cls.key, cls.arity
    _expect(isinstance(payload, dict) and set(payload) == {key}, f"expected payload {{{key}: [diffop,...]}}", path)
    raw = payload[key]
    _expect(isinstance(raw, list) and raw, f"{key} must be a non-empty array", f"{path}.{key}")
    if order is None:
        order = len(raw)
    _expect(order == len(raw), f"order {order} != number of {key} entries {len(raw)}", f"{path}.{key}")
    ops = [
        diffop_from_payload(p, dim, f"{path}.{key}[{i}]", arity=arity) for i, p in enumerate(raw)
    ]
    for i, op in enumerate(ops):
        _expect(op.arity == arity, f"{key}_i must have arity {arity}", f"{path}.{key}[{i}]")
    return cls(dim, order, ops)


def star_to_payload(S: StarProduct, op=None) -> dict:
    """{"P": [P_1, ..., P_N]}, each operator in place or, given `op`, as op(P_k)."""
    return {"P": [op(P) for P in S.P] if op else list(S.P)}


def gauge_to_payload(R: GaugeOp, op=None) -> dict:
    """{"R": [R_1, ..., R_N]}, each operator in place or, given `op`, as op(R_k)."""
    return {"R": [op(Rk) for Rk in R.R] if op else list(R.R)}


def qc_from_payload(payload, dim, order, path) -> QCData:
    _expect(
        isinstance(payload, dict) and set(payload) == {"pis", "H"},
        "expected payload {pis: [multivec,...], H: form}",
        path,
    )
    pis_raw = payload["pis"]
    _expect(isinstance(pis_raw, list) and pis_raw, "pis must be a non-empty array", f"{path}.pis")
    if order is None:
        order = len(pis_raw)
    _expect(order == len(pis_raw), f"order {order} != number of pi entries {len(pis_raw)}", f"{path}.pis")
    pis = [
        tensor_from_payload(MultiVec, p, dim, f"{path}.pis[{i}]") for i, p in enumerate(pis_raw)
    ]
    for i, p in enumerate(pis):
        _expect(p.degree == 2, "pi_k must be bivectors", f"{path}.pis[{i}]")
    H = tensor_from_payload(Form, payload["H"], dim, f"{path}.H")
    _expect(H.degree == 3, "H must be a 3-form", f"{path}.H")
    try:
        return QCData(dim, order, pis, H)
    except DqkitError as exc:
        raise SchemaError(str(exc), path) from exc


def qc_to_payload(Q: QCData) -> dict:
    return {
        "pis": [tensor_to_payload(p) for p in Q.pis],
        "H": tensor_to_payload(Q.H),
    }


def algebroid_from_payload(payload, dim, path) -> AlgebroidPresentation:
    _expect(
        isinstance(payload, dict) and set(payload) <= {"rank", "anchor", "structure"},
        "expected payload {rank, anchor, structure?}",
        path,
    )
    rank = payload.get("rank")
    _expect(_is_int(rank) and rank >= 1, "rank must be a positive integer", f"{path}.rank")
    anchor_raw = payload.get("anchor")
    _expect(
        isinstance(anchor_raw, list) and len(anchor_raw) == rank,
        f"anchor must list {rank} rows",
        f"{path}.anchor",
    )
    rows = []
    for a, row in enumerate(anchor_raw):
        _expect(
            isinstance(row, list) and len(row) == dim,
            f"anchor row must have {dim} entries",
            f"{path}.anchor[{a}]",
        )
        rows.append([_leaf(e, dim, f"{path}.anchor[{a}][{i}]") for i, e in enumerate(row)])
    structure_raw = payload.get("structure", [])
    _expect(isinstance(structure_raw, list), "structure must be an array", f"{path}.structure")
    structure = {}
    for s, entry in enumerate(structure_raw):
        epath = f"{path}.structure[{s}]"
        _expect(isinstance(entry, dict) and set(entry) == {"pair", "coeffs"}, "expected {pair, coeffs}", epath)
        pair_raw = entry["pair"]
        _expect(
            isinstance(pair_raw, list)
            and len(pair_raw) == 2
            and all(_is_int(i) for i in pair_raw)
            and 1 <= pair_raw[0] < pair_raw[1] <= rank,
            "pair must be [a, b] with 1 <= a < b <= rank",
            f"{epath}.pair",
        )
        coeffs_raw = entry["coeffs"]
        _expect(
            isinstance(coeffs_raw, list) and len(coeffs_raw) == rank,
            f"coeffs must list {rank} entries",
            f"{epath}.coeffs",
        )
        coeffs = [_leaf(e, dim, f"{epath}.coeffs[{i}]") for i, e in enumerate(coeffs_raw)]
        pair = tuple(pair_raw)
        # a repeated pair adds entrywise, as repeated tensor indices and operator orders do
        structure[pair] = [a + b for a, b in zip(structure[pair], coeffs)] if pair in structure else coeffs
    try:
        return AlgebroidPresentation(dim, rank, rows, structure)
    except DqkitError as exc:
        raise SchemaError(str(exc), path) from exc


def algebroid_to_payload(A: AlgebroidPresentation) -> dict:
    return {
        "rank": A.rank,
        "anchor": [[poly_to_text(p) for p in row] for row in A.anchor],
        "structure": [
            {"pair": list(pair), "coeffs": [poly_to_text(c) for c in cs]}
            for pair, cs in sorted(A.structure.items())
        ],
    }


def _poly_from_payload(payload, dim, order, path):
    if isinstance(payload, list):
        doc_path = path.removesuffix(".payload")  # the order field sits beside the payload
        _expect(order is not None, "a t-series poly document needs an order", f"{doc_path}.order")
        _expect(
            len(payload) == order + 1,
            f"series must list order+1 = {order + 1} coefficients",
            path,
        )
        coeffs = [_leaf(s, dim, f"{path}[{i}]") for i, s in enumerate(payload)]
        return TPoly(order, coeffs)
    return _leaf(payload, dim, path)


# kind -> reader(payload, dim, order, path).  A t-series poly, a star, a
# gauge and qc data carry their order, which the payload may fix.
_READERS = {
    "poly": _poly_from_payload,
    "multivec": lambda p, dim, order, path: tensor_from_payload(MultiVec, p, dim, path),
    "form": lambda p, dim, order, path: tensor_from_payload(Form, p, dim, path),
    "diffop": lambda p, dim, order, path: diffop_from_payload(p, dim, path),
    "star": lambda p, dim, order, path: op_series_from_payload(StarProduct, p, dim, order, path),
    "gauge": lambda p, dim, order, path: op_series_from_payload(GaugeOp, p, dim, order, path),
    "qc": qc_from_payload,
    "algebroid": lambda p, dim, order, path: algebroid_from_payload(p, dim, path),
}

KINDS = (*_READERS, "bundle")


def document_from_obj(obj, path="$") -> Document:
    return _document_from_obj(obj, path, 1)


def _document_from_obj(obj, path, depth) -> Document:
    """document_from_obj for a document inside depth - 1 enclosing bundles."""
    _expect(isinstance(obj, dict), "document must be a JSON object", path)
    allowed = {"kind", "dim", "order", "payload"}
    extra = set(obj) - allowed
    _expect(not extra, f"unknown fields {sorted(extra)}", path)
    kind = obj.get("kind")
    _expect(kind in KINDS, f"kind must be one of {KINDS}", f"{path}.kind")
    dim = obj.get("dim")
    if kind != "bundle" or dim is not None:  # a bundle's dim is optional
        _expect(_is_int(dim) and dim >= 1, "dim must be a positive integer", f"{path}.dim")
        if dim > MAX_DIM:
            raise SchemaError(f"dim must be at most parser.MAX_DIM = {MAX_DIM}", f"{path}.dim")
    order = obj.get("order")
    if order is not None:
        _expect(_is_int(order) and order >= 1, "order must be a positive integer", f"{path}.order")
    if kind == "bundle":
        _expect(depth <= MAX_NESTING, f"bundles nested deeper than {MAX_NESTING} levels", path)
        payload = obj.get("payload")
        _expect(isinstance(payload, dict), "bundle payload must map names to documents", f"{path}.payload")
        entries = {}
        for name in sorted(payload):
            _expect(isinstance(name, str) and name, "bundle entry names must be non-empty strings", f"{path}.payload")
            entries[name] = _document_from_obj(payload[name], f"{path}.payload.{name}", depth + 1)
        return Document("bundle", dim or 0, order, entries)
    payload = obj.get("payload")
    _expect(payload is not None, "payload is required", f"{path}.payload")
    value = _READERS[kind](payload, dim, order, f"{path}.payload")
    return Document(kind, dim, getattr(value, "order", order), value)


def parse_document(text: str) -> Document:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply to decode", "$") from None
    except ValueError as exc:
        # an integer above the interpreter's int-to-string limit
        raise SchemaError(f"invalid JSON: {exc}", "$") from exc
    return document_from_obj(obj)


# kind -> writer of its payload, each operator in it passed through `op` (None
# keeps it in place); the writers are looked up when they run (see cli._ACTIONS)
_WRITERS = {
    "poly": lambda p, op: [poly_to_text(c) for c in p.coeffs] if isinstance(p, TPoly) else poly_to_text(p),
    "multivec": lambda p, op: tensor_to_payload(p),
    "form": lambda p, op: tensor_to_payload(p),
    "diffop": lambda p, op: op(p) if op else p,
    "star": lambda p, op: star_to_payload(p, op),
    "gauge": lambda p, op: gauge_to_payload(p, op),
    "qc": lambda p, op: qc_to_payload(p),
    "algebroid": lambda p, op: algebroid_to_payload(p),
    "bundle": lambda p, op: {name: document_to_obj(sub, op) for name, sub in p.items()},
}


def document_to_obj(doc: Document, op=diffop_to_payload) -> dict:
    """The document as JSON data, each operator as op(operator): its payload by
    default, or left in place with op=None, for canonical_json to write."""
    out = {"kind": doc.kind, "payload": _WRITERS[doc.kind](doc.payload, op)}
    if doc.kind != "bundle":
        out["dim"] = doc.dim
    if doc.order is not None:
        out["order"] = doc.order
    return out


def canonical_json(obj) -> str:
    """The text of every document and report: JSON data in which a ``PolyDiffOp`` may stand
    for a value, written as its payload would be.  Byte for byte it is ``json.dumps(obj,
    sort_keys=True, indent=2) + "\\n"`` of obj with each operator replaced by its
    diffop_to_payload, written here since ``indent`` sends ``json.dumps`` to its pure-Python
    encoder.  Keys must be ``str``; another key, or a value json cannot encode, is a
    TypeError; a coefficient over MAX_INT_DIGITS is the BudgetError of diffop_to_payload."""
    chunks = []
    _render(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _render(obj, nl: str, emit) -> None:
    """Emit obj's text in chunks; nl is a newline and the current indent."""
    if type(obj) is str:
        return emit(_encode_str(obj))
    inner = nl + "  "
    if isinstance(obj, (list, tuple)) and set(map(type, obj)) == {int}:
        emit("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
    elif isinstance(obj, (list, tuple)):
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _render(item, inner, emit)
            sep = "," + inner
        emit(nl + "]" if obj else "[]")
    elif isinstance(obj, dict):
        sep = "{" + inner
        for key in sorted(obj):
            emit(sep + _encode_str(key) + ": ")  # a TypeError for a key that is not a str
            _render(obj[key], inner, emit)
            sep = "," + inner
        emit(nl + "}" if obj else "{}")
    elif isinstance(obj, PolyDiffOp):
        _render_op(obj, nl, emit)
    else:  # json's own text of any other scalar, and its TypeError for a value it cannot encode
        emit(json.dumps(obj))


def serialize_document(doc: Document) -> str:
    return canonical_json(document_to_obj(doc, None))
