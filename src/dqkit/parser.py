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
x1..xn and descending graded-lex term order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional

from .calculus import Form, MultiVec
from .diffop import PolyDiffOp
from .errors import PolyParseError, SchemaError
from .kernel import Poly, TPoly
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
                lhs = lhs * self.expr(_PREC["*"] + 1)
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
        if m:
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
        den, terms = base.sorted_numerators()
        s = sum(abs(n) for _, n in terms)
        bits = k * max(den - 1, s - 1).bit_length()
        if bits > MAX_POWER_BITS:
            raise PolyParseError(
                f"power may have coefficients up to 2^{bits}, above the budget of 2^{MAX_POWER_BITS}", pos
            )
        return base ** k

    def _divide(self, num: Poly, den: Poly, pos: int) -> Poly:
        if not den.is_constant():
            raise PolyParseError("division requires a constant divisor", pos)
        v = den.constant_value()
        if v == 0:
            raise PolyParseError("division by zero", pos)
        return num * (Fraction(1) / v)


def parse_poly(text: str, dim: int) -> Poly:
    """Parse an expression into canonical Poly form."""
    if not isinstance(text, str):
        raise PolyParseError("expected an expression string", 0)
    return _ExprParser(text, dim).parse()


def poly_to_text(p: Poly) -> str:
    """Canonical rendering: descending graded-lex terms, variables x1..xn."""
    if p.is_zero():
        return "0"
    den, terms = p.sorted_numerators()
    parts = []
    for exps, num in terms:
        mono = "*".join(
            f"x{i}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exps, start=1)
            if e > 0
        )
        # the magnitude |num| / den in lowest terms, as str(Fraction) writes it
        mag = abs(num)
        if mag == den:
            body = mono or "1"
        else:
            g = gcd(mag, den)
            text = str(mag // g) if den == g else f"{mag // g}/{den // g}"
            body = f"{text}*{mono}" if mono else text
        if not parts:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(parts)


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


def _leaf(text, dim, path) -> Poly:
    _expect(isinstance(text, str), "expected an expression string", path)
    try:
        return parse_poly(text, dim)
    except PolyParseError as exc:
        raise SchemaError(f"leaf parse error: {exc}", path) from exc


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
    except Exception as exc:
        raise SchemaError(str(exc), path) from exc


def tensor_to_payload(t) -> dict:
    return {
        "degree": t.degree,
        "terms": [
            {"indices": list(idx), "coeff": poly_to_text(c)}
            for idx, c in sorted(t.terms.items())
        ],
    }


def diffop_from_payload(payload, dim, path, arity=None) -> PolyDiffOp:
    if isinstance(payload, dict):
        _expect(set(payload) <= {"arity", "terms"}, "expected keys arity/terms", path)
        arity = payload.get("arity", arity)
        _expect(_is_int(arity) and arity >= 1, "arity must be a positive integer", f"{path}.arity")
        terms_raw = payload.get("terms", [])
        _expect(isinstance(terms_raw, list), "terms must be an array", f"{path}.terms")
    else:
        _expect(isinstance(payload, list), "expected an array of {coeff, orders}", path)
        terms_raw = payload
    terms = {}
    for idx, entry in enumerate(terms_raw):
        epath = f"{path}[{idx}]" if isinstance(payload, list) else f"{path}.terms[{idx}]"
        _expect(isinstance(entry, dict), "expected an object {coeff, orders}", epath)
        _expect(set(entry) == {"coeff", "orders"}, "expected keys coeff/orders", epath)
        orders = entry["orders"]
        _expect(
            isinstance(orders, list)
            and all(
                isinstance(o, list) and all(_is_int(e) and e >= 0 for e in o)
                for o in orders
            ),
            "orders must be an array of multi-indices",
            f"{epath}.orders",
        )
        if arity is None:
            arity = len(orders)
        _expect(len(orders) == arity, f"orders must list {arity} multi-indices", f"{epath}.orders")
        for o in orders:
            _expect(len(o) == dim, f"multi-index length must equal dim = {dim}", f"{epath}.orders")
        coeff = _leaf(entry["coeff"], dim, f"{epath}.coeff")
        key = tuple(tuple(o) for o in orders)
        terms[key] = terms.get(key, Poly.zero(dim)) + coeff
    if arity is None:
        raise SchemaError("empty diffop needs an explicit arity", path)
    try:
        return PolyDiffOp(dim, arity, terms)
    except Exception as exc:
        raise SchemaError(str(exc), path) from exc


def diffop_to_payload(op: PolyDiffOp) -> dict:
    return {
        "arity": op.arity,
        "terms": [
            {"coeff": poly_to_text(c), "orders": [list(o) for o in orders]}
            for orders, c in sorted(op.terms.items())
        ],
    }


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


def star_to_payload(S: StarProduct) -> dict:
    return {"P": [diffop_to_payload(op) for op in S.P]}


def gauge_to_payload(R: GaugeOp) -> dict:
    return {"R": [diffop_to_payload(op) for op in R.R]}


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
    except Exception as exc:
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
    structure = {}
    for s, entry in enumerate(payload.get("structure", [])):
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
        structure[tuple(pair_raw)] = coeffs
    try:
        return AlgebroidPresentation(dim, rank, rows, structure)
    except Exception as exc:
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
    return document_from_obj(obj)


# kind -> writer of its payload, looked up when it runs (see cli._ACTIONS)
_WRITERS = {
    "poly": lambda p: [poly_to_text(c) for c in p.coeffs] if isinstance(p, TPoly) else poly_to_text(p),
    "multivec": lambda p: tensor_to_payload(p),
    "form": lambda p: tensor_to_payload(p),
    "diffop": lambda p: diffop_to_payload(p),
    "star": lambda p: star_to_payload(p),
    "gauge": lambda p: gauge_to_payload(p),
    "qc": lambda p: qc_to_payload(p),
    "algebroid": lambda p: algebroid_to_payload(p),
    "bundle": lambda p: {name: document_to_obj(sub) for name, sub in p.items()},
}


def payload_to_obj(doc: Document):
    return _WRITERS[doc.kind](doc.payload)


def document_to_obj(doc: Document) -> dict:
    out = {"kind": doc.kind, "payload": payload_to_obj(doc)}
    if doc.kind != "bundle":
        out["dim"] = doc.dim
    if doc.order is not None:
        out["order"] = doc.order
    return out


def canonical_json(obj) -> str:
    """Deterministic rendering shared by serializers and reports."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def serialize_document(doc: Document) -> str:
    return canonical_json(document_to_obj(doc))
