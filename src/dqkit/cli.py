"""Command-line driver: parse documents, dispatch operations, verify bundles.

Reports are canonical JSON with deterministic content; the timing field is
excluded from the canonical hash.  Exit codes: 0 ok, 1 property/defect failure,
2 input, usage or schema error, 3 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time

from .diffop import apply_op, cocycle_defect, compose_into_slot, hochschild_delta
from .errors import (
    DqkitError,
    PreconditionError,
    SchemaError,
    SolveError,
)
from .kernel import TPoly
from .liealgebroid import (
    AlgebroidForm,
    ExtensionData,
    algebroid_d,
    check_algebroid,
    extension_curvature,
    from_poisson,
)
from .parser import (
    Document,
    algebroid_to_payload,
    canonical_json,
    document_to_obj,
    gauge_to_payload,
    parse_document,
    poly_to_text,
    star_to_payload,
    tensor_to_payload,
)
from .poisson import (
    bracket,
    hamiltonian,
    is_poisson,
    koszul_bracket,
    lichnerowicz_d,
)
from .qclimit import kappa as qc_kappa, mc_defect
from .starprod import (
    BimoduleModel,
    ad_exp,
    assoc_defect,
    assoc_poisson,
    contravariant_nabla,
    gauge_transform,
    invert_gauge,
    moyal,
    nabla_curvature,
    sigma1_class,
    specialize,
    subprincipal,
)
from .verify import _defect, _jacobiator, _unitality, verify_bundle

EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    return parse_document(text)


def _entry(doc: Document, name: str, kind: str) -> Document:
    """The bundle entry `name` of `kind`: a "poly" entry is a polynomial, and a
    "series" entry a poly entry that may be a t-series too."""
    if doc.kind != "bundle":
        raise SchemaError(f"this command needs a bundle document with an entry {name!r}")
    if name not in doc.payload:
        raise SchemaError(f"bundle is missing the entry {name!r}", f"$.payload.{name}")
    sub = doc.payload[name]
    want = "poly" if kind == "series" else kind
    if sub.kind != want:
        raise SchemaError(
            f"entry {name!r} must have kind in {(want,)}, got {sub.kind!r}",
            f"$.payload.{name}.kind",
        )
    if kind == "poly" and isinstance(sub.payload, TPoly):
        raise SchemaError(f"entry {name!r} must be a polynomial, not a t-series", f"$.payload.{name}.order")
    return sub


def _payloads(doc: Document, entries) -> list:
    """The payloads of the (name, kind) entries; one entry also takes a bare document of its kind."""
    if len(entries) == 1 and doc.kind == entries[0][1]:
        return [doc.payload]
    return [_entry(doc, name, kind).payload for name, kind in entries]


def _int_flag(args, name: str, default: int, least: int) -> int:
    """An integer flag's value, or `default` when it is absent; below `least` is an input error."""
    value = getattr(args, name)
    if value is None:
        return default
    if value < least:
        raise DqkitError(f"--{name} must be >= {least}, got {value}")
    return value


def _as_tpoly(p, order: int, name: str) -> TPoly:
    """The poly entry `name` as a t-series of the given order."""
    if isinstance(p, TPoly):
        if p.order != order:
            raise SchemaError(f"t-series order {p.order} != expected {order}", f"$.payload.{name}.order")
        return p
    return TPoly.from_poly(p, order)


def _ok(payload):
    return True, payload, []


# ----------------------------------------------------------------------
# actions: each returns (ok, payload, defects)


def _poisson_check(pi):
    result = is_poisson(pi)
    if result.ok:
        return True, {"poisson": True}, []
    return False, {"poisson": False}, [_defect("jacobiator", _jacobiator(result))]


def _algebroid_check(A):
    result = check_algebroid(A)
    if result.ok:
        return True, {"algebroid": True}, []
    detail = {
        "axiom": result.kind,
        "witness": list(result.witness),
    }
    if result.kind == "anchor":
        detail["defect"] = {
            "component": result.defect[0],
            "value": poly_to_text(result.defect[1]),
        }
    else:
        detail["defect"] = [poly_to_text(p) for p in result.defect]
    return False, {"algebroid": False}, [_defect("frame", detail)]


def _frame_form(A, name: str, f) -> AlgebroidForm:
    """The form entry `name` as a frame-indexed form over the algebroid A.

    The entry was read as a form on R^dim, so its indices are bounded by
    min(dim, rank): a frame index above dim is rejected by the bundle parse
    even when it is within the rank.
    """
    path = f"$.payload.{name}.payload"
    try:
        # sorted, so an index above the rank is reported for the least such term
        form = AlgebroidForm(A.dim, A.rank, f.degree, dict(f.sorted_terms()))
    except DqkitError as exc:
        raise SchemaError(str(exc), path) from exc
    if f.dim != A.dim:  # a zero form has no coefficient for the constructor to refuse
        raise SchemaError(f"coefficient dim {f.dim} != ambient dim {A.dim}", path)
    return form


def _ext_curv(A, twist, lam):
    twist, lam = _frame_form(A, "twist", twist), _frame_form(A, "lam", lam)
    return _ok(tensor_to_payload(extension_curvature(ExtensionData(A, twist), lam)))


def _diffop_apply(doc):
    op = _entry(doc, "op", "diffop").payload
    fs = [_entry(doc, f"f{i}", "poly").payload for i in range(1, op.arity + 1)]
    return _ok(poly_to_text(apply_op(op, *fs)))


def _diffop_cocycle(op):
    defect = cocycle_defect(op)
    if defect.is_zero():
        return True, defect, []
    return False, defect, [_defect("cocycle", defect)]


def _star_assoc(S):
    defects = []
    for k, D in enumerate(assoc_defect(S), start=1):
        if not D.is_zero():
            defects.append(_defect(f"order {k}", D))
    defects.extend(_unitality(S))
    return not defects, {"associative": not defects}, defects


def _star_adexp(S, alpha, b):
    value = ad_exp(S, _as_tpoly(alpha, S.order, "alpha"), _as_tpoly(b, S.order, "b"))
    return _ok([poly_to_text(c) for c in value.coeffs])


def _star_nabla(doc):
    # f and m are read only once the bimodule is built
    M = BimoduleModel(*_payloads(doc, _BIMODULE))
    f = _entry(doc, "f", "poly").payload
    m = _entry(doc, "m", "poly").payload
    return _ok(poly_to_text(contravariant_nabla(M, f, m)))


def _mc(Q):
    defects = []
    for m, d in enumerate(mc_defect(Q), start=2):
        if not d.is_zero():
            defects.append(_defect(f"order {m}", tensor_to_payload(d)))
    return not defects, {"maurer_cartan": not defects}, defects


def _kappa(Q, B):
    result = qc_kappa(Q, B)
    payload = {
        "kappa": tensor_to_payload(result.kappa),
        "certificate": tensor_to_payload(result.certificate),
        "certified": result.certified(),
    }
    if result.certified():
        return True, payload, []
    return False, payload, [_defect("closedness", tensor_to_payload(result.certificate))]


_PI = (("pi", "multivec"),)
_STAR = (("star", "star"),)
_QC = (("qc", "qc"),)
_ALGEBROID = (("algebroid", "algebroid"),)
_OP = (("op", "diffop"),)
_STAR_GAUGE = (("star", "star"), ("gauge", "gauge"))
_BIMODULE = _STAR_GAUGE + (("xi0", "multivec"), ("xi1", "multivec"))

# (command, action) -> (entries, flag, function).  `entries` lists the
# (name, kind) bundle entries whose payloads the function takes, in the order
# they are fetched; None passes the whole document instead.  `flag` is the one
# integer flag the action reads, as (name, default, least), passed after the
# payloads; every other flag is a usage error.  The functions look library
# calls and serializers up when they run, never when the table is built, so
# that wrappers bound in their place (bench/tracing.py) see every call.
_ACTIONS = {
    ("parse", None): (None, None, lambda doc: _ok(document_to_obj(doc, None))),
    ("poisson", "check"): (_PI, None, _poisson_check),
    ("poisson", "bracket"): (_PI + (("f", "poly"), ("g", "poly")), None,
                             lambda pi, f, g: _ok(poly_to_text(bracket(pi, f, g)))),
    ("poisson", "dpi"): (_PI + (("a", "multivec"),), None,
                         lambda pi, a: _ok(tensor_to_payload(lichnerowicz_d(pi, a)))),
    ("poisson", "koszul"): (_PI + (("alpha", "form"), ("beta", "form")), None,
                            lambda pi, a, b: _ok(tensor_to_payload(koszul_bracket(pi, a, b)))),
    ("poisson", "hamiltonian"): (_PI + (("f", "poly"),), None,
                                 lambda pi, f: _ok(tensor_to_payload(hamiltonian(pi, f)))),
    ("algebroid", "check"): (_ALGEBROID, None, _algebroid_check),
    ("algebroid", "d"): (_ALGEBROID + (("omega", "form"),), None,
                         lambda A, w: _ok(tensor_to_payload(algebroid_d(A, _frame_form(A, "omega", w))))),
    ("algebroid", "from-poisson"): (_PI, None, lambda pi: _ok(algebroid_to_payload(from_poisson(pi)))),
    ("algebroid", "ext-curv"): (_ALGEBROID + (("twist", "form"), ("lam", "form")), None, _ext_curv),
    ("diffop", "apply"): (None, None, _diffop_apply),
    ("diffop", "compose"): ((("outer", "diffop"), ("inner", "diffop")), ("slot", 1, 1),
                            lambda a, b, slot: _ok(compose_into_slot(a, slot, b))),
    ("diffop", "delta"): (_OP, None, lambda op: _ok(hochschild_delta(op))),
    ("diffop", "cocycle"): (_OP, None, _diffop_cocycle),
    ("star", "moyal"): (_PI, ("order", 3, 1), lambda pi, n: _ok(star_to_payload(moyal(pi, n)))),
    ("star", "assoc"): (_STAR, None, _star_assoc),
    ("star", "poisson"): (_STAR, None, lambda S: _ok(tensor_to_payload(assoc_poisson(S)))),
    ("star", "gauge"): (_STAR_GAUGE, None, lambda S, R: _ok(star_to_payload(gauge_transform(S, R)))),
    ("star", "invert"): ((("gauge", "gauge"),), None, lambda R: _ok(gauge_to_payload(invert_gauge(R)))),
    ("star", "specialize"): (_STAR, ("degree", 2, 0),
                             lambda S, degree: _ok(gauge_to_payload(specialize(S, degree)))),
    ("star", "sigma1"): (_STAR_GAUGE, None,
                         lambda S, R: _ok(tensor_to_payload(sigma1_class(S, R).xi))),
    ("star", "subprincipal"): (_STAR_GAUGE, None,
                               lambda S, R: _ok(tensor_to_payload(subprincipal(S, R)))),
    ("star", "adexp"): (_STAR + (("alpha", "series"), ("b", "series")), None, _star_adexp),
    ("star", "nabla"): (None, None, _star_nabla),
    ("star", "nabla-curv"): (_BIMODULE, None,
                             lambda *parts: _ok(tensor_to_payload(nabla_curvature(BimoduleModel(*parts))))),
    ("mc", None): (_QC, None, _mc),
    ("kappa", None): (_QC + (("B", "form"),), None, _kappa),
    ("verify", None): (None, None, lambda doc: verify_bundle(doc)),
}


def _run(args):
    """Load the input document once and run the action on it."""
    entries, flag, fn = _ACTIONS[args.command, args.action]
    doc = _load_document(args.infile)
    if entries is None:
        return fn(doc)
    values = _payloads(doc, entries)
    if flag:
        values.append(_int_flag(args, *flag))
    return fn(*values)


# ----------------------------------------------------------------------
# report assembly and dispatch


def _build_report(command: str, ok: bool, payload, defects, elapsed_ms: float) -> str:
    """The report's canonical_json text.

    The body is encoded once and its text hashed.  Its keys sort between
    "canonical_sha256" and "timing_ms", so the report's text is the body's
    with one line spliced in after the opening brace and one before the
    closing one.
    """
    text = canonical_json({"command": command, "ok": bool(ok), "payload": payload, "defects": defects})
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    # text is '{\n' + the body's key lines + '\n}\n'; keep only the lines,
    # so no more than two copies of the text are alive at once
    lines = text[2:-3]
    del text
    return f'{{\n  "canonical_sha256": "{digest}",\n{lines},\n  "timing_ms": {round(elapsed_ms, 3)!r}\n}}\n'


def _render_human(command: str, ok: bool, payload, defects) -> str:
    """The --human text: the verdict, one line per defect location, then a text
    payload of an ok run or the error text of a failed one."""
    lines = [f"{command}: {'ok' if ok else 'FAILED'}"]
    lines += (f"  defect at {d['location']}" for d in defects)
    if ok and isinstance(payload, str):
        lines.append(f"  {payload}")
    elif not ok and isinstance(payload, dict) and "error" in payload:
        lines.append(f"  error: {payload['error']}")
    return "\n".join(lines) + "\n"


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an input error, like an unreadable --in
        raise DqkitError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _failure(exc: Exception):
    """(ok, payload, defects, exit code) of a run that raised exc: exit 2 for an input
    error, else exit 3, a fault of the program, with its traceback on stderr."""
    if isinstance(exc, DqkitError):
        return False, {"error": str(exc)}, [], EXIT_INPUT
    sys.excepthook(type(exc), exc, exc.__traceback__)
    return False, {"error": f"internal error: {type(exc).__name__}: {exc}"}, [], EXIT_INTERNAL


class _UsageError(Exception):
    """An argparse usage error; ``command`` is the prog of the parser that failed."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


class _ArgumentParser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print a message and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(self.prog, message)


# (command, help) in the order the usage text lists them
_COMMANDS = (
    ("parse", "parse and canonically re-serialize"),
    ("poisson", "Poisson calculus"),
    ("algebroid", "Lie algebroid calculus"),
    ("diffop", "polydifferential operators"),
    ("star", "star products and sections"),
    ("mc", "Maurer-Cartan check for quasi-classical data"),
    ("kappa", "connective-structure 2-vector with certificate"),
    ("verify", "run the invariant suite over a bundle"),
)


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    top = _ArgumentParser(prog="dqkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        actions = [action for c, action in _ACTIONS if c == command and action]
        if actions:
            p.add_argument("action", choices=actions)
        p.set_defaults(action=None)
        p.add_argument("--in", dest="infile", required=True, help="input document (JSON)")
        p.add_argument("--out", dest="outfile", help="write the report here as well")
        p.add_argument("--human", action="store_true", help="text rendering on stdout")
        p.add_argument("--order", type=int, help="t-truncation order (star moyal)")
        p.add_argument("--degree", type=int, help="coefficient degree bound (star specialize)")
        p.add_argument("--slot", type=int, help="slot index (diffop compose)")
    return top


def _check_flags(parser, args) -> None:
    """A usage error for a flag that the parsed action does not read."""
    flag = _ACTIONS[args.command, args.action][1]
    for name in ("order", "degree", "slot"):
        if getattr(args, name) is not None and (flag is None or flag[0] != name):
            parser.error(f"argument --{name}: not read by {_command(args)!r}")


def _command(args) -> str:
    return f"{args.command} {args.action}" if args.action else args.command


def dispatch(argv) -> int:
    parser, args = _build_argparser(), None
    try:
        args = parser.parse_args(argv)
        _check_flags(parser, args)
    except _UsageError as exc:
        # a parse that failed read no flags: argparse takes any prefix of --human
        # longer than --h (which --help shares) before a bare --
        options = argv[:argv.index("--")] if "--" in argv else argv
        human = args.human if args else any(len(a) > 3 and "--human".startswith(a) for a in options)
        report = (exc.command, False, {"error": str(exc)}, [])
        sys.stdout.write(_render_human(*report) if human else _build_report(*report, 0.0))
        return EXIT_INPUT
    except SystemExit as exc:
        # --help exits 0 after printing; normalize any other code
        return EXIT_INPUT if exc.code else EXIT_OK
    command = _command(args)
    start = time.perf_counter()
    try:
        try:
            ok, payload, defects = _run(args)
            code = EXIT_OK if ok else EXIT_DEFECT
        except (PreconditionError, SolveError) as exc:
            ok, payload, defects = False, {"error": str(exc)}, [_defect("precondition", str(exc))]
            code = EXIT_DEFECT
            if getattr(exc, "residual", None) is not None:
                payload["residual"] = exc.residual
    except Exception as exc:
        ok, payload, defects, code = _failure(exc)
    elapsed_ms = (time.perf_counter() - start) * 1000
    try:
        try:
            text = _build_report(command, ok, payload, defects, elapsed_ms)
        except DqkitError as exc:  # an operator refused as it is written: an input error, as from the action
            ok, payload, defects, code = _failure(exc)
            text = _build_report(command, ok, payload, defects, elapsed_ms)
        if args.outfile:
            _write_out(args.outfile, text)
    except Exception as exc:  # a report of the fault replaces it, on stdout only
        ok, payload, defects, code = _failure(exc)
        text = _build_report(command, ok, payload, defects, elapsed_ms)
    sys.stdout.write(_render_human(command, ok, payload, defects) if args.human else text)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
