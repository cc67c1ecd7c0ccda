"""Command-line driver: parse documents, dispatch operations, verify bundles.

Reports are canonical JSON with deterministic content; the timing field is
excluded from the canonical hash.  Exit codes: 0 ok, 1 property/defect
failure, 2 input, usage or schema error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from .diffop import apply_op, cocycle_defect, compose_into_slot, hochschild_delta, transpose
from .errors import (
    DqkitError,
    PolyParseError,
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
    diffop_to_payload,
    document_to_obj,
    gauge_to_payload,
    parse_document,
    poly_to_text,
    serialize_document,
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
    GaugeOp,
    Section,
    Sigma1,
    BimoduleModel,
    ad_exp,
    assoc_defect,
    assoc_poisson,
    biderivation,
    contravariant_nabla,
    gauge_transform,
    gauge_unitality_defects,
    invert_gauge,
    is_special,
    moyal,
    nabla_curvature,
    sigma1_class,
    specialize,
    subprincipal,
    unitality_defects,
)

EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_INPUT = 2


def _load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    return parse_document(text)


def _entry(doc: Document, name: str, kinds=None) -> Document:
    if doc.kind != "bundle":
        raise SchemaError(f"this command needs a bundle document with an entry {name!r}")
    if name not in doc.payload:
        raise SchemaError(f"bundle is missing the entry {name!r}", f"$.payload.{name}")
    sub = doc.payload[name]
    if kinds and sub.kind not in kinds:
        raise SchemaError(
            f"entry {name!r} must have kind in {kinds}, got {sub.kind!r}",
            f"$.payload.{name}.kind",
        )
    return sub


def _as_tpoly(doc: Document, order: int) -> TPoly:
    p = doc.payload
    if isinstance(p, TPoly):
        if p.order != order:
            raise SchemaError(f"t-series order {p.order} != expected {order}")
        return p
    return TPoly.from_poly(p, order)


def _tpoly_payload(t: TPoly):
    return [poly_to_text(c) for c in t.coeffs]


def _defect(location: str, detail) -> dict:
    return {"location": location, "detail": detail}


# ----------------------------------------------------------------------
# command handlers: each returns (ok, payload, defects)


def _cmd_parse(args):
    doc = _load_document(args.infile)
    return True, document_to_obj(doc), []


def _cmd_poisson(args):
    doc = _load_document(args.infile)
    if args.action == "check":
        pi_doc = doc if doc.kind == "multivec" else _entry(doc, "pi", ("multivec",))
        result = is_poisson(pi_doc.payload)
        if result.ok:
            return True, {"poisson": True}, []
        return (
            False,
            {"poisson": False},
            [
                _defect(
                    "jacobiator",
                    {"triple": list(result.witness), "value": poly_to_text(result.defect)},
                )
            ],
        )
    pi = _entry(doc, "pi", ("multivec",)).payload
    if args.action == "bracket":
        f = _entry(doc, "f", ("poly",)).payload
        g = _entry(doc, "g", ("poly",)).payload
        return True, poly_to_text(bracket(pi, f, g)), []
    if args.action == "dpi":
        a = _entry(doc, "a", ("multivec",)).payload
        return True, tensor_to_payload(lichnerowicz_d(pi, a)), []
    if args.action == "koszul":
        alpha = _entry(doc, "alpha", ("form",)).payload
        beta = _entry(doc, "beta", ("form",)).payload
        return True, tensor_to_payload(koszul_bracket(pi, alpha, beta)), []
    if args.action == "hamiltonian":
        f = _entry(doc, "f", ("poly",)).payload
        return True, tensor_to_payload(hamiltonian(pi, f)), []
    raise SchemaError(f"unknown poisson action {args.action!r}")


def _algebroid_form_entry(doc: Document, name: str, A) -> AlgebroidForm:
    """Read a bundle entry as a frame-indexed form over the algebroid A.

    The entry is parsed as a form on R^dim first, so its indices are bounded
    by min(dim, rank): a frame index above dim is rejected by the bundle parse
    even when it is within the rank.
    """
    if doc.kind != "bundle" or name not in doc.payload:
        raise SchemaError(f"bundle is missing the entry {name!r}")
    sub = doc.payload[name]
    if sub.kind != "form":
        raise SchemaError(f"entry {name!r} must be a form document")
    f = sub.payload
    try:
        # sorted, so an index above the rank is reported for the least such term
        return AlgebroidForm(A.dim, A.rank, f.degree, dict(f.sorted_terms()))
    except DqkitError as exc:
        raise SchemaError(str(exc), f"$.payload.{name}.payload") from exc


def _cmd_algebroid(args):
    doc = _load_document(args.infile)
    if args.action == "from-poisson":
        pi_doc = doc if doc.kind == "multivec" else _entry(doc, "pi", ("multivec",))
        A = from_poisson(pi_doc.payload)
        return True, algebroid_to_payload(A), []
    if args.action == "check":
        A_doc = doc if doc.kind == "algebroid" else _entry(doc, "algebroid", ("algebroid",))
        result = check_algebroid(A_doc.payload)
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
    A = _entry(doc, "algebroid", ("algebroid",)).payload
    if args.action == "d":
        omega = _algebroid_form_entry(doc, "omega", A)
        return True, tensor_to_payload(algebroid_d(A, omega)), []
    if args.action == "ext-curv":
        twist = _algebroid_form_entry(doc, "twist", A)
        lam = _algebroid_form_entry(doc, "lam", A)
        E = ExtensionData(A, twist)
        return True, tensor_to_payload(extension_curvature(E, lam)), []
    raise SchemaError(f"unknown algebroid action {args.action!r}")


def _int_flag(args, name: str, default: int, least: int) -> int:
    """An integer flag's value, or `default` when it is absent; below `least` is an input error."""
    value = getattr(args, name)
    if value is None:
        return default
    if value < least:
        raise DqkitError(f"--{name} must be >= {least}, got {value}")
    return value


def _cmd_diffop(args):
    doc = _load_document(args.infile)
    if args.action == "apply":
        op = _entry(doc, "op", ("diffop",)).payload
        fs = [
            _entry(doc, f"f{i}", ("poly",)).payload for i in range(1, op.arity + 1)
        ]
        return True, poly_to_text(apply_op(op, *fs)), []
    if args.action == "compose":
        outer = _entry(doc, "outer", ("diffop",)).payload
        inner = _entry(doc, "inner", ("diffop",)).payload
        slot = _int_flag(args, "slot", 1, 1)
        return True, diffop_to_payload(compose_into_slot(outer, slot, inner)), []
    if args.action == "delta":
        op_doc = doc if doc.kind == "diffop" else _entry(doc, "op", ("diffop",))
        return True, diffop_to_payload(hochschild_delta(op_doc.payload)), []
    if args.action == "cocycle":
        op_doc = doc if doc.kind == "diffop" else _entry(doc, "op", ("diffop",))
        defect = cocycle_defect(op_doc.payload)
        payload = diffop_to_payload(defect)
        if defect.is_zero():
            return True, payload, []
        return False, payload, [_defect("cocycle", payload)]
    raise SchemaError(f"unknown diffop action {args.action!r}")


def _star_and_gauge(doc):
    S = _entry(doc, "star", ("star",)).payload
    R = _entry(doc, "gauge", ("gauge",)).payload
    return S, R


def _cmd_star(args):
    doc = _load_document(args.infile)
    if args.action == "moyal":
        pi_doc = doc if doc.kind == "multivec" else _entry(doc, "pi", ("multivec",))
        order = _int_flag(args, "order", 3, 1)
        S = moyal(pi_doc.payload, order)
        return True, star_to_payload(S), []
    if args.action == "assoc":
        S = (doc if doc.kind == "star" else _entry(doc, "star", ("star",))).payload
        defects = []
        for k, D in enumerate(assoc_defect(S), start=1):
            if not D.is_zero():
                defects.append(_defect(f"order {k}", diffop_to_payload(D)))
        for k, left, right in unitality_defects(S):
            defects.append(
                _defect(
                    f"unitality order {k}",
                    {"left": diffop_to_payload(left), "right": diffop_to_payload(right)},
                )
            )
        return not defects, {"associative": not defects}, defects
    if args.action == "poisson":
        S = (doc if doc.kind == "star" else _entry(doc, "star", ("star",))).payload
        return True, tensor_to_payload(assoc_poisson(S)), []
    if args.action == "gauge":
        S, R = _star_and_gauge(doc)
        return True, star_to_payload(gauge_transform(S, R)), []
    if args.action == "invert":
        R = (doc if doc.kind == "gauge" else _entry(doc, "gauge", ("gauge",))).payload
        return True, gauge_to_payload(invert_gauge(R)), []
    if args.action == "specialize":
        S = (doc if doc.kind == "star" else _entry(doc, "star", ("star",))).payload
        R = specialize(S, _int_flag(args, "degree", 2, 0))
        return True, gauge_to_payload(R), []
    if args.action == "sigma1":
        S, R = _star_and_gauge(doc)
        cls = sigma1_class(S, Section(S, R))
        return True, tensor_to_payload(cls.xi), []
    if args.action == "subprincipal":
        S, R = _star_and_gauge(doc)
        return True, tensor_to_payload(subprincipal(S, Section(S, R))), []
    if args.action == "adexp":
        S = _entry(doc, "star", ("star",)).payload
        alpha = _as_tpoly(_entry(doc, "alpha", ("poly",)), S.order)
        b = _as_tpoly(_entry(doc, "b", ("poly",)), S.order)
        return True, _tpoly_payload(ad_exp(S, alpha, b)), []
    if args.action in ("nabla", "nabla-curv"):
        S, G = _star_and_gauge(doc)
        xi0 = _entry(doc, "xi0", ("multivec",)).payload
        xi1 = _entry(doc, "xi1", ("multivec",)).payload
        S0 = gauge_transform(S, G)
        M = BimoduleModel(S, G, Sigma1(S0, xi0), Sigma1(S, xi1))
        if args.action == "nabla":
            f = _entry(doc, "f", ("poly",)).payload
            m = _entry(doc, "m", ("poly",)).payload
            return True, poly_to_text(contravariant_nabla(M, f, m)), []
        return True, tensor_to_payload(nabla_curvature(M)), []
    raise SchemaError(f"unknown star action {args.action!r}")


def _cmd_mc(args):
    doc = _load_document(args.infile)
    Q = (doc if doc.kind == "qc" else _entry(doc, "qc", ("qc",))).payload
    defects = []
    for m, d in enumerate(mc_defect(Q), start=2):
        if not d.is_zero():
            defects.append(_defect(f"order {m}", tensor_to_payload(d)))
    return not defects, {"maurer_cartan": not defects}, defects


def _cmd_kappa(args):
    doc = _load_document(args.infile)
    Q = _entry(doc, "qc", ("qc",)).payload
    B = _entry(doc, "B", ("form",)).payload
    result = qc_kappa(Q, B)
    payload = {
        "kappa": tensor_to_payload(result.kappa),
        "certificate": tensor_to_payload(result.certificate),
        "certified": result.certified(),
    }
    if result.certified():
        return True, payload, []
    return False, payload, [_defect("closedness", tensor_to_payload(result.certificate))]


# ----------------------------------------------------------------------
# verify


def _first_nonzero_term(t):
    for idx, c in sorted(t.terms.items()):
        return {"indices": list(idx), "value": poly_to_text(c)}
    return None


def _verify_star(name, S, defects):
    checks = 0
    checks += 1
    for k, left, right in unitality_defects(S):
        defects.append(
            _defect(f"{name}: unitality order {k}", {"left": diffop_to_payload(left), "right": diffop_to_payload(right)})
        )
    checks += 1
    associative = True
    for k, D in enumerate(assoc_defect(S), start=1):
        if not D.is_zero():
            associative = False
            defects.append(_defect(f"{name}: associativity order {k}", diffop_to_payload(D)))
    checks += 1
    c1 = cocycle_defect(S.op(1))
    if not c1.is_zero():
        defects.append(_defect(f"{name}: P_1 cocycle", diffop_to_payload(c1)))
    checks += 1
    try:
        pi = assoc_poisson(S)
        chk = is_poisson(pi)
        if not chk.ok:
            defects.append(
                _defect(
                    f"{name}: associated bivector not Poisson",
                    {"triple": list(chk.witness), "value": poly_to_text(chk.defect)},
                )
            )
    except PreconditionError as exc:
        defects.append(_defect(f"{name}: associated bivector", str(exc)))
        return checks
    if S.order >= 2 and is_special(S):
        checks += 1
        sec = Section(S, GaugeOp.identity_gauge(S.dim, S.order))
        c = subprincipal(S, sec)
        # biderivation is built into the bivector reconstruction; d_Pi-closedness
        # is the real invariant and fails on tampered P_2
        dc = lichnerowicz_d(pi, c)
        if not dc.is_zero():
            defects.append(
                _defect(
                    f"{name}: subprincipal curvature not d_Pi-closed",
                    _first_nonzero_term(dc),
                )
            )
        P2 = S.op(2)
        skew2 = P2 - transpose(P2)
        bider = biderivation(c)
        checks += 1
        if bider != skew2:
            defects.append(
                _defect(
                    f"{name}: subprincipal curvature is not a biderivation",
                    diffop_to_payload(skew2 - bider),
                )
            )
    return checks


def _verify_bundle_entries(entries, defects, prefix=""):
    checks = 0
    multivecs = {}
    stars = {}
    gauges = {}
    for name, sub in entries.items():
        qual = f"{prefix}{name}"
        # round-trip idempotence for every entry
        checks += 1
        once = serialize_document(sub)
        again = serialize_document(parse_document(once))
        if once != again:
            defects.append(_defect(f"{qual}: serialization not idempotent", None))
        if sub.kind == "bundle":
            checks += _verify_bundle_entries(sub.payload, defects, prefix=f"{qual}.")
            continue
        if sub.kind == "multivec" and sub.payload.degree == 2:
            multivecs[qual] = sub.payload
            checks += 2
            chk = is_poisson(sub.payload)
            alg = check_algebroid(from_poisson(sub.payload))
            if chk.ok != alg.ok:
                defects.append(
                    _defect(f"{qual}: is_poisson and Koszul algebroid check disagree", None)
                )
            if not chk.ok:
                defects.append(
                    _defect(
                        f"{qual}: not Poisson",
                        {"triple": list(chk.witness), "value": poly_to_text(chk.defect)},
                    )
                )
        elif sub.kind == "star":
            stars[qual] = sub.payload
            checks += _verify_star(qual, sub.payload, defects)
        elif sub.kind == "gauge":
            gauges[qual] = sub.payload
            checks += 1
            for k, val in gauge_unitality_defects(sub.payload):
                defects.append(
                    _defect(f"{qual}: gauge unitality order {k}", poly_to_text(val))
                )
        elif sub.kind == "qc":
            checks += 1
            try:
                for m, d in enumerate(mc_defect(sub.payload), start=2):
                    if not d.is_zero():
                        defects.append(
                            _defect(f"{qual}: Maurer-Cartan order {m}", _first_nonzero_term(d))
                        )
            except PreconditionError as exc:
                defects.append(_defect(f"{qual}: {exc}", None))
        elif sub.kind == "algebroid":
            checks += 1
            alg = check_algebroid(sub.payload)
            if not alg.ok:
                defects.append(
                    _defect(
                        f"{qual}: algebroid axioms fail",
                        {"axiom": alg.kind, "witness": list(alg.witness)},
                    )
                )
    # cross checks: gauge round trip and Poisson invariance on matching pairs
    for sname, S in stars.items():
        for gname, R in gauges.items():
            if (S.dim, S.order) != (R.dim, R.order):
                continue
            if gauge_unitality_defects(R):
                continue
            checks += 2
            Sp = gauge_transform(S, R)
            back = gauge_transform(Sp, invert_gauge(R))
            if back != S:
                defects.append(_defect(f"{sname}+{gname}: gauge round trip differs", None))
            try:
                if assoc_poisson(Sp) != assoc_poisson(S):
                    defects.append(
                        _defect(f"{sname}+{gname}: associated Poisson not gauge invariant", None)
                    )
            except PreconditionError as exc:
                defects.append(_defect(f"{sname}+{gname}: {exc}", None))
    return checks


def _cmd_verify(args):
    doc = _load_document(args.infile)
    if doc.kind != "bundle":
        raise SchemaError("verify needs a bundle document")
    defects = []
    checks = _verify_bundle_entries(doc.payload, defects)
    payload = {"checks": checks, "defects_found": len(defects)}
    if checks == 0:
        payload["warning"] = "empty bundle: zero checks run"
    return not defects, payload, defects


# ----------------------------------------------------------------------
# report assembly and dispatch


def _build_report(command: str, ok: bool, payload, defects, elapsed_ms: float) -> dict:
    body = {
        "command": command,
        "ok": bool(ok),
        "payload": payload,
        "defects": defects,
    }
    digest = hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()
    report = dict(body)
    report["canonical_sha256"] = digest
    report["timing_ms"] = round(elapsed_ms, 3)
    return report


def _render_human(report: dict) -> str:
    lines = [f"{report['command']}: {'ok' if report['ok'] else 'FAILED'}"]
    for d in report["defects"]:
        lines.append(f"  defect at {d['location']}")
    if report["ok"] and isinstance(report["payload"], str):
        lines.append(f"  {report['payload']}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    text = canonical_json(report)
    if getattr(args, "outfile", None):
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "human", False):
        sys.stdout.write(_render_human(report))
    else:
        sys.stdout.write(text)


_HANDLERS = {
    "parse": _cmd_parse,
    "poisson": _cmd_poisson,
    "algebroid": _cmd_algebroid,
    "diffop": _cmd_diffop,
    "star": _cmd_star,
    "mc": _cmd_mc,
    "kappa": _cmd_kappa,
    "verify": _cmd_verify,
}


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


def _build_argparser() -> argparse.ArgumentParser:
    top = _ArgumentParser(prog="dqkit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", required=True, help="input document (JSON)")
        p.add_argument("--out", dest="outfile", help="write the report here as well")
        p.add_argument("--human", action="store_true", help="text rendering on stdout")
        p.add_argument("--order", type=int, help="t-truncation order where applicable")
        p.add_argument("--degree", type=int, help="coefficient degree bound (specialize)")
        p.add_argument("--slot", type=int, help="slot index (diffop compose)")

    common(sub.add_parser("parse", help="parse and canonically re-serialize"))
    p = sub.add_parser("poisson", help="Poisson calculus")
    p.add_argument("action", choices=["check", "bracket", "dpi", "koszul", "hamiltonian"])
    common(p)
    p = sub.add_parser("algebroid", help="Lie algebroid calculus")
    p.add_argument("action", choices=["check", "d", "from-poisson", "ext-curv"])
    common(p)
    p = sub.add_parser("diffop", help="polydifferential operators")
    p.add_argument("action", choices=["apply", "compose", "delta", "cocycle"])
    common(p)
    p = sub.add_parser("star", help="star products and sections")
    p.add_argument(
        "action",
        choices=[
            "moyal",
            "assoc",
            "poisson",
            "gauge",
            "invert",
            "specialize",
            "sigma1",
            "subprincipal",
            "adexp",
            "nabla",
            "nabla-curv",
        ],
    )
    common(p)
    common(sub.add_parser("mc", help="Maurer-Cartan check for quasi-classical data"))
    common(sub.add_parser("kappa", help="connective-structure 2-vector with certificate"))
    common(sub.add_parser("verify", help="run the invariant suite over a bundle"))
    return top


def dispatch(argv) -> int:
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        report = _build_report(exc.command, False, {"error": str(exc)}, [], 0.0)
        _emit(report, None)
        return EXIT_INPUT
    except SystemExit as exc:
        # --help exits 0 after printing; normalize any other code
        return EXIT_INPUT if exc.code else EXIT_OK
    command = args.command
    if getattr(args, "action", None):
        command = f"{command} {args.action}"
    start = time.perf_counter()
    try:
        ok, payload, defects = _HANDLERS[args.command](args)
    except (SchemaError, PolyParseError) as exc:
        report = _build_report(command, False, {"error": str(exc)}, [], (time.perf_counter() - start) * 1000)
        _emit(report, args)
        return EXIT_INPUT
    except (PreconditionError, SolveError) as exc:
        detail = {"error": str(exc)}
        defects = [_defect("precondition", str(exc))]
        report = _build_report(command, False, detail, defects, (time.perf_counter() - start) * 1000)
        _emit(report, args)
        return EXIT_DEFECT
    except DqkitError as exc:
        report = _build_report(command, False, {"error": str(exc)}, [], (time.perf_counter() - start) * 1000)
        _emit(report, args)
        return EXIT_INPUT
    report = _build_report(command, ok, payload, defects, (time.perf_counter() - start) * 1000)
    _emit(report, args)
    return EXIT_OK if ok else EXIT_DEFECT


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
