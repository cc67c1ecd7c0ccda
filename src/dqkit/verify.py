"""The bundle invariant suite behind ``dqkit verify``.

``verify_bundle`` runs every applicable exact check against a bundle's entries
and returns ``(ok, payload, defects)``, the shape of every CLI action: a
defect is a dict ``{"location", "detail"}`` whose detail is what
``parser.canonical_json`` writes: JSON data, operators left in place.
"""

from __future__ import annotations

from .diffop import cocycle_defect, transpose
from .errors import PreconditionError, SchemaError
from .liealgebroid import check_algebroid, from_poisson
from .parser import Document, parse_document, poly_to_text, serialize_document
from .poisson import is_poisson, lichnerowicz_d
from .qclimit import mc_defect
from .starprod import (
    _on_coordinate_pairs,
    assoc_defect,
    assoc_poisson,
    gauge_transform,
    gauge_unitality_defects,
    invert_gauge,
    is_special,
    multiderivation,
    unitality_defects,
)


def _defect(location: str, detail) -> dict:
    return {"location": location, "detail": detail}


def _jacobiator(chk) -> dict:
    """The defect detail of a failed is_poisson check."""
    return {"triple": list(chk.witness), "value": poly_to_text(chk.defect)}


def _unitality(S, prefix=""):
    """A defect at "{prefix}unitality order k" for each order k where S is not unital."""
    return [
        _defect(f"{prefix}unitality order {k}", {"left": left, "right": right})
        for k, left, right in unitality_defects(S)
    ]


def _first_nonzero_term(t):
    """The term of lowest indices of a nonzero tensor t ("terms" is ascending)."""
    idx, c = next(iter(t.terms.items()))
    return {"indices": list(idx), "value": poly_to_text(c)}


def _verify_star(name, S, defects):
    """(checks run, S's associated bivector or None when its check reported it missing)."""
    checks = 1
    defects.extend(_unitality(S, f"{name}: "))
    checks += 1
    for k, D in enumerate(assoc_defect(S), start=1):
        if not D.is_zero():
            defects.append(_defect(f"{name}: associativity order {k}", D))
    checks += 1
    c1 = cocycle_defect(S.op(1))
    if not c1.is_zero():
        defects.append(_defect(f"{name}: P_1 cocycle", c1))
    checks += 1
    try:
        pi = assoc_poisson(S)
        chk = is_poisson(pi)
        if not chk.ok:
            defects.append(_defect(f"{name}: associated bivector not Poisson", _jacobiator(chk)))
    except PreconditionError as exc:
        defects.append(_defect(f"{name}: associated bivector", str(exc)))
        return checks, None
    if S.order >= 2 and is_special(S):
        checks += 1
        # the subprincipal curvature of the identity section: S is special and
        # pi exists, so it is read off twice the skew part of P_2.  The
        # biderivation is built into the bivector reconstruction; d_Pi-closedness
        # is the real invariant and fails on tampered P_2
        P2 = S.op(2)
        skew2 = P2 - transpose(P2)
        c = _on_coordinate_pairs(skew2)
        dc = lichnerowicz_d(pi, c)
        if not dc.is_zero():
            defects.append(
                _defect(
                    f"{name}: subprincipal curvature not d_Pi-closed",
                    _first_nonzero_term(dc),
                )
            )
        bider = multiderivation(c)
        checks += 1
        if bider != skew2:
            defects.append(
                _defect(
                    f"{name}: subprincipal curvature is not a biderivation",
                    skew2 - bider,
                )
            )
    return checks, pi


def _verify_bundle_entries(entries, defects, prefix=""):
    checks = 0
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
            checks += 2
            chk = is_poisson(sub.payload)
            alg = check_algebroid(from_poisson(sub.payload))
            if chk.ok != alg.ok:
                defects.append(
                    _defect(f"{qual}: is_poisson and Koszul algebroid check disagree", None)
                )
            if not chk.ok:
                defects.append(_defect(f"{qual}: not Poisson", _jacobiator(chk)))
        elif sub.kind == "star":
            count, pi = _verify_star(qual, sub.payload, defects)
            checks += count
            stars[qual] = sub.payload, pi
        elif sub.kind == "gauge":
            checks += 1
            unitality = gauge_unitality_defects(sub.payload)
            if not unitality:  # only a unital gauge enters the cross checks
                gauges[qual] = sub.payload
            for k, val in unitality:
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
    # cross checks on matching pairs of a star and a unital gauge: the gauge round trip, and
    # Poisson invariance unless the star's own check already reported its bivector missing
    for sname, (S, pi) in stars.items():
        for gname, R in gauges.items():
            if (S.dim, S.order) != (R.dim, R.order):
                continue
            checks += 1 if pi is None else 2
            Sp = gauge_transform(S, R)
            back = gauge_transform(Sp, invert_gauge(R))
            if back != S:
                defects.append(_defect(f"{sname}+{gname}: gauge round trip differs", None))
            if pi is None:
                continue
            try:
                if assoc_poisson(Sp) != pi:
                    defects.append(
                        _defect(f"{sname}+{gname}: associated Poisson not gauge invariant", None)
                    )
            except PreconditionError as exc:
                defects.append(_defect(f"{sname}+{gname}: {exc}", None))
    return checks


def verify_bundle(doc: Document):
    """Run the invariant suite over a bundle document: ``(ok, payload, defects)``.

    ``payload`` counts the checks run and the defects found; ``ok`` is true
    iff no check found a defect.  A document that is not a bundle raises
    ``SchemaError``.
    """
    if doc.kind != "bundle":
        raise SchemaError("verify needs a bundle document")
    defects = []
    checks = _verify_bundle_entries(doc.payload, defects)
    payload = {"checks": checks, "defects_found": len(defects)}
    if checks == 0:
        payload["warning"] = "empty bundle: zero checks run"
    return not defects, payload, defects
