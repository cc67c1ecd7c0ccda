import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from dqkit import cli, parser, qclimit, verify
from dqkit.calculus import MultiVec
from dqkit.cli import dispatch
from dqkit.diffop import PolyDiffOp, compose_into_slot
from dqkit.errors import BudgetError, PreconditionError, SolveError
from dqkit.kernel import Poly
from dqkit.liealgebroid import AlgebroidPresentation, from_poisson
from dqkit.parser import Document, diffop_to_payload, serialize_document
from dqkit.qclimit import QCData
from dqkit.starprod import GaugeOp, assoc_poisson, gauge_transform, gauge_unitality_defects, moyal, specialize
from oracles import canonical_json_reference

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def corpus(name):
    return os.path.join(CORPUS, name)


def load(name):
    with open(corpus(name)) as f:
        return json.load(f)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(argv)
    out = buf.getvalue()
    report = json.loads(out) if out.strip().startswith("{") else None
    return code, report, out


class TestDispatch:
    def test_poisson_check_ok(self):
        code, report, _ = run(["poisson", "check", "--in", corpus("so3.json")])
        assert code == 0 and report["ok"] and not report["defects"]

    def test_poisson_check_defect(self):
        code, report, _ = run(["poisson", "check", "--in", corpus("pi_bad.json")])
        assert code == 1
        assert report["defects"][0]["detail"]["triple"] == [1, 2, 3]
        assert report["defects"][0]["detail"]["value"] == "1"

    def test_star_assoc_defect_exits_one(self):
        code, report, _ = run(["star", "assoc", "--in", corpus("badstar.json")])
        assert code == 1
        assert any("order 2" in d["location"] for d in report["defects"])

    def test_mc_bad_reports_order_two(self):
        code, report, _ = run(["mc", "--in", corpus("qc_bad.json")])
        assert code == 1
        assert report["defects"][0]["location"] == "order 2"

    def test_mc_good(self):
        for name in ("qc_plane.json", "qc_r3.json"):
            code, report, _ = run(["mc", "--in", corpus(name)])
            assert code == 0 and report["ok"]

    def test_kappa(self):
        code, report, _ = run(["kappa", "--in", corpus("kappa_plane.json")])
        assert code == 0
        assert report["payload"]["certified"] is True
        terms = report["payload"]["kappa"]["terms"]
        assert terms == [{"coeff": "x1", "indices": [1, 2]}]

    def test_parse_roundtrip(self):
        code, report, _ = run(["parse", "--in", corpus("moyal_plane.json")])
        assert code == 0
        assert report["payload"]["kind"] == "star"

    def test_unknown_command_exits_two(self, capsys):
        code = dispatch(["frobnicate", "--in", "nope.json"])
        assert code == 2

    def test_schema_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind":"star","dim":2,"payload":{"R":[]}}')
        code, report, _ = run(["parse", "--in", str(bad)])
        assert code == 2
        assert "error" in report["payload"]

    def test_missing_file_exits_two(self):
        code, report, _ = run(["parse", "--in", "no-such-file.json"])
        assert code == 2

    def test_star_pipeline(self, tmp_path):
        code, report, _ = run(
            ["star", "moyal", "--in", corpus("pi_std.json"), "--order", "3"]
        )
        assert code == 0
        star_doc = {"kind": "star", "dim": 2, "order": 3, "payload": report["payload"]}
        p = tmp_path / "star.json"
        p.write_text(json.dumps(star_doc))
        code2, report2, _ = run(["star", "assoc", "--in", str(p)])
        assert code2 == 0 and report2["ok"]
        code3, report3, _ = run(["star", "poisson", "--in", str(p)])
        assert code3 == 0
        assert report3["payload"]["terms"] == [{"coeff": "1", "indices": [1, 2]}]

    def test_star_gauge_and_sigma1(self, tmp_path):
        bundle = {
            "kind": "bundle",
            "payload": {
                "star": load("moyal_plane.json"),
                "gauge": load("gauge_xi.json"),
            },
        }
        p = tmp_path / "b.json"
        p.write_text(json.dumps(bundle))
        code, report, _ = run(["star", "gauge", "--in", str(p)])
        assert code == 0
        code, report, _ = run(["star", "subprincipal", "--in", str(p)])
        assert code == 0
        # gauge_xi has R_1 = x d_x, so the class is that vector field
        code, report, _ = run(["star", "sigma1", "--in", str(p)])
        assert code == 0
        assert report["payload"]["terms"] == [{"coeff": "x1", "indices": [1]}]
        # a non-derivation R_1 is refused with exit 1
        bundle["payload"]["gauge"] = load("gauge_halfdx2.json")
        p.write_text(json.dumps(bundle))
        code, report, _ = run(["star", "sigma1", "--in", str(p)])
        assert code == 1

    def test_specialize_command(self, tmp_path):
        # gauge the plane Moyal product by 1 + t/2 dx^2, then respecialize
        bundle = {
            "kind": "bundle",
            "payload": {
                "star": load("moyal_plane.json"),
                "gauge": load("gauge_halfdx2.json"),
            },
        }
        p = tmp_path / "b.json"
        p.write_text(json.dumps(bundle))
        code, report, _ = run(["star", "gauge", "--in", str(p)])
        assert code == 0
        star_doc = {"kind": "star", "dim": 2, "order": 3, "payload": report["payload"]}
        q = tmp_path / "gauged.json"
        q.write_text(json.dumps(star_doc))
        code, report, _ = run(["star", "specialize", "--in", str(q), "--degree", "2"])
        assert code == 0
        assert report["payload"]["R"]

    def test_human_rendering(self, capsysbinary=None):
        code, report, out = run(
            ["poisson", "check", "--in", corpus("so3.json"), "--human"]
        )
        assert code == 0
        assert report is None  # not JSON
        assert "poisson check: ok" in out


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self, tmp_path):
        outs = []
        hashes = []
        for i in range(2):
            out = tmp_path / f"r{i}.json"
            code, _, _ = run(
                ["verify", "--in", corpus("bundle.json"), "--out", str(out)]
            )
            assert code == 0
            report = json.loads(out.read_text())
            hashes.append(report.pop("canonical_sha256"))
            report.pop("timing_ms")
            outs.append(json.dumps(report, sort_keys=True, indent=2))
        assert outs[0] == outs[1]
        assert hashes[0] == hashes[1]


class TestOneProcess:
    """dispatch builds its argument parser once per process.  After a usage
    error, a help text and a refused flag it still answers as a fresh process."""

    SEQUENCE = [
        ["diffop", "compose", "--slot", "x", "--in", corpus("moyal_plane.json")],
        ["star", "--help"],
        ["poisson", "check", "--order", "3", "--in", corpus("so3.json")],
        ["poisson", "check", "--in", corpus("pi_bad.json")],
        ["star", "moyal", "--order", "2", "--in", corpus("pi_std.json")],
    ]

    @staticmethod
    def _comparable(out):
        """A report without its timing; any other output as it is."""
        if not out.startswith("{"):
            return out
        report = json.loads(out)
        del report["timing_ms"]
        return report

    def test_same_output_as_fresh_processes(self, capsys, monkeypatch):
        # help is wrapped to the terminal width, so both sides get the same one
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=SRC)
        fresh = []
        for argv in self.SEQUENCE:
            proc = subprocess.run(
                [sys.executable, "-m", "dqkit.cli", *argv], env=env, capture_output=True, text=True, timeout=60
            )
            fresh.append((proc.returncode, self._comparable(proc.stdout), proc.stderr))
        assert [code for code, _, _ in fresh] == [2, 0, 2, 1, 0]
        for _ in range(2):
            for argv, want in zip(self.SEQUENCE, fresh):
                code = dispatch(argv)
                out, err = capsys.readouterr()
                assert (code, self._comparable(out), err) == want, argv


class TestVerify:
    def test_shipped_bundle_green(self):
        code, report, _ = run(["verify", "--in", corpus("bundle.json")])
        assert code == 0 and report["ok"]
        assert report["payload"]["checks"] > 10

    @pytest.mark.parametrize(
        "name,needle",
        [
            ("bundle_tampered_p2.json", "subprincipal"),
            ("bundle_tampered_assoc.json", "associativity"),
            ("bundle_tampered_qc.json", "Maurer-Cartan"),
        ],
    )
    def test_tampered_bundles_fail_with_location(self, name, needle):
        code, report, _ = run(["verify", "--in", corpus(name)])
        assert code == 1
        assert any(needle in d["location"] for d in report["defects"])

    def test_non_unital_star_located(self, tmp_path):
        # P_1(1, g) = d_x g: not unital at order 1
        star = {"kind": "star", "dim": 2, "payload": {"P": [
            {"arity": 2, "terms": [{"coeff": "1", "orders": [[0, 0], [1, 0]]}]}]}}
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"kind": "bundle", "payload": {"s": star}}))
        code, report, _ = run(["verify", "--in", str(path)])
        assert code == 1
        assert "s: unitality order 1" in [d["location"] for d in report["defects"]]
        path.write_text(json.dumps(star))
        code, report, _ = run(["star", "assoc", "--in", str(path)])
        assert code == 1
        assert "unitality order 1" in [d["location"] for d in report["defects"]]

    def test_empty_bundle_warns(self):
        code, report, _ = run(["verify", "--in", corpus("bundle_empty.json")])
        assert code == 0
        assert report["payload"]["warning"]
        assert report["payload"]["checks"] == 0


class TestCrossCheckControls:
    """Defect reports that only a library fault reaches, each reached by
    breaking the route under it: the report's location, and exit 1."""

    @staticmethod
    def locations(argv):
        code, report, _ = run(argv)
        assert code == 1
        return [d["location"] for d in report["defects"]]

    def test_serialization_not_idempotent(self, monkeypatch):
        # a reader that drops the order field: a star read back is written without it
        monkeypatch.setattr(verify, "parse_document",
                            lambda text: dataclasses.replace(parser.parse_document(text), order=None))
        assert "moyal_plane: serialization not idempotent" in self.locations(
            ["verify", "--in", corpus("bundle.json")])

    def test_koszul_algebroid_disagrees_with_is_poisson(self, monkeypatch):
        # structure functions doubled: the so3 Koszul algebroid breaks the anchor axiom
        def doubled(pi):
            A = from_poisson(pi)
            return AlgebroidPresentation(A.dim, A.rank, A.anchor,
                                         {pair: [2 * c for c in cs] for pair, cs in A.structure.items()})

        monkeypatch.setattr(verify, "from_poisson", doubled)
        assert "pi_so3: is_poisson and Koszul algebroid check disagree" in self.locations(
            ["verify", "--in", corpus("bundle.json")])

    def test_gauge_round_trip_differs(self, monkeypatch):
        # the gauge taken for its own inverse
        monkeypatch.setattr(verify, "invert_gauge", lambda R: R)
        assert "moyal_plane+gauge_xi: gauge round trip differs" in self.locations(
            ["verify", "--in", corpus("bundle.json")])

    def test_associated_poisson_not_gauge_invariant(self, monkeypatch):
        # the associated bivector doubled for every star but the shipped Moyal plane
        plane = parser.document_from_obj(load("moyal_plane.json")).payload
        monkeypatch.setattr(verify, "assoc_poisson", lambda S: assoc_poisson(S).scale(1 if S == plane else 2))
        assert "moyal_plane+gauge_xi: associated Poisson not gauge invariant" in self.locations(
            ["verify", "--in", corpus("bundle.json")])

    def test_associated_poisson_of_the_gauged_star_refused(self, monkeypatch):
        # a precondition refused for every star but the shipped Moyal plane, whose own check passes
        plane = parser.document_from_obj(load("moyal_plane.json")).payload

        def refusing(S):
            if S == plane:
                return assoc_poisson(S)
            raise PreconditionError("P_1 is not a biderivation")

        monkeypatch.setattr(verify, "assoc_poisson", refusing)
        assert "moyal_plane+gauge_xi: P_1 is not a biderivation" in self.locations(
            ["verify", "--in", corpus("bundle.json")])

    def test_kappa_not_closed(self, monkeypatch):
        # a certificate that is kappa itself, not d_Pi(kappa)
        monkeypatch.setattr(qclimit, "lichnerowicz_d", lambda pi, k: k)
        assert self.locations(["kappa", "--in", corpus("kappa_plane.json")]) == ["closedness"]


def test_verify_checks_each_gauge_unitality_once(monkeypatch):
    """The star x gauge cross checks reuse the gauge's own unitality check: one
    call per gauge entry, and the report is the one without the reuse."""
    base = run(["verify", "--in", corpus("bundle.json")])
    calls = []

    def counted(R):
        calls.append(R)
        return gauge_unitality_defects(R)

    monkeypatch.setattr(verify, "gauge_unitality_defects", counted)
    code, report, _ = run(["verify", "--in", corpus("bundle.json")])
    assert code == base[0] == 0 and report["canonical_sha256"] == base[1]["canonical_sha256"]
    gauges = [sub.payload for sub in parser.document_from_obj(load("bundle.json")).payload.values() if sub.kind == "gauge"]
    assert len(gauges) == 2 and calls == gauges


class TestFailureReports:
    def test_any_other_exception_exits_three_with_a_report(self, monkeypatch):
        def broken(S):
            raise RuntimeError("boom")

        entries, flag, _ = cli._ACTIONS["star", "assoc"]
        monkeypatch.setitem(cli._ACTIONS, ("star", "assoc"), (entries, flag, broken))
        code, report, out = run(["star", "assoc", "--in", corpus("moyal_plane.json")])
        assert code == cli.EXIT_INTERNAL == 3
        assert report["payload"] == {"error": "internal error: RuntimeError: boom"}
        assert not report["ok"] and report["defects"] == []
        assert out == canonical_json_reference(report)

    @pytest.mark.parametrize(
        "cls, argv",
        [
            (MultiVec, ["poisson", "check", "--in", corpus("so3.json")]),
            (QCData, ["mc", "--in", corpus("qc_r3.json")]),
            (AlgebroidPresentation, ["algebroid", "check", "--in", corpus("algebroid_so3.json")]),
        ],
        ids=["tensor", "qc", "algebroid"],
    )
    def test_fault_in_a_reader_constructor_exits_three(self, monkeypatch, cls, argv):
        """A document reader reports a library constructor's input error at its
        path; any other exception is a fault of the program, not an input error."""

        def broken(self, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cls, "__init__", broken)
        code, report, out = run(argv)
        assert code == cli.EXIT_INTERNAL == 3
        assert report["payload"] == {"error": "internal error: RuntimeError: boom"}
        assert out == canonical_json_reference(report)

    def test_unwritable_out_exits_two_with_a_report(self, tmp_path):
        path = str(tmp_path / "missing" / "r.json")
        code, report, out = run(["poisson", "check", "--in", corpus("so3.json"), "--out", path])
        assert code == cli.EXIT_INPUT == 2
        assert report["command"] == "poisson check"
        assert report["payload"] == {"error": f"cannot write --out {path}: {os.strerror(errno.ENOENT)}"}
        assert not report["ok"] and report["defects"] == []
        assert out == canonical_json_reference(report)
        assert not os.path.exists(path)

    def test_fault_while_rendering_exits_three_with_a_report(self, monkeypatch, capsys, tmp_path):
        calls = []
        real = cli.canonical_json

        def fails_once(obj):
            calls.append(obj)
            if len(calls) == 1:
                raise RuntimeError("render failed")
            return real(obj)

        monkeypatch.setattr(cli, "canonical_json", fails_once)
        path = tmp_path / "r.json"
        code, report, out = run(["poisson", "check", "--in", corpus("so3.json"), "--out", str(path)])
        assert code == cli.EXIT_INTERNAL == 3
        assert report["payload"] == {"error": "internal error: RuntimeError: render failed"}
        assert not report["ok"] and report["defects"] == []
        assert out == canonical_json_reference(report)
        assert len(calls) == 2 and calls[0]["payload"] == {"poisson": True}
        # the traceback goes to stderr; the failed report was never written
        assert "RuntimeError: render failed" in capsys.readouterr().err
        assert not path.exists()

    def test_refusal_while_an_operator_is_written_exits_two(self, monkeypatch, tmp_path):
        """Operators are written as the report is rendered, after the action has
        returned; a coefficient over the digit limit is still an input error, with
        the refusal that diffop_to_payload raises, on stdout and in --out."""
        monkeypatch.setattr(parser, "_INT_TEXT_BOUND", 100)  # so that 5! = 120 is over it
        outer, inner = PolyDiffOp(1, 1, {((5,),): 1}), PolyDiffOp(1, 1, {((0,),): Poly.monomial(1, (5,))})
        with pytest.raises(BudgetError) as refusal:
            diffop_to_payload(compose_into_slot(outer, 1, inner))
        path, out_path = tmp_path / "compose.json", tmp_path / "r.json"
        path.write_text(serialize_document(Document("bundle", 0, None, {
            "outer": Document("diffop", 1, None, outer), "inner": Document("diffop", 1, None, inner)})))
        code, report, out = run(["diffop", "compose", "--in", str(path), "--out", str(out_path)])
        assert code == cli.EXIT_INPUT == 2
        assert report["payload"] == {"error": str(refusal.value)}
        assert str(refusal.value) == f"a coefficient of 3 digits is above parser.MAX_INT_DIGITS = {parser.MAX_INT_DIGITS}"
        assert not report["ok"] and report["defects"] == []
        assert out == canonical_json_reference(report) == out_path.read_text()

    def test_solve_residual_is_in_the_report(self, tmp_path):
        # the Moyal plane gauged by R_1 = x2 d_x^2: sym(P_1) needs coefficient degree 1
        S = gauge_transform(moyal(MultiVec(2, 2, {(1, 2): 1}), 1),
                            GaugeOp(2, 1, [PolyDiffOp(2, 1, {((2, 0),): Poly.variable(2, 2)})]))
        path = tmp_path / "s.json"
        path.write_text(serialize_document(Document("star", 2, 1, S)))
        with pytest.raises(SolveError) as info:
            specialize(S, 0)
        code, report, _ = run(["star", "specialize", "--degree", "0", "--in", str(path)])
        assert code == 1
        assert report["payload"] == {"error": str(info.value), "residual": diffop_to_payload(info.value.residual)}
        assert report["payload"]["residual"]["terms"]
