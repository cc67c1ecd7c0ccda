import io
import json
import os
from contextlib import redirect_stdout

import pytest

from dqkit.cli import dispatch

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


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
