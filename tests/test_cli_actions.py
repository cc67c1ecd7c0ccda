"""One exercise per CLI action, wiring bundles the way the README documents."""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import pytest

from dqkit.cli import dispatch
from dqkit.parser import MAX_NESTING
from oracles import canonical_json_reference

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def doc(name):
    with open(os.path.join(CORPUS, name)) as f:
        return json.load(f)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(argv)
    return code, json.loads(buf.getvalue())


def bundle_file(tmp_path, entries, name="b.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"kind": "bundle", "payload": entries}))
    return str(p)


def poly_doc(dim, expr):
    return {"kind": "poly", "dim": dim, "payload": expr}


def form_doc(dim, terms, degree=None):
    payload = terms if degree is None else {"degree": degree, "terms": terms}
    return {"kind": "form", "dim": dim, "payload": payload}


def mv_doc(dim, terms):
    return {"kind": "multivec", "dim": dim, "payload": terms}


class TestPoissonActions:
    def test_bracket(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {"pi": doc("so3.json"), "f": poly_doc(3, "x"), "g": poly_doc(3, "y")},
        )
        code, report = run(["poisson", "bracket", "--in", path])
        assert code == 0 and report["payload"] == "x3"

    def test_dpi(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {"pi": doc("pi_std.json"), "a": mv_doc(2, [{"indices": [1], "coeff": "x"}])},
        )
        code, report = run(["poisson", "dpi", "--in", path])
        assert code == 0
        assert report["payload"]["terms"] == [{"coeff": "1", "indices": [1, 2]}]

    def test_koszul(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {
                "pi": doc("pi_std.json"),
                "alpha": form_doc(2, [{"indices": [1], "coeff": "x"}]),
                "beta": form_doc(2, [{"indices": [2], "coeff": "1"}]),
            },
        )
        code, report = run(["poisson", "koszul", "--in", path])
        assert code == 0
        assert report["payload"]["terms"] == [{"coeff": "1", "indices": [1]}]

    def test_hamiltonian(self, tmp_path):
        path = bundle_file(tmp_path, {"pi": doc("pi_std.json"), "f": poly_doc(2, "x")})
        code, report = run(["poisson", "hamiltonian", "--in", path])
        assert code == 0
        assert report["payload"]["terms"] == [{"coeff": "1", "indices": [2]}]


class TestAlgebroidActions:
    def test_check(self):
        code, report = run(
            ["algebroid", "check", "--in", os.path.join(CORPUS, "algebroid_so3.json")]
        )
        assert code == 0 and report["payload"]["algebroid"]

    def test_from_poisson(self):
        code, report = run(
            ["algebroid", "from-poisson", "--in", os.path.join(CORPUS, "so3.json")]
        )
        assert code == 0
        assert report["payload"]["rank"] == 3
        assert {"pair": [1, 2], "coeffs": ["0", "0", "1"]} in report["payload"]["structure"]

    def test_d(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {
                "algebroid": doc("algebroid_so3.json"),
                "omega": form_doc(3, [{"indices": [1], "coeff": "x"}]),
            },
        )
        code, report = run(["algebroid", "d", "--in", path])
        assert code == 0
        assert report["payload"]["degree"] == 2

    def test_ext_curv(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {
                "algebroid": doc("algebroid_so3.json"),
                "twist": form_doc(3, [], degree=2),
                "lam": form_doc(3, [{"indices": [2], "coeff": "x"}]),
            },
        )
        code, report = run(["algebroid", "ext-curv", "--in", path])
        assert code == 0
        assert report["payload"]["degree"] == 2

    def test_form_dim_must_match_algebroid(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {
                "algebroid": doc("algebroid_so3.json"),
                "omega": form_doc(2, [{"indices": [1], "coeff": "x"}]),
            },
        )
        code, report = run(["algebroid", "d", "--in", path])
        assert code == 2
        assert report["payload"]["error"].startswith("$.payload.omega.payload: ")


class TestDiffopActions:
    def test_apply(self, tmp_path):
        op = {
            "kind": "diffop",
            "dim": 2,
            "payload": {
                "arity": 2,
                "terms": [{"coeff": "1", "orders": [[1, 0], [0, 1]]}],
            },
        }
        path = bundle_file(
            tmp_path, {"op": op, "f1": poly_doc(2, "x^2"), "f2": poly_doc(2, "x*y")}
        )
        code, report = run(["diffop", "apply", "--in", path])
        assert code == 0 and report["payload"] == "2*x1^2"

    def test_compose(self, tmp_path):
        dx = {
            "kind": "diffop",
            "dim": 2,
            "payload": {"arity": 1, "terms": [{"coeff": "1", "orders": [[1, 0]]}]},
        }
        path = bundle_file(tmp_path, {"outer": dx, "inner": dx})
        code, report = run(["diffop", "compose", "--in", path, "--slot", "1"])
        assert code == 0
        assert report["payload"]["terms"] == [{"coeff": "1", "orders": [[2, 0]]}]

    def test_delta(self, tmp_path):
        q = {
            "kind": "diffop",
            "dim": 2,
            "payload": {"arity": 1, "terms": [{"coeff": "1/2", "orders": [[2, 0]]}]},
        }
        p = tmp_path / "q.json"
        p.write_text(json.dumps(q))
        code, report = run(["diffop", "delta", "--in", str(p)])
        assert code == 0
        assert report["payload"]["terms"] == [
            {"coeff": "1", "orders": [[1, 0], [1, 0]]}
        ]

    def test_cocycle(self, tmp_path):
        p1 = {
            "kind": "diffop",
            "dim": 2,
            "payload": {
                "arity": 2,
                "terms": [
                    {"coeff": "1/2", "orders": [[1, 0], [0, 1]]},
                    {"coeff": "-1/2", "orders": [[0, 1], [1, 0]]},
                ],
            },
        }
        p = tmp_path / "p.json"
        p.write_text(json.dumps(p1))
        code, report = run(["diffop", "cocycle", "--in", str(p)])
        assert code == 0 and report["ok"]


class TestStarActions:
    def test_invert(self):
        code, report = run(
            ["star", "invert", "--in", os.path.join(CORPUS, "gauge_halfdx2.json")]
        )
        assert code == 0
        assert report["payload"]["R"][0]["terms"][0]["coeff"] == "-1/2"

    def test_adexp(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {
                "star": doc("moyal_plane.json"),
                "alpha": poly_doc(2, "x"),
                "b": poly_doc(2, "y"),
            },
        )
        code, report = run(["star", "adexp", "--in", path])
        assert code == 0
        assert report["payload"] == ["x2", "1", "0", "0"]

    @pytest.mark.parametrize("name", ["alpha", "b"])
    def test_adexp_series_order_located(self, tmp_path, name):
        entries = {"star": doc("moyal_plane.json"), "alpha": poly_doc(2, "x"), "b": poly_doc(2, "y")}
        entries[name] = {"kind": "poly", "dim": 2, "order": 1, "payload": ["x", "y"]}
        code, report = run(["star", "adexp", "--in", bundle_file(tmp_path, entries)])
        assert code == 2
        assert report["payload"]["error"] == f"$.payload.{name}.order: t-series order 1 != expected 3"

    def test_nabla_and_curvature(self, tmp_path):
        gauge_id = {
            "kind": "gauge",
            "dim": 2,
            "order": 3,
            "payload": {
                "R": [
                    {"arity": 1, "terms": []},
                    {"arity": 1, "terms": []},
                    {"arity": 1, "terms": []},
                ]
            },
        }
        entries = {
            "star": doc("moyal_plane.json"),
            "gauge": gauge_id,
            "xi0": mv_doc(2, {"degree": 1, "terms": []}),
            "xi1": mv_doc(2, [{"indices": [1], "coeff": "x"}]),
            "f": poly_doc(2, "x"),
            "m": poly_doc(2, "y"),
        }
        path = bundle_file(tmp_path, entries)
        code, report = run(["star", "nabla", "--in", path])
        assert code == 0
        # {x, y} + xi1(x) m = 1 + x y
        assert report["payload"] == "x1*x2 + 1"
        code, report = run(["star", "nabla-curv", "--in", path])
        assert code == 0
        assert report["payload"]["terms"] == [{"coeff": "1", "indices": [1, 2]}]

    @pytest.mark.parametrize("action", ["nabla", "nabla-curv"])
    def test_bimodule_builds_a0_once(self, tmp_path, monkeypatch, action):
        """A_0 = gauge_transform(star, gauge) is built once per run, wherever the
        CLI or the library binds the name."""
        from dqkit import cli, starprod

        calls = []
        real = starprod.gauge_transform

        def counted(S, R):
            calls.append(R)
            return real(S, R)

        monkeypatch.setattr(starprod, "gauge_transform", counted)
        monkeypatch.setattr(cli, "gauge_transform", counted)
        entries = {
            "star": doc("moyal_plane.json"),
            "gauge": doc("gauge_xi.json"),
            "xi0": mv_doc(2, [{"indices": [2], "coeff": "x"}]),
            "xi1": mv_doc(2, [{"indices": [1], "coeff": "x"}]),
            "f": poly_doc(2, "x*y"),
            "m": poly_doc(2, "y"),
        }
        code, _ = run(["star", action, "--in", bundle_file(tmp_path, entries)])
        assert code == 0
        assert len(calls) == 1


class TestErrorPaths:
    def test_specialize_rejects_nonassociative(self):
        code, report = run(
            ["star", "specialize", "--in", os.path.join(CORPUS, "badstar.json")]
        )
        assert code == 1
        assert "associative" in report["payload"]["error"]

    def test_subprincipal_rejects_non_special_section(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {"star": doc("moyal_plane.json"), "gauge": doc("gauge_halfdx2.json")},
        )
        code, report = run(["star", "subprincipal", "--in", path])
        assert code == 1

    def test_kappa_rejects_dB_mismatch(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {"qc": doc("qc_r3.json"), "B": form_doc(3, [], degree=2)},
        )
        code, report = run(["kappa", "--in", path])
        assert code == 1
        assert "dB != H" in report["payload"]["error"]

    def test_dimension_mismatch_is_input_error(self, tmp_path):
        path = bundle_file(
            tmp_path,
            {"pi": doc("pi_std.json"), "f": poly_doc(3, "x"), "g": poly_doc(3, "y")},
        )
        code, report = run(["poisson", "bracket", "--in", path])
        assert code == 2


class TestFlagValues:
    """A present flag below its range is rejected, never replaced by the default."""

    DX = {
        "kind": "diffop",
        "dim": 2,
        "payload": {"arity": 1, "terms": [{"coeff": "1", "orders": [[1, 0]]}]},
    }

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["diffop", "compose", "--slot", "0"], "--slot"),
            (["diffop", "compose", "--slot", "-3"], "--slot"),
            (["star", "moyal", "--order", "0"], "--order"),
            (["star", "specialize", "--degree", "-1"], "--degree"),
        ],
    )
    def test_out_of_range_exits_2(self, tmp_path, argv, flag):
        path = bundle_file(
            tmp_path,
            {
                "outer": self.DX,
                "inner": self.DX,
                "pi": doc("pi_std.json"),
                "star": doc("moyal_plane.json"),
            },
        )
        code, report = run(argv + ["--in", path])
        assert code == 2 and not report["ok"]
        assert flag in report["payload"]["error"]

    def test_absent_flags_keep_defaults(self, tmp_path):
        path = bundle_file(tmp_path, {"outer": self.DX, "inner": self.DX})
        code, report = run(["diffop", "compose", "--in", path])
        assert code == 0
        assert report["payload"]["terms"] == [{"coeff": "1", "orders": [[2, 0]]}]
        code, report = run(["star", "moyal", "--in", os.path.join(CORPUS, "pi_std.json")])
        assert code == 0 and len(report["payload"]["P"]) == 3

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["poisson", "check", "--order", "9", "--slot", "4", "--degree", "7"], "--order"),
            (["poisson", "check", "--slot", "4"], "--slot"),
            (["poisson", "check", "--degree", "7"], "--degree"),
            (["star", "moyal", "--slot", "1"], "--slot"),
            (["star", "specialize", "--order", "2"], "--order"),
            (["diffop", "compose", "--degree", "1"], "--degree"),
            (["mc", "--order", "2"], "--order"),
            (["verify", "--slot", "1"], "--slot"),
            (["parse", "--degree", "0"], "--degree"),
        ],
    )
    def test_unread_flag_is_usage_error(self, argv, flag, capsys):
        # the input is never opened: the flag is rejected first
        code = dispatch(argv + ["--in", "nope.json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and not report["ok"]
        assert report["command"] == "dqkit"
        assert report["payload"]["error"].startswith(f"argument {flag}: not read by ")

    def test_lowest_values_accepted(self, tmp_path):
        code, report = run(
            ["star", "moyal", "--order", "1", "--in", os.path.join(CORPUS, "pi_std.json")]
        )
        assert code == 0 and len(report["payload"]["P"]) == 1
        code, report = run(
            ["star", "specialize", "--degree", "0", "--in", os.path.join(CORPUS, "moyal_plane.json")]
        )
        assert code == 0


class TestBooleanIntegers:
    """JSON true/false are not integers, although Python's bool is an int."""

    @pytest.mark.parametrize(
        "make, path",
        [
            (lambda v: {"kind": "poly", "dim": v, "payload": "x"}, "$.dim"),
            (lambda v: {"kind": "poly", "dim": 1, "order": v, "payload": ["x", "x"]}, "$.order"),
            (lambda v: form_doc(1, [], degree=v), "$.payload.degree"),
            (lambda v: {"kind": "diffop", "dim": 1, "payload": {"arity": v, "terms": []}},
             "$.payload.arity"),
            (lambda v: {"kind": "algebroid", "dim": 1, "payload": {"rank": v, "anchor": [["1"]]}},
             "$.payload.rank"),
            (lambda v: mv_doc(2, [{"indices": [v], "coeff": "x"}]), "$.payload[0].indices"),
            (lambda v: {"kind": "diffop", "dim": 1,
                        "payload": {"arity": 1, "terms": [{"coeff": "1", "orders": [[v]]}]}},
             "$.payload.terms[0].orders"),
            (lambda v: {"kind": "algebroid", "dim": 1, "payload": {
                "rank": 2, "anchor": [["1"], ["0"]],
                "structure": [{"pair": [v, 2], "coeffs": ["0", "0"]}]}},
             "$.payload.structure[0].pair"),
            (lambda v: {"kind": "bundle", "dim": v, "payload": {}}, "$.dim"),
            (lambda v: {"kind": "bundle", "order": v, "payload": {}}, "$.order"),
            (lambda v: {"kind": "bundle", "payload": {"inner": {"kind": "bundle", "order": v, "payload": {}}}},
             "$.payload.inner.order"),
        ],
        ids=["dim", "order", "degree", "arity", "rank", "indices", "orders", "pair",
             "bundle-dim", "bundle-order", "nested-bundle-order"],
    )
    def test_true_rejected_where_1_is_read(self, tmp_path, make, path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(make(1)))
        assert run(["parse", "--in", str(p)])[0] == 0
        p.write_text(json.dumps(make(True)))
        code, report = run(["parse", "--in", str(p)])
        assert code == 2 and not report["ok"]
        assert report["payload"]["error"].startswith(path + ": ")


class TestUsageErrors:
    """argparse usage errors end in a canonical report, not in bare stderr text."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["diffop", "compose", "--slot", "x", "--in", "nope.json"], "--slot"),
            (["star", "frobnicate", "--in", "nope.json"], "frobnicate"),
            (["frobnicate"], "frobnicate"),
            (["star", "assoc"], "--in"),
            (["parse", "--in", "nope.json", "--dim", "2"], "--dim"),
        ],
    )
    def test_usage_error_report(self, argv, needle, capsys):
        code = dispatch(argv)
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert code == 2 and not report["ok"]
        assert needle in report["payload"]["error"]
        assert report["command"].startswith("dqkit")
        assert report["payload"]["error"] in err

    @pytest.mark.parametrize(
        "command, choices",
        [
            ("poisson", "'check', 'bracket', 'dpi', 'koszul', 'hamiltonian'"),
            ("algebroid", "'check', 'd', 'from-poisson', 'ext-curv'"),
            ("diffop", "'apply', 'compose', 'delta', 'cocycle'"),
            ("star", "'moyal', 'assoc', 'poisson', 'gauge', 'invert', 'specialize', 'sigma1', "
                     "'subprincipal', 'adexp', 'nabla', 'nabla-curv'"),
        ],
    )
    def test_choices_in_documented_order(self, command, choices, capsys):
        assert dispatch([command, "frobnicate", "--in", "nope.json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["payload"]["error"].endswith(f"(choose from {choices})")

    def test_help_still_exits_0(self, capsys):
        assert dispatch(["--help"]) == 0
        assert dispatch(["star", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestNestingBound:
    """Deep nesting in an expression leaf is an input error, not a RecursionError."""

    DEEP = ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x", "x" + "^1" * 5000]

    @pytest.mark.parametrize("expr", DEEP, ids=["parens", "signs", "powers"])
    def test_deep_leaf_exits_2(self, tmp_path, expr):
        path = bundle_file(tmp_path, {"f": poly_doc(2, expr)})
        code, report = run(["parse", "--in", path])
        assert code == 2 and not report["ok"]
        assert "nested deeper than" in report["payload"]["error"]


def nested_bundles(depth):
    """JSON text of `depth` bundles nested through the entry "a" around a poly."""
    inner = json.dumps(poly_doc(1, "x"))
    return '{"kind": "bundle", "payload": {"a": ' * depth + inner + "}}" * depth


class TestDocumentNesting:
    """Deeply nested documents are input errors with a canonical report."""

    DEEP = {
        "bundles_3000": (nested_bundles(3000), "nested too deeply to decode"),
        "arrays_100000": ("[" * 100000 + "]" * 100000, "nested too deeply to decode"),
        "bundles_400": (nested_bundles(400), f"bundles nested deeper than {MAX_NESTING} levels"),
    }

    @pytest.mark.parametrize("name", sorted(DEEP))
    @pytest.mark.parametrize("command", ["parse", "verify"])
    def test_deep_document_exits_2(self, tmp_path, name, command):
        text, needle = self.DEEP[name]
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, report = run([command, "--in", str(path)])
        assert code == 2 and not report["ok"]
        assert needle in report["payload"]["error"]
        body = {k: report[k] for k in ("command", "ok", "payload", "defects")}
        digest = hashlib.sha256(canonical_json_reference(body).encode("utf-8")).hexdigest()
        assert report["canonical_sha256"] == digest

    def test_limit_names_the_path(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(nested_bundles(MAX_NESTING + 1))
        code, report = run(["parse", "--in", str(path)])
        assert code == 2
        assert report["payload"]["error"].startswith("$" + ".payload.a" * MAX_NESTING + ": ")

    def test_bundles_at_the_limit_verify(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(nested_bundles(MAX_NESTING))
        code, report = run(["verify", "--in", str(path)])
        assert code == 0 and report["payload"]["checks"] == MAX_NESTING
