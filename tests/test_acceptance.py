"""Acceptance criteria, one test per criterion, exact arithmetic throughout
(tolerance identically zero).  Each test prints a single pass/fail line."""

import glob
import io
import json
import os
import random
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from dqkit.calculus import Form, MultiVec, anchor_pullback, exterior_d
from dqkit.cli import dispatch
from dqkit.diffop import PolyDiffOp, cocycle_defect, hochschild_delta
from dqkit.kernel import Poly, TPoly
from dqkit.liealgebroid import (
    AlgebroidForm,
    AlgebroidPresentation,
    ExtensionData,
    algebroid_d,
    check_algebroid,
    extension_curvature,
    from_poisson,
    line_curvature,
    unit_shift,
)
from dqkit.parser import parse_document, serialize_document
from dqkit.poisson import (
    bracket,
    hamiltonian,
    is_poisson,
    jacobiator,
    koszul_bracket,
    lichnerowicz_d,
)
from dqkit.qclimit import QCData, kappa, mc_defect
from dqkit.starprod import (
    BimoduleModel,
    GaugeOp,
    Section,
    Sigma1,
    assoc_defect,
    assoc_poisson,
    contravariant_nabla,
    gauge_compose,
    gauge_transform,
    is_special,
    moyal,
    nabla_curvature,
    sigma1_act,
    sigma1_of_ad,
    specialize,
    subprincipal,
    unitality_defects,
    vector_field_op,
)

from conftest import rand_gauge, rand_poly, rand_vector_field

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {title}")


def fixed_rng():
    return random.Random(0xDE5C)


PI_STD = MultiVec(2, 2, {(1, 2): 1})
X, Y = Poly.variable(2, 1), Poly.variable(2, 2)
X3, Y3, Z3 = (Poly.variable(3, i) for i in (1, 2, 3))
PI_SO3 = MultiVec(3, 2, {(1, 2): Z3, (1, 3): -Y3, (2, 3): X3})
PI_BAD = MultiVec(3, 2, {(1, 2): Poly.one(3), (2, 3): Y3})


def test_criterion_1_moyal_associativity():
    with criterion(1, "Moyal associativity and unitality at N=4"):
        S = moyal(PI_STD, 4)
        for D in assoc_defect(S):
            assert D.is_zero()  # operator normal form empty, every order
        assert not unitality_defects(S)


def test_criterion_2_associated_poisson():
    with criterion(2, "assoc_poisson(moyal(pi)) = pi; gauge invariant (>= 20 gauges)"):
        rng = fixed_rng()
        assert assoc_poisson(moyal(PI_STD, 2)) == PI_STD
        pi4 = MultiVec(4, 2, {(1, 2): 1, (3, 4): 1})
        assert assoc_poisson(moyal(pi4, 2)) == pi4
        S2 = moyal(PI_STD, 2)
        S4 = moyal(pi4, 2)
        for _ in range(20):
            R = rand_gauge(rng, 2, 2)
            assert assoc_poisson(gauge_transform(S2, R)) == PI_STD
        for _ in range(20):
            R = rand_gauge(rng, 4, 2, max_order=1)
            assert assoc_poisson(gauge_transform(S4, R)) == pi4


def test_criterion_3_hochschild_laws():
    with criterion(3, "Hochschild cocycle and coboundary laws; first-order gauge law"):
        rng = fixed_rng()
        corpus_products = [moyal(PI_STD, 2), moyal(PI_STD, 3), moyal(MultiVec(4, 2, {(1, 2): 1, (3, 4): 1}), 2)]
        for R in (rand_gauge(rng, 2, 2) for _ in range(3)):
            corpus_products.append(gauge_transform(moyal(PI_STD, 2), R))
        # every associative star product shipped in the corpus bundle
        with open(os.path.join(CORPUS, "bundle.json")) as f:
            bundle = parse_document(f.read())
        for sub in bundle.payload.values():
            if sub.kind == "star":
                corpus_products.append(sub.payload)
        for S in corpus_products:
            assert cocycle_defect(S.op(1)).is_zero()
        for _ in range(10):
            Q = PolyDiffOp(2, 1, {((rng.randint(0, 2), rng.randint(0, 2)),): rand_poly(rng, 2)})
            assert cocycle_defect(hochschild_delta(Q)).is_zero()
        S = moyal(PI_STD, 2)
        for _ in range(10):
            R = rand_gauge(rng, 2, 2)
            assert gauge_transform(S, R).op(1) == S.op(1) - hochschild_delta(R.op(1))


def test_criterion_4_specialization():
    with criterion(4, "specialize recovers a special gauge; delta Q = dx(x)dx by re-substitution"):
        S = moyal(PI_STD, 2)
        R0 = GaugeOp(2, 2, [PolyDiffOp(2, 1, {((2, 0),): Fraction(1, 2)}), PolyDiffOp.zero(2, 1)])
        Sp = gauge_transform(S, R0)
        R = specialize(Sp, 2)
        assert is_special(gauge_transform(Sp, R))
        # recovered solve: delta(-R_1) equals the dx (x) dx operator exactly,
        # which pins Q up to an additive derivation
        assert hochschild_delta(R.op(1).scale(-1)) == PolyDiffOp(2, 2, {((1, 0), (1, 0)): 1})


def test_criterion_5_subprincipal_suite():
    with criterion(5, "subprincipal curvature laws over Moyal std (both routes, exact)"):
        rng = fixed_rng()
        S = moyal(PI_STD, 2)
        ident = Section(S, GaugeOp.identity_gauge(2, 2))
        assert subprincipal(S, ident).is_zero()
        xs = [X, Y]
        for _ in range(10):
            phi_xi = rand_vector_field(rng, 2)
            xi = rand_vector_field(rng, 2)
            R_phi = GaugeOp.from_vector_field(phi_xi, 2)
            R_both = gauge_compose(R_phi, GaugeOp.from_vector_field(xi, 2))
            c_phi = subprincipal(S, Section(S, R_phi))
            c_both = subprincipal(S, Section(S, R_both))
            # route 1: direct t^2 extraction difference equals d_Pi xi
            assert c_both - c_phi == lichnerowicz_d(PI_STD, xi)
            # route 2: the displayed change-of-section formula on coordinates
            val = (
                bracket(PI_STD, xi.apply_to(xs[0]), xs[1])
                + bracket(PI_STD, xs[0], xi.apply_to(xs[1]))
                - xi.apply_to(bracket(PI_STD, xs[0], xs[1]))
            )
            expect = MultiVec(2, 2, {(1, 2): val} if not val.is_zero() else {})
            assert c_both - c_phi == expect
            # d_Pi c = 0 always
            assert lichnerowicz_d(PI_STD, c_both).is_zero()
            # t^2 perturbations do not move the class
            Q = PolyDiffOp(2, 1, {((1, 1),): rand_poly(rng, 2)})
            R_pert = GaugeOp(2, 2, [R_both.op(1), R_both.op(2) + Q])
            assert subprincipal(S, Section(S, R_pert)) == c_both


def test_criterion_6_sigma1_torsor_and_ad():
    with criterion(6, "Sigma_1 torsor laws and inner-automorphism action (exact)"):
        rng = fixed_rng()
        S = moyal(PI_STD, 2)
        phi = Sigma1(S, rand_vector_field(rng, 2))
        zero = MultiVec.zero(2, 1)
        assert sigma1_act(phi, zero) == phi  # identity
        from dqkit.diffop import compose_into_slot
        from dqkit.starprod import gauge_compose

        for _ in range(5):
            xi = rand_vector_field(rng, 2)
            eta = rand_vector_field(rng, 2)
            assert sigma1_act(sigma1_act(phi, xi), eta) == sigma1_act(phi, xi + eta)
            # the cited operator identity behind additivity, checked exactly:
            # R_xi o R_eta = R_{xi+eta} + t^2 (xi o eta)
            comp = gauge_compose(
                GaugeOp.from_vector_field(xi, 2), GaugeOp.from_vector_field(eta, 2)
            )
            assert comp.op(1) == vector_field_op(xi) + vector_field_op(eta)
            assert comp.op(2) == compose_into_slot(vector_field_op(xi), 1, vector_field_op(eta))
            if not xi.is_zero():
                assert sigma1_act(phi, xi) != phi  # freeness
        for _ in range(5):
            alpha = TPoly(2, [rand_poly(rng, 2, max_degree=3), rand_poly(rng, 2), Poly.zero(2)])
            out = sigma1_of_ad(S, alpha, phi)
            assert out == sigma1_act(phi, hamiltonian(PI_STD, alpha.sigma))


def test_criterion_7_contravariant_connection():
    with criterion(7, "contravariant connection: flat diagonal; curvature = c(phi1) - c(phi0)"):
        rng = fixed_rng()
        S = moyal(PI_STD, 2)
        G1 = GaugeOp.identity_gauge(2, 2)
        S0 = gauge_transform(S, G1)
        zero = MultiVec.zero(2, 1)
        M = BimoduleModel(S, G1, Sigma1(S0, zero), Sigma1(S, zero))
        for _ in range(5):
            f, m = rand_poly(rng, 2), rand_poly(rng, 2)
            assert contravariant_nabla(M, f, m) == bracket(PI_STD, f, m)
        assert nabla_curvature(M).is_zero()
        for _ in range(10):
            eta = rand_vector_field(rng, 2)
            junk = PolyDiffOp(2, 1, {((2, 0),): rand_poly(rng, 2)})
            G = GaugeOp(2, 2, [vector_field_op(eta), junk])
            Sg = gauge_transform(S, G)
            xi0 = rand_vector_field(rng, 2)
            xi1 = rand_vector_field(rng, 2)
            M2 = BimoduleModel(S, G, Sigma1(Sg, xi0), Sigma1(S, xi1))
            want = subprincipal(S, Sigma1(S, xi1).section()) - subprincipal(
                Sg, Sigma1(Sg, xi0).section()
            )
            assert nabla_curvature(M2) == want


def test_criterion_8_nonconstant_poisson_calculus():
    with criterion(8, "so(3) Poisson/algebroid calculus; non-Poisson witness exact"):
        rng = fixed_rng()
        assert is_poisson(PI_SO3).ok
        assert check_algebroid(from_poisson(PI_SO3)).ok
        for _ in range(10):
            f, g = rand_poly(rng, 3), rand_poly(rng, 3)
            lhs = koszul_bracket(PI_SO3, exterior_d(Form.from_poly(f)), exterior_d(Form.from_poly(g)))
            assert lhs == exterior_d(Form.from_poly(bracket(PI_SO3, f, g)))
        for _ in range(5):
            xi = rand_vector_field(rng, 3)
            assert lichnerowicz_d(PI_SO3, lichnerowicz_d(PI_SO3, xi)).is_zero()
            A = MultiVec(3, 2, {(1, 2): rand_poly(rng, 3), (1, 3): rand_poly(rng, 3)})
            assert lichnerowicz_d(PI_SO3, lichnerowicz_d(PI_SO3, A)).is_zero()
        assert jacobiator(PI_BAD, X3, Y3, Z3) == Poly.one(3)
        chk = is_poisson(PI_BAD)
        assert not chk.ok and chk.defect == Poly.one(3) and chk.witness == (1, 2, 3)
        assert not check_algebroid(from_poisson(PI_BAD)).ok


def test_criterion_9_extension_and_line_curvature():
    with criterion(9, "extension torsor law and line-curvature gauge invariance"):
        rng = fixed_rng()
        presentations = [AlgebroidPresentation.tangent(2), from_poisson(PI_SO3)]
        for A in presentations:
            E = ExtensionData(A, AlgebroidForm.zero(A.dim, A.rank, 2))
            for _ in range(5):
                lam = AlgebroidForm(A.dim, A.rank, 1, {(1,): rand_poly(rng, A.dim)})
                mu = AlgebroidForm(A.dim, A.rank, 1, {(2,): rand_poly(rng, A.dim)})
                lhs = extension_curvature(E, lam + mu)
                assert lhs == extension_curvature(E, lam) + algebroid_d(A, mu)
                g = rand_poly(rng, A.dim)
                assert line_curvature(A, unit_shift(A, lam, g)) == line_curvature(A, lam)


def test_criterion_10_quasi_classical_data():
    with criterion(10, "Maurer-Cartan examples; kappa with verified certificate"):
        rng = fixed_rng()
        qc1 = QCData(2, 1, [PI_STD], Form.zero(2, 3))
        assert all(d.is_zero() for d in mc_defect(qc1))
        qc2 = QCData(3, 1, [MultiVec(3, 2, {(1, 2): 1})], Form(3, 3, {(1, 2, 3): 1}))
        assert all(d.is_zero() for d in mc_defect(qc2))
        qc_bad = QCData(3, 1, [PI_BAD], Form.zero(3, 3))
        assert mc_defect(qc_bad)[0] == MultiVec(3, 3, {(1, 2, 3): 2})
        B = Form(2, 2, {(1, 2): X})
        res = kappa(qc1, B)
        assert res.kappa == MultiVec(2, 2, {(1, 2): X})
        assert res.certificate.is_zero()
        for _ in range(5):
            lam = Form(2, 1, {(1,): rand_poly(rng, 2)})
            shifted = kappa(qc1, B + exterior_d(lam))
            assert shifted.kappa == res.kappa + anchor_pullback(PI_STD, exterior_d(lam))
            assert shifted.certificate.is_zero()


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


def test_criterion_11_tooling(tmp_path):
    with criterion(11, "tooling: corpus idempotence, verify exit codes, deterministic reports"):
        files = sorted(glob.glob(os.path.join(CORPUS, "*.json")))
        assert files
        for path in files:
            with open(path, encoding="utf-8") as f:
                text = f.read()
            once = serialize_document(parse_document(text))
            assert serialize_document(parse_document(once)) == once, path
        code, _ = _run_cli(["verify", "--in", os.path.join(CORPUS, "bundle.json")])
        assert code == 0
        for name in (
            "bundle_tampered_p2.json",
            "bundle_tampered_assoc.json",
            "bundle_tampered_qc.json",
        ):
            code, out = _run_cli(["verify", "--in", os.path.join(CORPUS, name)])
            assert code == 1
            report = json.loads(out)
            assert report["defects"] and all(d["location"] for d in report["defects"])
        # byte-identical reports across two consecutive runs (timing stripped
        # per the canonical-hash rule; the hash itself must agree)
        renders = []
        digests = []
        for i in range(2):
            out_path = tmp_path / f"rep{i}.json"
            code, _ = _run_cli(
                ["verify", "--in", os.path.join(CORPUS, "bundle.json"), "--out", str(out_path)]
            )
            assert code == 0
            report = json.loads(out_path.read_text())
            digests.append(report.pop("canonical_sha256"))
            report.pop("timing_ms")
            renders.append(json.dumps(report, sort_keys=True, indent=2))
        assert renders[0] == renders[1]
        assert digests[0] == digests[1]
