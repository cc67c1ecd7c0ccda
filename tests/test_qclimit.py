import pytest
from hypothesis import given, settings, strategies as st

from dqkit.calculus import Form, MultiVec, anchor_pullback, exterior_d
from dqkit.errors import PreconditionError
from dqkit.kernel import Poly
from dqkit.poisson import bracket, is_poisson, lichnerowicz_d
from dqkit.qclimit import QCData, _triple_contraction, kappa, mc_defect, mc_defect_order

from conftest import alt_tensors, rand_form, rand_multivec, rand_poly, rand_vector_field
from oracles import pair, triple_contraction_by_images

x = Poly.variable(2, 1)


@pytest.fixture
def qc_plane(pi_std):
    return QCData(2, 1, [pi_std], Form.zero(2, 3))


@pytest.fixture
def qc_r3(pi_std3):
    return QCData(3, 1, [pi_std3], Form(3, 3, {(1, 2, 3): 1}))


class TestMCDefect:
    def test_constant_symplectic_plane(self, qc_plane):
        assert all(d.is_zero() for d in mc_defect(qc_plane))

    def test_isotropic_image_with_volume_form(self, qc_r3):
        assert all(d.is_zero() for d in mc_defect(qc_r3))

    def test_non_poisson_order_two_value(self, pi_bad):
        Q = QCData(3, 1, [pi_bad], Form.zero(3, 3))
        d = mc_defect(Q)
        assert d[0] == MultiVec(3, 3, {(1, 2, 3): 2})

    def test_non_closed_H_rejected(self):
        H = Form(4, 3, {(1, 2, 3): Poly.variable(4, 4)})
        Q = QCData(4, 1, [MultiVec(4, 2, {(1, 2): 1})], H)
        with pytest.raises(PreconditionError):
            mc_defect(Q)

    def test_order_two_iff_poisson(self, rng):
        for _ in range(10):
            pi = rand_multivec(rng, 3, 2, max_degree=1)
            Q = QCData(3, 1, [pi], Form.zero(3, 3))
            chk = is_poisson(pi)
            d2 = mc_defect(Q)[0]
            assert chk.ok == d2.is_zero()
            if not chk.ok:
                # shared witness: the jacobiator triple indexes a nonzero entry
                assert d2.coeff(chk.witness) == 2 * chk.defect

    def test_reported_orders(self, pi_std):
        dxi = lichnerowicz_d(pi_std, MultiVec(2, 1, {(1,): x}))
        Q = QCData(2, 2, [pi_std, dxi], Form.zero(2, 3))
        defs = mc_defect(Q)
        assert len(defs) == 2  # orders 2 and 3

    def test_triple_contraction_matches_image_oracle(self):
        """The order-m part of -anchor_pullback(pi_t, H), raised slot by slot,
        against H(pi_i~ dx_{k_1}, pi_j~ dx_{k_2}, pi_k~ dx_{k_3}) summed on every
        key of C(n, 3): R^3..R^5, orders N = 1..3, every m = 2..N+2, zero pi_k
        and H, non-Poisson pi_1 and non-closed H included."""
        seen = set()

        @st.composite
        def cases(draw):
            n, N = draw(st.integers(3, 5)), draw(st.integers(1, 3))
            # most bivectors of one or two terms raise H to zero, so the nonzero draws have three or more
            bivectors = st.one_of(alt_tensors(MultiVec, n, 2, max_size=6, min_size=3), st.just(MultiVec.zero(n, 2)))
            pis = [draw(bivectors) for _ in range(N)]
            return QCData(n, N, pis, draw(alt_tensors(Form, n, 3))), draw(st.integers(2, N + 2))

        @settings(max_examples=100, derandomize=True, deadline=None)
        @given(cases())
        def run(case):
            Q, m = case
            got = _triple_contraction(Q, m)
            assert got == triple_contraction_by_images(Q, m)
            seen.add("zero H" if Q.H.is_zero() else "closed H" if exterior_d(Q.H).is_zero() else "non-closed H")
            if any(pi.is_zero() for pi in Q.pis):
                seen.add("zero pi_k")
            if not is_poisson(Q.pi(1)).ok:
                seen.add("non-Poisson pi_1")
            if not got.is_zero():
                seen.add("mixed orders" if m > 3 else "nonzero")

        run()
        assert seen == {"zero H", "closed H", "non-closed H", "zero pi_k", "non-Poisson pi_1",
                        "nonzero", "mixed orders"}


class TestKappa:
    def test_plane_example(self, qc_plane, pi_std):
        B = Form(2, 2, {(1, 2): x})
        res = kappa(qc_plane, B)
        assert res.kappa == MultiVec(2, 2, {(1, 2): x})
        assert res.certified()

    def test_zero_curving(self, qc_plane):
        res = kappa(qc_plane, Form.zero(2, 2))
        assert res.kappa.is_zero() and res.certified()

    def test_exact_pi2(self, pi_std, rng):
        xi = rand_vector_field(rng, 2)
        dxi = lichnerowicz_d(pi_std, xi)
        Q = QCData(2, 2, [pi_std, dxi], Form.zero(2, 3))
        res = kappa(Q, Form.zero(2, 2))
        assert res.kappa == -dxi
        assert res.certified()

    def test_dB_mismatch_reports_difference(self, qc_r3):
        with pytest.raises(PreconditionError) as info:
            kappa(qc_r3, Form.zero(3, 2))
        assert not info.value.witness.is_zero()

    def test_order3_failure_refused(self):
        # a rank-4 bivector sees a nonzero triple contraction of H on R^4;
        # rank <= 2 would make the contraction vanish identically
        pi4 = MultiVec(4, 2, {(1, 2): 1, (3, 4): 1})
        H = Form(4, 3, {(1, 2, 3): 1})
        Q = QCData(4, 1, [pi4], H)
        assert not mc_defect_order(Q, 3).is_zero()
        B = Form(4, 2, {(1, 2): Poly.variable(4, 3)})
        assert exterior_d(B) == H
        with pytest.raises(PreconditionError) as info:
            kappa(Q, B)
        assert "order-3" in str(info.value)

    def test_gauge_covariance(self, qc_plane, pi_std, rng):
        B = Form(2, 2, {(1, 2): x})
        base = kappa(qc_plane, B)
        for _ in range(8):
            lam = rand_form(rng, 2, 1)
            shifted = kappa(qc_plane, B + exterior_d(lam))
            assert shifted.kappa == base.kappa + anchor_pullback(pi_std, exterior_d(lam))
            assert shifted.certified()

    def test_certificate_independent_verification(self, qc_plane, pi_std, rng):
        # re-verify the emitted certificate by evaluating the degree-2 formula
        # on all coordinate triples directly
        B = Form(2, 2, {(1, 2): rand_poly(rng, 2)})
        res = kappa(qc_plane, B)
        n = 2
        xs = [Poly.variable(n, i) for i in range(1, n + 1)]
        from dqkit.calculus import Form as F

        def val(c, f, g):
            return pair(c, F.d_of(f), F.d_of(g))

        from itertools import combinations

        for i, j, k in combinations(range(n), 3):
            f, g, h = xs[i], xs[j], xs[k]
            direct = (
                bracket(pi_std, f, val(res.kappa, g, h))
                - bracket(pi_std, g, val(res.kappa, f, h))
                + bracket(pi_std, h, val(res.kappa, f, g))
                - val(res.kappa, bracket(pi_std, f, g), h)
                + val(res.kappa, bracket(pi_std, f, h), g)
                - val(res.kappa, bracket(pi_std, g, h), f)
            )
            assert direct.is_zero()
        assert res.certified()

    def test_certificate_independent_verification_r3(self, pi_so3, rng):
        # a genuinely 3-dimensional case where coordinate triples exist
        Q = QCData(3, 1, [pi_so3], Form.zero(3, 3))
        B = Form(3, 2, {(1, 2): 1})  # constant, hence closed, dB = 0 = H
        res = kappa(Q, B)
        assert not res.kappa.is_zero()
        assert res.certified()
        n = 3
        xs = [Poly.variable(n, i) for i in range(1, n + 1)]
        from dqkit.calculus import Form as F
        from itertools import combinations

        def val(c, f, g):
            return pair(c, F.d_of(f), F.d_of(g))

        for i, j, k in combinations(range(n), 3):
            f, g, h = xs[i], xs[j], xs[k]
            direct = (
                bracket(pi_so3, f, val(res.kappa, g, h))
                - bracket(pi_so3, g, val(res.kappa, f, h))
                + bracket(pi_so3, h, val(res.kappa, f, g))
                - val(res.kappa, bracket(pi_so3, f, g), h)
                + val(res.kappa, bracket(pi_so3, f, h), g)
                - val(res.kappa, bracket(pi_so3, g, h), f)
            )
            assert direct.is_zero()
