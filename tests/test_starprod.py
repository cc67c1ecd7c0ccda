from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dqkit import starprod
from dqkit.calculus import MultiVec
from dqkit.diffop import PolyDiffOp, apply_op, cocycle_defect, hochschild_delta
from dqkit.errors import DegreeError, DimensionMismatchError, OrderMismatchError, PreconditionError
from dqkit.kernel import Poly, TPoly
from dqkit.poisson import bracket, hamiltonian, lichnerowicz_d
from dqkit.starprod import (
    BimoduleModel,
    GaugeOp,
    Sigma1,
    StarProduct,
    ad_exp,
    assoc_defect,
    assoc_poisson,
    contravariant_nabla,
    gauge_transform,
    invert_gauge,
    is_associative,
    is_special,
    moyal,
    multiderivation,
    nabla_curvature,
    nabla_operator,
    sigma1_act,
    sigma1_class,
    sigma1_of_ad,
    specialize,
    star_commutator,
    star_mul,
    subprincipal,
    unitality_defects,
)

from conftest import alt_tensors, rand_gauge, rand_multivec, rand_poly, rand_vector_field
from oracles import (
    biderivation,
    bivector_by_pair_lookup,
    contravariant_nabla_by_star_mul,
    gauge_apply_by_convolution,
    gauge_compose_reference,
    specialize_by_oracle,
    star_mul_by_convolution,
    subprincipal_by_commutator,
    vector_field_op,
)

x = Poly.variable(2, 1)
y = Poly.variable(2, 2)
HALF = Fraction(1, 2)


def Q_half_dx2():
    return PolyDiffOp(2, 1, {((2, 0),): HALF})


def tp(p, order=2):
    return TPoly.from_poly(p, order)


class TestStarMul:
    def test_x_star_y(self, moyal2):
        prod = star_mul(moyal2, tp(x), tp(y))
        assert prod.coeff(0) == x * y
        assert prod.coeff(1) == Poly.const(2, HALF)

    def test_commutator_is_t(self, moyal2):
        comm = star_commutator(moyal2, tp(x), tp(y))
        assert comm == TPoly(2, [Poly.zero(2), Poly.one(2), Poly.zero(2)])

    def test_unit(self, moyal2, rng):
        f = tp(rand_poly(rng, 2))
        one = tp(Poly.one(2))
        assert star_mul(moyal2, one, f) == f
        assert star_mul(moyal2, f, one) == f

    def test_order_mismatch(self, moyal2):
        with pytest.raises(OrderMismatchError):
            star_mul(moyal2, tp(x, 3), tp(y, 2))


class TestMoyal:
    def test_p2_formula(self, moyal2):
        eighth = Fraction(1, 8)
        quarter = Fraction(1, 4)
        expect = PolyDiffOp(
            2,
            2,
            {
                ((2, 0), (0, 2)): eighth,
                ((1, 1), (1, 1)): -quarter,
                ((0, 2), (2, 0)): eighth,
            },
        )
        assert moyal2.op(2) == expect

    def test_zero_bivector_commutative(self):
        S = moyal(MultiVec.zero(2, 2), 3)
        assert all(op.is_zero() for op in S.P)

    def test_associative_to_order_four(self, pi_std):
        assert all(D.is_zero() for D in assoc_defect(moyal(pi_std, 4)))

    def test_nonconstant_rejected(self, pi_so3):
        with pytest.raises(PreconditionError):
            moyal(pi_so3, 2)

    def test_unital_and_special(self, moyal3):
        assert not unitality_defects(moyal3)
        assert is_special(moyal3)


class TestAssocDefect:
    def test_symmetric_p1_fails_at_order_two(self):
        S = StarProduct(2, 2, [PolyDiffOp(2, 2, {((1, 0), (1, 0)): 1}), PolyDiffOp.zero(2, 2)])
        D = assoc_defect(S)
        assert D[0].is_zero()  # a cocycle at order one
        assert not D[1].is_zero()

    def test_order_one_is_cocycle_condition(self, rng):
        # at N=1 the defect is exactly the Hochschild cocycle defect of P_1
        Q = PolyDiffOp(2, 1, {((1, 1),): rand_poly(rng, 2)})
        P1 = hochschild_delta(Q)
        S = StarProduct(2, 1, [P1])
        assert assoc_defect(S)[0] == cocycle_defect(P1)
        assert assoc_defect(S)[0].is_zero()


class TestAssocPoisson:
    def test_moyal_recovers_pi(self, pi_std):
        assert assoc_poisson(moyal(pi_std, 2)) == pi_std

    def test_gauge_invariance(self, moyal2, pi_std, rng):
        for _ in range(20):
            R = rand_gauge(rng, 2, 2)
            assert assoc_poisson(gauge_transform(moyal2, R)) == pi_std

    def test_commutative(self):
        assert assoc_poisson(StarProduct.commutative(2, 2)).is_zero()

    def test_biderivation_is_the_bracket(self, rng):
        for n in (2, 3):
            for _ in range(10):
                pi = rand_multivec(rng, n, 2)
                f, g = rand_poly(rng, n, 3, 3), rand_poly(rng, n, 3, 3)
                assert apply_op(multiderivation(pi), f, g) == bracket(pi, f, g)

    def test_second_order_skew_part_rejected(self):
        # P_1 = d_x^2 (x) d_y - d_y (x) d_x^2 is skew but not a biderivation
        P1 = PolyDiffOp(2, 2, {((2, 0), (0, 1)): 1, ((0, 1), (2, 0)): -1})
        with pytest.raises(PreconditionError, match="not a biderivation"):
            assoc_poisson(StarProduct(2, 1, [P1]))


def _multivectors(degrees):
    """(p, T): a p-vector T on R^n, n = p..4, p drawn from `degrees`."""
    return st.sampled_from(degrees).flatmap(
        lambda p: st.integers(p, 4).flatmap(lambda n: alt_tensors(MultiVec, n, p)).map(lambda T: (p, T)))


class TestMultiderivation:
    """multiderivation and _multivector_of, the one route between multivectors
    and multiderivations, against the per-degree builders and the pair-by-pair
    read-off in oracles.py."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_multivectors([1, 2]))
    def test_matches_per_degree_builders(self, case):
        p, T = case
        want = vector_field_op(T) if p == 1 else biderivation(T)
        got = multiderivation(T)
        assert got == want
        assert list(got._num) == list(want._num)  # term order included

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_multivectors([3]))
    def test_degree_three_on_coordinates(self, case):
        _, T = case
        n = T.dim
        D = multiderivation(T)
        xs = [Poly.variable(n, i) for i in range(1, n + 1)]
        for idx in product(range(1, n + 1), repeat=3):
            assert apply_op(D, *(xs[i - 1] for i in idx)) == T.coeff(idx)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_multivectors([1, 2, 3]))
    def test_round_trip(self, case):
        _, T = case
        assert starprod._multivector_of(multiderivation(T)) == T

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(_multivectors([2]), st.sampled_from([((1, 0), (0, 1)), ((0, 1), (0, 0)), ((2, 0), (0, 1)), ((1, 0), (1, 0))]),
           st.sampled_from([0, 1, -1]))
    def test_bivector_read_off_matches_pair_lookup(self, case, orders, c):
        _, T = case
        n = T.dim
        junk = PolyDiffOp(n, 2, {tuple(o + (0,) * (n - 2) for o in orders): c})
        D = multiderivation(T) + junk
        assert starprod._multivector_of(D) == bivector_by_pair_lookup(D)

    def test_not_a_multiderivation(self):
        # skew, but of second order in the first slot
        assert starprod._multivector_of(PolyDiffOp(2, 2, {((2, 0), (0, 1)): 1, ((0, 1), (2, 0)): -1})) is None
        # an order-0 slot: f * d_x g
        assert starprod._multivector_of(PolyDiffOp(2, 2, {((0, 0), (1, 0)): 1})) is None
        assert starprod._multivector_of(PolyDiffOp.identity(2)) is None


class TestGauge:
    def test_identity_gauge(self, moyal2):
        assert gauge_transform(moyal2, GaugeOp.identity_gauge(2, 2)) == moyal2

    def test_first_order_law(self, moyal2, rng):
        for _ in range(10):
            R = rand_gauge(rng, 2, 2)
            Sp = gauge_transform(moyal2, R)
            assert Sp.op(1) == moyal2.op(1) - hochschild_delta(R.op(1))

    def test_half_dx2_example(self, moyal2):
        R = GaugeOp(2, 2, [Q_half_dx2(), PolyDiffOp.zero(2, 1)])
        Sp = gauge_transform(moyal2, R)
        # P'_1(f,g) = (1/2){f,g} - dx f dx g
        assert Sp.op(1) == moyal2.op(1) - PolyDiffOp(2, 2, {((1, 0), (1, 0)): 1})
        assert is_associative(Sp)

    def test_derivation_gauge_stays_special(self, moyal2, rng):
        xi = rand_vector_field(rng, 2)
        R = GaugeOp.from_vector_field(xi, 2)
        assert is_special(gauge_transform(moyal2, R))

    def test_morphism_property_on_samples(self, moyal2, rng):
        # R(f *' g) = R(f) * R(g) for the defining gauge relation
        R = rand_gauge(rng, 2, 2)
        Sp = gauge_transform(moyal2, R)
        for _ in range(5):
            f = tp(rand_poly(rng, 2))
            g = tp(rand_poly(rng, 2))
            assert R.apply(star_mul(Sp, f, g)) == star_mul(moyal2, R.apply(f), R.apply(g))


class TestInvertGauge:
    def test_neumann_series(self):
        Q = Q_half_dx2()
        R = GaugeOp(2, 2, [Q, PolyDiffOp.zero(2, 1)])
        Rinv = invert_gauge(R)
        assert Rinv.op(1) == -Q
        # t^2 coefficient: Q o Q
        from dqkit.diffop import compose_into_slot

        assert Rinv.op(2) == compose_into_slot(Q, 1, Q)

    def test_identity(self):
        I = GaugeOp.identity_gauge(2, 3)
        assert invert_gauge(I) == I

    def test_round_trip_exact(self, moyal2, rng):
        for _ in range(20):
            R = rand_gauge(rng, 2, 2)
            Sp = gauge_transform(moyal2, R)
            assert gauge_transform(Sp, invert_gauge(R)) == moyal2
            assert gauge_compose_reference(R, invert_gauge(R)) == GaugeOp.identity_gauge(2, 2)
            assert gauge_compose_reference(invert_gauge(R), R) == GaugeOp.identity_gauge(2, 2)

    def test_round_trip_order_three(self, moyal3, rng):
        for _ in range(5):
            R = rand_gauge(rng, 2, 3)
            Sp = gauge_transform(moyal3, R)
            assert gauge_transform(Sp, invert_gauge(R)) == moyal3


class TestSpecialize:
    def test_already_special(self, moyal2):
        assert specialize(moyal2, 2) == GaugeOp.identity_gauge(2, 2)

    def test_recovers_coboundary(self, moyal2):
        R0 = GaugeOp(2, 2, [Q_half_dx2(), PolyDiffOp.zero(2, 1)])
        Sp = gauge_transform(moyal2, R0)
        R = specialize(Sp, 2)
        assert is_special(gauge_transform(Sp, R))
        # the solved generator Q = -R_1 satisfies delta Q = dx (x) dx exactly
        assert hochschild_delta(R.op(1).scale(-1)) == PolyDiffOp(2, 2, {((1, 0), (1, 0)): 1})

    def test_order_zero_solution(self):
        # sym(P_1)(f,g) = x f g forces Q = -x (multiplication)
        P1 = PolyDiffOp(2, 2, {((0, 0), (0, 0)): x})
        S = StarProduct(2, 1, [P1])
        R = specialize(S, 2)
        assert R.op(1) == PolyDiffOp(2, 1, {((0, 0),): -x})
        assert is_special(gauge_transform(S, R))

    def test_random_gauges_respecialize(self, moyal2, rng):
        for _ in range(6):
            R = rand_gauge(rng, 2, 2)
            Sp = gauge_transform(moyal2, R)
            Rs = specialize(Sp, 3)
            assert is_special(gauge_transform(Sp, Rs))

    def test_non_associative_rejected(self):
        S = StarProduct(2, 2, [PolyDiffOp(2, 2, {((1, 0), (1, 0)): 1}), PolyDiffOp.zero(2, 2)])
        with pytest.raises(PreconditionError):
            specialize(S, 2)

    def test_degree_bound_failure_reports_residual(self, moyal2):
        from dqkit.errors import SolveError

        # the coboundary generator needs a degree-3 coefficient; any solution
        # differs from it by a derivation, so degree bound 2 cannot reach it
        Q = PolyDiffOp(2, 1, {((2, 0),): x ** 3})
        R0 = GaugeOp(2, 2, [Q, PolyDiffOp.zero(2, 1)])
        Sp = gauge_transform(moyal2, R0)
        with pytest.raises(SolveError) as info:
            specialize(Sp, 2)
        # nothing within the bound helps: the residual is all of sym(P_1) = -delta(x^3 d_x^2)
        residual = PolyDiffOp(2, 2, {((1, 0), (1, 0)): -2 * x ** 3})
        assert info.value.residual == residual
        with pytest.raises(SolveError) as oracle:
            specialize_by_oracle(Sp, 2)
        assert oracle.value.residual == residual
        assert not specialize(Sp, 3).op(1).is_zero()  # reachable with D = 3


class TestSigma1:
    def test_identity_section(self, moyal2):
        cls = sigma1_class(moyal2, GaugeOp.identity_gauge(2, 2))
        assert cls.xi.is_zero()

    def test_class_mod_t2(self, moyal2, rng):
        xi = rand_vector_field(rng, 2)
        anything = PolyDiffOp(2, 1, {((1, 1),): rand_poly(rng, 2)})
        R = GaugeOp(2, 2, [multiderivation(xi), anything])
        assert sigma1_class(moyal2, R).xi == xi

    def test_non_derivation_witness(self, moyal2):
        R = GaugeOp(2, 2, [Q_half_dx2(), PolyDiffOp.zero(2, 1)])
        with pytest.raises(PreconditionError) as info:
            sigma1_class(moyal2, R)
        assert info.value.witness is not None

    def test_action_identity(self, moyal2):
        phi = Sigma1(moyal2, MultiVec(2, 1, {(1,): x}))
        assert sigma1_act(phi, MultiVec.zero(2, 1)) == phi

    def test_action_additivity_operator_identity(self, rng):
        # R_xi o R_eta = R_{xi+eta} + t^2 xi o eta, exactly
        from dqkit.diffop import compose_into_slot

        for _ in range(10):
            xi = rand_vector_field(rng, 2)
            eta = rand_vector_field(rng, 2)
            Rx = GaugeOp.from_vector_field(xi, 2)
            Re = GaugeOp.from_vector_field(eta, 2)
            comp = gauge_compose_reference(Rx, Re)
            assert comp.op(1) == multiderivation(xi) + multiderivation(eta)
            assert comp.op(2) == compose_into_slot(multiderivation(xi), 1, multiderivation(eta))

    def test_action_free_and_transitive(self, moyal2, rng):
        phi = Sigma1(moyal2, rand_vector_field(rng, 2))
        xi = rand_vector_field(rng, 2)
        moved = sigma1_act(phi, xi)
        if xi.is_zero():
            assert moved == phi
        else:
            assert moved != phi
        # transitivity: the difference of classes moves one to the other
        psi = Sigma1(moyal2, rand_vector_field(rng, 2))
        assert sigma1_act(phi, psi.xi - phi.xi) == psi


class TestSubprincipal:
    def test_moyal_identity_section_flat(self, moyal2):
        assert subprincipal(moyal2, GaugeOp.identity_gauge(2, 2)).is_zero()

    def test_xi_shift_example(self, moyal2, pi_std):
        xi = MultiVec(2, 1, {(1,): x})
        c = subprincipal(moyal2, GaugeOp.from_vector_field(xi, 2))
        assert c == MultiVec(2, 2, {(1, 2): 1})
        assert c == lichnerowicz_d(pi_std, xi)

    def test_t2_perturbation_invisible(self, moyal2, rng):
        Q = PolyDiffOp(2, 1, {((2, 0),): rand_poly(rng, 2)})
        R = GaugeOp(2, 2, [PolyDiffOp.zero(2, 1), Q])
        assert subprincipal(moyal2, R).is_zero()

    def test_requires_order_two(self, pi_std):
        S1 = moyal(pi_std, 1)
        with pytest.raises(OrderMismatchError):
            subprincipal(S1, GaugeOp.identity_gauge(2, 1))

    def test_non_special_section_rejected(self, moyal2):
        R = GaugeOp(2, 2, [Q_half_dx2(), PolyDiffOp.zero(2, 1)])
        with pytest.raises(PreconditionError):
            subprincipal(moyal2, R)

    def test_change_of_section_law_two_routes(self, moyal2, pi_std, rng):
        # c(phi + xi) - c(phi) = d_Pi xi, via t^2 extraction and via the
        # displayed bracket formula, both exact
        xs = [x, y]
        for _ in range(10):
            zeta = rand_vector_field(rng, 2)
            xi = rand_vector_field(rng, 2)
            R_phi = GaugeOp.from_vector_field(zeta, 2)
            R_phixi = gauge_compose_reference(R_phi, GaugeOp.from_vector_field(xi, 2))
            c_phi = subprincipal(moyal2, R_phi)
            c_phixi = subprincipal(moyal2, R_phixi)
            assert c_phixi - c_phi == lichnerowicz_d(pi_std, xi)
            # independent route: the displayed formula on coordinates
            terms = {}
            val = (
                bracket(pi_std, xi.apply_to(xs[0]), xs[1])
                + bracket(pi_std, xs[0], xi.apply_to(xs[1]))
                - xi.apply_to(bracket(pi_std, xs[0], xs[1]))
            )
            if not val.is_zero():
                terms[(1, 2)] = val
            assert c_phixi - c_phi == MultiVec(2, 2, terms)

    def test_closedness(self, moyal2, pi_std, rng):
        zeta = rand_vector_field(rng, 2)
        c = subprincipal(moyal2, GaugeOp.from_vector_field(zeta, 2))
        assert lichnerowicz_d(pi_std, c).is_zero()


class TestAdExp:
    def test_zero_is_identity(self, moyal2, rng):
        b = tp(rand_poly(rng, 2))
        assert ad_exp(moyal2, TPoly.zero(2, 2), b) == b

    def test_single_term(self, moyal2):
        got = ad_exp(moyal2, tp(x), tp(y))
        assert got == TPoly(2, [y, Poly.one(2), Poly.zero(2)])

    def test_classical_shadow(self, moyal2, rng):
        alpha = TPoly(2, [rand_poly(rng, 2), rand_poly(rng, 2), Poly.zero(2)])
        b = tp(rand_poly(rng, 2))
        assert ad_exp(moyal2, alpha, b).sigma == b.sigma


class TestSigma1OfAd:
    def test_zero(self, moyal2):
        phi = Sigma1(moyal2, MultiVec.zero(2, 1))
        assert sigma1_of_ad(TPoly.zero(2, 2), phi) == phi

    def test_x_squared(self, moyal2, pi_std):
        phi = Sigma1(moyal2, MultiVec.zero(2, 1))
        out = sigma1_of_ad(tp(x * x), phi)
        assert out.xi == hamiltonian(pi_std, x * x)
        assert out.xi == MultiVec(2, 1, {(2,): 2 * x})

    def test_t_multiple_acts_trivially(self, moyal2, rng):
        phi = Sigma1(moyal2, rand_vector_field(rng, 2))
        alpha = tp(rand_poly(rng, 2)).t_shift(1)
        assert sigma1_of_ad(alpha, phi) == phi

    def test_matches_action_for_random_alpha(self, moyal2, pi_std, rng):
        for _ in range(5):
            alpha = TPoly(2, [rand_poly(rng, 2, max_degree=3), rand_poly(rng, 2), Poly.zero(2)])
            phi = Sigma1(moyal2, rand_vector_field(rng, 2))
            out = sigma1_of_ad(alpha, phi)
            assert out == sigma1_act(phi, hamiltonian(pi_std, alpha.sigma))

    # a broken convention is a PreconditionError, which the CLI reports, not an AssertionError

    def test_wrong_hamiltonian_field_raises_precondition(self, moyal2, monkeypatch):
        monkeypatch.setattr(starprod, "hamiltonian", lambda pi, f: hamiltonian(pi, f).scale(-1))
        phi = Sigma1(moyal2, MultiVec.zero(2, 1))
        with pytest.raises(PreconditionError, match="disagrees with phi"):
            sigma1_of_ad(tp(x * x), phi)

    def test_non_derivation_class_raises_precondition(self, moyal2, monkeypatch):
        real = starprod.ad_exp
        shift = TPoly(2, [Poly.zero(2), Poly.one(2), Poly.zero(2)])  # adds 1 at order t
        monkeypatch.setattr(starprod, "ad_exp", lambda S, a, b: real(S, a, b) + shift)
        phi = Sigma1(moyal2, MultiVec.zero(2, 1))
        with pytest.raises(PreconditionError, match="not a derivation") as info:
            sigma1_of_ad(tp(x * x), phi)
        assert info.value.witness == x * x


def _diag_model(S):
    zero = MultiVec.zero(S.dim, 1)
    return BimoduleModel(S, GaugeOp.identity_gauge(S.dim, S.order), zero, zero)


class TestBimodule:
    def test_diagonal_nabla_is_bracket(self, moyal2, pi_std, rng):
        M = _diag_model(moyal2)
        for _ in range(5):
            f = rand_poly(rng, 2)
            m = rand_poly(rng, 2)
            assert contravariant_nabla(M, f, m) == bracket(pi_std, f, m)

    def test_diagonal_flat(self, moyal2):
        assert nabla_curvature(_diag_model(moyal2)).is_zero()

    def test_constant_f(self, moyal2):
        M = _diag_model(moyal2)
        assert contravariant_nabla(M, Poly.const(2, 7), x * y).is_zero()

    def test_xi_twist(self, moyal2, pi_std, rng):
        xi = rand_vector_field(rng, 2)
        G = GaugeOp.identity_gauge(2, 2)
        M = BimoduleModel(moyal2, G, MultiVec.zero(2, 1), xi)
        f = rand_poly(rng, 2)
        m = rand_poly(rng, 2)
        assert contravariant_nabla(M, f, m) == bracket(pi_std, f, m) + xi.apply_to(f) * m
        assert nabla_curvature(M) == lichnerowicz_d(pi_std, xi)

    def test_swap_sections_negates(self, moyal2, rng):
        xi0 = rand_vector_field(rng, 2)
        xi1 = rand_vector_field(rng, 2)
        G = GaugeOp.identity_gauge(2, 2)
        M = BimoduleModel(moyal2, G, xi0, xi1)
        M_swapped = BimoduleModel(moyal2, G, xi1, xi0)
        assert nabla_curvature(M) == -nabla_curvature(M_swapped)

    def test_curvature_is_subprincipal_difference(self, moyal2, rng):
        for _ in range(10):
            eta = rand_vector_field(rng, 2)
            junk = PolyDiffOp(2, 1, {((0, 2),): rand_poly(rng, 2)})
            G = GaugeOp(2, 2, [multiderivation(eta), junk])
            S0 = gauge_transform(moyal2, G)
            xi0 = rand_vector_field(rng, 2)
            xi1 = rand_vector_field(rng, 2)
            M = BimoduleModel(moyal2, G, xi0, xi1)
            c1 = subprincipal(moyal2, Sigma1(moyal2, xi1).gauge())
            c0 = subprincipal(S0, Sigma1(S0, xi0).gauge())
            assert nabla_curvature(M) == c1 - c0

    def test_curvature_builds_each_coordinate_operator_once(self, monkeypatch, rng):
        """On R^4: one nabla_operator per coordinate and one per bracket of a
        pair, 4 + 6 = 10 calls, and the curvature is still c(phi1) - c(phi0)."""
        S = moyal(MultiVec(4, 2, {(1, 2): 1, (3, 4): HALF}), 2)
        G = GaugeOp(4, 2, [multiderivation(rand_vector_field(rng, 4)), PolyDiffOp.zero(4, 1)])
        S0 = gauge_transform(S, G)
        xi0, xi1 = rand_vector_field(rng, 4), rand_vector_field(rng, 4)
        M = BimoduleModel(S, G, xi0, xi1)
        calls = []
        real = starprod.nabla_operator
        monkeypatch.setattr(starprod, "nabla_operator", lambda M, f: calls.append(f) or real(M, f))
        curvature = nabla_curvature(M)
        assert len(calls) == 10
        assert curvature == subprincipal(S, Sigma1(S, xi1).gauge()) - subprincipal(S0, Sigma1(S0, xi0).gauge())

    def test_star0_is_the_checked_gauged_product(self, moyal2, monkeypatch, rng):
        """The constructor builds A_0 with one gauge transform, and star0
        returns it without another."""
        G = GaugeOp(2, 2, [multiderivation(rand_vector_field(rng, 2)), PolyDiffOp.zero(2, 1)])
        S0 = gauge_transform(moyal2, G)
        calls = []
        real = starprod.gauge_transform
        monkeypatch.setattr(starprod, "gauge_transform", lambda S, R: calls.append(R) or real(S, R))
        M = BimoduleModel(moyal2, G, MultiVec.zero(2, 1), MultiVec.zero(2, 1))
        assert len(calls) == 1
        assert M.star0 is M.phi0.base and M.star0 == S0
        nabla_curvature(M)
        contravariant_nabla(M, x, y)
        assert len(calls) == 1

    def test_operator_route_matches_direct(self, moyal2, rng):
        eta = rand_vector_field(rng, 2)
        G = GaugeOp(2, 2, [multiderivation(eta), PolyDiffOp.zero(2, 1)])
        M = BimoduleModel(moyal2, G, rand_vector_field(rng, 2), rand_vector_field(rng, 2))
        for _ in range(5):
            f = rand_poly(rng, 2)
            m = rand_poly(rng, 2)
            assert apply_op(nabla_operator(M, f), m) == contravariant_nabla_by_star_mul(M, f, m)


VALUES = [Fraction(v) for v in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)]


def _monomials(n, top):
    """Monomials of degree <= top on R^n with coefficients from VALUES."""
    exps = [e for e in product(range(top + 1), repeat=n) if sum(e) <= top]
    return st.builds(lambda e, c: Poly.monomial(n, e, c), st.sampled_from(exps), st.sampled_from(VALUES))


def _vector_fields(n):
    return st.dictionaries(st.integers(1, n).map(lambda i: (i,)), _monomials(n, 2), max_size=2).map(
        lambda terms: MultiVec(n, 1, terms))


@st.composite
def _special_gauges(draw, n, N):
    """A gauge whose R_1 is a vector field and whose R_2..R_N are any arity-1
    operators of order <= 2, with monomial coefficients of degree <= 2."""
    orders = [(a,) for a in product(range(3), repeat=n) if sum(a) <= 2]
    rest = [PolyDiffOp(n, 1, draw(st.dictionaries(st.sampled_from(orders), _monomials(n, 2), max_size=2)))
            for _ in range(N - 1)]
    return GaugeOp(n, N, [multiderivation(draw(_vector_fields(n))), *rest])


@st.composite
def special_sections(draw):
    """(S, R): S a Moyal product of a constant bivector on R^n, n = 2-4, at order
    N = 2-3, gauged by a _special_gauges gauge, so S is special; R another such
    gauge, whose section is special over S."""
    n = draw(st.integers(2, 4))
    N = draw(st.integers(2, 3))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pi = MultiVec(n, 2, draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from(VALUES), min_size=1)))
    S = gauge_transform(moyal(pi, N), draw(_special_gauges(n, N)))
    return S, draw(_special_gauges(n, N))


class TestOperatorIdentities:
    """subprincipal and contravariant_nabla read operator identities of the
    gauged product and of nabla_operator; the definitions on t-series of
    polynomials, in oracles.py, must give the same values."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(special_sections())
    def test_subprincipal_matches_star_commutator(self, case):
        S, R = case
        assert subprincipal(S, R) == subprincipal_by_commutator(S, R)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(special_sections(), st.data())
    def test_nabla_matches_star_mul(self, case, data):
        S1, G = case
        n = S1.dim
        xi0, xi1 = data.draw(_vector_fields(n)), data.draw(_vector_fields(n))
        M = BimoduleModel(S1, G, xi0, xi1)
        polys = st.lists(_monomials(n, 3), max_size=3).map(lambda ms: sum(ms, Poly.zero(n)))
        f, m = data.draw(polys), data.draw(polys)
        assert contravariant_nabla(M, f, m) == contravariant_nabla_by_star_mul(M, f, m)


@st.composite
def _gauged_products_and_series(draw):
    """(S, R, a, b): S a Moyal product on R^2..R^3 at order N = 1..3, gauged by a
    _special_gauges gauge; R another such gauge; a and b t-series of order N
    whose coefficients are monomial sums, zero coefficients included."""
    n, N = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pi = MultiVec(n, 2, draw(st.dictionaries(st.sampled_from(pairs), st.sampled_from(VALUES), min_size=1)))
    S = gauge_transform(moyal(pi, N), draw(_special_gauges(n, N)))
    polys = st.lists(_monomials(n, 3), max_size=3).map(lambda ms: sum(ms, Poly.zero(n)))
    a, b = (TPoly(N, draw(st.lists(polys, min_size=N + 1, max_size=N + 1))) for _ in range(2))
    return S, draw(_special_gauges(n, N)), a, b


class TestOperatorSeriesAction:
    """star_mul and GaugeOp.apply are both _OpSeries._act: against the
    convolution sums as they read, in oracles.py."""

    def test_matches_convolution(self):
        seen = set()

        @settings(max_examples=80, derandomize=True, deadline=None)
        @given(_gauged_products_and_series())
        def run(case):
            S, R, a, b = case
            assert star_mul(S, a, b) == star_mul_by_convolution(S, a, b)
            assert R.apply(a) == gauge_apply_by_convolution(R, a)
            for f in (a, b):
                zero = any(f.coeff(k).is_zero() for k in range(f.order + 1))
                seen.add("zero t-coefficient" if zero else "no zero t-coefficient")

        run()
        assert seen == {"zero t-coefficient", "no zero t-coefficient"}


SERIES = [
    (StarProduct, "P", 2, PolyDiffOp.multiplication(2), StarProduct.commutative),
    (GaugeOp, "R", 1, PolyDiffOp.identity(2), GaugeOp.identity_gauge),
]


class TestOpSeries:
    """What star products and gauges share: the constructor checks, op(0), == and repr."""

    @pytest.mark.parametrize("cls, key, arity, unit, zero", SERIES, ids=["star", "gauge"])
    @pytest.mark.parametrize(
        "case", ["order", "count", "dim", "arity"],
    )
    def test_constructor_errors(self, cls, key, arity, unit, zero, case):
        good = PolyDiffOp.zero(2, arity)
        args, error, message = {
            "order": ((2, 0, []), OrderMismatchError, "truncation order must be >= 1"),
            "count": ((2, 2, [good]), OrderMismatchError, f"need 2 operators {key}_1..{key}_2, got 1"),
            "dim": ((2, 2, [good, PolyDiffOp.zero(3, arity)]), DimensionMismatchError,
                    f"{key}_i dimension mismatch"),
            "arity": ((2, 1, [PolyDiffOp.zero(2, 3 - arity)]), DegreeError, f"{key}_i must have arity {arity}"),
        }[case]
        with pytest.raises(Exception) as info:
            cls(*args)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("cls, key, arity, unit, zero", SERIES, ids=["star", "gauge"])
    def test_unit_and_zero(self, cls, key, arity, unit, zero):
        series = zero(2, 3)
        assert type(series) is cls and (series.dim, series.order) == (2, 3)
        assert series.op(0) == unit
        # the unit is built afresh on every call, never cached
        assert series.op(0) is not series.op(0)
        assert all(series.op(k) == PolyDiffOp.zero(2, arity) for k in range(1, 4))
        assert getattr(series, key) == tuple(series.op(k) for k in range(1, 4))
        assert repr(series) == f"{cls.__name__}(dim=2, order=3)"

    @pytest.mark.parametrize("cls, key, arity, unit, zero", SERIES, ids=["star", "gauge"])
    def test_equality(self, cls, key, arity, unit, zero):
        op = PolyDiffOp(2, arity, {((1, 0),) * arity: x})
        assert cls(2, 1, [op]) == cls(2, 1, [op])
        assert hash(cls(2, 1, [op])) == hash(cls(2, 1, [op]))
        assert cls(2, 1, [op]) != zero(2, 1)
        assert zero(2, 1) != zero(2, 2)

    def test_star_never_equals_gauge(self):
        S, R = StarProduct.commutative(2, 1), GaugeOp.identity_gauge(2, 1)
        assert S.P[0].terms == R.R[0].terms == {}
        assert S != R and R != S
