from itertools import combinations

from hypothesis import given, settings, strategies as st

from dqkit.calculus import Form, MultiVec, exterior_d, schouten
from dqkit.kernel import Poly
from dqkit.poisson import (
    EPSILON,
    PoissonCheck,
    bracket,
    hamiltonian,
    is_poisson,
    jacobiator,
    koszul_bracket,
    lichnerowicz_d,
)

from conftest import alt_tensors, rand_form, rand_multivec, rand_poly, rand_vector_field
from oracles import koszul_bracket_by_pair, pair

x = Poly.variable(2, 1)
y = Poly.variable(2, 2)
x3, y3, z3 = (Poly.variable(3, i) for i in (1, 2, 3))


class TestBracket:
    def test_standard(self, pi_std):
        assert bracket(pi_std, x, y) == Poly.one(2)

    def test_antisymmetry_on_equal_args(self, pi_std):
        assert bracket(pi_std, x, x).is_zero()

    def test_so3_by_construction(self, pi_so3):
        assert bracket(pi_so3, x3, y3) == z3
        assert bracket(pi_so3, y3, z3) == x3
        assert bracket(pi_so3, z3, x3) == y3


class TestJacobiator:
    def test_constant_pi(self, pi_std):
        assert jacobiator(pi_std, x, y, x * x).is_zero()

    def test_bad_pi_value_one(self, pi_bad):
        assert jacobiator(pi_bad, x3, y3, z3) == Poly.one(3)

    def test_repeated_argument(self, pi_so3, rng):
        f = rand_poly(rng, 3)
        g = rand_poly(rng, 3)
        assert jacobiator(pi_so3, f, f, g).is_zero()


class TestIsPoisson:
    def test_standard(self, pi_std):
        assert is_poisson(pi_std).ok

    def test_so3_brute_force(self, pi_so3):
        assert is_poisson(pi_so3).ok

    def test_witness(self, pi_bad):
        chk = is_poisson(pi_bad)
        assert not chk.ok
        assert chk.witness == (1, 2, 3)
        assert chk.defect == Poly.one(3)

    def test_matches_jacobiator_scan(self):
        """The coordinate formula against jacobiator on every triple in
        combinations order: same verdict, witness and defect, on Poisson and
        non-Poisson bivectors on R^3..R^6."""
        seen = set()

        @settings(max_examples=100, derandomize=True)
        @given(st.integers(3, 6).flatmap(lambda n: st.one_of(_poisson_bivectors(n), _bivectors(n))))
        def run(pi):
            got, want = is_poisson(pi), _jacobiator_scan(pi)
            assert (got.ok, got.witness, got.defect) == (want.ok, want.witness, want.defect)
            seen.add((pi.dim, got.ok))

        run()
        assert {ok for _, ok in seen} == {True, False}
        assert {n for n, ok in seen if ok} == {3, 4, 5, 6}


class TestKoszulBracket:
    def test_constant_forms(self, pi_std):
        assert koszul_bracket(pi_std, Form.basis(2, 1), Form.basis(2, 2)).is_zero()

    def test_x_dx_dy(self, pi_std):
        got = koszul_bracket(pi_std, Form.basis(2, 1).scale(x), Form.basis(2, 2))
        assert got == Form.basis(2, 1)

    def test_alternating(self, pi_so3, rng):
        a = rand_form(rng, 3, 1)
        assert koszul_bracket(pi_so3, a, a).is_zero()

    def test_exact_forms(self, pi_so3, rng):
        # [df, dg]_pi = d{f, g}
        for _ in range(15):
            f = rand_poly(rng, 3)
            g = rand_poly(rng, 3)
            lhs = koszul_bracket(
                pi_so3, exterior_d(Form.from_poly(f)), exterior_d(Form.from_poly(g))
            )
            assert lhs == exterior_d(Form.from_poly(bracket(pi_so3, f, g)))

    def test_anchor_intertwines(self, pi_so3, rng):
        # pi~([a,b]_pi) = [pi~ a, pi~ b] for Poisson pi
        from dqkit.calculus import anchor

        for _ in range(10):
            a = rand_form(rng, 3, 1)
            b = rand_form(rng, 3, 1)
            lhs = anchor(pi_so3, koszul_bracket(pi_so3, a, b))
            rhs = schouten(anchor(pi_so3, a), anchor(pi_so3, b))
            assert lhs == rhs

    def test_jacobi_iff_poisson(self, pi_so3, pi_bad, rng):
        def jac_defect(pi, dim, tries):
            for _ in range(tries):
                a = rand_form(rng, dim, 1, max_degree=1)
                b = rand_form(rng, dim, 1, max_degree=1)
                c = rand_form(rng, dim, 1, max_degree=1)
                d = (
                    koszul_bracket(pi, a, koszul_bracket(pi, b, c))
                    + koszul_bracket(pi, b, koszul_bracket(pi, c, a))
                    + koszul_bracket(pi, c, koszul_bracket(pi, a, b))
                )
                if not d.is_zero():
                    return True
            return False

        assert not jac_defect(pi_so3, 3, 12)
        assert jac_defect(pi_bad, 3, 40)

    def test_matches_pair_route(self):
        """pi(alpha, beta) as <pi~ alpha, beta> against the determinant contraction
        pair(pi, alpha, beta), on drawn bivectors and 1-forms on R^1..R^4."""
        seen = set()

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 4))
            pi = draw(alt_tensors(MultiVec, n, 2, max_size=4))
            return pi, draw(alt_tensors(Form, n, 1)), draw(alt_tensors(Form, n, 1))

        @settings(derandomize=True)
        @given(cases())
        def run(case):
            pi, alpha, beta = case
            assert koszul_bracket(pi, alpha, beta) == koszul_bracket_by_pair(pi, alpha, beta)
            seen.add(pi.dim)
            if not pair(pi, alpha, beta).is_constant():
                seen.add("d pi(alpha, beta)")

        run()
        assert seen == {1, 2, 3, 4, "d pi(alpha, beta)"}


class TestHamiltonian:
    def test_standard(self, pi_std):
        assert hamiltonian(pi_std, x) == MultiVec.basis(2, 2)

    def test_constant(self, pi_so3):
        assert hamiltonian(pi_so3, Poly.const(3, 5)).is_zero()

    def test_so3(self, pi_so3):
        assert hamiltonian(pi_so3, x3).apply_to(y3) == z3

    def test_derivation_identity(self, pi_so3, rng):
        f = rand_poly(rng, 3)
        g = rand_poly(rng, 3)
        assert hamiltonian(pi_so3, f).apply_to(g) == bracket(pi_so3, f, g)


class TestLichnerowicz:
    def test_degree_one_example(self, pi_std):
        xi = MultiVec(2, 1, {(1,): x})
        got = lichnerowicz_d(pi_std, xi)
        assert got == MultiVec(2, 2, {(1, 2): 1})

    def test_poisson_bivector_closed(self, pi_so3):
        assert lichnerowicz_d(pi_so3, pi_so3).is_zero()

    def test_hamiltonian_fields_closed(self, pi_so3, rng):
        for _ in range(10):
            f = rand_poly(rng, 3)
            assert lichnerowicz_d(pi_so3, hamiltonian(pi_so3, f)).is_zero()

    def test_non_poisson_factor_two(self, pi_bad):
        d = lichnerowicz_d(pi_bad, pi_bad)
        assert d == MultiVec(3, 3, {(1, 2, 3): 2})
        assert d.coeff((1, 2, 3)) == 2 * jacobiator(pi_bad, x3, y3, z3)

    def test_square_zero_degrees_1_2(self, pi_so3, rng):
        for _ in range(8):
            xi = rand_vector_field(rng, 3)
            assert lichnerowicz_d(pi_so3, lichnerowicz_d(pi_so3, xi)).is_zero()
            A = rand_multivec(rng, 3, 2)
            assert lichnerowicz_d(pi_so3, lichnerowicz_d(pi_so3, A)).is_zero()


class TestEpsilonTable:
    def test_documented_values(self):
        assert EPSILON == {0: -1, 1: 1, 2: 1}

    def test_sign_table_holds(self, rng):
        # on R^4 with p = 3 the output is a 4-vector; above the table the sign is +1
        for _ in range(25):
            for dim in (3, 4):
                pi = rand_multivec(rng, dim, 2)
                for p in range(dim):
                    A = rand_multivec(rng, dim, p)
                    lhs = schouten(pi, A)
                    rhs = lichnerowicz_d(pi, A).scale(EPSILON.get(p, 1))
                    assert lhs == rhs, (p, pi, A)


def _jacobiator_scan(pi):
    """is_poisson as three nested brackets on each coordinate triple."""
    xs = [Poly.variable(pi.dim, i) for i in range(1, pi.dim + 1)]
    for i, j, k in combinations(range(pi.dim), 3):
        defect = jacobiator(pi, xs[i], xs[j], xs[k])
        if not defect.is_zero():
            return PoissonCheck(False, (i + 1, j + 1, k + 1), defect)
    return PoissonCheck(True)


def _polys(n, max_terms=2):
    """Polynomials on R^n with a few terms of degree <= 2 in each variable
    and small rational coefficients."""
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(monomials, coeffs, max_size=max_terms).map(
        lambda terms: Poly(n, {e: c for e, c in terms.items() if c})
    )


def _bivectors(n):
    """Bivectors with a few random entries: mostly not Poisson."""
    pairs = st.sampled_from(list(combinations(range(1, n + 1), 2)))
    return st.dictionaries(pairs, _polys(n), min_size=1, max_size=4).map(lambda t: MultiVec(n, 2, t))


@st.composite
def _poisson_bivectors(draw, n):
    """Poisson by construction: a constant bivector, or on three coordinates
    a < b < c the bivector of the vector field f grad_abc C (Jacobi is
    V . curl V = 0 there, and f and C may depend on the other coordinates)."""
    if draw(st.booleans()):
        pairs = list(combinations(range(1, n + 1), 2))
        values = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                               min_size=len(pairs), max_size=len(pairs)))
        return MultiVec(n, 2, dict(zip(pairs, values)))
    a, b, c = sorted(draw(st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)))
    f, C = draw(_polys(n)), draw(_polys(n, max_terms=3))
    va, vb, vc = (f * C.partial(i) for i in (a, b, c))
    return MultiVec(n, 2, {(a, b): vc, (b, c): va, (a, c): -vb})
