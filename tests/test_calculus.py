from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from dqkit.calculus import (
    Form,
    MultiVec,
    anchor,
    anchor_pullback,
    exterior_d,
    interior,
    lie_derivative,
    schouten,
    wedge,
)
from dqkit.errors import DegreeError, DimensionMismatchError
from dqkit.kernel import Poly
from dqkit.liealgebroid import AlgebroidForm
from dqkit.poisson import bracket, is_poisson

from conftest import alt_tensors, rand_form, rand_multivec, rand_poly, rand_vector_field
from oracles import anchor_pullback_by_images, exterior_d_by_sorting, form_eval, pair, schouten_by_recursion

x = Poly.variable(2, 1)
y = Poly.variable(2, 2)
dx = Form.basis(2, 1)
dy = Form.basis(2, 2)


@pytest.mark.parametrize("bad", [1.0, True, Fraction(1)], ids=repr)
@pytest.mark.parametrize("kind", [MultiVec, Form])
def test_non_integer_index_rejected(kind, bad):
    # MultiVec(2, 1, {(1.0,): 1}) would store the key (1.0,)
    with pytest.raises(DegreeError):
        kind(2, 1, {(bad,): 1})
    with pytest.raises(DegreeError):
        kind(2, 2, {(bad, 2): 1})
d_x = MultiVec.basis(2, 1)
d_y = MultiVec.basis(2, 2)


class TestWedge:
    def test_basis(self):
        assert wedge(dx, dy) == Form(2, 2, {(1, 2): 1})

    def test_antisymmetry(self):
        assert wedge(dx, dx).is_zero()

    def test_transposition_sign(self):
        assert wedge(dy.scale(x), dx) == Form(2, 2, {(1, 2): -x})

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            wedge(dx, d_x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            wedge(dx, Form.basis(3, 1))


class TestExteriorD:
    def test_d_of_function(self):
        assert exterior_d(Form.from_poly(x)) == dx

    def test_d_of_one_form(self):
        assert exterior_d(dy.scale(x)) == Form(2, 2, {(1, 2): 1})

    def test_constant_coefficients(self):
        assert exterior_d(Form(2, 2, {(1, 2): 1})).is_zero()

    def test_dd_zero_random(self, rng):
        for _ in range(25):
            dim = rng.choice([2, 3, 4])
            deg = rng.randint(0, dim)
            w = rand_form(rng, dim, deg)
            assert exterior_d(exterior_d(w)).is_zero()

    def test_matches_sorting_oracle(self):
        """exterior_d, the Cartan differential of the tangent algebroid, against
        sorting dx_i ^ dx_K term by term: the same terms in the same order, on
        R^1..R^5 in every degree 0..n+1, zero forms included."""
        seen = set()

        @settings(max_examples=150, derandomize=True, deadline=None)
        @given(st.integers(1, 5).flatmap(lambda n: st.integers(0, n + 1).flatmap(lambda p: alt_tensors(Form, n, p))))
        def run(w):
            got, want = exterior_d(w), exterior_d_by_sorting(w)
            assert got == want and list(got.terms) == list(want.terms)
            seen.add("degree 0" if w.degree == 0 else "above dim" if w.degree > w.dim else "between")
            seen.add("zero form" if w.is_zero() else "nonzero d" if not got.is_zero() else "closed nonzero")

        run()
        assert seen == {"degree 0", "between", "above dim", "zero form", "nonzero d", "closed nonzero"}


class TestInterior:
    def test_basis_contraction(self):
        assert interior(d_x, Form(2, 2, {(1, 2): 1})) == dy

    def test_missing_direction(self):
        w = Form(3, 2, {(1, 2): 1})
        assert interior(MultiVec.basis(3, 3), w).is_zero()

    def test_function_coefficient(self):
        assert interior(MultiVec(2, 1, {(2,): x}), dy) == Form.from_poly(x)

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeError):
            interior(d_x, Form.from_poly(x))


class TestLieDerivative:
    def test_cartan_on_x_dy(self):
        assert lie_derivative(d_x, dy.scale(x)) == dy

    def test_scaling_field(self):
        assert lie_derivative(MultiVec(2, 1, {(1,): x}), dx) == dx

    def test_unrelated_direction(self):
        assert lie_derivative(d_y, dx).is_zero()

    def test_product_rule(self, rng):
        for _ in range(20):
            dim = 3
            X = rand_vector_field(rng, dim)
            a = rand_form(rng, dim, rng.randint(0, 2))
            b = rand_form(rng, dim, rng.randint(0, 2))
            lhs = lie_derivative(X, wedge(a, b))
            rhs = wedge(lie_derivative(X, a), b) + wedge(a, lie_derivative(X, b))
            assert lhs == rhs


class TestPair:
    def test_identity_pairing(self):
        assert pair(MultiVec(2, 2, {(1, 2): 1}), dx, dy) == Poly.one(2)

    def test_antisymmetry(self):
        assert pair(MultiVec(2, 2, {(1, 2): 1}), dy, dx) == -Poly.one(2)

    def test_vanishing(self):
        A = MultiVec(3, 2, {(1, 2): Poly.variable(3, 1)})
        assert pair(A, Form.basis(3, 1), Form.basis(3, 3)).is_zero()

    def test_arity_mismatch(self):
        with pytest.raises(DegreeError):
            pair(MultiVec(2, 2, {(1, 2): 1}), dx)


class TestSchouten:
    def test_coordinate_fields_commute(self):
        assert schouten(d_x, d_y).is_zero()

    def test_lie_bracket(self):
        X = MultiVec(2, 1, {(2,): x})  # x d_y
        Y = MultiVec(2, 1, {(1,): y})  # y d_x
        assert schouten(X, Y) == MultiVec(2, 1, {(1,): x}) - MultiVec(2, 1, {(2,): y})

    def test_so3_is_poisson(self, pi_so3):
        assert schouten(pi_so3, pi_so3).is_zero()

    def test_against_recursion(self, rng):
        for _ in range(60):
            dim = rng.choice([2, 3])
            A = rand_multivec(rng, dim, rng.randint(0, min(3, dim)))
            B = rand_multivec(rng, dim, rng.randint(0, min(3, dim)))
            assert schouten(A, B) == schouten_by_recursion(A, B)

    def test_graded_antisymmetry(self, rng):
        for _ in range(30):
            dim = 3
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            A = rand_multivec(rng, dim, a)
            B = rand_multivec(rng, dim, b)
            sign = -((-1) ** ((a - 1) * (b - 1)))
            assert schouten(A, B) == schouten(B, A).scale(sign)

    def test_graded_jacobi_decomposables(self, rng):
        # sign convention: [A,[B,C]] = [[A,B],C] + (-1)^{(a-1)(b-1)} [B,[A,C]]
        for _ in range(15):
            dim = 3
            a, b, c = (rng.randint(1, 2) for _ in range(3))
            A = rand_multivec(rng, dim, a, nterms=1)
            B = rand_multivec(rng, dim, b, nterms=1)
            C = rand_multivec(rng, dim, c, nterms=1)
            lhs = schouten(A, schouten(B, C))
            rhs = schouten(schouten(A, B), C)
            swap = schouten(B, schouten(A, C)).scale((-1) ** ((a - 1) * (b - 1)))
            assert lhs == rhs + swap


class TestAnchor:
    def test_standard_anchor(self, pi_std):
        assert anchor(pi_std, dx) == d_y
        assert anchor(pi_std, dy) == -d_x

    def test_bracket_compatibility(self, rng, pi_so3):
        # (pi~ df)(g) = {f, g}
        for _ in range(10):
            f = rand_poly(rng, 3)
            g = rand_poly(rng, 3)
            Xf = anchor(pi_so3, exterior_d(Form.from_poly(f)))
            assert Xf.apply_to(g) == bracket(pi_so3, f, g)

    def test_pullback_of_dx(self, pi_std):
        assert anchor_pullback(pi_std, dx) == d_y

    def test_pullback_image_too_small(self, pi_std3):
        vol = Form(3, 3, {(1, 2, 3): 1})
        assert anchor_pullback(pi_std3, vol).is_zero()

    def test_pullback_of_zero(self, pi_so3):
        assert anchor_pullback(pi_so3, Form.zero(3, 2)).is_zero()

    def test_pullback_linear(self, rng, pi_so3):
        for _ in range(10):
            w1 = rand_form(rng, 3, 2)
            w2 = rand_form(rng, 3, 2)
            assert anchor_pullback(pi_so3, w1 + w2) == anchor_pullback(
                pi_so3, w1
            ) + anchor_pullback(pi_so3, w2)

    def test_pullback_evaluation_contract(self, rng, pi_so3):
        # even degree: pulled-back tensor on covectors is omega on anchored vectors
        for _ in range(8):
            w = rand_form(rng, 3, 2)
            res = anchor_pullback(pi_so3, w)
            a1 = rand_form(rng, 3, 1)
            a2 = rand_form(rng, 3, 1)
            lhs = pair(res, a1, a2)
            rhs = form_eval(w, [anchor(pi_so3, a1), anchor(pi_so3, a2)])
            assert lhs == rhs

    def test_pullback_matches_image_oracle(self):
        """anchor_pullback, summed over omega's terms as wedges of anchor images,
        against (-1)^p omega(pi~ dx_{k_1}, ..) on every key of C(n, p): R^1..R^5,
        degrees 0..n+1, zero forms and non-Poisson bivectors included."""
        seen = set()

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 5))
            return draw(alt_tensors(MultiVec, n, 2, max_size=4)), draw(alt_tensors(Form, n, draw(st.integers(0, n + 1))))

        @settings(max_examples=150, derandomize=True, deadline=None)
        @given(cases())
        def run(case):
            pi, w = case
            got = anchor_pullback(pi, w)
            assert got == anchor_pullback_by_images(pi, w)
            seen.add("degree 0" if w.degree == 0 else "above dim" if w.degree > w.dim else "between")
            seen.add("zero form" if w.is_zero() else "nonzero form")
            if not is_poisson(pi).ok and not got.is_zero():
                seen.add("non-Poisson")

        run()
        assert seen == {"degree 0", "between", "above dim", "zero form", "nonzero form", "non-Poisson"}

    def test_pullback_degree_one_is_anchor(self, rng, pi_so3):
        for _ in range(8):
            a = rand_form(rng, 3, 1)
            assert anchor_pullback(pi_so3, a) == anchor(pi_so3, a)


def test_degree_above_dim_is_zero_space():
    z = Form.zero(2, 3)
    assert z.degree == 3 and z.is_zero()
    with pytest.raises(DegreeError):
        Form(2, 3, {(1, 2, 3): 1})


class TestShape:
    """The shape checks of + and -, scale(0) and == on alternating tensors."""

    @pytest.mark.parametrize("combine", [add, sub])
    @pytest.mark.parametrize(
        "left, right, error, message",
        [
            (MultiVec(2, 1, {(1,): x}), MultiVec(3, 1), DimensionMismatchError, "dimensions differ: 2 vs 3"),
            (Form(2, 1, {(1,): x}), Form(3, 1), DimensionMismatchError, "dimensions differ: 2 vs 3"),
            (MultiVec(2, 1, {(1,): x}), MultiVec(2, 2), DegreeError, "degrees differ: 1 vs 2"),
            (Form(2, 2, {(1, 2): x}), Form(2, 0), DegreeError, "degrees differ: 2 vs 0"),
            (MultiVec(2, 1), MultiVec(3, 2), DimensionMismatchError, "dimensions differ: 2 vs 3"),
            (MultiVec(2, 1, {(1,): x}), Form(2, 1, {(1,): x}), TypeError, "mixed kinds: MultiVec vs Form"),
            (Form(2, 1), MultiVec(3, 2), TypeError, "mixed kinds: Form vs MultiVec"),
            (Form(2, 1), AlgebroidForm(2, 2, 1), TypeError, "mixed kinds: Form vs AlgebroidForm"),
            (AlgebroidForm(2, 2, 1, {(2,): x}), AlgebroidForm(2, 3, 1), DimensionMismatchError,
             "index bounds differ: 2 vs 3"),
            (AlgebroidForm(2, 2, 1), AlgebroidForm(3, 2, 1), DimensionMismatchError, "dimensions differ: 2 vs 3"),
            (AlgebroidForm(2, 2, 1), AlgebroidForm(2, 3, 2), DimensionMismatchError,
             "index bounds differ: 2 vs 3"),
            (AlgebroidForm(2, 3, 1), AlgebroidForm(2, 3, 2), DegreeError, "degrees differ: 1 vs 2"),
        ],
        ids=[
            "multivec-dim", "form-dim", "multivec-degree", "form-degree", "dim-before-degree",
            "multivec-form", "kind-before-dim", "form-frame-form", "frame-rank", "frame-dim",
            "rank-before-degree", "frame-degree",
        ],
    )
    def test_mismatch(self, combine, left, right, error, message):
        with pytest.raises(Exception) as info:
            combine(left, right)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("factor", [0, Fraction(0), Poly.zero(2)])
    @pytest.mark.parametrize(
        "tensor",
        [
            MultiVec(2, 2, {(1, 2): x}),
            Form(2, 1, {(1,): x, (2,): 3}),
            AlgebroidForm(2, 3, 2, {(1, 3): y}),
        ],
        ids=["multivec", "form", "frame-form"],
    )
    def test_scale_zero(self, tensor, factor):
        out = tensor.scale(factor)
        assert type(out) is type(tensor) and out.is_zero()
        assert (out.dim, out.index_bound, out.degree) == (tensor.dim, tensor.index_bound, tensor.degree)

    def test_kinds_never_equal(self):
        assert MultiVec(2, 1, {(1,): x}) != Form(2, 1, {(1,): x})
        assert not MultiVec(2, 1, {(1,): x}) == Form(2, 1, {(1,): x})
        assert MultiVec.zero(2, 0) != Form.zero(2, 0)
        assert Form(2, 1, {(1,): x}) != AlgebroidForm(2, 2, 1, {(1,): x})
