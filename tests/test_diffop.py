from fractions import Fraction
from itertools import product
from math import factorial, prod
from operator import add, sub

import pytest

from dqkit.diffop import (
    PolyDiffOp,
    _fields,
    _key,
    _shares,
    _splits,
    apply_op,
    cocycle_defect,
    compose_into_slot,
    find_nonzero_args,
    hochschild_delta,
    partial_apply,
    transpose_parts,
)
from dqkit.calculus import MultiVec
from dqkit.errors import ArityMismatchError, DimensionMismatchError
from dqkit.kernel import Poly

from conftest import rand_diffop1, rand_poly
from oracles import coboundary_pattern, compositions

x = Poly.variable(2, 1)
y = Poly.variable(2, 2)


def op2(terms):
    return PolyDiffOp(2, 2, terms)


@pytest.mark.parametrize("bad", [0.5, 1.0, True], ids=repr)
def test_non_integer_order_rejected(bad):
    with pytest.raises(DimensionMismatchError):
        PolyDiffOp(2, 1, {((bad, 0),): 1})
    with pytest.raises(DimensionMismatchError):
        PolyDiffOp(2, 2, {((0, 0), (0, bad)): 1})


class TestApply:
    def test_tensor_of_partials(self):
        D = op2({((1, 0), (0, 1)): 1})
        assert apply_op(D, x * x, x * y) == 2 * x * x

    def test_identity(self):
        f = 3 * x * y + y
        assert apply_op(PolyDiffOp.identity(2), f) == f

    def test_coefficient(self):
        D = PolyDiffOp(2, 2, {((1, 0), (0, 0)): y})
        assert apply_op(D, x, x) == y * x

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            apply_op(PolyDiffOp.identity(2), x, y)

    def test_multilinear(self, rng):
        D = op2({((1, 0), (0, 1)): y, ((0, 0), (2, 0)): 1})
        f, g, h = (rand_poly(rng, 2) for _ in range(3))
        assert apply_op(D, f + h, g) == apply_op(D, f, g) + apply_op(D, h, g)
        assert apply_op(D, f.__mul__(Fraction(2, 3)), g) == apply_op(D, f, g) * Fraction(2, 3)


class TestCompose:
    def test_leibniz_through_multiplication(self):
        outer = op2({((0, 0), (1, 0)): 1})  # (f,g) -> f * dx g
        inner = PolyDiffOp.multiplication(2)
        comp = compose_into_slot(outer, 2, inner)
        f, g, h = x + y, x * y, y * y
        assert apply_op(comp, f, g, h) == f * (g.partial(1) * h + g * h.partial(1))

    def test_partial_into_partial(self):
        dxo = PolyDiffOp.partial(2, 1)
        assert compose_into_slot(dxo, 1, dxo) == PolyDiffOp(2, 1, {((2, 0),): 1})

    def test_evaluation_oracle(self, rng):
        for _ in range(20):
            outer = PolyDiffOp(
                2,
                2,
                {
                    ((rng.randint(0, 2), rng.randint(0, 1)), (rng.randint(0, 2), 0)): rand_poly(rng, 2)
                },
            )
            inner = PolyDiffOp(
                2,
                2,
                {((rng.randint(0, 1), rng.randint(0, 2)), (0, rng.randint(0, 2))): rand_poly(rng, 2)},
            )
            slot = rng.choice([1, 2])
            comp = compose_into_slot(outer, slot, inner)
            args = [rand_poly(rng, 2, max_degree=3) for _ in range(3)]
            mid = apply_op(inner, args[slot - 1], args[slot])
            rest = (
                [mid, args[2]] if slot == 1 else [args[0], mid]
            )
            assert apply_op(comp, *args) == apply_op(outer, *rest)

    def test_nested_associativity(self, rng):
        # composing into slot 1 twice agrees with evaluation either way
        for _ in range(10):
            A = rand_diffop1(rng, 2, unital=False)
            B = rand_diffop1(rng, 2, unital=False)
            C = rand_diffop1(rng, 2, unital=False)
            left = compose_into_slot(compose_into_slot(A, 1, B), 1, C)
            right = compose_into_slot(A, 1, compose_into_slot(B, 1, C))
            assert left == right

    def test_slot_out_of_range(self):
        with pytest.raises(ArityMismatchError):
            compose_into_slot(PolyDiffOp.identity(2), 2, PolyDiffOp.identity(2))


class TestTransposeParts:
    def test_tensor_split(self):
        P = op2({((1, 0), (0, 1)): 1})
        sym, skew = transpose_parts(P)
        h = Fraction(1, 2)
        assert sym == op2({((1, 0), (0, 1)): h, ((0, 1), (1, 0)): h})
        assert skew == op2({((1, 0), (0, 1)): h, ((0, 1), (1, 0)): -h})
        assert sym + skew == P

    def test_symmetric_operator(self):
        P = op2({((1, 0), (1, 0)): x})
        sym, skew = transpose_parts(P)
        assert sym == P and skew.is_zero()

    def test_moyal_p1_is_skew(self, moyal2):
        sym, skew = transpose_parts(moyal2.op(1))
        assert sym.is_zero() and skew == moyal2.op(1)


class TestHochschild:
    def test_derivation_has_zero_delta(self):
        assert hochschild_delta(PolyDiffOp.partial(2, 1)).is_zero()

    def test_half_square(self):
        Q = PolyDiffOp(2, 1, {((2, 0),): Fraction(1, 2)})
        assert hochschild_delta(Q) == op2({((1, 0), (1, 0)): 1})

    def test_multiplication_operator(self):
        Q = PolyDiffOp(2, 1, {((0, 0),): x})
        assert hochschild_delta(Q) == op2({((0, 0), (0, 0)): -x})

    def test_delta_delta_zero(self, rng):
        for _ in range(12):
            Q = rand_diffop1(rng, 2, max_order=3, unital=False)
            assert cocycle_defect(hochschild_delta(Q)).is_zero()

    def test_biderivation_is_cocycle(self, moyal2):
        assert cocycle_defect(moyal2.op(1)).is_zero()

    def test_order_zero_multiplication_is_cocycle(self):
        P = op2({((0, 0), (0, 0)): x})
        defect = cocycle_defect(P)
        assert defect.is_zero()
        # evaluation oracle agrees
        f, g, h = x, y, x + y
        val = (
            f * apply_op(P, g, h)
            - apply_op(P, f * g, h)
            + apply_op(P, f, g * h)
            - apply_op(P, f, g) * h
        )
        assert val.is_zero()


class TestHelpers:
    def test_partial_apply(self):
        P = op2({((1, 0), (0, 1)): 1})
        T = partial_apply(P, 1, x * x)
        assert T == PolyDiffOp(2, 1, {((0, 1),): 2 * x})

    def test_find_nonzero_args(self):
        D = op2({((1, 0), (1, 0)): 1})
        args = find_nonzero_args(D)
        assert args is not None and not apply_op(D, *args).is_zero()
        assert find_nonzero_args(PolyDiffOp.zero(2, 2)) is None
        # order 6 in n=6: the witness needs a degree-6 monomial, far beyond a
        # search over monomial tuples; every term but the minimal one kills it
        n = 6
        x1 = Poly.variable(n, 1)
        alpha = ((1,) * n, (0,) * n)
        D = PolyDiffOp(
            n,
            2,
            {
                alpha: 3 * x1,
                ((1, 1, 1, 1, 1, 2), (0,) * n): 1,
                ((0,) * n, (0, 0, 0, 0, 0, 7)): x1 * x1,
            },
        )
        args = find_nonzero_args(D)
        assert args == tuple(Poly.monomial(n, a) for a in alpha)
        assert apply_op(D, *args) == 3 * x1


class TestShape:
    """The shape checks of + and -, scale(0) and == on operators."""

    @pytest.mark.parametrize("combine", [add, sub])
    @pytest.mark.parametrize(
        "other, error, message",
        [
            (PolyDiffOp(3, 2), DimensionMismatchError, "operator dimensions differ"),
            (PolyDiffOp(2, 1), ArityMismatchError, "operator arities differ"),
            (PolyDiffOp(3, 1), DimensionMismatchError, "operator dimensions differ"),
            (MultiVec(2, 2), TypeError, "mixed kinds: PolyDiffOp vs MultiVec"),
        ],
        ids=["dim", "arity", "dim-before-arity", "mixed-kinds"],
    )
    def test_mismatch(self, combine, other, error, message):
        with pytest.raises(Exception) as info:
            combine(op2({((1, 0), (0, 1)): x}), other)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("factor", [0, Fraction(0), Poly.zero(2)])
    def test_scale_zero(self, factor):
        D = op2({((1, 0), (0, 1)): x, ((0, 0), (2, 0)): 3})
        out = D.scale(factor)
        assert out == PolyDiffOp.zero(2, 2) and out.is_zero()
        assert (out.dim, out.arity) == (2, 2)

    def test_equality_needs_the_shape(self):
        assert PolyDiffOp.zero(2, 1) != PolyDiffOp.zero(2, 2)
        assert PolyDiffOp.zero(2, 1) != PolyDiffOp.zero(3, 1)
        assert PolyDiffOp.identity(2) == PolyDiffOp(2, 1, {((0, 0),): 1})
        assert hash(PolyDiffOp.identity(2)) == hash(PolyDiffOp(2, 1, {((0, 0),): 1}))


# ----------------------------------------------------------------------
# the integer tables of the kernel: _splits and _shares


def decoded_splits(a, dim):
    """_splits(a, dim) as [((a', a''), weight)], the layout of coboundary_pattern."""
    block = 16 * dim
    return [((_fields(k & (1 << block) - 1, dim), _fields(k >> block, dim)), w) for w, k in _splits(_key(a), dim)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_splits_are_the_coboundary_pattern(dim):
    """Weights, order and the alpha = 0 term, for every |alpha| <= 5."""
    for alpha in product(range(6), repeat=dim):
        if sum(alpha) <= 5:
            assert decoded_splits(alpha, dim) == coboundary_pattern(alpha)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_shares_are_the_multinomials(dim):
    """Each entry puts g_s in slot s's field at the coordinate, nothing else,
    with weight r! / (g_1! ... g_k!), in the order of oracles.compositions."""
    for arity, r, c in product((1, 2, 3), range(6), range(dim)):
        got = []
        for m, k in _shares(r, 16 * c, dim, arity):
            fields = _fields(k, dim * (arity + 1))
            gs = fields[dim + c :: dim]
            assert sum(fields) == sum(gs)  # no other field is set
            assert m == factorial(r) // prod(map(factorial, gs))
            got.append((m, gs))
        assert got == list(compositions(r, arity))
