from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dqkit.calculus import MultiVec
from dqkit.errors import DegreeError, DimensionMismatchError, PreconditionError
from dqkit.kernel import Poly
from dqkit.liealgebroid import (
    AlgebroidCheck,
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
from dqkit.poisson import is_poisson, lichnerowicz_d

from conftest import alt_tensors, polys, rand_poly
from oracles import (
    algebroid_d_by_frame,
    check_algebroid_by_brackets,
    frame_bracket,
    from_poisson_by_anchor,
    koszul_frame_bracket,
)

x = Poly.variable(2, 1)
y = Poly.variable(2, 2)
x3, y3, z3 = (Poly.variable(3, i) for i in (1, 2, 3))


@pytest.fixture
def T2():
    return AlgebroidPresentation.tangent(2)


@pytest.fixture
def P_so3(pi_so3):
    return from_poisson(pi_so3)


class TestCheckAlgebroid:
    def test_tangent(self, T2):
        assert check_algebroid(T2).ok

    def test_so3_koszul(self, P_so3):
        assert check_algebroid(P_so3).ok

    def test_non_poisson_fails_with_witness(self, pi_bad):
        chk = check_algebroid(from_poisson(pi_bad))
        assert not chk.ok
        assert chk.witness is not None

    def test_agreement_with_is_poisson(self, rng):
        # from_poisson o check_algebroid = is_poisson, witnesses equally trivial
        from conftest import rand_multivec

        for _ in range(12):
            pi = rand_multivec(rng, 3, 2, max_degree=1)
            a = is_poisson(pi)
            b = check_algebroid(from_poisson(pi))
            assert a.ok == b.ok
            assert (a.witness is None) == (b.witness is None)

    def test_both_axioms_failing_reports_the_anchor(self):
        # [e1, e2] = e3, [e2, e3] = e2 breaks Jacobi at (1, 2, 3) whatever the anchor;
        # with sigma(e2) = x1 d/dx1 the anchor axiom also fails at (1, 2), and is reported
        structure = {(1, 2): [0, 0, 1], (2, 3): [0, 1, 0]}
        one = Poly.one(1)
        jacobi_only = AlgebroidPresentation(1, 3, [[0], [0], [0]], structure)
        assert check_algebroid(jacobi_only) == AlgebroidCheck(
            False, "jacobi", (1, 2, 3), (Poly.zero(1), Poly.zero(1), one)
        )
        both = AlgebroidPresentation(1, 3, [[1], [Poly.variable(1, 1)], [0]], structure)
        want = AlgebroidCheck(False, "anchor", (1, 2), (1, one))
        assert check_algebroid(both) == check_algebroid_by_brackets(both) == want

    def test_matches_bracket_oracle(self):
        """d_A^2 = 0 on x_i and theta^k against the bracket expansion: same
        verdict, axiom, witness and defect, on passing and on both kinds of
        failing presentations."""
        seen = set()

        @settings(max_examples=200, derandomize=True)
        @given(st.one_of(_presentations(), _koszul_algebroids()))
        def run(A):
            got, want = check_algebroid(A), check_algebroid_by_brackets(A)
            assert (got.ok, got.kind, got.witness, got.defect) == (
                want.ok, want.kind, want.witness, want.defect
            )
            seen.add(got.kind)

        run()
        assert seen == {None, "anchor", "jacobi"}

    def test_anchor_witness_is_the_first_failure(self):
        """The anchor axiom fails at five pairs, for x_1 and for x_2: the
        witness is the first failing (pair, i) of the combinations scan,
        ((1, 3), 2), although x_1 fails first only at (1, 4)."""
        x1, x2 = (Poly.variable(2, i) for i in (1, 2))
        A = AlgebroidPresentation(2, 4, [[1, 0], [0, 1], [x2, x1], [x1 * x2, 0]])
        failures = _scan_d_squared(A)["anchor"]
        assert [f[:2] for f in failures] == [
            ((1, 3), 2), ((1, 4), 1), ((2, 3), 1), ((2, 4), 1), ((3, 4), 1), ((3, 4), 2)
        ]
        pair, i, value = failures[0]
        want = AlgebroidCheck(False, "anchor", pair, (i, value))
        assert check_algebroid(A) == check_algebroid_by_brackets(A) == want

    def test_jacobi_witness_is_the_first_failure(self):
        """With a zero anchor, Jacobi fails at the triples (1, 2, 4), (2, 3, 4)
        and (2, 3, 5): the witness is (1, 2, 4), whose defect sits in theta^5,
        although theta^2 and theta^3 fail at later triples."""
        e = [[1 if k == j else 0 for k in range(1, 6)] for j in range(1, 6)]
        structure = {(2, 3): e[1], (2, 4): e[4], (3, 5): e[2], (1, 4): e[3]}
        A = AlgebroidPresentation(1, 5, [[0]] * 5, structure)
        failures = _scan_d_squared(A)["jacobi"]
        assert [triple for triple, _ in failures] == [(1, 2, 4), (2, 3, 4), (2, 3, 5)]
        triple, total = failures[0]
        assert [k for k, t in enumerate(total, start=1) if not t.is_zero()] == [5]
        want = AlgebroidCheck(False, "jacobi", triple, total)
        assert check_algebroid(A) == check_algebroid_by_brackets(A) == want


def _scan_d_squared(A):
    """Every failure of the dense scan of d^2 x_i and d^2 theta^k through the
    frame oracle, in combinations order: anchor (pair, i, value), then Jacobi
    (triple, total)."""
    n, r = A.dim, A.rank

    def d_squared(form):
        return algebroid_d_by_frame(A, algebroid_d_by_frame(A, form))

    xs = [d_squared(AlgebroidForm.from_poly(r, Poly.variable(n, i))) for i in range(1, n + 1)]
    thetas = [d_squared(AlgebroidForm(n, r, 1, {(k,): 1})) for k in range(1, r + 1)]
    out = {"anchor": [], "jacobi": []}
    for pair in combinations(range(1, r + 1), 2):
        for i, form in enumerate(xs, start=1):
            if not form.value(pair).is_zero():
                out["anchor"].append((pair, i, form.value(pair)))
    for triple in combinations(range(1, r + 1), 3):
        total = tuple(-form.value(triple) for form in thetas)
        if any(not t.is_zero() for t in total):
            out["jacobi"].append((triple, total))
    return out


@st.composite
def _presentations(draw, max_rank=4):
    """Ranks 1..max_rank on R^1..R^3 (so ranks with no pair and with no
    triple are drawn); half the draws have a zero anchor, which passes the
    anchor axiom and leaves Jacobi to decide."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, max_rank))
    entries = st.one_of(st.just(Poly.zero(n)), polys(n))
    anchor_entries = st.just(Poly.zero(n)) if draw(st.booleans()) else entries
    rows = [[draw(anchor_entries) for _ in range(n)] for _ in range(r)]
    structure = {
        pair: [draw(entries) for _ in range(r)]
        for pair in combinations(range(1, r + 1), 2)
        if draw(st.booleans())
    }
    return AlgebroidPresentation(n, r, rows, structure)


@st.composite
def _koszul_algebroids(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    terms = {pair: draw(polys(n)) for pair in combinations(range(1, n + 1), 2)}
    return from_poisson(MultiVec(n, 2, terms))


class TestAlgebroidForm:
    def test_indices_bounded_by_rank_not_dim(self):
        w = AlgebroidForm(2, 3, 1, {(3,): x})
        assert w.value((3,)) == x
        with pytest.raises(DegreeError, match=r"frame index out of range 1\.\.1 in \(2,\)"):
            AlgebroidForm(2, 1, 1, {(2,): x})

    def test_rank_is_part_of_the_shape(self):
        w2 = AlgebroidForm(2, 2, 1, {(1,): x})
        w3 = AlgebroidForm(2, 3, 1, {(1,): x})
        assert w2 != w3
        assert w2 == AlgebroidForm(2, 2, 1, {(1,): x})
        assert hash(w2) == hash(AlgebroidForm(2, 2, 1, {(1,): x}))
        with pytest.raises(DimensionMismatchError):
            w2 + w3

    def test_arithmetic_keeps_rank(self):
        w = AlgebroidForm(2, 3, 2, {(1, 3): x, (2, 3): y})
        for v in (w + w, -w, w - w, w.scale(2)):
            assert type(v) is AlgebroidForm and (v.dim, v.rank, v.degree) == (2, 3, 2)
        assert (w - w).is_zero()
        assert w.value((3, 1)) == -x and w.value((3, 3)).is_zero()


class TestAlgebroidD:
    def test_matches_dense_frame_oracle(self):
        """algebroid_d against the dense Cartan formula over every frame key,
        at every degree 0..rank+1, on zero forms too, and again on its own
        output, where d^2 cancels to zero on the algebroids that pass."""
        seen = set()

        @st.composite
        def cases(draw):
            A = draw(st.one_of(_presentations(max_rank=5), _koszul_algebroids(max_dim=3)))
            p = draw(st.integers(0, A.rank + 1))
            keys = list(combinations(range(1, A.rank + 1), p))
            terms = draw(st.dictionaries(st.sampled_from(keys), polys(A.dim), max_size=3)) if keys else {}
            return A, AlgebroidForm(A.dim, A.rank, p, terms)

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(cases())
        def run(case):
            A, w = case
            dw = algebroid_d(A, w)
            assert dw == algebroid_d_by_frame(A, w)
            ddw = algebroid_d(A, dw)
            assert ddw == algebroid_d_by_frame(A, dw)
            p, r = w.degree, A.rank
            seen.add("degree 0" if p == 0 else "rank" if p == r else "rank + 1" if p > r else "between")
            seen.add("zero form" if w.is_zero() else "nonzero form")
            if not dw.is_zero() and ddw.is_zero():
                seen.add("d^2 cancels")

        run()
        assert seen == {"degree 0", "between", "rank", "rank + 1", "zero form", "nonzero form",
                        "d^2 cancels"}

    def test_tangent_reduces_to_exterior_d(self, T2):
        lam = AlgebroidForm(2, 2, 1, {(2,): x})  # the x dy analogue
        assert algebroid_d(T2, lam) == AlgebroidForm(2, 2, 2, {(1, 2): 1})

    def test_degree_zero(self, T2):
        f = x * y
        assert algebroid_d(T2, AlgebroidForm.from_poly(2, f)) == AlgebroidForm(
            2, 2, 1, {(1,): y, (2,): x}
        )

    def test_matches_lichnerowicz_on_koszul_frame(self, pi_std):
        # frame e_i = dx_i identifies frame p-forms with p-vectors
        P = from_poisson(pi_std)
        w = AlgebroidForm(2, 2, 1, {(1,): x})
        got = algebroid_d(P, w)
        want = lichnerowicz_d(pi_std, MultiVec(2, 1, {(1,): x}))
        assert {k: v for k, v in got.terms.items()} == dict(want.terms)

    def test_d_squared_zero(self, P_so3, rng):
        for deg in (0, 1, 2):
            if deg == 0:
                w = AlgebroidForm.from_poly(3, rand_poly(rng, 3))
            else:
                from itertools import combinations

                keys = list(combinations(range(1, 4), deg))
                terms = {k: rand_poly(rng, 3) for k in keys[:2]}
                w = AlgebroidForm(3, 3, deg, terms)
            assert algebroid_d(P_so3, algebroid_d(P_so3, w)).is_zero()

    def test_failing_algebroid_breaks_d_squared(self, pi_bad):
        # a defective presentation yields a d^2 != 0 witness on some form
        P = from_poisson(pi_bad)
        found = False
        for i in range(1, 4):
            w = AlgebroidForm(3, 3, 0, {(): Poly.variable(3, i)})
            if not algebroid_d(P, algebroid_d(P, w)).is_zero():
                found = True
                break
        assert found


class TestFromPoisson:
    def test_standard(self, pi_std):
        P = from_poisson(pi_std)
        assert P.anchor[0][1] == Poly.one(2) and P.anchor[1][0] == -Poly.one(2)
        assert P.anchor[0][0].is_zero() and P.anchor[1][1].is_zero()
        assert not P.structure

    def test_so3_structure_constants(self, P_so3):
        assert P_so3.structure[(1, 2)][2] == Poly.one(3)
        assert P_so3.structure[(1, 3)][1] == -Poly.one(3)
        assert P_so3.structure[(2, 3)][0] == Poly.one(3)

    def test_zero_bivector(self):
        P = from_poisson(MultiVec.zero(2, 2))
        assert not P.structure
        assert all(p.is_zero() for row in P.anchor for p in row)

    def test_structure_agrees_with_koszul(self, pi_so3, P_so3):
        for i in range(1, 4):
            for j in range(i + 1, 4):
                kb = koszul_frame_bracket(pi_so3, i, j)
                cs = frame_bracket(P_so3, i, j)
                for k in range(1, 4):
                    assert kb.coeff((k,)) == cs[k - 1]

    def test_matches_anchor_route(self):
        """pi's terms read once against the anchor of each dx_i and a scan of all
        n^2 entries: the same dense anchor, structure in the same key order, and
        the same sparse anchor rows and brackets, on R^1..R^5 with zero rows,
        non-constant coefficients and the zero bivector among the draws."""
        seen = set()

        @settings(derandomize=True)
        @given(st.integers(1, 5).flatmap(lambda n: alt_tensors(MultiVec, n, 2, max_size=4)))
        def run(pi):
            got, want = from_poisson(pi), from_poisson_by_anchor(pi)
            assert got.anchor == want.anchor
            assert list(got.structure.items()) == list(want.structure.items())
            assert got._anchor_rows == want._anchor_rows
            assert list(got._brackets.items()) == list(want._brackets.items())
            seen.add(pi.dim)
            if pi.is_zero():
                seen.add("zero")
            elif len(got._anchor_rows) < pi.dim:
                seen.add("zero row")
            if got.structure:
                seen.add("non-constant")

        run()
        assert seen == {1, 2, 3, 4, 5, "zero", "zero row", "non-constant"}


class TestExtensionCurvature:
    def test_trivial_extension_flat_splitting(self, T2):
        E = ExtensionData(T2, AlgebroidForm.zero(2, 2, 2))
        assert extension_curvature(E, AlgebroidForm.zero(2, 2, 1)).is_zero()

    def test_reduces_to_exterior_d(self, T2):
        E = ExtensionData(T2, AlgebroidForm.zero(2, 2, 2))
        lam = AlgebroidForm(2, 2, 1, {(2,): x})
        assert extension_curvature(E, lam) == AlgebroidForm(2, 2, 2, {(1, 2): 1})

    def test_zero_splitting_gives_twist(self, T2):
        om = AlgebroidForm(2, 2, 2, {(1, 2): 1})
        E = ExtensionData(T2, om)
        assert extension_curvature(E, AlgebroidForm.zero(2, 2, 1)) == om

    def test_torsor_law(self, T2, P_so3, rng):
        # c(nabla_{lam+mu}) = c(nabla_lam) + d_B mu
        for A in (T2, P_so3):
            r = A.rank
            om = AlgebroidForm.zero(A.dim, r, 2)
            E = ExtensionData(A, om)
            lam = AlgebroidForm(A.dim, r, 1, {(1,): rand_poly(rng, A.dim)})
            mu = AlgebroidForm(A.dim, r, 1, {(2,): rand_poly(rng, A.dim)})
            lhs = extension_curvature(E, lam + mu)
            rhs = extension_curvature(E, lam) + algebroid_d(A, mu)
            assert lhs == rhs

    def test_equals_twist_plus_d_lambda(self, P_so3, rng):
        om = AlgebroidForm.zero(3, 3, 2)
        E = ExtensionData(P_so3, om)
        lam = AlgebroidForm(3, 3, 1, {(1,): rand_poly(rng, 3), (3,): rand_poly(rng, 3)})
        assert extension_curvature(E, lam) == algebroid_d(P_so3, lam)

    def test_closedness(self, P_so3, rng):
        om = AlgebroidForm.zero(3, 3, 2)
        E = ExtensionData(P_so3, om)
        lam = AlgebroidForm(3, 3, 1, {(2,): rand_poly(rng, 3)})
        assert algebroid_d(P_so3, extension_curvature(E, lam)).is_zero()

    def test_non_closed_twist_rejected(self, T2):
        bad = AlgebroidForm(2, 2, 2, {(1, 2): x})
        # d of x e1^e2 over the tangent algebroid on R^2 is zero (top degree);
        # use a 3-frame tangent algebroid to get a genuinely non-closed twist
        T3 = AlgebroidPresentation.tangent(3)
        bad3 = AlgebroidForm(3, 3, 2, {(1, 2): Poly.variable(3, 3)})
        with pytest.raises(PreconditionError):
            ExtensionData(T3, bad3)
        assert ExtensionData(T2, bad) is not None  # closed because top degree


class TestLineCurvature:
    def test_canonical_flat(self, T2):
        assert line_curvature(T2, AlgebroidForm.zero(2, 2, 1)).is_zero()

    def test_unit_shift_is_exact(self, T2, rng):
        g = rand_poly(rng, 2)
        shifted = unit_shift(T2, AlgebroidForm.zero(2, 2, 1), g)
        assert line_curvature(T2, shifted).is_zero()

    def test_nonflat_witness(self, T2):
        lam = AlgebroidForm(2, 2, 1, {(2,): x})
        assert line_curvature(T2, lam) == AlgebroidForm(2, 2, 2, {(1, 2): 1})

    def test_gauge_invariance(self, T2, P_so3, rng):
        for A in (T2, P_so3):
            lam = AlgebroidForm(A.dim, A.rank, 1, {(1,): rand_poly(rng, A.dim)})
            g = rand_poly(rng, A.dim)
            assert line_curvature(A, unit_shift(A, lam, g)) == line_curvature(A, lam)
