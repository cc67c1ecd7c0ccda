"""The public API's argument checks, each reached once: (call, exception type,
message) per check, then the reprs of the value types and the truth of the
check outcomes."""

from fractions import Fraction

import pytest

from dqkit.calculus import (
    Form,
    MultiVec,
    anchor,
    anchor_pullback,
    exterior_d,
    interior,
    lie_derivative,
    schouten,
)
from dqkit.diffop import (
    PolyDiffOp,
    apply_op,
    cocycle_defect,
    compose_into_slot,
    hochschild_delta,
    partial_apply,
    solve_coboundary,
    transpose,
    transpose_parts,
)
from dqkit.errors import (
    ArityMismatchError,
    DegreeError,
    DimensionMismatchError,
    OrderMismatchError,
    PolyParseError,
)
from dqkit.kernel import Poly, TPoly
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
from dqkit.parser import parse_poly
from dqkit.poisson import (
    PoissonCheck,
    bracket,
    hamiltonian,
    is_poisson,
    koszul_bracket,
    lichnerowicz_d,
)
from dqkit.qclimit import QCData, kappa
from dqkit.starprod import (
    BimoduleModel,
    GaugeOp,
    Sigma1,
    ad_exp,
    contravariant_nabla,
    exp_gauge,
    moyal,
    nabla_curvature,
    sigma1_act,
    star_mul,
)

x, y = Poly.variable(2, 1), Poly.variable(2, 2)
one3 = Poly.one(3)
dx, dx3 = Form.basis(2, 1), Form.basis(3, 1)
d1, d1_3 = MultiVec.basis(2, 1), MultiVec.basis(3, 1)
pi = MultiVec(2, 2, {(1, 2): 1})  # the standard bivector of the plane
op1 = PolyDiffOp(2, 1, {((1, 0),): 1})  # d/dx
op2 = PolyDiffOp(2, 2, {((1, 0), (0, 1)): 1})
op1_3 = PolyDiffOp(3, 1, {((1, 0, 0),): 1})
A = AlgebroidPresentation.tangent(2)
E = ExtensionData(A, AlgebroidForm.zero(2, 2, 2))
lam2 = AlgebroidForm(2, 2, 2, {(1, 2): 1})
qc = QCData(3, 1, [MultiVec.zero(3, 2)], Form.zero(3, 3))


def _bimodule(order):
    """The Moyal plane at `order` twisted by the identity, with zero vector fields."""
    zero = MultiVec.zero(2, 1)
    return BimoduleModel(moyal(pi, order), GaugeOp.identity_gauge(2, order), zero, zero)


CHECKS = [
    # kernel
    ("Poly(float)", lambda: Poly(1, {(1,): 1.5}), TypeError, "expected an exact rational, got float"),
    ("Poly(dim<0)", lambda: Poly(-1), ValueError, "dim must be non-negative"),
    ("Poly(short exps)", lambda: Poly(2, {(1,): 1}), ValueError, "exponent vector (1,) has length != dim=2"),
    ("Poly(negative exps)", lambda: Poly(1, {(-1,): 1}), ValueError, "negative exponent in (-1,)"),
    ("constant_value", lambda: x.constant_value(), ValueError, "polynomial is not constant"),
    ("pow negative", lambda: x ** -1, ValueError, "exponent must be a non-negative integer"),
    ("TPoly(order 0)", lambda: TPoly(0, [x]), ValueError, "truncation order must be >= 1"),
    ("TPoly(short)", lambda: TPoly(1, [x]), ValueError, "need 2 coefficients, got 1"),
    # calculus
    ("MultiVec(degree<0)", lambda: MultiVec(2, -1), DegreeError, "degree -1 is negative"),
    ("MultiVec(short index)", lambda: MultiVec(2, 2, {(1,): 1}), DegreeError,
     "index tuple (1,) has length != degree=2"),
    ("MultiVec(unsorted index)", lambda: MultiVec(2, 2, {(2, 1): 1}), DegreeError,
     "index tuple (2, 1) not strictly increasing"),
    ("as_poly", lambda: d1.as_poly(), DegreeError, "only degree-0 tensors reduce to a polynomial"),
    ("apply_to", lambda: pi.apply_to(x), DegreeError, "only degree-1 multivectors act on functions"),
    ("exterior_d", lambda: exterior_d(d1), TypeError, "exterior_d acts on forms"),
    ("interior field", lambda: interior(dx, dx), DegreeError, "interior product needs a degree-1 multivector"),
    ("interior form", lambda: interior(d1, d1), TypeError, "interior product contracts a form"),
    ("interior dim", lambda: interior(d1, dx3), DimensionMismatchError, "dimensions differ: 2 vs 3"),
    ("lie_derivative field", lambda: lie_derivative(pi, dx), DegreeError,
     "Lie derivative needs a degree-1 multivector"),
    ("lie_derivative dim", lambda: lie_derivative(d1, dx3), DimensionMismatchError, "dimensions differ: 2 vs 3"),
    ("schouten form", lambda: schouten(dx, d1), TypeError, "schouten bracket acts on multivectors"),
    ("schouten dim", lambda: schouten(d1, d1_3), DimensionMismatchError, "dimensions differ: 2 vs 3"),
    ("anchor form", lambda: anchor(pi, d1), DegreeError, "anchor applies to 1-forms"),
    ("anchor dim", lambda: anchor(pi, dx3), DimensionMismatchError, "dimension mismatch in anchor"),
    ("anchor_pullback bivector", lambda: anchor_pullback(d1, dx), DegreeError, "anchor_pullback needs a bivector"),
    ("anchor_pullback dim", lambda: anchor_pullback(pi, dx3), DimensionMismatchError, "dimensions differ: 2 vs 3"),
    # diffop
    ("PolyDiffOp(arity 0)", lambda: PolyDiffOp(2, 0), ArityMismatchError, "arity must be >= 1"),
    ("PolyDiffOp(short orders)", lambda: PolyDiffOp(2, 2, {((1, 0),): 1}), ArityMismatchError,
     "order tuple ((1, 0),) has arity != 2"),
    ("PolyDiffOp(coefficient dim)", lambda: PolyDiffOp(2, 1, {((1, 0),): one3}), DimensionMismatchError,
     "coefficient dimension mismatch"),
    ("apply_op dim", lambda: apply_op(op1, one3), DimensionMismatchError, "argument dimension mismatch"),
    ("compose_into_slot dim", lambda: compose_into_slot(op1, 1, op1_3), DimensionMismatchError,
     "operator dimensions differ"),
    ("transpose", lambda: transpose(op1), ArityMismatchError, "transpose needs arity 2"),
    ("transpose_parts", lambda: transpose_parts(op1), ArityMismatchError, "transpose_parts needs arity 2"),
    ("hochschild_delta", lambda: hochschild_delta(op2), ArityMismatchError, "hochschild_delta needs arity 1"),
    ("solve_coboundary", lambda: solve_coboundary(op1, 2), ArityMismatchError, "solve_coboundary needs arity 2"),
    ("cocycle_defect", lambda: cocycle_defect(op1), ArityMismatchError, "cocycle_defect needs arity 2"),
    ("partial_apply arity", lambda: partial_apply(op1, 1, x), ArityMismatchError, "partial_apply needs arity >= 2"),
    ("partial_apply slot", lambda: partial_apply(op2, 3, x), ArityMismatchError, "slot 3 out of range 1..2"),
    ("partial_apply dim", lambda: partial_apply(op2, 1, one3), DimensionMismatchError,
     "argument dimension mismatch"),
    # liealgebroid
    ("anchor row length", lambda: AlgebroidPresentation(2, 1, [[1]]), DimensionMismatchError,
     "anchor row length != dim"),
    ("anchor entry dim", lambda: AlgebroidPresentation(2, 1, [[one3, 0]]), DimensionMismatchError,
     "anchor entry dimension mismatch"),
    ("anchor rows", lambda: AlgebroidPresentation(1, 2, [[1]]), DimensionMismatchError,
     "anchor must have `rank` rows"),
    ("structure key", lambda: AlgebroidPresentation(1, 2, [[0], [0]], {(2, 1): [0, 0]}), DegreeError,
     "structure key (2,1) must satisfy a < b <= rank"),
    ("structure length", lambda: AlgebroidPresentation(1, 2, [[0], [0]], {(1, 2): [0]}), DimensionMismatchError,
     "structure vector length != rank"),
    ("structure entry dim", lambda: AlgebroidPresentation(1, 2, [[0], [0]], {(1, 2): [x, 0]}),
     DimensionMismatchError, "structure entry dimension mismatch"),
    ("algebroid_d rank", lambda: algebroid_d(A, AlgebroidForm(2, 3, 1)), DimensionMismatchError,
     "form does not match the algebroid presentation"),
    ("from_poisson", lambda: from_poisson(d1), DegreeError, "from_poisson needs a bivector"),
    ("extension twist degree", lambda: ExtensionData(A, AlgebroidForm(2, 2, 1)), DegreeError,
     "extension twist must be a 2-form"),
    ("extension twist rank", lambda: ExtensionData(A, AlgebroidForm(2, 3, 2)), DimensionMismatchError,
     "twist does not match the base presentation"),
    ("extension_curvature", lambda: extension_curvature(E, lam2), DegreeError,
     "splitting datum must be a 1-form on the base frame"),
    ("line_curvature", lambda: line_curvature(A, lam2), DegreeError, "connection datum must be a 1-form"),
    ("unit_shift", lambda: unit_shift(A, lam2, x), DegreeError, "connection datum must be a 1-form"),
    # poisson
    ("bracket", lambda: bracket(d1, x, y), DegreeError, "bracket needs a bivector"),
    ("is_poisson", lambda: is_poisson(d1), DegreeError, "is_poisson needs a bivector"),
    ("hamiltonian dim", lambda: hamiltonian(pi, one3), DimensionMismatchError, "dimension mismatch in hamiltonian"),
    ("koszul_bracket degree", lambda: koszul_bracket(pi, dx, Form.zero(2, 2)), DegreeError,
     "koszul_bracket acts on 1-forms"),
    ("koszul_bracket dim", lambda: koszul_bracket(pi, dx, dx3), DimensionMismatchError,
     "dimension mismatch in koszul_bracket"),
    ("lichnerowicz_d degree", lambda: lichnerowicz_d(d1, d1), DegreeError, "lichnerowicz_d needs a bivector"),
    ("lichnerowicz_d dim", lambda: lichnerowicz_d(pi, d1_3), DimensionMismatchError,
     "dimension mismatch in lichnerowicz_d"),
    # qclimit
    ("QCData(order 0)", lambda: QCData(3, 0, [], Form.zero(3, 3)), OrderMismatchError,
     "truncation order must be >= 1"),
    ("QCData(count)", lambda: QCData(3, 2, [MultiVec.zero(3, 2)], Form.zero(3, 3)), OrderMismatchError,
     "need 2 bivectors pi_1..pi_2"),
    ("QCData(pi degree)", lambda: QCData(3, 1, [d1_3], Form.zero(3, 3)), DegreeError, "pi_k must be bivectors"),
    ("QCData(pi dim)", lambda: QCData(3, 1, [pi], Form.zero(3, 3)), DimensionMismatchError,
     "pi_k dimension mismatch"),
    ("QCData(H degree)", lambda: QCData(3, 1, [MultiVec.zero(3, 2)], Form.zero(3, 2)), DegreeError,
     "H must be a 3-form"),
    ("QCData(H dim)", lambda: QCData(3, 1, [MultiVec.zero(3, 2)], Form.zero(4, 3)), DimensionMismatchError,
     "H dimension mismatch"),
    ("kappa degree", lambda: kappa(qc, dx3), DegreeError, "the curving value B must be a 2-form"),
    ("kappa dim", lambda: kappa(qc, Form.zero(2, 2)), DimensionMismatchError, "B dimension mismatch"),
    # parser
    ("parse_poly", lambda: parse_poly(5, 1), PolyParseError, "expected an expression string (at position 0)"),
    # starprod
    ("GaugeOp.apply", lambda: GaugeOp.identity_gauge(2, 2).apply(TPoly.from_poly(x, 1)), OrderMismatchError,
     "gauge operator and argument disagree"),
    ("star_mul dim", lambda: star_mul(moyal(pi, 1), TPoly.from_poly(x, 1), TPoly.from_poly(one3, 1)),
     DimensionMismatchError, "operand dimensions must match the product"),
    ("moyal", lambda: moyal(d1, 1), DegreeError, "moyal needs a bivector"),
    ("exp_gauge", lambda: exp_gauge(op2, 2), DegreeError, "exp_gauge needs an arity-1 generator"),
    ("sigma1_act", lambda: sigma1_act(Sigma1(moyal(pi, 1), d1), pi), DegreeError,
     "action argument must be a matching vector field"),
    ("ad_exp", lambda: ad_exp(moyal(pi, 2), TPoly.from_poly(x, 1), TPoly.from_poly(y, 2)), OrderMismatchError,
     "operands must match the star product order"),
    ("contravariant_nabla order", lambda: contravariant_nabla(_bimodule(1), x, y), OrderMismatchError,
     "the bimodule connection needs truncation order >= 2"),
    ("contravariant_nabla dim", lambda: contravariant_nabla(_bimodule(2), x, one3), DimensionMismatchError,
     "argument dimension mismatch"),
    ("nabla_curvature order", lambda: nabla_curvature(_bimodule(1)), OrderMismatchError,
     "the bimodule connection needs truncation order >= 2"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_argument_check(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("value, text", [
    (MultiVec(2, 2, {(1, 2): x}), "MultiVec(2, deg=2, {(1, 2): Poly(2, 1*x1)})"),
    (Form.zero(2, 1), "Form(2, deg=1, 0)"),
    (PolyDiffOp(2, 2, {((1, 0), (0, 1)): x, ((1, 0), (0, 0)): Fraction(1, 2), ((0, 1), (1, 0)): 1}),
     "PolyDiffOp(dim=2, arity=2, 3 terms)"),
    (AlgebroidForm(2, 3, 1, {(3,): y}), "AlgebroidForm(dim=2, rank=3, deg=1, {(3,): Poly(2, 1*x2)})"),
    (qc, "QCData(dim=3, order=1)"),
    (TPoly(1, [Poly.one(1), Poly.zero(1)]), "TPoly(order=1, [Poly(1, 1), Poly(1, 0)])"),
], ids=["MultiVec", "zero Form", "PolyDiffOp", "AlgebroidForm", "QCData", "TPoly"])
def test_repr(value, text):
    assert repr(value) == text


def test_check_outcomes_are_their_verdicts():
    # {x3, {x1, x2}} = {x3, x2} = -1 is the jacobiator of x2 d1^d2 + d2^d3
    bad_pi = is_poisson(MultiVec(3, 2, {(1, 2): Poly.variable(3, 2), (2, 3): 1}))
    # sigma(e_2) = x d/dx does not carry [e_1, e_2] = 0 to [d/dx, x d/dx] = d/dx
    bad_algebroid = check_algebroid(AlgebroidPresentation(1, 2, [[1], [Poly.variable(1, 1)]]))
    assert type(bad_pi) is PoissonCheck and type(bad_algebroid) is AlgebroidCheck
    assert (bool(is_poisson(pi)), bool(bad_pi)) == (True, False)
    assert (bool(check_algebroid(A)), bool(bad_algebroid)) == (True, False)
