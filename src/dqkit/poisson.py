"""Poisson brackets, the Koszul bracket on 1-forms, and the Lichnerowicz differential.

d_Pi is the Cartan differential of the Koszul algebroid from_poisson(pi): its
p-forms on the frame dx_1..dx_n are the p-vectors, and lichnerowicz_d reads
:func:`~dqkit.liealgebroid.algebroid_d` back as a multivector.

Sign conventions, pinned by the evaluation formulas below and asserted in the
test suite against the Schouten bracket of :mod:`dqkit.calculus`:

    schouten(pi, A) = EPSILON[p] * lichnerowicz_d(pi, A)   (p = A.degree)

with the realized table EPSILON = {0: -1, 1: +1, 2: +1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .calculus import (
    Form,
    MultiVec,
    anchor,
    exterior_d,
    interior,
    lie_derivative,
    wedge,
)
from .errors import DegreeError, DimensionMismatchError
from .kernel import Poly, _alt_flip
from .liealgebroid import AlgebroidForm, algebroid_d, from_poisson

#: Realized sign table relating schouten(pi, .) to lichnerowicz_d(pi, .) per degree.
EPSILON = {0: -1, 1: 1, 2: 1}


@dataclass(frozen=True)
class PoissonCheck:
    """Outcome of a Jacobi verification; carries the first failing witness."""

    ok: bool
    witness: Optional[tuple] = None
    defect: Optional[Poly] = None

    def __bool__(self):
        return self.ok


def bracket(pi: MultiVec, f: Poly, g: Poly) -> Poly:
    """{f,g} = pi(df, dg) = sum pi^{ij} d_i f d_j g, the Hamiltonian field X_f applied to g."""
    if pi.degree != 2:
        raise DegreeError("bracket needs a bivector")
    if pi.dim != f.dim or pi.dim != g.dim:
        raise DimensionMismatchError("dimension mismatch in bracket")
    return hamiltonian(pi, f).apply_to(g)


def jacobiator(pi: MultiVec, f: Poly, g: Poly, h: Poly) -> Poly:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}."""
    return (
        bracket(pi, f, bracket(pi, g, h))
        + bracket(pi, g, bracket(pi, h, f))
        + bracket(pi, h, bracket(pi, f, g))
    )


def is_poisson(pi: MultiVec) -> PoissonCheck:
    """Jacobi on all coordinate triples (sufficient: brackets are derivations).

    The two halves of the odd bracket [pi, pi] (calculus.schouten) agree, so the
    3-vector of the jacobiator(pi, x_i, x_j, x_k) = [pi, pi]^{ijk} / 2 is
    -sum_i dpi/dxi_i ^ d_i pi, over pi's nonzero terms only; its first term in
    key order is the first failing triple in combinations order."""
    if pi.degree != 2:
        raise DegreeError("is_poisson needs a bivector")
    n = pi.dim
    total = sum((wedge(_alt_flip(pi, i, False), d) for i in range(1, n + 1) if not (d := pi.partial(i)).is_zero()),
                MultiVec.zero(n, 3))
    for triple, c in total.terms.items():
        return PoissonCheck(False, triple, -c)
    return PoissonCheck(True)


def hamiltonian(pi: MultiVec, f: Poly) -> MultiVec:
    """The Hamiltonian vector field X_f = pi~(df), so X_f(g) = {f,g}.

    Also realizes d_Pi log on exponential-form units: a unit e^g is carried
    as its logarithm g, and d_Pi log(e^g) := X_g.
    """
    if pi.dim != f.dim:
        raise DimensionMismatchError("dimension mismatch in hamiltonian")
    return anchor(pi, Form.d_of(f))


def koszul_bracket(pi: MultiVec, alpha: Form, beta: Form) -> Form:
    """[alpha, beta]_pi = L_{pi~ alpha} beta - L_{pi~ beta} alpha - d pi(alpha, beta),
    with pi(alpha, beta) = <pi~ alpha, beta> contracted by ``interior``."""
    if not (alpha.degree == 1 and beta.degree == 1):
        raise DegreeError("koszul_bracket acts on 1-forms")
    if pi.dim != alpha.dim or pi.dim != beta.dim:
        raise DimensionMismatchError("dimension mismatch in koszul_bracket")
    pi_alpha = anchor(pi, alpha)
    return (
        lie_derivative(pi_alpha, beta)
        - lie_derivative(anchor(pi, beta), alpha)
        - exterior_d(interior(pi_alpha, beta))
    )


def lichnerowicz_d(pi: MultiVec, A: MultiVec) -> MultiVec:
    """The algebroid differential of the Poisson structure, degree +1.

    Normative per-degree evaluation on exact differentials (f_i ranging over
    coordinates; the output is a multiderivation, so coordinate values
    determine it):

      p = 0:  d f := X_f
      p >= 1: (dA)(df_0..df_p) = sum_i (-1)^i {f_i, A(.. f_i omitted ..)}
              + sum_{i<j} (-1)^{i+j} A(d{f_i,f_j}, .. f_i, f_j omitted ..)

    which reduces to the displayed degree-1 and degree-2 identities.  For p >= 1
    it is the Cartan differential of the Koszul algebroid from_poisson(pi)
    (anchor dx_i -> {x_i, .}, [dx_i, dx_j] = d{x_i, x_j}) on A as a p-form.
    """
    if pi.degree != 2:
        raise DegreeError("lichnerowicz_d needs a bivector")
    if pi.dim != A.dim:
        raise DimensionMismatchError("dimension mismatch in lichnerowicz_d")
    n = pi.dim
    p = A.degree
    if p == 0:
        return hamiltonian(pi, A.as_poly())
    # a p-vector on R^n and a p-form on a rank-n frame have one stored form
    dA = algebroid_d(from_poisson(pi), AlgebroidForm._normal(n, A.arity, A._num, A._den))
    return MultiVec._normal(n, dA.arity, dA._num, dA._den)
