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
from itertools import combinations
from typing import Optional

from .calculus import (
    Form,
    MultiVec,
    anchor,
    exterior_d,
    interior,
    lie_derivative,
)
from .errors import DegreeError, DimensionMismatchError
from .kernel import Poly
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
    """{f,g} = pi(df, dg) = sum pi^{ij} d_i f d_j g."""
    if pi.degree != 2:
        raise DegreeError("bracket needs a bivector")
    if pi.dim != f.dim or pi.dim != g.dim:
        raise DimensionMismatchError("dimension mismatch in bracket")
    out = Poly.zero(pi.dim)
    for (i, j), c in pi.terms.items():
        out = out + c * (f.partial(i) * g.partial(j) - f.partial(j) * g.partial(i))
    return out


def jacobiator(pi: MultiVec, f: Poly, g: Poly, h: Poly) -> Poly:
    """{f,{g,h}} + {g,{h,f}} + {h,{f,g}}."""
    return (
        bracket(pi, f, bracket(pi, g, h))
        + bracket(pi, g, bracket(pi, h, f))
        + bracket(pi, h, bracket(pi, f, g))
    )


def is_poisson(pi: MultiVec) -> PoissonCheck:
    """Jacobi on all coordinate triples (sufficient: brackets are derivations).

    jacobiator(pi, x_i, x_j, x_k) = sum over the cyclic shifts (a, b, c) of
    (i, j, k) of sum_l pi^{al} d_l pi^{bc}, read off the skew matrix pi^{ab}
    and its partials, each built once.
    """
    if pi.degree != 2:
        raise DegreeError("is_poisson needs a bivector")
    n = pi.dim
    rows = [{} for _ in range(n + 1)]  # rows[a] = {l: pi^{al}}, nonzero entries only
    grads = {}  # grads[a, b] = {l: d_l pi^{ab}}, nonzero partials only
    for (a, b), c in pi.terms.items():
        rows[a][b], rows[b][a] = c, -c
        grad = {l: d for l in range(1, n + 1) if not (d := c.partial(l)).is_zero()}
        grads[a, b], grads[b, a] = grad, {l: -d for l, d in grad.items()}
    for i, j, k in combinations(range(1, n + 1), 3):
        defect = Poly.zero(n)
        for a, pair in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
            grad = grads.get(pair)
            if grad:
                for l, c in rows[a].items():
                    if l in grad:
                        defect = defect + c * grad[l]
        if not defect.is_zero():
            return PoissonCheck(False, (i, j, k), defect)
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
    dA = algebroid_d(from_poisson(pi), AlgebroidForm(n, n, p, A.terms))
    return MultiVec(n, p + 1, dA.terms)
