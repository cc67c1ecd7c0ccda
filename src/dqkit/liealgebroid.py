"""Finite presentations of Lie algebroids on free modules.

An algebroid is presented by an anchor matrix and structure functions on a
frame e_1..e_r; brackets of general sections follow from the Leibniz rule.
All sheaf-theoretic locality is dropped: the formulas here are pointwise
algebraic and fully exercised on free presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .calculus import Form, MultiVec, _AltTensor, anchor
from .errors import DegreeError, DimensionMismatchError, PreconditionError
from .kernel import Poly


class AlgebroidForm(_AltTensor):
    """Alternating p-form on the frame of an algebroid, with Poly coefficients.

    Same normal form as :class:`~dqkit.calculus.Form`, but indices refer to
    frame elements (1..rank), not coordinates.
    """

    __slots__ = ("rank",)
    index_name = "frame index"

    def __init__(self, dim: int, rank: int, degree: int, terms=None):
        self.rank = rank
        super().__init__(dim, degree, terms)

    @property
    def index_bound(self) -> int:
        return self.rank

    def _like(self, degree: int, terms) -> "AlgebroidForm":
        return AlgebroidForm(self.dim, self.rank, degree, terms)

    @classmethod
    def zero(cls, dim, rank, degree):
        return cls(dim, rank, degree)

    @classmethod
    def from_poly(cls, rank: int, p: Poly):
        return cls(p.dim, rank, 0, {(): p})

    # evaluation on a frame index sequence (antisymmetric in the indices)
    value = _AltTensor.coeff

    def __repr__(self):
        return (
            f"AlgebroidForm(dim={self.dim}, rank={self.rank}, deg={self.degree}, "
            f"{dict(sorted(self.terms.items()))!r})"
        )


class AlgebroidPresentation:
    """Anchor matrix and structure functions on a free frame.

    anchor[a][i] is the d_i-component of sigma(e_{a+1}); structure stores
    c_{ab}^k for a < b as vectors of length rank, with [e_a, e_b] =
    sum_k c_{ab}^k e_k extended to general sections by the Leibniz rule.
    """

    __slots__ = ("dim", "rank", "anchor", "structure")

    def __init__(self, dim: int, rank: int, anchor_rows, structure=None):
        self.dim = dim
        self.rank = rank
        rows = []
        for row in anchor_rows:
            row = list(row)
            if len(row) != dim:
                raise DimensionMismatchError("anchor row length != dim")
            row = [
                Poly.const(dim, p) if isinstance(p, (int, Fraction)) else p for p in row
            ]
            for p in row:
                if p.dim != dim:
                    raise DimensionMismatchError("anchor entry dimension mismatch")
            rows.append(tuple(row))
        if len(rows) != rank:
            raise DimensionMismatchError("anchor must have `rank` rows")
        self.anchor = tuple(rows)
        struct = {}
        if structure:
            for (a, b), cs in structure.items():
                if not (1 <= a < b <= rank):
                    raise DegreeError(f"structure key ({a},{b}) must satisfy a < b <= rank")
                cs = [
                    Poly.const(dim, p) if isinstance(p, (int, Fraction)) else p
                    for p in cs
                ]
                if len(cs) != rank:
                    raise DimensionMismatchError("structure vector length != rank")
                if any(p.dim != dim for p in cs):
                    raise DimensionMismatchError("structure entry dimension mismatch")
                if any(not p.is_zero() for p in cs):
                    struct[(a, b)] = tuple(cs)
        self.structure = struct

    # ------------------------------------------------------------------

    @classmethod
    def tangent(cls, dim: int) -> "AlgebroidPresentation":
        """The tangent algebroid: identity anchor, vanishing bracket."""
        rows = []
        for a in range(dim):
            row = [Poly.zero(dim)] * dim
            row[a] = Poly.one(dim)
            rows.append(row)
        return cls(dim, dim, rows)

    def anchor_apply(self, a: int, f: Poly) -> Poly:
        """sigma(e_a)(f)."""
        out = Poly.zero(self.dim)
        for i, p in enumerate(self.anchor[a - 1], start=1):
            if not p.is_zero():
                out = out + p * f.partial(i)
        return out

    def frame_bracket(self, a: int, b: int):
        """[e_a, e_b] as a coefficient vector of length rank."""
        zero = Poly.zero(self.dim)
        if a == b:
            return tuple([zero] * self.rank)
        if a < b:
            return self.structure.get((a, b), tuple([zero] * self.rank))
        cs = self.structure.get((b, a))
        if cs is None:
            return tuple([zero] * self.rank)
        return tuple(-p for p in cs)


@dataclass(frozen=True)
class AlgebroidCheck:
    """Outcome of check_algebroid, with the first failing pair/triple."""

    ok: bool
    kind: Optional[str] = None  # "anchor" or "jacobi"
    witness: Optional[tuple] = None
    defect: Optional[tuple] = None

    def __bool__(self):
        return self.ok


def check_algebroid(A: AlgebroidPresentation) -> AlgebroidCheck:
    """Verify the Lie algebroid axioms as d_A^2 = 0 (Vaintrob, "Lie algebroids
    and homological vector fields", Russian Math. Surveys 52, 1997).

    On the frame it is enough to test the coordinates x_i and the dual frame
    1-forms theta^k: (d_A^2 x_i)(e_a, e_b) is the i-th component of
    [sigma(e_a), sigma(e_b)] - sigma([e_a, e_b]), and -(d_A^2 theta^k)(e_a,
    e_b, e_c) is the k-th component of the Jacobi total of (e_a, e_b, e_c).
    Pairs are scanned first, then triples, each in combinations order.
    """
    n, r = A.dim, A.rank

    def d_squared(form):
        return algebroid_d(A, algebroid_d(A, form))

    anchor_defects = [
        d_squared(AlgebroidForm.from_poly(r, Poly.variable(n, i))) for i in range(1, n + 1)
    ]
    for pair in combinations(range(1, r + 1), 2):
        for i, form in enumerate(anchor_defects, start=1):
            value = form.value(pair)
            if not value.is_zero():
                return AlgebroidCheck(False, "anchor", pair, (i, value))
    jacobi_defects = [d_squared(AlgebroidForm(n, r, 1, {(k,): 1})) for k in range(1, r + 1)]
    for triple in combinations(range(1, r + 1), 3):
        total = tuple(-form.value(triple) for form in jacobi_defects)
        if not all(t.is_zero() for t in total):
            return AlgebroidCheck(False, "jacobi", triple, total)
    return AlgebroidCheck(True)


def algebroid_d(A: AlgebroidPresentation, omega: AlgebroidForm) -> AlgebroidForm:
    """The Cartan differential, evaluated on the frame:

    (d omega)(b_0..b_p) = sum_i (-1)^i sigma(b_i) omega(.. b_i ..)
                        + sum_{i<j} (-1)^{i+j} omega([b_i,b_j], .. b_i, b_j ..)
    """
    if omega.rank != A.rank or omega.dim != A.dim:
        raise DimensionMismatchError("form does not match the algebroid presentation")
    p = omega.degree
    terms = {}
    for key in combinations(range(1, A.rank + 1), p + 1):
        val = Poly.zero(A.dim)
        for i_pos, a in enumerate(key):
            rest = key[:i_pos] + key[i_pos + 1 :]
            term = A.anchor_apply(a, omega.value(rest))
            if i_pos % 2 == 1:
                term = -term
            val = val + term
        for i_pos in range(len(key)):
            for j_pos in range(i_pos + 1, len(key)):
                a, b = key[i_pos], key[j_pos]
                rest = tuple(k for t, k in enumerate(key) if t not in (i_pos, j_pos))
                cs = A.frame_bracket(a, b)
                term = Poly.zero(A.dim)
                for k in range(1, A.rank + 1):
                    ck = cs[k - 1]
                    if not ck.is_zero():
                        term = term + ck * omega.value((k,) + rest)
                if (i_pos + j_pos) % 2 == 1:
                    term = -term
                val = val + term
        terms[key] = val
    return AlgebroidForm(A.dim, A.rank, p + 1, terms)


def from_poisson(pi: MultiVec) -> AlgebroidPresentation:
    """The Koszul algebroid of a bivector on the frame e_i = dx_i:
    anchor row i is pi~(dx_i), structure c_{ij}^k = d_k(pi^{ij})."""
    if pi.degree != 2:
        raise DegreeError("from_poisson needs a bivector")
    n = pi.dim
    rows = []
    for i in range(1, n + 1):
        v = anchor(pi, Form.basis(n, i))
        rows.append([v.coeff((j,)) for j in range(1, n + 1)])
    structure = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pij = pi.coeff((i, j))
            cs = [pij.partial(k) for k in range(1, n + 1)]
            if any(not c.is_zero() for c in cs):
                structure[(i, j)] = cs
    return AlgebroidPresentation(n, n, rows, structure)


@dataclass(frozen=True)
class ExtensionData:
    """An abelian extension presented by a base algebroid and a closed 2-form
    twist; the central element is the distinguished O-summand."""

    base: AlgebroidPresentation
    twist: AlgebroidForm

    def __post_init__(self):
        if self.twist.degree != 2:
            raise DegreeError("extension twist must be a 2-form")
        if (self.twist.dim, self.twist.rank) != (self.base.dim, self.base.rank):
            raise DimensionMismatchError("twist does not match the base presentation")
        d = algebroid_d(self.base, self.twist)
        if not d.is_zero():
            raise PreconditionError(
                "extension twist is not closed", witness=d
            )


def extension_curvature(E: ExtensionData, lam: AlgebroidForm) -> AlgebroidForm:
    """Curvature of the splitting b -> (lam(b), b) of the extension:

    c(b_1,b_2) = sigma(b_1) lam(b_2) - sigma(b_2) lam(b_1) + twist(b_1,b_2)
               - lam([b_1,b_2])

    computed from the extension bracket
    [(f,b),(g,c)] = (sigma(b)g - sigma(c)f + twist(b,c), [b,c]), i.e. d_B lam + twist.
    """
    A = E.base
    if lam.degree != 1 or (lam.dim, lam.rank) != (A.dim, A.rank):
        raise DegreeError("splitting datum must be a 1-form on the base frame")
    return algebroid_d(A, lam) + E.twist


def line_curvature(A: AlgebroidPresentation, lam: AlgebroidForm) -> AlgebroidForm:
    """Curvature of nabla(b) = sigma(b) + lam(b) on the trivial rank-one
    module: d_B lam."""
    if lam.degree != 1:
        raise DegreeError("connection datum must be a 1-form")
    return algebroid_d(A, lam)


def unit_shift(A: AlgebroidPresentation, lam: AlgebroidForm, g: Poly) -> AlgebroidForm:
    """Change of trivialization by the unit e^g: lam + d_B g."""
    if lam.degree != 1:
        raise DegreeError("connection datum must be a 1-form")
    dg = algebroid_d(A, AlgebroidForm.from_poly(A.rank, g))
    return lam + dg
