"""Finite presentations of Lie algebroids on free modules.

An algebroid is presented by an anchor matrix and structure functions on a
frame e_1..e_r; brackets of general sections follow from the Leibniz rule.
All sheaf-theoretic locality is dropped: the formulas here are pointwise
algebraic and fully exercised on free presentations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .calculus import MultiVec, _AltTensor, _cartan
from .errors import DegreeError, DimensionMismatchError, PreconditionError
from .kernel import Poly, _as_poly


class AlgebroidForm(_AltTensor):
    """Alternating p-form on the frame of an algebroid, with Poly coefficients.

    Same stored form as :class:`~dqkit.calculus.Form`, but indices refer to
    frame elements (1..rank), not coordinates: the rank is the index bound.
    """

    __slots__ = ()
    index_name = "frame index"

    def __init__(self, dim: int, rank: int, degree: int, terms=None):
        self._read(dim, rank, degree, terms)

    @property
    def rank(self) -> int:
        return self.index_bound

    @classmethod
    def zero(cls, dim, rank, degree):
        return cls(dim, rank, degree)

    @classmethod
    def from_poly(cls, rank: int, p: Poly):
        return cls(p.dim, rank, 0, {(): p})

    # evaluation on a frame index sequence (antisymmetric in the indices)
    value = _AltTensor.coeff

    def __repr__(self):
        return f"AlgebroidForm(dim={self.dim}, rank={self.rank}, deg={self.degree}, {dict(self.terms)!r})"


class AlgebroidPresentation:
    """Anchor matrix and structure functions on a free frame.

    anchor[a][i] is the d_i-component of sigma(e_{a+1}); structure stores
    c_{ab}^k for a < b as vectors of length rank, with [e_a, e_b] =
    sum_k c_{ab}^k e_k extended to general sections by the Leibniz rule.
    For algebroid_d the nonzero entries are also kept sparse: (a, [(i,
    anchor[a-1][i-1])]) per nonzero row, and {k: [(a, b, c_{ab}^k)]}.
    """

    __slots__ = ("dim", "rank", "anchor", "structure", "_anchor_rows", "_brackets")

    def __init__(self, dim: int, rank: int, anchor_rows, structure=None):
        self.dim = dim
        self.rank = rank
        rows = []
        self._anchor_rows = []
        for a, row in enumerate(anchor_rows, start=1):
            row = list(row)
            if len(row) != dim:
                raise DimensionMismatchError("anchor row length != dim")
            row = [_as_poly(dim, p) for p in row]
            for p in row:
                if p.dim != dim:
                    raise DimensionMismatchError("anchor entry dimension mismatch")
            rows.append(tuple(row))
            entries = [(i, p) for i, p in enumerate(row, start=1) if not p.is_zero()]
            if entries:
                self._anchor_rows.append((a, entries))
        if len(rows) != rank:
            raise DimensionMismatchError("anchor must have `rank` rows")
        self.anchor = tuple(rows)
        struct = {}
        self._brackets = {}
        if structure:
            for (a, b), cs in structure.items():
                if not (1 <= a < b <= rank):
                    raise DegreeError(f"structure key ({a},{b}) must satisfy a < b <= rank")
                cs = [_as_poly(dim, p) for p in cs]
                if len(cs) != rank:
                    raise DimensionMismatchError("structure vector length != rank")
                if any(p.dim != dim for p in cs):
                    raise DimensionMismatchError("structure entry dimension mismatch")
                if any(not p.is_zero() for p in cs):
                    struct[(a, b)] = tuple(cs)
                    for k, c in enumerate(cs, start=1):
                        if not c.is_zero():
                            self._brackets.setdefault(k, []).append((a, b, c))
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
    Pairs come first, then triples; the witness is the least failing key (then
    the least i) among the nonzero terms of the d^2 forms, which is the first
    failure in combinations order.
    """
    n, r = A.dim, A.rank
    # d x_i = sum_a sigma_a^i theta^a and d theta^k = -sum_{a<b} c_{ab}^k theta^a theta^b, read off A
    anchor_defects = [
        algebroid_d(A, AlgebroidForm(n, r, 1, {(a,): s for a, row in A._anchor_rows for j, s in row if j == i}))
        for i in range(1, n + 1)
    ]
    failures = [(pair, i) for i, form in enumerate(anchor_defects, start=1) for pair in form.terms]
    if failures:
        pair, i = min(failures)
        return AlgebroidCheck(False, "anchor", pair, (i, anchor_defects[i - 1].terms[pair]))
    jacobi_defects = [
        algebroid_d(A, AlgebroidForm(n, r, 2, {(a, b): -c for a, b, c in A._brackets.get(k, ())}))
        for k in range(1, r + 1)
    ]
    triples = [triple for form in jacobi_defects for triple in form.terms]
    if triples:
        triple = min(triples)
        return AlgebroidCheck(False, "jacobi", triple, tuple(-form.value(triple) for form in jacobi_defects))
    return AlgebroidCheck(True)


def algebroid_d(A: AlgebroidPresentation, omega: AlgebroidForm) -> AlgebroidForm:
    """The Cartan differential of the presentation, summed by calculus._cartan
    over omega's nonzero terms and A's nonzero anchor and structure entries."""
    if omega.rank != A.rank or omega.dim != A.dim:
        raise DimensionMismatchError("form does not match the algebroid presentation")
    return _cartan(omega, A._anchor_rows, A._brackets)


def from_poisson(pi: MultiVec) -> AlgebroidPresentation:
    """The Koszul algebroid of a bivector on the frame e_i = dx_i:
    anchor row i is pi~(dx_i), structure c_{ij}^k = d_k(pi^{ij}).

    Both are read off pi's nonzero terms c dx_i ^ dx_j (i < j): c is entry
    (i, j) of the anchor and -c entry (j, i); the terms are taken in key
    order, so the structure keys come out sorted."""
    if pi.degree != 2:
        raise DegreeError("from_poisson needs a bivector")
    n = pi.dim
    zero = Poly.zero(n)
    rows = [[zero] * n for _ in range(n)]
    structure = {}
    for (i, j), c in pi.terms.items():
        rows[i - 1][j - 1], rows[j - 1][i - 1] = c, -c
        cs = [c.partial(k) for k in range(1, n + 1)]
        if any(not d.is_zero() for d in cs):
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
