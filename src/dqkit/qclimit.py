"""Quasi-classical data: the Maurer-Cartan check and the induced 2-vector kappa.

A quasi-classical pair is a formal bivector series pi_t = sum pi_k t^k and a
closed 3-form H subject to [pi_t, pi_t] = pi_t~^3(H); the defect of that
equation is computed order by order.  The triple contraction is normalized as
H(pi~ a, pi~ b, pi~ c) with no combinatorial prefactor; any overall constant
would rescale defects uniformly, and nonzero regression values are pinned to
this convention.  It is -anchor_pullback(pi_t, H), which is trilinear in pi_t,
so its order-m part is

    -sum_{i+j+k=m} sum_J H_J (pi_i~ dx_{j_1}) ^ (pi_j~ dx_{j_2}) ^ (pi_k~ dx_{j_3}).
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import Form, MultiVec, _raised, anchor_pullback, exterior_d, schouten
from .errors import DegreeError, DimensionMismatchError, OrderMismatchError, PreconditionError
from .poisson import lichnerowicz_d


class QCData:
    """A candidate quasi-classical pair (pi_t, H) at truncation order N."""

    __slots__ = ("dim", "order", "pis", "H")

    def __init__(self, dim: int, order: int, pis, H: Form):
        if order < 1:
            raise OrderMismatchError("truncation order must be >= 1")
        pis = list(pis)
        if len(pis) != order:
            raise OrderMismatchError(f"need {order} bivectors pi_1..pi_{order}")
        for p in pis:
            if p.degree != 2:
                raise DegreeError("pi_k must be bivectors")
            if p.dim != dim:
                raise DimensionMismatchError("pi_k dimension mismatch")
        if H.degree != 3:
            raise DegreeError("H must be a 3-form")
        if H.dim != dim:
            raise DimensionMismatchError("H dimension mismatch")
        self.dim = dim
        self.order = order
        self.pis = tuple(pis)
        self.H = H

    def pi(self, k: int) -> MultiVec:
        """pi_k, zero outside 1..N."""
        if 1 <= k <= self.order:
            return self.pis[k - 1]
        return MultiVec.zero(self.dim, 2)

    def __repr__(self):
        return f"QCData(dim={self.dim}, order={self.order})"


def _triple_contraction(Q: QCData, m: int) -> MultiVec:
    """sum_{i+j+k=m} H(pi_i~ ., pi_j~ ., pi_k~ .) as a 3-vector: the order-m part
    of -anchor_pullback(pi_t, H), raised slot by slot through pi_i, pi_j, pi_k."""
    out = MultiVec.zero(Q.dim, 3)
    for i in range(1, m - 1):
        for j in range(1, m - i):
            out = out - _raised(Q.H, [Q.pi(i), Q.pi(j), Q.pi(m - i - j)])
    return out


def mc_defect_order(Q: QCData, m: int) -> MultiVec:
    """The order-m defect of [pi_t, pi_t] = pi_t~^3(H)."""
    n = Q.dim
    acc = MultiVec.zero(n, 3)
    for i in range(1, Q.order + 1):
        j = m - i
        if not 1 <= j <= Q.order:
            continue
        acc = acc + schouten(Q.pi(i), Q.pi(j))
    return acc - _triple_contraction(Q, m)


def mc_defect(Q: QCData):
    """Per-order defects for orders m = 2 .. N+1.

    A non-closed H is rejected before evaluation.  A non-Poisson pi_1 shows up
    as the order-2 defect itself ([pi_1, pi_1] = 2 * jacobiator).
    """
    dH = exterior_d(Q.H)
    if not dH.is_zero():
        raise PreconditionError("H is not closed: dH != 0", witness=dH)
    return [mc_defect_order(Q, m) for m in range(2, Q.order + 2)]


@dataclass(frozen=True)
class KappaResult:
    """kappa together with its emitted closedness certificate d_Pi(kappa)."""

    kappa: MultiVec
    certificate: MultiVec  # lichnerowicz_d(pi_1, kappa); zero when certified

    def certified(self) -> bool:
        return self.certificate.is_zero()


def kappa(Q: QCData, B: Form) -> KappaResult:
    """kappa = pi_1~(B) - pi_2 for a curving B with dB = H.

    Preconditions: dB = H exactly, and the order-3 Maurer-Cartan defect
    vanishes (otherwise closedness is not guaranteed and the computation is
    refused rather than emitting an uncertified kappa).
    """
    if B.degree != 2:
        raise DegreeError("the curving value B must be a 2-form")
    if B.dim != Q.dim:
        raise DimensionMismatchError("B dimension mismatch")
    dB = exterior_d(B)
    diff = dB - Q.H
    if not diff.is_zero():
        raise PreconditionError("dB != H", witness=diff)
    # H = dB exactly, so dH = d(dB) = 0 needs no check of its own
    defect3 = mc_defect_order(Q, 3)
    if not defect3.is_zero():
        raise PreconditionError(
            "order-3 Maurer-Cartan defect is nonzero; kappa closedness not guaranteed",
            witness=defect3,
        )

    k = anchor_pullback(Q.pi(1), B) - Q.pi(2)
    certificate = lichnerowicz_d(Q.pi(1), k)
    return KappaResult(k, certificate)
