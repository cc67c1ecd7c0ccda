"""Polydifferential operators: application, slotwise composition, Hochschild calculus.

Operators are kept in normal form (all derivatives to the right of the
coefficient), so equality is structural: zero defect means an empty term map.
Sampling on polynomials appears only as an independent test oracle.

Every composition, and every sum of compositions (Hochschild coboundaries,
the order-by-order series products of ``starprod``), works on packed keys:

- **Key layout.**  A term c x^e d^beta_1 ... d^beta_k of an operator on R^n
  becomes one int per monomial of its coefficient, with 16-bit fields:
  e_1..e_n first, then slot 1's orders beta_1, then slot 2's, and so on
  (field i at bit 16 i).  An operator becomes ``{key: int numerator}`` over
  one denominator, the lcm of its coefficient denominators.
- **Budget.**  Every exponent and derivative order an operand packs is at
  most ``MAX_PACKED`` = 2^15 - 1.  Every field of a sum of two keys is then
  below 2^16 and never carries into the next.  An operand above the budget
  raises ``BudgetError`` before it is composed: a call packs its inputs
  before any work, and a sum it composes further (the orders of a gauge
  transform, say) when the sum is handed over.
- **Handles.**  A public call packs each operator it composes once, into a
  :class:`_Packed` handle, and passes that handle to every composition that
  uses the operator; the handle keeps the Leibniz expansions and moved keys
  those compositions build.  The call owns its handles: one per operator,
  never shared with another call, dropped when the call returns.  Nothing is
  cached across calls.
- **Sums.**  :class:`_OpAcc` sums compositions as ``{key: int numerator}``
  over one common denominator: each pair of terms is one int add and one int
  multiply-add.  The result gets one normalized ``Poly`` per order tuple that
  survives.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from struct import Struct, error as StructError

from .errors import ArityMismatchError, BudgetError, DimensionMismatchError
from .kernel import Poly, _PolyMap, _add_term, _reduced

_BITS = 16  # width of one packed field
_FIELD = (1 << _BITS) - 1
MAX_PACKED = 2**15 - 1  # the largest exponent or derivative order an operand may pack


def _zero_mi(dim):
    return (0,) * dim


class PolyDiffOp(_PolyMap):
    """Operator in k arguments: (f_1..f_k) -> sum coeff * d^{a_1}f_1 ... d^{a_k}f_k.

    ``terms`` maps k-tuples of multi-indices (each of length dim) to nonzero
    Poly coefficients.

    The public constructor checks and normalizes its input.  Internal code that
    builds a term map which is already clean (keys are ``arity``-tuples of
    length-``dim`` tuples of non-negative ints, values are nonzero ``Poly`` of
    dimension ``dim``) wraps it with :meth:`_make`, which skips those checks and
    takes ownership of the dict.
    """

    __slots__ = ("dim", "arity", "terms")
    _shape = (
        ("dim", DimensionMismatchError, "operator dimensions differ"),
        ("arity", ArityMismatchError, "operator arities differ"),
    )

    def __init__(self, dim: int, arity: int, terms=None):
        if arity < 1:
            raise ArityMismatchError("arity must be >= 1")
        self.dim = dim
        self.arity = arity
        clean = {}
        if terms:
            for orders, coeff in terms.items():
                orders = tuple(tuple(o) for o in orders)
                if len(orders) != arity:
                    raise ArityMismatchError(f"order tuple {orders} has arity != {arity}")
                for o in orders:
                    if len(o) != dim or not all(type(e) is int and e >= 0 for e in o):
                        raise DimensionMismatchError(f"bad multi-index {o} for dim {dim}")
                if isinstance(coeff, (int, Fraction)):
                    coeff = Poly.const(dim, coeff)
                if coeff.dim != dim:
                    raise DimensionMismatchError("coefficient dimension mismatch")
                if not coeff.is_zero():
                    _add_term(clean, orders, coeff)
        self.terms = clean

    @classmethod
    def _make(cls, dim: int, arity: int, terms: dict) -> "PolyDiffOp":
        """Wrap a term map that is clean by construction (see the class docstring)."""
        op = object.__new__(cls)
        op.dim = dim
        op.arity = arity
        op.terms = terms
        return op

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, dim, arity):
        return cls(dim, arity)

    @classmethod
    def identity(cls, dim):
        """The arity-1 identity operator."""
        return cls(dim, 1, {(_zero_mi(dim),): Poly.one(dim)})

    @classmethod
    def multiplication(cls, dim, arity=2):
        """(f_1..f_k) -> f_1 * ... * f_k."""
        return cls(dim, arity, {(_zero_mi(dim),) * arity: Poly.one(dim)})

    @classmethod
    def partial(cls, dim, index):
        """The arity-1 operator d/dx_index."""
        o = [0] * dim
        o[index - 1] = 1
        return cls(dim, 1, {(tuple(o),): Poly.one(dim)})

    def max_order(self):
        """Largest |alpha| over all slots and terms (0 for the zero operator)."""
        best = 0
        for orders in self.terms:
            for o in orders:
                best = max(best, sum(o))
        return best

    def total_order(self):
        """Largest total order (summed over slots) of any term."""
        best = 0
        for orders in self.terms:
            best = max(best, sum(sum(o) for o in orders))
        return best

    def _with_terms(self, terms):
        return PolyDiffOp._make(self.dim, self.arity, terms)

    def __repr__(self):
        return f"PolyDiffOp(dim={self.dim}, arity={self.arity}, {len(self.terms)} terms)"


# ----------------------------------------------------------------------


def apply_op(D: PolyDiffOp, *args: Poly) -> Poly:
    """Exact evaluation on polynomial arguments."""
    if len(args) != D.arity:
        raise ArityMismatchError(f"operator arity {D.arity}, got {len(args)} arguments")
    for f in args:
        if f.dim != D.dim:
            raise DimensionMismatchError("argument dimension mismatch")
    out = Poly.zero(D.dim)
    for orders, coeff in D.terms.items():
        term = coeff
        dead = False
        for o, f in zip(orders, args):
            df = f.partial_multi(o)
            if df.is_zero():
                dead = True
                break
            term = term * df
        if not dead:
            out = out + term
    return out


def _over_budget(top: int) -> BudgetError:
    return BudgetError(
        f"exponent or derivative order {top} is above the packing budget diffop.MAX_PACKED = {MAX_PACKED}"
    )


def _pack(op: PolyDiffOp) -> "_Packed":
    """The handle of `op`, each coefficient over the lcm of their denominators;
    BudgetError if an exponent or order of `op` is above MAX_PACKED."""
    dim = op.dim
    pack_orders = Struct(f"<{dim * op.arity}H").pack
    pack_exps = Struct(f"<{dim}H").pack
    block = _BITS * dim
    den = lcm(*(c._den for c in op.terms.values()))
    terms = {}
    try:
        for orders, c in op.terms.items():
            high = int.from_bytes(pack_orders(*sum(orders, ())), "little") << block
            f = den // c._den
            for e, n in c._num.items():
                terms[int.from_bytes(pack_exps(*e), "little") | high] = n * f
    except StructError:  # a field of 2^16 or more
        raise _over_budget(
            max(max(*sum(orders, ()), *e) for orders, c in op.terms.items() for e in c._num)
        ) from None
    return _Packed(dim, op.arity, terms, den)


def _unpacked(dim: int, arity: int, terms: dict, den: int) -> PolyDiffOp:
    """The operator of a packed term map over `den`: one normalized ``Poly``
    per order tuple, in the order the order tuples first appear."""
    block = _BITS * dim
    low = (1 << block) - 1
    groups = {}
    for k, n in terms.items():
        sub = groups.get(k >> block)
        if sub is None:
            sub = groups[k >> block] = {}
        sub[k & low] = n
    unpack_orders = Struct(f"<{dim * arity}H").unpack
    unpack_exps = Struct(f"<{dim}H").unpack
    orders_bytes, exps_bytes = 2 * dim * arity, 2 * dim
    seen = {}  # packed exponents -> the one tuple for them
    out = {}
    for high, sub in groups.items():
        flat = unpack_orders(high.to_bytes(orders_bytes, "little"))
        num = {}
        for e, n in sub.items():
            exps = seen.get(e)
            if exps is None:
                exps = seen[e] = unpack_exps(e.to_bytes(exps_bytes, "little"))
            num[exps] = n
        out[tuple(flat[i : i + dim] for i in range(0, dim * arity, dim))] = _reduced(dim, num, den)
    return PolyDiffOp._make(dim, arity, out)


class _Packed:
    """One operator packed for composition: the handle the caller of
    :meth:`_OpAcc.add_compose` owns (see the module docstring).

    :func:`_pack` packs an operator and :meth:`_OpAcc.handle` hands over a
    sum without building its operator; both refuse a field above MAX_PACKED.
    ``terms`` maps each packed key to its int numerator over the one positive
    denominator ``den``.  The handle also keeps, filled on first use, the
    Leibniz expansions d^alpha o op by packed alpha (alpha = 0 is ``terms``
    itself), those expansions with op's slots moved to start at a given output
    slot, and op's own terms with one slot taken out and the later slots moved
    up.  All of it is read-only once built, so any number of compositions in
    one call can share it.
    """

    __slots__ = ("dim", "arity", "terms", "den", "_exp", "_moved", "_outer", "_spread")

    def __init__(self, dim: int, arity: int, terms: dict, den: int):
        """Take ownership of a packed term map over `den`."""
        seen = 0  # the or of every key: a field above MAX_PACKED sets its top bit
        for key in terms:
            seen |= key
        width = dim * (arity + 1)
        high = int.from_bytes(b"\x00\x80" * width, "little")
        if seen & high:
            unpack = Struct(f"<{width}H").unpack
            raise _over_budget(max(max(unpack(k.to_bytes(2 * width, "little"))) for k in terms if k & high))
        self.dim, self.arity, self.terms, self.den = dim, arity, terms, den
        self._exp = {0: terms}
        self._moved = {}
        self._outer = {}
        self._spread = {}

    def op(self) -> PolyDiffOp:
        """The operator this handle holds."""
        return _unpacked(self.dim, self.arity, self.terms, self.den)

    def outer_rows(self, slot: int, inner_arity: int) -> list:
        """[(packed alpha, [(key, numerator)])], one row per order tuple: alpha
        is the order in `slot`, and each key has that slot taken out and the
        later slots moved up by inner_arity - 1, the layout of a composition
        with an operator of `inner_arity` arguments."""
        rows = self._outer.get((slot, inner_arity))
        if rows is None:
            block = _BITS * self.dim
            low = block * slot
            head = (1 << low) - 1
            alpha_mask = (1 << block) - 1
            tail = low + block * inner_arity
            by_orders = {}
            for key, n in self.terms.items():
                items = by_orders.get(key >> block)
                if items is None:
                    items = by_orders[key >> block] = []
                items.append(((key & head) | (key >> low + block << tail), n))
            rows = self._outer[slot, inner_arity] = [
                (orders >> low - block & alpha_mask, items) for orders, items in by_orders.items()
            ]
        return rows

    def expansion(self, alpha: int, slot: int):
        """(key, numerator) items of d^alpha o op over ``den``, op's slots moved
        to start at output slot `slot`."""
        got = self._moved.get((alpha, slot))
        if got is None:
            terms = self._expanded(alpha)
            if slot == 1:
                got = terms.items()
            else:
                block = _BITS * self.dim
                low = (1 << block) - 1
                up = block * slot
                got = [((k & low) | (k >> block << up), n) for k, n in terms.items()]
            self._moved[alpha, slot] = got
        return got

    def _expanded(self, alpha: int) -> dict:
        """{key: numerator} of d^alpha o op: d^alpha = d_c^{alpha_c} o d^{alpha'},
        with c the last nonzero coordinate of alpha and alpha' the lower ones."""
        got = self._exp.get(alpha)
        if got is None:
            shift = (alpha.bit_length() - 1) // _BITS * _BITS
            base = self._expanded(alpha & ((1 << shift) - 1))
            got = self._exp[alpha] = self._leibniz_block(base, shift, alpha >> shift)
        return got

    def _leibniz_block(self, base: dict, shift: int, a: int) -> dict:
        """d_c^a o base, for a packed term map `base` and the coordinate c whose
        field sits `shift` bits into each block.

        d_c^a (x^e d^beta_1 f_1 ... d^beta_k f_k) shares a out as g_0 on the
        coefficient and g_s on slot s, with weight a! / (g_0! ... g_k!) times
        perm(e_c, g_0); a share g_0 > e_c is zero and never formed.  Shares
        come in lexicographic order of (g_0, ..., g_k), and equal keys merge.
        """
        combs = [comb(a, g) for g in range(a + 1)]
        spread = self._spread
        out = {}
        get = out.get
        for key, n in base.items():
            e = key >> shift & _FIELD
            w = n
            for g0 in range(min(a, e) + 1):
                if g0:
                    w *= e - g0 + 1  # n * perm(e, g0)
                head = key - (g0 << shift)
                wc = w * combs[g0]
                shares = spread.get((a - g0, shift))
                if shares is None:
                    shares = self._spread_of(a - g0, shift)
                for mult, add in shares:
                    k = head + add
                    v = get(k)
                    if v is None:
                        out[k] = wc * mult
                    else:
                        v += wc * mult
                        if v:
                            out[k] = v
                        else:
                            del out[k]
        return out

    def _spread_of(self, r: int, shift: int) -> list:
        """[(multinomial, packed shares)] over the ways to share r out over the
        slots at the coordinate `shift` bits into a block, in lexicographic
        order of (g_1, ..., g_k)."""
        block = _BITS * self.dim
        units = [1 << block * s + shift for s in range(1, self.arity + 1)]
        got = self._spread[r, shift] = [
            (m, sum(map(mul, gs, units))) for m, gs in _compositions(r, self.arity)
        ]
        return got


def _compositions(total: int, parts: int):
    """(total! / (g_1! ... g_parts!), (g_1, ..., g_parts)) over the ordered ways
    to write `total` as `parts` non-negative ints, in lexicographic order."""
    if parts == 1:
        yield 1, (total,)
        return
    for first in range(total + 1):
        c = comb(total, first)
        for m, rest in _compositions(total - first, parts - 1):
            yield c * m, (first, *rest)


class _OpAcc:
    """A running sum of operators of one dimension over one common denominator.

    ``terms`` maps packed keys (see the module docstring) to nonzero int
    numerators and ``den`` is one positive int, so the sum is
    sum(n x^exps d^orders) / den.  A composition adds one int key sum and one
    int multiply-add per pair of packed terms; a numerator that cancels is
    dropped.  An operand whose denominator does not divide ``den`` first
    rescales every stored numerator once, raising ``den`` to the lcm; ``den``
    at least doubles each time, so that happens at most log2(final den) times.
    Coefficients become ``Poly`` objects only in :meth:`op`, or in the
    handle's ``op()`` after :meth:`handle`.
    """

    __slots__ = ("dim", "terms", "den")

    def __init__(self, dim: int):
        self.dim = dim
        self.terms = {}
        self.den = 1

    def _factor(self, d: int, sign: int) -> int:
        """sign * den / d, after raising ``den`` to a multiple of d."""
        den = self.den
        if den % d:
            f = d // gcd(den, d)
            terms = self.terms
            for k in terms:
                terms[k] *= f
            den = self.den = den * f
        return den // d * sign

    def add_op(self, op: _Packed, sign: int = 1) -> None:
        """Add sign * op."""
        m = self._factor(op.den, sign)
        terms = self.terms
        get = terms.get
        for k, n in op.terms.items():
            v = get(k)
            if v is None:
                terms[k] = n * m
            else:
                v += n * m
                if v:
                    terms[k] = v
                else:
                    del terms[k]

    def add_compose(self, outer: _Packed, slot: int, inner: _Packed, sign: int = 1) -> None:
        """Add sign * compose_into_slot(outer, slot, inner) for two handles; the
        operators must already be checked."""
        m = self._factor(outer.den * inner.den, sign)
        terms = self.terms
        get = terms.get
        for alpha, row in outer.outer_rows(slot, inner.arity):
            expansion = inner.expansion(alpha, slot)
            for k1, n1 in row:
                n1 *= m
                for k2, n2 in expansion:
                    k = k1 + k2
                    v = get(k)
                    if v is None:
                        terms[k] = n1 * n2
                    else:
                        v += n1 * n2
                        if v:
                            terms[k] = v
                        else:
                            del terms[k]

    def op(self, arity: int) -> PolyDiffOp:
        """The sum as an operator of `arity` arguments, one normalized ``Poly``
        per order tuple left nonzero; the accumulator is empty afterwards."""
        terms, den = self.terms, self.den
        self.terms, self.den = {}, 1
        return _unpacked(self.dim, arity, terms, den)

    def handle(self, arity: int) -> _Packed:
        """The sum as the handle of an operator of `arity` arguments, with no
        operator built (``handle.op()`` builds it); the accumulator is empty
        afterwards.  BudgetError if a field of the sum is above MAX_PACKED."""
        terms, den = self.terms, self.den
        self.terms, self.den = {}, 1
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            for k in terms:
                terms[k] //= g
        return _Packed(self.dim, arity, terms, den)


def compose_into_slot(outer: PolyDiffOp, slot: int, inner: PolyDiffOp) -> PolyDiffOp:
    """Plug `inner` into argument slot `slot` (1-based) of `outer`.

    The derivative falling on inner's output is expanded by the multivariate
    Leibniz rule with multinomial coefficients, so the result is again in
    normal form and the identity
    apply(result, args) = apply(outer, ..., apply(inner, middle args), ...)
    holds for all polynomial arguments.  An exponent or order of either
    operand above MAX_PACKED raises BudgetError before any work.
    """
    if not 1 <= slot <= outer.arity:
        raise ArityMismatchError(f"slot {slot} out of range 1..{outer.arity}")
    if outer.dim != inner.dim:
        raise DimensionMismatchError("operator dimensions differ")
    outer_h = _pack(outer)
    inner_h = outer_h if inner is outer else _pack(inner)
    acc = _OpAcc(outer.dim)
    acc.add_compose(outer_h, slot, inner_h)
    return acc.op(outer.arity + inner.arity - 1)


def transpose(P: PolyDiffOp) -> PolyDiffOp:
    """Swap the two argument slots of an arity-2 operator."""
    if P.arity != 2:
        raise ArityMismatchError("transpose needs arity 2")
    return PolyDiffOp._make(P.dim, 2, {(b, a): c for (a, b), c in P.terms.items()})


def transpose_parts(P: PolyDiffOp):
    """Symmetrization and skew-symmetrization: sym + skew = P."""
    if P.arity != 2:
        raise ArityMismatchError("transpose_parts needs arity 2")
    Pt = transpose(P)
    half = Fraction(1, 2)
    sym = (P + Pt).scale(half)
    skew = (P - Pt).scale(half)
    return sym, skew


def hochschild_delta(Q: PolyDiffOp) -> PolyDiffOp:
    """The Hochschild coboundary of an arity-1 operator:
    dQ(f,g) = Q(fg) - Q(f)g - fQ(g), as an exact operator identity."""
    if Q.arity != 1:
        raise ArityMismatchError("hochschild_delta needs arity 1")
    q, m = _pack(Q), _pack(PolyDiffOp.multiplication(Q.dim))
    acc = _OpAcc(Q.dim)
    acc.add_compose(q, 1, m)
    acc.add_compose(m, 1, q, -1)
    acc.add_compose(m, 2, q, -1)
    return acc.op(2)


def cocycle_defect(P: PolyDiffOp) -> PolyDiffOp:
    """The degree-2 Hochschild cocycle condition of an arity-2 operator:
    (f,g,h) -> f P(g,h) - P(fg,h) + P(f,gh) - P(f,g) h."""
    if P.arity != 2:
        raise ArityMismatchError("cocycle_defect needs arity 2")
    p, m = _pack(P), _pack(PolyDiffOp.multiplication(P.dim))
    acc = _OpAcc(P.dim)
    acc.add_compose(m, 2, p)
    acc.add_compose(p, 1, m, -1)
    acc.add_compose(p, 2, m)
    acc.add_compose(m, 1, p, -1)
    return acc.op(3)


def partial_apply(D: PolyDiffOp, slot: int, f: Poly) -> PolyDiffOp:
    """Fill one argument slot with a fixed polynomial (arity drops by one)."""
    if D.arity < 2:
        raise ArityMismatchError("partial_apply needs arity >= 2")
    if not 1 <= slot <= D.arity:
        raise ArityMismatchError(f"slot {slot} out of range 1..{D.arity}")
    if f.dim != D.dim:
        raise DimensionMismatchError("argument dimension mismatch")
    j = slot - 1
    out = {}
    for orders, coeff in D.terms.items():
        df = f.partial_multi(orders[j])
        if df.is_zero():
            continue
        _add_term(out, orders[:j] + orders[j + 1 :], coeff * df)
    return PolyDiffOp._make(D.dim, D.arity - 1, out)


def find_nonzero_args(D: PolyDiffOp):
    """A tuple of monomials on which a nonzero operator evaluates nonzero.

    Take a term whose order tuple alpha is minimal in the componentwise order
    (one of least total order is) and pass x^{alpha_j} in slot j.  Every other
    term has a slot whose derivative kills its argument, so the value is
    c_alpha * prod_j alpha_j!, which is nonzero.
    """
    if D.is_zero():
        return None
    alpha = min(D.terms, key=lambda orders: (sum(map(sum, orders)), orders))
    return tuple(Poly.monomial(D.dim, a) for a in alpha)
