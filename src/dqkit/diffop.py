"""Polydifferential operators: application, slotwise composition, Hochschild calculus.

Operators are kept in normal form (all derivatives to the right of the
coefficient), so equality is structural: zero defect means an empty term map.
Sampling on polynomials appears only as an independent test oracle.

Every operator is stored packed, in the exponent-vector packing of Monagan and
Pearce (CASC 2007), and every operation on operators works on its keys:

- **Key layout.**  A term c x^e d^beta_1 ... d^beta_k of an operator on R^n
  is one int per monomial of its coefficient, with 16-bit fields: e_1..e_n
  first (the monomial's ``Poly`` key), then slot 1's orders beta_1, then slot
  2's, and so on (field i at bit 16 i).  ``PolyDiffOp`` is a
  ``kernel._Stored`` of arity k: ``{key: int numerator}`` over one positive
  denominator in normal form, so equal operators have equal maps.
- **Budget.**  Every exponent and derivative order of an operator is at most
  ``MAX_PACKED`` = 2^15 - 1, the ``kernel`` budget, so every field of a sum
  of two keys is below 2^16 and never carries into the next.  An operator
  above the budget raises ``BudgetError`` when it is built: by the
  constructor, the document reader, or the composition, product or slot
  fill whose result it would be.  Only those add fields to form a key, so
  only they check; sums, negation, scaling and ``transpose`` copy keys.
- **Handles.**  A public call makes one :class:`_OpAcc` and passes it
  operators.  The sum wraps each once in a :class:`_Packed` handle, shared
  by every composition in the call, that reads the operator's keys as they
  are and owns only its per-call caches (Leibniz expansions, moved keys and
  outer rows).  The integer tables, which depend on orders and not on the
  operator, belong to the sum's one :class:`_Tables`: the multinomial
  shares per order, coordinate and arity, and the Hochschild split tables
  per order and slot.  Each is built at most once in the call and dropped
  with the sum when the call returns, so nothing is cached across calls.
- **Sums.**  ``kernel._Stored`` owns the stored form of polynomials,
  operators and alternating tensors alike: sums, negation, scaling and
  products by a ``Poly``, each normalized by its one gcd step.
  :class:`_OpAcc` is a ``kernel._Sum`` that also adds compositions and
  Hochschild coboundaries of operators.  Two kernel loops write every sum
  and product and drop the keys that cancel: ``_Sum.add`` and
  ``_add_products``, which the composition (one call per outer row), the
  Leibniz rule (one per coefficient share) and ``_fill`` (one per order
  group) run.  Only ``add_coboundary`` writes the map itself here: each of
  its terms runs the split table of its own order in the slot.
- **Views.**  ``terms`` splits keys into ``{orders tuple: Poly}`` on each
  access; a coefficient keeps its low blocks.  Evaluation builds no such
  view: its one route is ``_fill``, which puts a polynomial into one slot
  with one packed loop per order group, behind ``partial_apply`` and
  ``apply_op`` (slot 1 once per argument, the last fill's arity-0 result
  being the ``Poly``).
- **Who reads keys.**  Only ``kernel``, which packs, decodes, checks and adds
  keys, splits them at the exponent block (``_summed`` and ``_placed`` put
  orders above it, ``_groups`` and ``_coeffs`` take them apart) and keeps
  the index masks of alternating tensors, and this module, which moves the
  order blocks.  Other modules pass operators to one :class:`_OpAcc` per
  call, which sums operators (``add``), compositions (``add_compose``) and
  Hochschild coboundaries (``add_coboundary``); they use
  ``kernel._check_budget`` and ``_Stored._normal`` for a map formed from
  this module's keys, ``kernel._key`` and ``kernel._keys`` (the flat orders
  of one entry, or of all at once), ``kernel._placed`` (an operator's map
  from those keys and its leaves), ``kernel._fields`` and the ``_orders``
  decoder (all of an operator's order keys in one batch) to read and write
  documents, ``solve_coboundary`` for the Hochschild solve, and the
  ``terms`` view for everything else.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from types import MappingProxyType

from .errors import ArityMismatchError, DimensionMismatchError, SolveError
from .kernel import (
    Poly, _BITS, _FIELD, _Stored, _Sum, _add_products, _as_poly, _check_budget, _fields, _key, _struct, _summed,
)


class PolyDiffOp(_Stored):
    """Operator in k arguments: (f_1..f_k) -> sum coeff * d^{a_1}f_1 ... d^{a_k}f_k.

    Stored form: the ``kernel._Stored`` of arity k, keyed as the module
    docstring says.  The public constructor checks and packs ``{orders:
    coefficient}`` (orders a k-tuple of length-dim multi-indices, coefficients
    Poly, int or Fraction).  ``terms`` is a read-only ``{orders: Poly}`` view
    computed on each access.
    """

    __slots__ = ()

    def __init__(self, dim: int, arity: int, terms=None):
        if arity < 1:
            raise ArityMismatchError("arity must be >= 1")
        parts = []
        for orders, coeff in (terms or {}).items():
            orders = tuple(tuple(o) for o in orders)
            if len(orders) != arity:
                raise ArityMismatchError(f"order tuple {orders} has arity != {arity}")
            for o in orders:
                if len(o) != dim or not all(type(e) is int and e >= 0 for e in o):
                    raise DimensionMismatchError(f"bad multi-index {o} for dim {dim}")
            coeff = _as_poly(dim, coeff)
            if coeff.dim != dim:
                raise DimensionMismatchError("coefficient dimension mismatch")
            parts.append((_key(sum(orders, ())), coeff))
        super().__init__(dim, arity, *_summed(dim, parts))

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, dim, arity):
        return cls(dim, arity)

    @classmethod
    def identity(cls, dim):
        """The arity-1 identity operator."""
        return cls.multiplication(dim, 1)

    @classmethod
    def multiplication(cls, dim, arity=2):
        """(f_1..f_k) -> f_1 * ... * f_k."""
        return cls(dim, arity, {((0,) * dim,) * arity: 1})

    @classmethod
    def partial(cls, dim, index):
        """The arity-1 operator d/dx_index."""
        o = [0] * dim
        o[index - 1] = 1
        return cls(dim, 1, {(tuple(o),): 1})

    # ------------------------------------------------------------------
    # views

    def _orders(self, highs):
        """The order tuple of each of the packed orders `highs`, all decoded
        in one pass over their bytes: one multi-index per 2 * dim bytes."""
        width = 2 * self.dim * self.arity
        slots = _struct(self.dim).iter_unpack(b"".join([h.to_bytes(width, "little") for h in highs]))
        return zip(*[slots] * self.arity)

    @property
    def terms(self) -> MappingProxyType:
        """A read-only {orders tuple: Poly} view of the nonzero terms, in the
        order the order tuples first appear, computed on each access."""
        coeffs = self._coeffs()
        return MappingProxyType(dict(zip(self._orders(coeffs), coeffs.values())))

    # ------------------------------------------------------------------
    # the vector space of operators

    def __add__(self, other):
        if type(self) is not type(other):
            raise TypeError(f"mixed kinds: {type(self).__name__} vs {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dimensions differ")
        if self.arity != other.arity:
            raise ArityMismatchError("operator arities differ")
        return self._sum(other)

    def __repr__(self):
        block = _BITS * self.dim
        return f"PolyDiffOp(dim={self.dim}, arity={self.arity}, {len({k >> block for k in self._num})} terms)"


# ----------------------------------------------------------------------


def apply_op(D: PolyDiffOp, *args: Poly) -> Poly:
    """Exact evaluation on polynomial arguments: each fills slot 1 in turn
    (_fill), and the last fill's arity-0 result is the Poly."""
    if len(args) != D.arity:
        raise ArityMismatchError(f"operator arity {D.arity}, got {len(args)} arguments")
    for f in args:
        if f.dim != D.dim:
            raise DimensionMismatchError("argument dimension mismatch")
    for f in args:
        D = _fill(D, 1, f)
    return D


class _Tables:
    """The integer tables that one public call on R^dim reads, each built on
    first use: the multinomial shares of :meth:`shares`, which the Leibniz
    rule reads, the coboundary splits (``_splits``) and their placed tables of
    :meth:`splits`.  The call's one :class:`_OpAcc` owns it, shares it with
    its handles and drops it with them, so no table outlives the call and
    none is built twice in it."""

    __slots__ = ("dim", "_shares", "_splits", "_placed")

    def __init__(self, dim: int):
        self.dim = dim
        self._shares = {}
        self._splits = {}
        self._placed = {}

    def shares(self, r: int, shift: int, arity: int) -> list:
        """[(packed shares, multinomial)] of _shares(r, shift, dim, arity), the
        right side of the Leibniz rule's _add_products, built once per (r,
        shift, arity)."""
        got = self._shares.get((r, shift, arity))
        if got is None:
            got = self._shares[r, shift, arity] = [(k, m) for m, k in _shares(r, shift, self.dim, arity)]
        return got

    def splits(self, a: int, slot: int) -> list:
        """[(key offset, weight)] of the coboundary terms of an order a in
        `slot` (_OpAcc.add_coboundary): _splits(a, dim) placed at output slots
        `slot` and `slot` + 1, each weight times (-1)^slot."""
        got = self._placed.get((a, slot))
        if got is None:
            splits = self._splits.get(a)
            if splits is None:
                splits = self._splits[a] = _splits(a, self.dim)
            up, s = _BITS * self.dim * slot, -1 if slot % 2 else 1
            got = self._placed[a, slot] = [(add << up, s * w) for w, add in splits]
        return got


class _Packed:
    """One operator as one call composes it (see the module docstring).

    ``op`` is the operator, whose packed map and denominator are only read,
    and ``tables`` the table set of the :class:`_OpAcc` that made the handle.
    The handle keeps, filled on first use, the Leibniz expansions d^alpha o op
    by packed alpha (alpha = 0 is op's own map), those expansions with op's
    slots moved to start at a given output slot, and op's terms with one slot
    taken out and the later slots moved up; all read-only once built, so any
    number of compositions in one call share it.
    """

    __slots__ = ("op", "tables", "_exp", "_moved", "_outer")

    def __init__(self, op: PolyDiffOp, tables: _Tables):
        self.op = op
        self.tables = tables
        self._exp = {0: op._num}
        self._moved = {}
        self._outer = {}

    def outer_rows(self, slot: int, inner_arity: int) -> list:
        """[(packed alpha, [(key, numerator)])], one row per order tuple: alpha
        is the order in `slot`, and each key has that slot taken out and the
        later slots moved up by inner_arity - 1, the layout of a composition
        with an operator of `inner_arity` arguments."""
        rows = self._outer.get((slot, inner_arity))
        if rows is None:
            block = _BITS * self.op.dim
            low = block * slot
            head = (1 << low) - 1
            alpha_mask = (1 << block) - 1
            tail = low + block * inner_arity
            by_orders = {}
            for key, n in self.op._num.items():
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
                block = _BITS * self.op.dim
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
        field sits `shift` bits into each block, by the Leibniz rule

            d_c^a (u d^beta_1 f_1 ... d^beta_k f_k)
                = sum_{g_0 <= a} C(a, g_0) (d_c^{g_0} u) (shares of a - g_0 over the slots):

        per g_0, the coefficient part differentiated g_0 times (a term whose
        exponent at c is below g_0 is zero and drops) against the table of
        shares of a - g_0 (_Tables.shares), in one _add_products call."""
        shares, arity = self.tables.shares, self.op.arity
        unit = 1 << shift
        out = {}
        rows = base.items()
        for g0 in range(a + 1):
            if g0:
                rows = [(k - unit, n * e) for k, n in rows if (e := k >> shift & _FIELD)]
                if not rows:
                    break
            _add_products(out, rows, shares(a - g0, shift, arity), comb(a, g0))
        return out


def _shares(r: int, shift: int, dim: int, arity: int) -> list:
    """[(r! / (g_1! ... g_arity!), packed shares)] over the ordered ways to
    write r = g_1 + ... + g_arity as non-negative ints, in lexicographic order
    of (g_1, ..., g_arity): the ways to share an order r out over the slots of
    an operator of `arity` arguments on R^dim, with g_s in slot s's field at
    the coordinate `shift` bits into a block.  The multinomial is built as
    C(r, g_1) C(r - g_1, g_2) ..., slot by slot.  Only _Tables.shares reads
    it, once per (r, shift, arity) in a call."""
    block = _BITS * dim
    got = [(1, 0, r)]  # (multinomial, shares, what is left to share) so far
    for s in range(1, arity):
        unit = 1 << block * s + shift
        got = [(m * comb(left, g), k + g * unit, left - g) for m, k, left in got for g in range(left + 1)]
    unit = 1 << block * arity + shift
    return [(m, k + left * unit) for m, k, left in got]


def _splits(a: int, dim: int) -> list:
    """[(weight, a' | a'' << 16 dim)] of the terms that an order a in one slot
    gives in a Hochschild coboundary, before the sign (-1)^i (see
    _OpAcc.add_coboundary): C(a, a') over a' <= a with 0 != a' != a and
    a'' = a - a', in the order of product(range(a_1 + 1), ...); for a = 0, the
    one term -1 with both slots zero.  Only _Tables.splits reads it, once
    per a in a call, and places it at each slot."""
    if not a:
        return [(-1, 0)]
    got = [(1, 0)]
    rest, unit = a, 1  # the fields of a from coordinate c on, and 1 at c's field
    while rest:
        ac = rest & _FIELD
        if ac:
            got = [(w * comb(ac, g), k + g * unit) for w, k in got for g in range(ac + 1)]
        rest >>= _BITS
        unit <<= _BITS
    block = _BITS * dim
    return [(w, k | a - k << block) for w, k in got[1:-1]]


class _OpAcc(_Sum):
    """The one composition sum of a public call (kernel._Sum over packed
    keys), owning the call's :class:`_Tables` and a :class:`_Packed` handle
    per operator; both outlive :meth:`op`, so one sum serves every order.  A
    composition runs kernel._add_products once per row of the outer
    operator; a coboundary adds one key sum and one multiply-add per proper
    split of each term's slots, dropping a numerator that cancels.
    """

    __slots__ = ("dim", "tables", "_handles")

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.tables = _Tables(dim)
        self._handles = {}

    def packed(self, op: PolyDiffOp) -> _Packed:
        """op's handle, made on its first use in this sum.  It is keyed by
        ``id(op)``, which no other operator takes while the handle holds op."""
        got = self._handles.get(id(op))
        if got is None:
            got = self._handles[id(op)] = _Packed(op, self.tables)
        return got

    def add_compose(self, outer: PolyDiffOp, slot: int, inner: PolyDiffOp, sign: int = 1) -> None:
        """Add sign * compose_into_slot(outer, slot, inner); the operators must
        already be checked."""
        outer, inner = self.packed(outer), self.packed(inner)
        m = self._factor(outer.op._den * inner.op._den, sign)
        for alpha, row in outer.outer_rows(slot, inner.op.arity):
            _add_products(self.terms, row, inner.expansion(alpha, slot), m)

    def add_coboundary(self, D: PolyDiffOp, sign: int = 1) -> None:
        """Add sign * delta(D), the Hochschild coboundary of an operator of any
        arity p, in closed form:

            delta(D) = sum_{i=1..p} (-1)^i [ sum_{a_i = a' + a'', a' != 0 != a''}
                       C(a_i, a') (..., a', a'', ...) - [a_i = 0] (..., 0, 0, ...) ]

        for each term of D with orders (a_1, ..., a_p): slot i's order is split
        over output slots i and i+1, and the later slots move up.  The improper
        splits (a' or a'' zero) cancel against the neighbouring terms and the two
        products with f_0 and f_p, so they are never formed; a zero slot, whose
        one split is improper, leaves the (..., 0, 0, ...) term.  Slot by slot,
        the terms of one order a_i share one table of (key offset, weight)
        (_Tables.splits), and each term, its slot i taken out and the later
        slots moved up, adds one key and multiplies one numerator per entry;
        sums come slot by slot, in the order of D's terms, each in its table's
        order.  starprod adds the P_0 = multiplication terms of associativity
        defects (-delta(P_k)) and of gauge transforms (delta(R_k)) through it.
        """
        block = _BITS * D.dim
        low = (1 << block) - 1
        m = self._factor(D._den, sign)
        items = [(k, n * m) for k, n in D._num.items()]
        tables = self.tables
        terms = self.terms
        get = terms.get
        for i in range(1, D.arity + 1):
            cut = block * i  # slot i's field block within a key
            head = (1 << cut) - 1
            by_a = {}  # a_i -> its table, looked up once per order in this slot
            for key, n in items:
                a = key >> cut & low
                table = by_a.get(a)
                if table is None:
                    table = by_a[a] = tables.splits(a, i)
                moved = key & head | key >> cut + block << cut + 2 * block
                # each term runs the table of its own order, so this loop writes
                # the map itself: grouping the terms by order to share
                # kernel._add_products costs more than it saves
                for add, w in table:
                    k = moved + add
                    v = get(k)
                    if v is None:
                        terms[k] = n * w
                    else:
                        v += n * w
                        if v:
                            terms[k] = v
                        else:
                            del terms[k]

    def op(self, arity: int) -> PolyDiffOp:
        """The sum as an operator of `arity` arguments, its map handed over as it
        is; BudgetError if a field is above MAX_PACKED.  The sum is empty
        afterwards and keeps its tables and handles for the call's next order."""
        terms, den = self.terms, self.den
        self.terms, self.den = {}, 1
        _check_budget(terms, self.dim * (arity + 1))
        return PolyDiffOp._normal(self.dim, arity, terms, den)


def compose_into_slot(outer: PolyDiffOp, slot: int, inner: PolyDiffOp) -> PolyDiffOp:
    """Plug `inner` into argument slot `slot` (1-based) of `outer`.

    The derivative falling on inner's output is expanded by the multivariate
    Leibniz rule with multinomial coefficients, so the result is again in
    normal form and the identity
    apply(result, args) = apply(outer, ..., apply(inner, middle args), ...)
    holds for all polynomial arguments.  A result with an exponent or order
    above MAX_PACKED raises BudgetError.
    """
    if not 1 <= slot <= outer.arity:
        raise ArityMismatchError(f"slot {slot} out of range 1..{outer.arity}")
    if outer.dim != inner.dim:
        raise DimensionMismatchError("operator dimensions differ")
    acc = _OpAcc(outer.dim)
    acc.add_compose(outer, slot, inner)
    return acc.op(outer.arity + inner.arity - 1)


def transpose(P: PolyDiffOp) -> PolyDiffOp:
    """Swap the two argument slots of an arity-2 operator: the two order blocks
    of every key trade places."""
    if P.arity != 2:
        raise ArityMismatchError("transpose needs arity 2")
    block = _BITS * P.dim
    low = (1 << block) - 1
    swapped = {
        (k & low) | ((k >> block & low) << 2 * block) | (k >> 2 * block << block): n
        for k, n in P._num.items()
    }
    return PolyDiffOp._make(P.dim, 2, swapped, P._den)


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
    """The Hochschild coboundary of an arity-1 operator, with the sign of
    gauge transforms: dQ(f,g) = Q(fg) - Q(f)g - fQ(g) = -delta(Q), as an exact
    operator identity.  In closed form (_OpAcc.add_coboundary), each term
    x^e d^a gives x^e sum_{0 < a' < a} C(a, a') d^a' (x) d^(a - a'), and a term
    x^e of order 0 gives -x^e (f (x) g)."""
    if Q.arity != 1:
        raise ArityMismatchError("hochschild_delta needs arity 1")
    acc = _OpAcc(Q.dim)
    acc.add_coboundary(Q, -1)
    return acc.op(2)


def _pivot(key: int, n: int):
    """(Q's key of x^e d^alpha, c) when `key`, the packed key of a term
    x^e (d^beta (x) d^gamma) of an arity-2 operator on R^n, is the row that
    fixes the unknown x^e d^alpha, alpha = beta + gamma, of solve_coboundary's
    system, and c that term's coefficient in delta(x^e d^alpha); None for any
    other row.

    delta(x^e) = -x^e (f (x) g), and for |alpha| >= 2 the row is beta = e_i,
    with i the last index where alpha_i > 0, in

        delta(x^e d^alpha) = x^e sum_{0 < beta < alpha} C(alpha, beta) d^beta (x) d^(alpha - beta).

    A derivation (|alpha| = 1) has no row: its delta is zero.
    """
    block = _BITS * n
    beta, gamma = key >> block & (1 << block) - 1, key >> 2 * block
    alpha = beta + gamma
    # e_i packs as the lowest bit of alpha's top field
    shift = max(alpha.bit_length() - 1, 0) // _BITS * _BITS
    if alpha and (beta != 1 << shift or not gamma):
        return None
    return key & (1 << block) - 1 | alpha << block, alpha >> shift or -1


def solve_coboundary(sym: PolyDiffOp, degree_bound: int) -> PolyDiffOp:
    """The arity-1 Q with delta Q = sym, over operators x^e d^alpha with
    polynomial coefficient degree |e| <= degree_bound.

    The system is block-diagonal: the rows of x^e d^alpha are the terms
    ((beta, alpha - beta), e), and beta + (alpha - beta) gives back alpha, so
    no two unknowns share a row.  Each unknown is read off its row, named by
    _pivot: the coefficient of x^e d^alpha in Q is t / c, where t is sym's
    entry on that row.  One pass over sym's keys finds them, so the work is
    set by those terms and not by the bound.  Every other row is checked at
    once: SolveError carries the residual sym - delta Q when it is not zero.
    """
    if sym.arity != 2:
        raise ArityMismatchError("solve_coboundary needs arity 2")
    n = sym.dim
    block = _BITS * n
    low = (1 << block) - 1
    picks = {}  # Q's key of x^e d^alpha -> (t, c)
    for key, t in sym._num.items():
        pivot = _pivot(key, n)
        if pivot is None:
            continue  # no unknown is read off this row; the residual checks it
        if sum(_fields(key & low, n)) <= degree_bound:
            picks[pivot[0]] = t, pivot[1]
    # alpha and e in sorted order, so Q's storage order does not depend on sym's
    order = sorted(picks, key=lambda k: (_fields(k >> block, n), _fields(k & low, n)))
    top = lcm(*(c for _, c in picks.values()))  # every c divides it
    num = {}
    for k in order:
        t, c = picks[k]
        num[k] = t * (top // c)
    # alpha = beta + gamma adds two order fields, which may pass the budget
    _check_budget(num, 2 * n)
    Q = PolyDiffOp._normal(n, 1, num, sym._den * top)
    residual = sym - hochschild_delta(Q)
    if not residual.is_zero():
        raise SolveError("no Hochschild coboundary solution within bounds", residual=residual)
    return Q


def cocycle_defect(P: PolyDiffOp) -> PolyDiffOp:
    """The degree-2 Hochschild cocycle condition of an arity-2 operator:
    delta(P)(f,g,h) = f P(g,h) - P(fg,h) + P(f,gh) - P(f,g) h.  In closed form
    (_OpAcc.add_coboundary), a term of orders (a_1, a_2) gives minus the proper
    splits of a_1 over slots 1, 2 and plus those of a_2 over slots 2, 3; a zero
    a_1 gives +(0, 0, a_2) and a zero a_2 gives -(a_1, 0, 0)."""
    if P.arity != 2:
        raise ArityMismatchError("cocycle_defect needs arity 2")
    acc = _OpAcc(P.dim)
    acc.add_coboundary(P)
    return acc.op(3)


def partial_apply(D: PolyDiffOp, slot: int, f: Poly) -> PolyDiffOp:
    """Fill one argument slot with a fixed polynomial (arity drops by one)."""
    if D.arity < 2:
        raise ArityMismatchError("partial_apply needs arity >= 2")
    if not 1 <= slot <= D.arity:
        raise ArityMismatchError(f"slot {slot} out of range 1..{D.arity}")
    if f.dim != D.dim:
        raise DimensionMismatchError("argument dimension mismatch")
    return _fill(D, slot, f)


def _fill(D: PolyDiffOp, slot: int, f: Poly):
    """D with argument `slot` filled by f, both checked: per order group, each
    coefficient key adds each key of d^(slot's orders) f and the later slots
    move down.  An arity-1 D gives the Poly."""
    dim = D.dim
    block = _BITS * dim
    cut = block * (slot - 1)  # the slot's field block within packed orders
    low = (1 << block) - 1
    out = {}
    for high, sub in D._groups().items():
        df = f.partial_multi(_fields(high >> cut & low, dim))
        s = f._den // df._den  # df over f's denominator
        # the slot taken out and the later slots moved down, folded into df's keys
        rest = ((high & (1 << cut) - 1) | (high >> cut + block << cut)) << block
        _add_products(out, sub.items(), [(e | rest, m * s) for e, m in df._num.items()])
    _check_budget(out, dim * D.arity)
    return (PolyDiffOp if D.arity > 1 else Poly)._normal(dim, D.arity - 1, out, D._den * f._den)


def find_nonzero_args(D: PolyDiffOp):
    """A tuple of monomials on which a nonzero operator evaluates nonzero.

    Take a term whose order tuple alpha is minimal in the componentwise order
    (one of least total order is) and pass x^{alpha_j} in slot j.  Every other
    term has a slot whose derivative kills its argument, so the value is
    c_alpha * prod_j alpha_j!, which is nonzero.
    """
    if D.is_zero():
        return None
    alpha = min(D._orders(D._groups()), key=lambda orders: (sum(map(sum, orders)), orders))
    return tuple(Poly.monomial(D.dim, a) for a in alpha)
