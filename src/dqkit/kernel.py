"""Exact coefficient arithmetic: rationals, sparse polynomials, truncated t-series.

Everything downstream (forms, multivectors, operators, star products) stores
its coefficients as :class:`Poly`.  All values are immutable by convention and
all operations are pure, so concurrent use needs no coordination.

The stored form has one owner, :class:`_Stored`, and three kinds: a
``Poly`` (arity 0), a ``diffop`` operator (order blocks above the exponent
block of each key) and a ``calculus`` multivector or form (the index mask of
each term above it).  It is int numerators at packed keys over one positive
denominator, normalized by one ``math.gcd``, so structural equality and
``hash`` are equality of values and no ``Fraction`` arithmetic runs inside
the kernel.  ``Fraction`` appears only at the API edge: the public
constructor, ``items``, ``sorted_terms``, ``constant_value`` and the
read-only ``terms`` view.  Two loops write every sparse sum and product,
each dropping a key whose sum cancels: ``_Sum.add``, the one scaled sum of
a stored value over a running common denominator, its keys moved up by a
high part (``_Stored._sum`` and ``_summed``'s (high, ``Poly``) parts run
it, behind the constructors, the readers and ``diffop._OpAcc``), and
``_add_products``, the one multiply-add over two lists of (key, numerator),
behind ``_times`` and ``diffop``'s composition, Leibniz rule and slot fill.
Three loops write a map themselves, each saying why: ``_Sum.add_term``
adds one term, ``diffop._OpAcc.add_coboundary`` runs each term's own split
table, and ``starprod.moyal`` keeps a cancelled key's place; ``_placed``,
the map of an operator payload, places the terms of distinct orders, which
share no key, in one comprehension, and sums repeated orders through
``_summed``.  The kernel
also owns two small facts every module shares: ``_as_poly``, the one
coercion of an int or ``Fraction`` to a constant ``Poly``, and ``_mono``,
the one text of a monomial (``repr`` and the parser's canonical output
both write it).

Exponents are packed as in Monagan and Pearce (CASC 2007): x^e on R^n is one
int, e_i in the 16-bit field at bit 16 (i - 1), so a product adds keys and a
derivative subtracts them.  Every exponent is at most ``MAX_PACKED`` = 2^15 - 1:
no field of a sum of two keys carries, and its top bit is set exactly above
the budget.  ``_key``, ``_fields`` and ``_check_budget`` pack, decode and
check keys of any number of fields; the budget is checked (``BudgetError``)
by the constructors and wherever fields are added to form a key, never where
keys are only copied.  Keys are decoded only at the API edge; ``diffop`` puts
order blocks above them, and its ``_fill`` is the one evaluation route: it
fills an operator's slots one at a time, and the last fill gives the ``Poly``.
The index masks of alternating tensors are read and written here only:
``_mask`` and ``_indices`` convert them, and ``_alt_flip``, multiplication
by one odd generator or the derivative by it, is the one operation on them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import chain, repeat
from math import gcd, lcm, perm
from operator import itemgetter, or_
from struct import Struct, error as StructError
from types import MappingProxyType

from .errors import BudgetError, DimensionMismatchError, IndexRangeError, OrderMismatchError

_BITS = 16  # width of one packed field
_FIELD = (1 << _BITS) - 1
MAX_PACKED = 2**15 - 1  # the largest exponent or derivative order a key may hold

_struct = cache(lambda fields: Struct(f"<{fields}H"))
_second = itemgetter(1)


@cache
def _packer(fields: int) -> tuple:
    """(pack, top bits) for keys of `fields` fields: a key within the budget,
    or the sum of two, has a top bit set exactly where a field is above MAX_PACKED."""
    return _struct(fields).pack, int.from_bytes(b"\x00\x80" * fields, "little")


def _over_budget(top: int) -> BudgetError:
    # a value of more than about 20 digits is named by its bit length
    shown = top if top.bit_length() <= 64 else f"of {top.bit_length()} bits"
    return BudgetError(
        f"exponent or derivative order {shown} is above the packing budget kernel.MAX_PACKED = {MAX_PACKED}"
    )


def _key(fields) -> int:
    """The packed int of a sequence of non-negative ints, field i at bit 16 i;
    BudgetError if one is above MAX_PACKED."""
    pack, top = _packer(len(fields))
    try:
        key = int.from_bytes(pack(*fields), "little")
    except StructError:  # a field of 2^16 or more
        key = top
    if key & top:
        raise _over_budget(max(fields))
    return key


def _fields(key: int, count: int) -> tuple:
    """The first `count` fields of a packed int (the inverse of _key)."""
    return _struct(count).unpack(key.to_bytes(2 * count, "little"))


def _check_budget(num: dict, width: int) -> None:
    """BudgetError if the low `width` fields of a key of `num`, each within the
    budget or the sum of two, have a field above MAX_PACKED; fields above them
    are not read."""
    if num:
        top = _packer(width)[1]
        if reduce(or_, num) & top:
            low = (1 << _BITS * width) - 1
            raise _over_budget(max(max(_fields(k & low, width)) for k in num if k & top))


def _ratio(value) -> tuple:
    """(numerator, positive denominator) in lowest terms of an int or Fraction."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def grlex_key(exponents):
    """Sort key for graded-lexicographic term order (ascending)."""
    return (sum(exponents), exponents)


def _mono(exps) -> str:
    """The monomial x^exps as text, "" for x^0."""
    return "*".join(
        f"x{i}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(exps, start=1)
        if e > 0
    )


class _Stored:
    """Int numerators at packed keys over one positive denominator, in three
    kinds: a ``Poly`` (arity 0, keys of ``dim`` fields), a ``diffop.PolyDiffOp``
    of ``arity`` arguments (keys of ``dim * (arity + 1)`` fields, the exponents
    lowest) and a ``calculus`` alternating tensor, whose ``arity`` is its shape
    (degree, index bound) and whose keys hold each term's index set as a mask
    above the exponent block, bit i - 1 for index i.

    ``_num`` maps keys to nonzero ``int`` numerators over ``_den``, with
    ``gcd(_den, *_num.values()) == 1``, ``_den == 1`` when ``_num`` is empty
    and no field above ``MAX_PACKED``; so equality of ``(dim, arity, _den,
    _num)``, and ``hash``, is equality of values.  ``__init__`` is the one
    normalizing step and owns the map it is given; ``_normal`` runs it past
    the subclasses' argument checks, and ``_make`` wraps a form already normal.
    The keys above the exponent block group the terms: ``_groups`` and
    ``_coeffs`` give each group's exponents and ``Poly``.
    """

    __slots__ = ("dim", "arity", "_num", "_den")

    def __init__(self, dim: int, arity, num: dict, den: int):
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                for k in num:
                    num[k] //= g
        self.dim = dim
        self.arity = arity
        self._num = num
        self._den = den

    @classmethod
    def _normal(cls, dim: int, arity, num: dict, den: int):
        """The normalized value of nonzero int numerators over den > 0, owning `num`."""
        s = object.__new__(cls)
        _Stored.__init__(s, dim, arity, num, den)
        return s

    @classmethod
    def _make(cls, dim: int, arity, num: dict, den: int):
        """Wrap a stored form that is already normal, owning `num`."""
        s = object.__new__(cls)
        s.dim = dim
        s.arity = arity
        s._num = num
        s._den = den
        return s

    def is_zero(self) -> bool:
        return not self._num

    def __neg__(self):
        return self._make(self.dim, self.arity, {k: -n for k, n in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def _sum(self, other):
        """self + other, of one kind, dim and arity already checked, over the
        lcm of the denominators: self's keys in order, then other's new keys,
        a key whose sum cancels dropped (``_Sum.add`` from a copy of self)."""
        acc = _Sum(self._num.copy(), self._den)
        acc.add(other)
        return self._normal(self.dim, self.arity, acc.terms, acc.den)

    def _scaled(self, p: int, d: int):
        """self * (p / d) for a rational p / d in lowest terms, d > 0."""
        num = {k: n * p for k, n in self._num.items()} if p else {}
        return self._normal(self.dim, self.arity, num, self._den * d)

    def _times(self, f: "Poly"):
        """self * f for a Poly f of the same dim: each key adds f's exponents to
        its own; BudgetError if an exponent of the result is above MAX_PACKED."""
        out = {}
        _add_products(out, self._num.items(), f._num.items())
        # only the exponent block grows, and its top exponent in each variable
        # never cancels, so one check of that block of the result suffices
        _check_budget(out, self.dim)
        return self._normal(self.dim, self.arity, out, self._den * f._den)

    def scale(self, factor):
        """Multiply every coefficient by a Poly of the same dim or a rational."""
        if not isinstance(factor, Poly):
            return self._scaled(*_ratio(factor))
        if factor.dim != self.dim:
            raise DimensionMismatchError(f"polynomial dimensions differ: {self.dim} vs {factor.dim}")
        return self._times(factor)

    def partial(self, index: int):
        """Formal partial derivative of every coefficient with respect to x_index (1-based)."""
        if not 1 <= index <= self.dim:
            raise IndexRangeError(f"coordinate index {index} out of range 1..{self.dim}")
        shift = _BITS * (index - 1)
        unit = 1 << shift
        out = {}
        for key, coeff in self._num.items():
            k = key >> shift & _FIELD
            if k:
                # lowering one exponent is injective, so no two terms collide
                out[key - unit] = coeff * k
        return self._normal(self.dim, self.arity, out, self._den)

    def _groups(self) -> dict:
        """{key above the exponent block: {packed exponents: numerator}}, in order of first appearance."""
        block = _BITS * self.dim
        low = (1 << block) - 1
        groups = {}
        for k, n in self._num.items():
            sub = groups.get(k >> block)
            if sub is None:
                sub = groups[k >> block] = {}
            sub[k & low] = n
        return groups

    def _coeffs(self) -> dict:
        """{key above the exponent block: Poly}, one normalized Poly per group, as :meth:`_groups` orders them."""
        return {high: Poly._normal(self.dim, 0, sub, self._den) for high, sub in self._groups().items()}

    def __eq__(self, other):
        if type(other) is type(self):
            return (self.dim == other.dim and self.arity == other.arity
                    and self._den == other._den and self._num == other._num)
        if self.arity or not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, d = _ratio(other)  # a polynomial equals a constant
        return self._den == d and self._num == ({0: p} if p else {})

    def __hash__(self):
        return hash((self.dim, self.arity, self._den, frozenset(self._num.items())))


class Poly(_Stored):
    """Sparse multivariate polynomial over the rationals: the arity-0
    :class:`_Stored`, ``_num`` keyed by ``_key`` of length-``dim`` exponent
    tuples, so the polynomial is ``sum(n * x^e) / _den``.

    Callers read a polynomial through ``items()``, ``exponents()``,
    ``sorted_terms()``, ``sorted_numerators()`` and the queries below.
    ``terms`` is a computed, read-only ``{exps: Fraction}`` view built on each
    access; it is kept for tests and outside tools, and no library path reads it.

    The public constructor checks its input and packs it once (BudgetError
    above ``MAX_PACKED``).
    """

    __slots__ = ()

    def __init__(self, dim: int, terms=None):
        if dim < 0:
            raise ValueError("dim must be non-negative")
        acc = _Sum()
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != dim:
                    raise ValueError(f"exponent vector {exps} has length != dim={dim}")
                for e in exps:
                    # an int and not a bool (nor any other int subclass)
                    if type(e) is not int:
                        raise ValueError(f"exponent {e!r} in {exps} is not an integer")
                    if e < 0:
                        raise ValueError(f"negative exponent in {exps}")
                acc.add_term(_key(exps), *_ratio(coeff))
        super().__init__(dim, 0, acc.terms, acc.den)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls._make(dim, 0, {}, 1)

    @classmethod
    def const(cls, dim: int, value) -> "Poly":
        p, d = _ratio(value)
        return cls._make(dim, 0, {0: p} if p else {}, d)

    @classmethod
    def one(cls, dim: int) -> "Poly":
        return cls._make(dim, 0, {0: 1}, 1)

    @classmethod
    def variable(cls, dim: int, index: int) -> "Poly":
        """Coordinate x_index, 1-based."""
        if type(index) is not int or not 1 <= index <= dim:
            raise ValueError(f"coordinate index {index!r} out of range 1..{dim}")
        return cls._make(dim, 0, {1 << _BITS * (index - 1): 1}, 1)

    @classmethod
    def monomial(cls, dim: int, exps, coeff=1) -> "Poly":
        return cls(dim, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # queries

    def is_constant(self) -> bool:
        return not any(self._num)  # x^0 is the key 0

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero for the zero poly)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._num.get(0, 0), self._den)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(map(sum, self.exponents()))

    def term_count(self) -> int:
        return len(self._num)

    def exponents(self):
        """Iterator over the exponent tuples of the nonzero terms, in storage order."""
        return (_fields(k, self.dim) for k in self._num)

    def items(self):
        """Iterator over (exponent tuple, Fraction coefficient), in storage order."""
        return ((_fields(k, self.dim), Fraction(n, self._den)) for k, n in self._num.items())

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical emission order)."""
        return sorted(self.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def sorted_numerators(self):
        """(den, [(exps, numerator)] in descending graded-lex order); the
        polynomial is sum(numerator * x^exps) / den."""
        terms = ((_fields(k, self.dim), n) for k, n in self._num.items())
        return self._den, sorted(terms, key=lambda kv: grlex_key(kv[0]), reverse=True)

    @property
    def terms(self) -> MappingProxyType:
        """A read-only {exps: Fraction} view of the nonzero terms, in storage
        order, computed on each access."""
        return MappingProxyType(dict(self.items()))

    # ------------------------------------------------------------------
    # arithmetic

    def _dim_error(self, other: "Poly") -> DimensionMismatchError:
        return DimensionMismatchError(f"polynomial dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other):
        other = _as_poly(self.dim, other)
        if self.dim != other.dim:
            raise self._dim_error(other)
        return self._sum(other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self._scaled(*_ratio(other))
        if self.dim != other.dim:
            raise self._dim_error(other)
        return self._times(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if not n:
            return Poly.one(self.dim)
        # the top exponent of a power is n times the base's and never cancels
        top = n * max((e for exps in self.exponents() for e in exps), default=0)
        if top > MAX_PACKED:
            raise _over_budget(top)
        # square-and-multiply with no product by one
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def partial_multi(self, orders) -> "Poly":
        """Iterated partial derivative along a multi-index (length dim)."""
        if len(orders) != self.dim:
            raise IndexRangeError(f"multi-index {tuple(orders)} has length != dim={self.dim}")
        if not any(orders):
            return self
        lowered = [(_BITS * i, k) for i, k in enumerate(orders) if k]
        down = sum(k << shift for shift, k in lowered)
        out = {}
        for key, coeff in self._num.items():
            for shift, k in lowered:
                e = key >> shift & _FIELD
                if e < k:
                    break
                coeff *= perm(e, k)
            else:
                # key -> key - orders is injective, so no two terms collide
                out[key - down] = coeff
        return Poly._normal(self.dim, 0, out, self._den)

    # ------------------------------------------------------------------

    def __repr__(self):
        terms = " + ".join(f"{c}*{m}" if (m := _mono(e)) else str(c) for e, c in self.sorted_terms())
        return f"Poly({self.dim}, {terms or 0})"


def _as_poly(dim: int, value) -> Poly:
    """value if it is a Poly, else the constant Poly of an int or Fraction on R^dim."""
    return value if isinstance(value, Poly) else Poly.const(dim, value)


class _Sum:
    """A running sum of int numerators by key over one positive common
    denominator ``den``, before normalization.  An addend whose denominator
    does not divide ``den`` first rescales every numerator once, raising
    ``den`` to the lcm; ``den`` at least doubles each time, so that happens at
    most log2(final den) times.  Keys keep the order of their first addition,
    and a key whose sum cancels leaves the map.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den: int = 1):
        self.terms = {} if terms is None else terms
        self.den = den

    def _factor(self, d: int, sign: int = 1) -> int:
        """sign * den / d, after raising ``den`` to a multiple of d."""
        den = self.den
        if den % d:
            f = d // gcd(den, d)
            terms = self.terms
            for k in terms:
                terms[k] *= f
            den = self.den = den * f
        return den // d * sign

    def add_term(self, key, n: int, d: int) -> None:
        """Add n / d at `key`: one term, so it writes the map itself."""
        n *= self._factor(d)  # first, as it may rescale the terms
        v = self.terms[key] = self.terms.get(key, 0) + n
        if not v:
            del self.terms[key]

    def add(self, value: "_Stored", sign: int = 1, high: int = 0) -> None:
        """Add sign * value, each key of value plus `high`: the one scaled sum.
        A `high` above the exponent block puts an operator's packed orders or a
        tensor term's index mask over a coefficient's keys."""
        m = self._factor(value._den, sign)
        terms = self.terms
        get = terms.get
        for k, n in value._num.items():
            k += high
            v = get(k)
            if v is None:
                terms[k] = n * m
            else:
                v += n * m
                if v:
                    terms[k] = v
                else:
                    del terms[k]


def _add_products(terms: dict, left, right, m: int = 1) -> None:
    """Add m * n1 * n2 at key k1 + k2 of `terms` for each (k1, n1) of `left`
    and (k2, n2) of `right`, nonzero ints all, dropping a key whose sum
    cancels: the one multiply-add over two lists of (key, numerator), behind
    products, compositions, the Leibniz rule and slot fills.  Sums come in the
    order of `left`, each row in the order of `right`."""
    get = terms.get
    for k1, n1 in left:
        n1 *= m
        for k2, n2 in right:
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


def _summed(dim: int, parts) -> tuple:
    """(numerators by key, denominator), not normalized, of (high, Poly)
    parts, every field already within the budget: each part's numerators go
    once into one sum, at keys whose high part (an operator's packed flat
    orders, a tensor term's index mask) sits above the exponent block.  A
    reader may share one Poly among parts."""
    block = _BITS * dim
    acc = _Sum()
    for high, p in parts:
        acc.add(p, 1, high << block)
    return acc.terms, acc.den


def _keys(orders: list, arity: int, dim: int):
    """The ``_key`` of each entry's flat multi-indices, all entries at once,
    or None unless every entry of ``orders`` is a list of `arity` lists of
    `dim` ints (exactly ``int``: no ``bool``), each within 0..MAX_PACKED.
    Each check is one pass over all entries."""
    slots = chain.from_iterable
    if (not all(map(isinstance, orders, repeat(list))) or {*map(len, orders)} != {arity}
            or not all(map(isinstance, slots(orders), repeat(list))) or {*map(len, slots(orders))} != {dim}
            or {*map(type, slots(slots(orders)))} != {int}):
        return None
    pack, top = _packer(arity * dim)
    from_bytes = int.from_bytes
    try:
        keys = [from_bytes(pack(*sum(o, [])), "little") for o in orders]
    except StructError:  # an entry below 0 or of 2^16 or more
        return None
    return None if reduce(or_, keys) & top else keys


def _placed(dim: int, keys: list, coeffs: list, leaves: dict) -> tuple:
    """(numerators by key, denominator), not normalized, of an operator read
    from a payload.  Entry i has the packed flat orders ``keys[i]`` and the
    coefficient ``leaves[coeffs[i]]``, (numerators by packed exponents,
    denominator), which the entries of one text share.  The map is the one a
    sum of the entries in turn (``_Sum``) gives: distinct orders share no
    key, so their terms are placed as they are, scaled to the lcm of the
    denominators, and only a payload that repeats an orders key is summed,
    one ``Poly`` per leaf text, by ``_summed``."""
    if len(set(keys)) < len(keys):
        polys = {text: Poly._normal(dim, 0, *leaf) for text, leaf in leaves.items()}
        return _summed(dim, zip(keys, map(polys.__getitem__, coeffs)))
    if not keys:
        return {}, 1
    block = _BITS * dim
    den = lcm(*map(_second, leaves.values()))
    return {(key << block) + k: n * (den // d)
            for key, (num, d) in zip(keys, map(leaves.__getitem__, coeffs)) for k, n in num.items()}, den


def _mask(indices) -> int:
    """The index mask of a set of indices: bit i - 1 for each index i."""
    return sum(map((1).__lshift__, indices)) >> 1


def _indices(mask: int) -> tuple:
    """The indices of an index mask, ascending (the inverse of _mask)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _alt_flip(t, i: int, into: bool):
    """xi_i t (into) or d t / d xi_i (not into) for an alternating tensor t in
    Q[x] (x) Lambda(xi_1 .. xi_r): each term whose index set lacks i (into) or
    holds it (not into) has bit i flipped, with sign (-1)^(number of its
    indices below i); every other term drops.  The degree moves by one, and
    flipping a bit is injective, so no two terms collide."""
    block = _BITS * t.dim
    bit = 1 << block + i - 1
    below = bit - (1 << block)  # the index bits of 1 .. i - 1
    want = 0 if into else bit
    out = {}
    for k, n in t._num.items():
        if k & bit == want:
            out[k ^ bit] = -n if (k & below).bit_count() & 1 else n
    degree, bound = t.arity
    # a part of a normal map over den 1 is normal
    return (t._make if t._den == 1 else t._normal)(t.dim, (degree + 1 if into else degree - 1, bound), out, t._den)


class TPoly:
    """Truncated series in the deformation parameter t with Poly coefficients.

    ``coeffs[k]`` is the coefficient of t^k, for 0 <= k <= order.  Products
    discard every t-degree above the truncation order.  The t^0 coefficient is
    the classical reduction ``sigma``.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        dims = {p.dim for p in coeffs}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed coefficient dimensions: {sorted(dims)}")
        self.dim = dims.pop()
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, dim: int, order: int) -> "TPoly":
        return cls(order, [Poly.zero(dim) for _ in range(order + 1)])

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "TPoly":
        coeffs = [Poly.zero(p.dim) for _ in range(order + 1)]
        coeffs[0] = p
        return cls(order, coeffs)

    @property
    def sigma(self) -> Poly:
        """Classical reduction: the t^0 coefficient."""
        return self.coeffs[0]

    def coeff(self, k: int) -> Poly:
        """Coefficient of t^k (zero beyond the truncation order)."""
        if k < 0:
            raise ValueError("negative t-degree")
        if k > self.order:
            return Poly.zero(self.dim)
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check_compat(self, other: "TPoly"):
        if self.order != other.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimensions differ: {self.dim} vs {other.dim}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = TPoly.from_poly(_as_poly(self.dim, other), self.order)
        self._check_compat(other)
        return TPoly(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TPoly(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Cauchy product; t-degrees above the truncation order are dropped."""
        if isinstance(other, (int, Fraction, Poly)):
            return TPoly(self.order, [c * other for c in self.coeffs])
        self._check_compat(other)
        out = [Poly.zero(self.dim) for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return TPoly(self.order, out)

    __rmul__ = __mul__

    def t_shift(self, k: int) -> "TPoly":
        """Multiply by t^k (coefficients past the truncation order drop)."""
        if k < 0:
            raise ValueError("negative t-shift")
        out = [Poly.zero(self.dim) for _ in range(self.order + 1)]
        for i, c in enumerate(self.coeffs):
            if i + k <= self.order:
                out[i + k] = c
        return TPoly(self.order, out)

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return (
            self.order == other.order
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def __repr__(self):
        return f"TPoly(order={self.order}, {self.coeffs!r})"
