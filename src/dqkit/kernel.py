"""Exact coefficient arithmetic: rationals, sparse polynomials, truncated t-series.

Everything downstream (forms, multivectors, operators, star products) stores
its coefficients as :class:`Poly`.  All values are immutable by convention and
all operations are pure, so concurrent use needs no coordination.

The stored form of polynomials and ``diffop`` operators alike has one owner,
:class:`_Stored`: int numerators at packed keys over one positive
denominator, normalized by one ``math.gcd`` (a ``Poly`` is its arity-0
case), so structural equality and ``hash`` are equality of values and no
``Fraction`` arithmetic runs inside the kernel.  ``Fraction`` appears only at
the API edge: the public constructor, ``items``, ``sorted_terms``,
``constant_value`` and the read-only ``terms`` view.  ``_Sum`` is the one
running sum over a common denominator, behind the constructors, the parser's
leaf reader and ``diffop._OpAcc``.  The kernel also owns two small facts
every module shares: ``_as_poly``, the one coercion of an int or ``Fraction``
to a constant ``Poly``, and ``_mono``, the one text of a monomial (``repr``
and the parser's canonical output both write it).

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
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, perm
from operator import or_
from struct import Struct, error as StructError
from types import MappingProxyType

from .errors import BudgetError, DimensionMismatchError, IndexRangeError, OrderMismatchError

_BITS = 16  # width of one packed field
_FIELD = (1 << _BITS) - 1
MAX_PACKED = 2**15 - 1  # the largest exponent or derivative order a key may hold

_struct = cache(lambda fields: Struct(f"<{fields}H"))


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
    """BudgetError if a key of `num`, each a key of `width` fields within the
    budget or the sum of two, has a field above MAX_PACKED."""
    if num:
        top = _packer(width)[1]
        if reduce(or_, num) & top:
            raise _over_budget(max(max(_fields(k, width)) for k in num if k & top))


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
    """Int numerators at packed keys over one positive denominator: a ``Poly``
    (arity 0, keys of ``dim`` fields) or a ``diffop.PolyDiffOp`` of ``arity``
    arguments (keys of ``dim * (arity + 1)`` fields, the exponents lowest).

    ``_num`` maps keys to nonzero ``int`` numerators over ``_den``, with
    ``gcd(_den, *_num.values()) == 1``, ``_den == 1`` when ``_num`` is empty
    and no field above ``MAX_PACKED``; so equality of ``(dim, arity, _den,
    _num)``, and ``hash``, is equality of values.  ``__init__`` is the one
    normalizing step and owns the map it is given; ``_normal`` runs it past
    the subclasses' argument checks, and ``_make`` wraps a form already normal.
    """

    __slots__ = ("dim", "arity", "_num", "_den")

    def __init__(self, dim: int, arity: int, num: dict, den: int):
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
    def _normal(cls, dim: int, arity: int, num: dict, den: int):
        """The normalized value of nonzero int numerators over den > 0, owning `num`."""
        s = object.__new__(cls)
        _Stored.__init__(s, dim, arity, num, den)
        return s

    @classmethod
    def _make(cls, dim: int, arity: int, num: dict, den: int):
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
        a key whose sum cancels dropped (as ``_Sum`` orders them)."""
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        out = {k: n * m1 for k, n in self._num.items()} if m1 != 1 else self._num.copy()
        get = out.get
        for k, n in other._num.items():
            v = out[k] = get(k, 0) + n * m2
            if not v:
                del out[k]
        return self._normal(self.dim, self.arity, out, d1 * m1)

    def _scaled(self, p: int, d: int):
        """self * (p / d) for a rational p / d in lowest terms, d > 0."""
        num = {k: n * p for k, n in self._num.items()} if p else {}
        return self._normal(self.dim, self.arity, num, self._den * d)

    def _times(self, f: "Poly"):
        """self * f for a Poly f of the same dim: each key adds f's exponents to
        its own; BudgetError if a field of the result is above MAX_PACKED."""
        out = {}
        get = out.get
        for k1, n1 in self._num.items():
            for k2, n2 in f._num.items():
                k = k1 + k2
                v = out[k] = get(k, 0) + n1 * n2
                if not v:
                    del out[k]
        # the top exponent in each variable never cancels, so one check of the result suffices
        _check_budget(out, self.dim * (self.arity + 1))
        return self._normal(self.dim, self.arity, out, self._den * f._den)

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

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to x_index (1-based)."""
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
        return Poly._normal(self.dim, 0, out, self._den)

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


def _add_num(out: dict, key, n: int) -> None:
    """Add an int numerator into a numerator map, dropping the key if it cancels."""
    v = out[key] = out.get(key, 0) + n
    if not v:
        del out[key]


class _Sum:
    """A running sum of int numerators by key over one positive common
    denominator ``den``, before normalization.  An addend whose denominator
    does not divide ``den`` first rescales every numerator once, raising
    ``den`` to the lcm; ``den`` at least doubles each time, so that happens at
    most log2(final den) times.  Keys keep the order of their first addition,
    and a key whose sum cancels leaves the map.
    """

    __slots__ = ("terms", "den")

    def __init__(self):
        self.terms = {}
        self.den = 1

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
        """Add n / d at `key`."""
        _add_num(self.terms, key, n * self._factor(d))

    def add(self, items, d: int, sign: int = 1) -> None:
        """Add sign * n / d at each key of the (key, n) pairs `items`."""
        m = self._factor(d, sign)
        terms = self.terms
        get = terms.get
        for k, n in items:
            v = terms[k] = get(k, 0) + n * m
            if not v:
                del terms[k]


def _add_term(out: dict, key, coeff: Poly) -> None:
    """Add a nonzero Poly coefficient into a term map, dropping the key if it cancels.

    The shared normal-form step of every sparse map with Poly values (forms,
    multivectors, frame forms).
    """
    acc = out.get(key)
    if acc is None:
        out[key] = coeff
        return
    acc = acc + coeff
    if acc._num:
        out[key] = acc
    else:
        del out[key]


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
