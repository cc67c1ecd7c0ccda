"""Test-only reference implementations that the library's fast paths are checked against."""

from fractions import Fraction
from itertools import product
from math import factorial, perm, prod
from operator import add, sub

from dqkit.calculus import Form, MultiVec, wedge
from dqkit.diffop import PolyDiffOp, compose_into_slot, hochschild_delta, transpose_parts
from dqkit.errors import DimensionMismatchError, IndexRangeError, SolveError
from dqkit.kernel import Poly, _add_term, grlex_key
from dqkit.poisson import koszul_bracket
from dqkit.starprod import GaugeOp, StarProduct, _delta_matrix_rows, exp_gauge


def _as_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def dense_solve(columns, target_rows, row_index):
    """Dense Gauss-Jordan over Fraction with the contract of starprod._solve_exact.

    Column by column, the pivot is the first row at or below the current
    position with a nonzero entry; every other row is reduced by it.
    """
    m = len(row_index)
    n = len(columns)
    A = [[Fraction(0)] * (n + 1) for _ in range(m)]
    pos = {key: r for r, key in enumerate(row_index)}
    for j, col in enumerate(columns):
        for key, val in col.items():
            A[pos[key]][j] = val
    for key, val in target_rows.items():
        A[pos[key]][n] = val
    pivots = []
    perm = list(range(m))  # original row key per current position
    r = 0
    for c in range(n):
        pivot = None
        for rr in range(r, m):
            if A[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        perm[r], perm[pivot] = perm[pivot], perm[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for rr in range(m):
            if rr != r and A[rr][c] != 0:
                f = A[rr][c]
                A[rr] = [x - f * y for x, y in zip(A[rr], A[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    solution = [Fraction(0)] * n
    for rr, cc in pivots:
        solution[cc] = A[rr][n]
    residual = {}
    for rr in range(len(pivots), m):
        if A[rr][n] != 0:
            residual[row_index[perm[rr]]] = A[rr][n]
    return solution, residual


def specialize_by_oracle(S, degree_bound):
    """specialize(S, degree_bound) without its precondition, built the unfused way:
    one hochschild_delta per unknown x^e d^alpha, solved by dense_solve."""
    n = S.dim
    sym, _ = transpose_parts(S.op(1))
    maxord = S.op(1).total_order()
    alphas = [a for a in product(range(maxord + 1), repeat=n) if sum(a) <= maxord]
    monos = [e for e in product(range(degree_bound + 1), repeat=n) if sum(e) <= degree_bound]
    basis = []
    columns = []
    keys = {}
    for alpha in alphas:
        for e in monos:
            q = PolyDiffOp(n, 1, {(alpha,): Poly.monomial(n, e)})
            col = _delta_matrix_rows(hochschild_delta(q))
            if not col:
                continue
            basis.append(q)
            columns.append(col)
            for key in col:
                keys.setdefault(key, len(keys))
    target = _delta_matrix_rows(sym)
    for key in target:
        keys.setdefault(key, len(keys))
    solution, residual = dense_solve(columns, target, list(keys))
    Q = PolyDiffOp.zero(n, 1)
    for u, q in zip(solution, basis):
        if u != 0:
            Q = Q + q.scale(u)
    if residual:
        raise SolveError(
            "no Hochschild coboundary solution within bounds",
            residual=sym - hochschild_delta(Q),
        )
    return exp_gauge(Q, S.order)


def schouten_by_recursion(A: MultiVec, B: MultiVec) -> MultiVec:
    """Reference Schouten bracket, reduced term by term through the defining
    recursion: [X,f] = X(f), [X,Y] = Lie bracket, the graded Leibniz rule in
    the second slot, and graded antisymmetry.  Exponential-time; kept as the
    independent oracle for the coordinate implementation.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError("dimension mismatch")
    dim = A.dim
    degree = max(A.degree + B.degree - 1, 0)
    total = MultiVec.zero(dim, degree)
    for I, c in A.terms.items():
        for J, e in B.terms.items():
            u = _factors(dim, I, c)
            v = _factors(dim, J, e)
            total = total + _sn_rec(dim, u, v)
    return total


def _factors(dim, idx, coeff):
    """Decompose c*d_I into vector-field factors; degree 0 stays a scalar."""
    if not idx:
        return [("f", coeff)]
    out = [("v", MultiVec(dim, 1, {(idx[0],): coeff}))]
    for i in idx[1:]:
        out.append(("v", MultiVec.basis(dim, i)))
    return out


def _wedge_factors(dim, factors):
    acc = None
    scalar = None
    for kind, val in factors:
        if kind == "f":
            scalar = val if scalar is None else scalar * val
        else:
            acc = val if acc is None else wedge(acc, val)
    if acc is None:
        return MultiVec.from_poly(scalar if scalar is not None else Poly.one(dim))
    if scalar is not None:
        acc = acc.scale(scalar)
    return acc


def _sn_rec(dim, u, v):
    """[u, v] for lists of factors (each ('v', vector) or a single ('f', poly))."""
    a = sum(1 for k, _ in u if k == "v")
    b = sum(1 for k, _ in v if k == "v")
    if a == 0 and b == 0:
        return MultiVec.zero(dim, 0)
    if b == 0:
        # [A, f] = -(-1)^{(a-1)(0-1)} [f, A]
        res = _sn_rec(dim, v, u)
        if (a - 1) % 2 == 0:
            res = -res
        return res
    if a == 0:
        f = u[0][1]
        if b == 1:
            # [f, X] = -X(f)
            return MultiVec.from_poly(-v[0][1].apply_to(f))
        # [f, Y ^ C] = [f,Y] ^ C + (-1)^{(0-1)*1} Y ^ [f,C]
        head, tail = v[0][1], v[1:]
        first = _wedge_factors(dim, tail).scale(_sn_rec(dim, u, [("v", head)]).as_poly())
        second = wedge(head, _sn_rec(dim, u, tail))
        return first - second
    if a == 1 and b == 1:
        X, Y = u[0][1], v[0][1]
        terms = {}
        for (j,), yc in Y.terms.items():
            c = X.apply_to(yc)
            if not c.is_zero():
                acc = terms.get((j,))
                terms[(j,)] = c if acc is None else acc + c
        for (i,), xc in X.terms.items():
            c = Y.apply_to(xc)
            if not c.is_zero():
                acc = terms.get((i,))
                nc = -c
                terms[(i,)] = nc if acc is None else acc + nc
        return MultiVec(dim, 1, {k: v2 for k, v2 in terms.items() if not v2.is_zero()})
    if b > 1:
        # [A, Y ^ C] = [A,Y] ^ C + (-1)^{(a-1)*1} Y ^ [A,C]
        head, tail = v[0][1], v[1:]
        left = _sn_rec(dim, u, [("v", head)])
        first = _wedge_or_scale(dim, left, tail)
        second = wedge(head, _sn_rec(dim, u, tail))
        if (a - 1) % 2 == 1:
            second = -second
        return first + second
    # a > 1, b == 1: swap via graded antisymmetry
    res = _sn_rec(dim, v, u)
    if ((a - 1) * (b - 1)) % 2 == 0:
        res = -res
    return res


def _wedge_or_scale(dim, left, factors):
    right = _wedge_factors(dim, factors)
    if left.degree == 0:
        return right.scale(left.as_poly())
    if right.degree == 0:
        return left.scale(right.as_poly())
    return wedge(left, right)


def koszul_frame_bracket(pi: MultiVec, i: int, j: int) -> Form:
    """[dx_i, dx_j]_pi as a 1-form (used to cross-check from_poisson)."""
    n = pi.dim
    return koszul_bracket(pi, Form.basis(n, i), Form.basis(n, j))


def derivative_uncapped(alpha, inner: PolyDiffOp) -> dict:
    """The term map of d^alpha o inner over every Leibniz splitting, dead ones
    included, in the order of diffop._derivative_of: the splittings of each
    coordinate in lexicographic order, combined in itertools.product order."""
    if not any(alpha):
        return inner.terms
    parts = inner.arity + 1
    per_coord = []
    for a in alpha:
        comps = [c for c in product(range(a + 1), repeat=parts) if sum(c) == a]
        per_coord.append([(factorial(a) // prod(map(factorial, c)), c) for c in comps])
    out = {}
    for combo in product(*per_coord):
        mult = prod(m for m, _ in combo)
        gamma0, *rest = zip(*(c for _, c in combo))
        for i_orders, i_coeff in inner.terms.items():
            dcoeff = i_coeff.partial_multi(gamma0)
            if dcoeff.is_zero():
                continue
            orders = tuple(
                tuple(b + g for b, g in zip(beta, gamma)) for beta, gamma in zip(i_orders, rest)
            )
            _add_term(out, orders, dcoeff * mult)
    return out


def invert_gauge_by_neumann(R: GaugeOp) -> GaugeOp:
    """The inverse of R = 1 + A mod t^{N+1} by the finite Neumann series
    sum_{m>=0} (-A)^m: the powers A^m of the pure part, which has valuation
    >= 1, are iterated until truncation kills them."""
    N, dim = R.order, R.dim
    power = {k: R.op(k) for k in range(1, N + 1) if not R.op(k).is_zero()}
    total = [PolyDiffOp.zero(dim, 1) for _ in range(N)]
    sign = -1
    while power:
        for k, op in power.items():
            total[k - 1] = total[k - 1] + (op if sign > 0 else -op)
        # next power: A^{m+1} = A o A^m, truncated
        nxt = {}
        for i in range(1, N + 1):
            for j, Bj in power.items():
                if i + j <= N:
                    term = compose_into_slot(R.op(i), 1, Bj)
                    nxt[i + j] = nxt[i + j] + term if i + j in nxt else term
        power = {k: op for k, op in nxt.items() if not op.is_zero()}
        sign = -sign
    return GaugeOp(dim, N, total)


def moyal_by_tuples(pi: MultiVec, order: int) -> StarProduct:
    """moyal(pi, order) summed over all k-tuples of bivector entries, |E|^k per
    order: the sum as the formula writes it."""
    n = pi.dim
    entries = {}
    for (i, j), c in pi.terms.items():
        v = c.constant_value()
        entries[(i, j)] = v
        entries[(j, i)] = -v
    ops = []
    for k in range(1, order + 1):
        scale = Fraction(1, 2**k * factorial(k))
        terms = {}
        for pairs in product(entries.items(), repeat=k):
            coeff = scale
            alpha = [0] * n
            beta = [0] * n
            for (i, j), v in pairs:
                coeff *= v
                alpha[i - 1] += 1
                beta[j - 1] += 1
            if coeff == 0:
                continue
            key = (tuple(alpha), tuple(beta))
            terms[key] = terms.get(key, Fraction(0)) + coeff
        ops.append(PolyDiffOp(n, 2, {k2: v for k2, v in terms.items() if v != 0}))
    return StarProduct(n, order, ops)


class RefPoly:
    """Sparse multivariate polynomial over the rationals: the kernel's former
    {exps: Fraction} implementation, kept unchanged as the reference that the
    integer stored form of dqkit.kernel.Poly is checked against.

    ``terms`` maps exponent tuples of length ``dim`` to nonzero Fractions.
    Zero coefficients are never stored, so structural equality of the term
    maps is polynomial equality.

    The public constructor checks and normalizes its input.  Internal code that
    builds a term map which is already clean (tuple keys of length ``dim``,
    non-negative exponents, nonzero ``Fraction`` values only) wraps it with
    :meth:`_make`, which skips those checks and takes ownership of the dict.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        if dim < 0:
            raise ValueError("dim must be non-negative")
        self.dim = dim
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != dim:
                    raise ValueError(f"exponent vector {exps} has length != dim={dim}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coeff = _as_rat(coeff)
                if coeff != 0:
                    clean[exps] = clean.get(exps, Fraction(0)) + coeff
                    if clean[exps] == 0:
                        del clean[exps]
        self.terms = clean

    @classmethod
    def _make(cls, dim: int, terms: dict) -> "RefPoly":
        """Wrap a term map that is clean by construction (see the class docstring)."""
        p = object.__new__(cls)
        p.dim = dim
        p.terms = terms
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dim: int) -> "RefPoly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value) -> "RefPoly":
        value = _as_rat(value)
        if value == 0:
            return cls(dim)
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def one(cls, dim: int) -> "RefPoly":
        return cls.const(dim, 1)

    @classmethod
    def variable(cls, dim: int, index: int) -> "RefPoly":
        """Coordinate x_index, 1-based."""
        if not 1 <= index <= dim:
            raise ValueError(f"coordinate index {index} out of range 1..{dim}")
        exps = [0] * dim
        exps[index - 1] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, dim: int, exps, coeff=1) -> "RefPoly":
        return cls(dim, {tuple(exps): _as_rat(coeff)})

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (zero for the zero poly)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.dim, Fraction(0))

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        """Terms in descending graded-lex order (canonical emission order)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_dim(self, other: "RefPoly"):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"polynomial dimensions differ: {self.dim} vs {other.dim}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
                continue
            acc += coeff
            if acc:
                out[exps] = acc
            else:
                del out[exps]
        return RefPoly._make(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly._make(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _as_rat(other)
            if other == 0:
                return RefPoly(self.dim)
            return RefPoly._make(self.dim, {e: c * other for e, c in self.terms.items()})
        self._check_dim(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = out.get(exps)
                if acc is None:
                    out[exps] = c
                    continue
                acc += c
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return RefPoly._make(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = RefPoly.one(self.dim)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def partial(self, index: int) -> "RefPoly":
        """Formal partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.dim:
            raise IndexRangeError(f"coordinate index {index} out of range 1..{self.dim}")
        i = index - 1
        out = {}
        for exps, coeff in self.terms.items():
            k = exps[i]
            if k:
                # lowering one exponent is injective, so no two terms collide
                out[exps[:i] + (k - 1,) + exps[i + 1 :]] = coeff * k
        return RefPoly._make(self.dim, out)

    def partial_multi(self, orders) -> "RefPoly":
        """Iterated partial derivative along a multi-index (length dim)."""
        if len(orders) != self.dim:
            raise IndexRangeError(f"multi-index {tuple(orders)} has length != dim={self.dim}")
        if not any(orders):
            return self
        out = {}
        for exps, coeff in self.terms.items():
            mult = 1
            for e, k in zip(exps, orders):
                if e < k:
                    break
                mult *= perm(e, k)
            else:
                # exps -> exps - orders is injective, so no two terms collide
                out[tuple(map(sub, exps, orders))] = coeff * mult if mult != 1 else coeff
        return RefPoly._make(self.dim, out)

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.dim, other)
        if not isinstance(other, RefPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"RefPoly({self.dim}, 0)"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e > 0
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return f"RefPoly({self.dim}, {' + '.join(bits)})"
