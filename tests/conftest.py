import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import settings, strategies as st

from dqkit.calculus import Form, MultiVec
from dqkit.diffop import PolyDiffOp
from dqkit.kernel import MAX_PACKED, Poly
from dqkit.starprod import GaugeOp, moyal

settings.register_profile("dqkit", max_examples=40, deadline=None)
settings.load_profile("dqkit")


def assert_clean_poly(p, dim):
    """The stored form of a Poly: int numerators over one positive int
    denominator, normalized, at packed exponent keys: ints of dim 16-bit
    fields, each at most MAX_PACKED, with no bit above the dim fields."""
    assert type(p) is Poly and p.dim == dim
    assert type(p._num) is dict and type(p._den) is int
    for key, c in p._num.items():
        assert type(key) is int and key >= 0 and key >> 16 * dim == 0
        assert all(key >> 16 * i & 0xFFFF <= MAX_PACKED for i in range(dim))
        assert type(c) is int and c != 0
    assert p._den > 0
    assert gcd(p._den, *p._num.values()) == 1
    assert p._num or p._den == 1


def rand_poly(rng, dim, max_degree=2, terms=2, span=3):
    out = {}
    for _ in range(terms):
        e = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(dim)] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + Fraction(rng.randint(-span, span))
    return Poly(dim, {k: v for k, v in out.items() if v})


def polys(n):
    """Hypothesis strategy: polynomials on R^n with at most two terms of degree
    <= 2 in each variable and small rational coefficients."""
    monomials = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(monomials, coeffs, max_size=2).map(
        lambda terms: Poly(n, {e: c for e, c in terms.items() if c})
    )


def alt_tensors(cls, n, degree, max_size=3, min_size=0):
    """Hypothesis strategy: a Form or MultiVec of the given degree on R^n with
    min_size..max_size nonzero terms, or as many as there are keys; the zero
    tensor when the degree is above n."""
    keys = list(combinations(range(1, n + 1), degree))
    if not keys:
        return st.just(cls(n, degree))
    nonzero = polys(n).filter(lambda p: not p.is_zero())
    return st.dictionaries(st.sampled_from(keys), nonzero, min_size=min(min_size, len(keys)), max_size=max_size).map(
        lambda terms: cls(n, degree, terms)
    )


def rand_vector_field(rng, dim, max_degree=2):
    terms = {}
    for i in range(1, dim + 1):
        p = rand_poly(rng, dim, max_degree, terms=1)
        if not p.is_zero():
            terms[(i,)] = p
    return MultiVec(dim, 1, terms)


def rand_multivec(rng, dim, degree, max_degree=2, nterms=2):
    from itertools import combinations

    keys = list(combinations(range(1, dim + 1), degree))
    rng.shuffle(keys)
    terms = {}
    for key in keys[:nterms]:
        p = rand_poly(rng, dim, max_degree, terms=1)
        if not p.is_zero():
            terms[key] = p
    return MultiVec(dim, degree, terms)


def rand_form(rng, dim, degree, max_degree=2, nterms=2):
    from itertools import combinations

    keys = list(combinations(range(1, dim + 1), degree))
    rng.shuffle(keys)
    terms = {}
    for key in keys[:nterms]:
        p = rand_poly(rng, dim, max_degree, terms=1)
        if not p.is_zero():
            terms[key] = p
    return Form(dim, degree, terms)


def rand_diffop1(rng, dim, max_order=2, max_degree=2, nterms=2, unital=True):
    """Random arity-1 operator; unital means no order-0 part (R(1) = 0)."""
    terms = {}
    for _ in range(nterms):
        a = [0] * dim
        lo = 1 if unital else 0
        for _ in range(rng.randint(lo, max_order)):
            a[rng.randrange(dim)] += 1
        if unital and sum(a) == 0:
            a[rng.randrange(dim)] += 1
        p = rand_poly(rng, dim, max_degree, terms=1)
        if not p.is_zero():
            terms[(tuple(a),)] = p
    return PolyDiffOp(dim, 1, terms)


def rand_gauge(rng, dim, order, max_order=2, max_degree=2):
    return GaugeOp(dim, order, [rand_diffop1(rng, dim, max_order, max_degree) for _ in range(order)])


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def pi_std():
    return MultiVec(2, 2, {(1, 2): 1})


@pytest.fixture
def pi_std3():
    return MultiVec(3, 2, {(1, 2): 1})


@pytest.fixture
def pi_so3():
    x, y, z = (Poly.variable(3, i) for i in (1, 2, 3))
    return MultiVec(3, 2, {(1, 2): z, (1, 3): -y, (2, 3): x})


@pytest.fixture
def pi_bad():
    return MultiVec(3, 2, {(1, 2): Poly.one(3), (2, 3): Poly.variable(3, 2)})


@pytest.fixture
def moyal2(pi_std):
    return moyal(pi_std, 2)


@pytest.fixture
def moyal3(pi_std):
    return moyal(pi_std, 3)
