"""Backend parity: the compiled kernels must match the pure twins bit for bit.

The module skips where the extension is not built;
``test_kernels.test_compiled_twin_builds_and_matches_pure`` builds it in a
temporary copy and runs this module there.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_construction import assert_rmap_equal, reference_populate_R
from test_kernels import backend_contract

from carmik import arith, construction as cons
from carmik._kernels import pure

native = pytest.importorskip("carmik._kernels._native")

CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
EDGE_VALUES = [0, 1, 2, 3, 4, 5, 16, 211, 212, 211 * 211, 211 * 211 + 2, 561, 647]
EDGE_VALUES += [2**31 - 1, 2**32 + 15, 2**61 - 1, 2**63 - 25, 2**63 + 29, 2**64 - 59, 2**64 - 1]
# Each bound of the pure kernel's default base sets, and two primes that
# divide a base of their own set.
EDGE_VALUES += [bound + e for bound, _ in pure._MR_TIERS[:-1] for e in (-2, 0, 2)]
EDGE_VALUES += [98207, 3709689913]


def test_the_module_defines_exactly_the_contract():
    public = {name for name in dir(native) if not name.startswith("__")}
    assert public == backend_contract()


def test_is_prime_parity():
    rng = random.Random(1)
    values = EDGE_VALUES + CARMICHAELS + [rng.randrange(2**64) for _ in range(2000)]
    for n in values:
        assert native.is_prime_u64(n) == pure.is_prime_u64(n), n


def test_a_value_outside_the_word_is_refused():
    for n in (2**64, 2**64 + 13, -1):
        with pytest.raises(OverflowError):
            native.is_prime_u64(n)


def test_primes_in_range_parity():
    # Every short range at the bottom, where 2, the parity of lo and the
    # squares of the first odd primes meet.
    cases = [(lo, hi) for lo in range(60) for hi in range(max(lo - 1, 0), 60)]
    cases += [(0, 100), (9999, 10500), (10**12, 10**12 + 1000), (2**32 - 100, 2**32 + 100)]
    for lo, hi in cases:
        assert native.primes_in_range(lo, hi) == pure.primes_in_range(lo, hi)


def test_first_prime_in_ap_parity():
    rng = random.Random(3)
    # The last three end at the top of the word: the next term of the first
    # two would pass 2**64 - 1, and the third's second term is 2**64 - 59.
    cases = [(4, 1, 1000), (2, 1, 1000), (25, 24, 30),
             (2**63, 1, 2**64 - 1), (2**64 - 2, 1, 2**64 - 1), (2**64 - 60, 1, 2**64 - 1)]
    while len(cases) < 200:
        l = rng.randrange(2, 500)
        b = rng.randrange(1, l)
        if math.gcd(b, l) == 1:
            cases.append((l, b, l * 50 + 100))
    for l, b, cap in cases:
        assert native.first_prime_in_ap(l, b, cap) == pure.first_prime_in_ap(l, b, cap)


@st.composite
def harvest_calls(draw):
    """harvest_j arguments: g over the primes of a window [z/2, z], passed
    whole, from the first j, past cap < start, and up to 2**64."""
    z = draw(st.integers(4, 700))
    primes = tuple(pure.primes_in_range((z + 1) // 2, z))
    factors = draw(st.lists(st.sampled_from(primes), min_size=1, max_size=6, unique=True))
    g = math.prod(factors)
    top = (2**64 - 2) // g  # the last j with g*j + 1 < 2**64
    if draw(st.booleans()):
        cap = top - draw(st.integers(0, 50))
        start = cap - draw(st.integers(-5, 300))
    else:
        start = draw(st.integers(1, 300))
        cap = max(0, min(top, start + draw(st.integers(-5, 800))))
    return g, primes, start, cap


@settings(deadline=None, max_examples=300)
@given(harvest_calls())
@example((3, (3,), 1, 10))  # q = 7 at j = 2
@example((2, (2, 3), 1, 10))  # q = 3 at j = 1
@example((101 * 103 * 107 * 109 * 113, (101, 103, 107, 109, 113), 5, 4))  # cap < start
@example((2, (2,), 2**63 - 200, 2**63 - 1))  # q up to 2**64 - 1
def test_harvest_j_parity(args):
    assert native.harvest_j(*args) == pure.harvest_j(*args), args


def test_the_harvest_crosses_the_word_on_the_compiled_backend(monkeypatch):
    # arith.harvest_j and populate_R hand the compiled kernel only words:
    # g just below 2**64, whose walk crosses it, and g past it.
    window = tuple(pure.primes_in_range(200, 400))
    below = 521 * 523 * 541 * 547 * 557 * 563 * 571
    past = math.prod(window[-8:])
    cases = [(below, tuple(pure.primes_in_range(300, 600)), start, cap)
             for start, cap in ((1, 1), (1, 79), (13, 79), (2, 1))]
    cases += [(past, window, start, cap) for start, cap in ((1, 60), (5, 60), (2, 1))]
    monkeypatch.setattr(arith, "backend", pure)
    want = [arith.harvest_j(*args) for args in cases]
    j_product = arith.FactoredInteger.from_factor_map({p: 1 for p in window[-9:]})
    rmap = reference_populate_R(j_product, 8, 60)
    monkeypatch.setattr(arith, "backend", native)
    assert [arith.harvest_j(*args) for args in cases] == want
    assert rmap.buckets
    assert_rmap_equal(cons.populate_R(j_product, 8, 60), rmap)


def test_harvest_j_refuses_a_cap_past_the_word():
    for g, cap in ((2, 2**63), (2**63, 2), (1, 2**64 - 1)):
        for twin in (native, pure):
            with pytest.raises(OverflowError):
                twin.harvest_j(g, (), 1, cap)


def test_brent_parity():
    rng = random.Random(4)
    for _ in range(50):
        p = _prime(rng, 2**20, 2**26)
        q = _prime(rng, 2**20, 2**26)
        n = p * q
        assert native.brent_factor(n) == pure.brent_factor(n), n
    assert native.brent_factor(3**10) == pure.brent_factor(3**10)
    # A 62-bit semiprime, and one at the top of the library's 2**64 kernel
    # bound.
    n = _prime(rng, 2**30, 2**31) * _prime(rng, 2**31, 2**32)
    assert native.brent_factor(n) == pure.brent_factor(n), n
    n = 4294967291 * 4294967279
    assert 2**63 <= n < 2**64
    assert native.brent_factor(n) == pure.brent_factor(n), n


def _prime(rng, lo, hi):
    while True:
        c = rng.randrange(lo | 1, hi, 2)
        if pure.is_prime_u64(c):
            return c


def test_backend_names():
    assert pure.BACKEND_NAME == "pure"
    assert native.BACKEND_NAME == "native"
