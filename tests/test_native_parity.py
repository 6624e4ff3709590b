"""Backend parity: the compiled kernels must match the pure twins bit for bit.

The module skips where the extension is not built;
``test_kernels.test_compiled_twin_builds_and_matches_pure`` builds it in a
temporary copy and runs this module there.
"""

import math
import random

import pytest
from test_kernels import backend_contract

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
