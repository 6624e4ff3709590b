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
    # A 62-bit semiprime, near the library's 2**63 kernel bound.
    n = _prime(rng, 2**30, 2**31) * _prime(rng, 2**31, 2**32)
    assert native.brent_factor(n) == pure.brent_factor(n), n


def _prime(rng, lo, hi):
    while True:
        c = rng.randrange(lo | 1, hi, 2)
        if pure.is_prime_u64(c):
            return c


def test_subset_search_parity():
    rng = random.Random(6)
    for _ in range(400):
        m = rng.randrange(2, 2000)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        elems = [rng.choice(units) for _ in range(rng.randrange(0, 15))]
        for cap in (0, 4):
            got_n = native.subset_witness_exhaustive(elems, m, cap)
            got_p = pure.subset_witness_exhaustive(elems, m, cap)
            assert got_n == got_p, (m, elems, cap)
            got_n = native.subset_witness_mitm(elems, m, cap)
            got_p = pure.subset_witness_mitm(elems, m, cap)
            assert got_n == got_p, (m, elems, cap)
    # Moduli near the library's 2**63 kernel bound, where products need 128
    # bits; an element's inverse, appended, makes a witness.
    for _ in range(40):
        m = rng.randrange(2**62, 2**63)
        elems = [e for e in (rng.randrange(1, m) for _ in range(12)) if math.gcd(e, m) == 1]
        if rng.random() < 0.5:
            elems.append(pow(elems[0] * elems[-1], -1, m))
        for search in ("subset_witness_exhaustive", "subset_witness_mitm"):
            got_n = getattr(native, search)(elems, m, 0)
            assert got_n == getattr(pure, search)(elems, m, 0), (m, elems, search)


def test_backend_names():
    assert pure.BACKEND_NAME == "pure"
    assert native.BACKEND_NAME == "native"
