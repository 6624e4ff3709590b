"""Backend parity: the compiled kernels must match the pure twins bit for bit.

The four brute-force kernels and ``smallest_prime_factors`` that the
compiled extension still carries have no pure twin; they are compared
with ``brute_force``, the tests' reference.
"""

import math
import random

import brute_force
import pytest

from carmik._kernels import pure

native = pytest.importorskip("carmik._kernels._native")

CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
EDGE_VALUES = [0, 1, 2, 3, 4, 5, 16, 561, 647, 2**31 - 1, 2**32 + 15, 2**61 - 1, 2**64 - 59]
# Each bound of the pure kernel's default base sets, and two primes that
# divide a base of their own set.
EDGE_VALUES += [bound + e for bound, _ in pure._MR_TIERS[:-1] for e in (-2, 0, 2)]
EDGE_VALUES += [98207, 3709689913]


def test_is_prime_parity():
    rng = random.Random(1)
    values = EDGE_VALUES + CARMICHAELS + [rng.randrange(2**62) for _ in range(2000)]
    for n in values:
        assert native.is_prime_u64(n) == pure.is_prime_u64(n), n


def test_primes_in_range_parity():
    cases = [(0, 100), (2, 2), (24, 28), (10, 20), (9999, 10500), (10**12, 10**12 + 1000)]
    for lo, hi in cases:
        assert native.primes_in_range(lo, hi) == pure.primes_in_range(lo, hi)


def test_spf_parity():
    assert native.smallest_prime_factors(1000) == brute_force.smallest_prime_factors(1000)


def test_census_parity():
    assert native.carmichael_census(100_000) == pure.carmichael_census(100_000)
    assert native.carmichael_census(2) == pure.carmichael_census(2) == []


def test_fermat_all_bases_parity():
    for n in list(range(1, 80)) + [561, 1105, 563]:
        assert native.fermat_all_bases(n) == brute_force.fermat_all_bases(n), n


def test_unit_sweep_parity():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(2, 500)
        e = rng.randrange(1, 200)
        assert native.all_units_pow_one(n, e) == brute_force.all_units_pow_one(n, e)
        assert native.first_unit_failing(n, e) == brute_force.first_unit_failing(n, e)


def test_count_coprime_parity():
    for n in range(1, 300):
        assert native.count_coprime(n) == brute_force.count_coprime(n)


def test_first_prime_in_ap_parity():
    rng = random.Random(3)
    cases = [(4, 1, 1000), (2, 1, 1000), (25, 24, 30)]
    while len(cases) < 200:
        l = rng.randrange(2, 500)
        b = rng.randrange(1, l)
        if math.gcd(b, l) == 1:
            cases.append((l, b, l * 50 + 100))
    for l, b, cap in cases:
        assert native.first_prime_in_ap(l, b, cap) == pure.first_prime_in_ap(l, b, cap)


def test_ap_max_scan_parity():
    caps = [int(l * math.log(l) ** 3) + 100 for l in range(2, 60)]
    assert native.ap_max_scan(2, 59, caps) == pure.ap_max_scan(2, 59, caps)


def test_brent_parity():
    rng = random.Random(4)
    for _ in range(50):
        p = _prime(rng, 2**20, 2**26)
        q = _prime(rng, 2**20, 2**26)
        n = p * q
        assert native.brent_factor(n) == pure.brent_factor(n), n
    assert native.brent_factor(3**10) == pure.brent_factor(3**10)


def _prime(rng, lo, hi):
    while True:
        c = rng.randrange(lo | 1, hi, 2)
        if pure.is_prime_u64(c):
            return c


def test_prefix_run_witness_parity():
    rng = random.Random(5)
    for _ in range(500):
        m = rng.randrange(2, 500)
        units = [a for a in range(1, m) if math.gcd(a, m) == 1]
        elems = [rng.choice(units) for _ in range(rng.randrange(0, 20))]
        assert native.prefix_run_witness(elems, m) == pure.prefix_run_witness(elems, m)


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


def test_backend_names():
    assert pure.BACKEND_NAME == "pure"
    assert native.BACKEND_NAME == "native"
