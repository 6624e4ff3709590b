"""Wall time of the kernels on fixed workloads.

Usage:  python3 benchmarks/bench_kernels.py [--repeat N]

Each row times one workload of a kernel in ``carmik._kernels.pure``, best
of N runs, and checks its value against an answer found another way: the
census counts against OEIS A055553, the prime counts against
``sympy.isprime`` (found once and written here), and every other row
against a plain recomputation, untimed.  The semiprime row runs through
``arith.factorize``, the library's one Brent driver.
"""

import argparse
import itertools
import math
import random
import time

from carmik import arith
from carmik._kernels import pure

# Carmichael numbers up to 10^7 .. 10^10 (OEIS A055553).
CENSUS_ROWS = {7: 105, 8: 255, 9: 646, 10: 1547}


def timed(fn, repeat):
    best = math.inf
    value = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def count_is(expected):
    """A check that exactly ``expected`` of the values are true (nonempty)."""

    def check(values):
        assert sum(map(bool, values)) == expected, (sum(map(bool, values)), expected)

    return check


def check_scan(result):
    per_l, misses = result
    assert misses == []
    for l, b, p in per_l:
        assert p % l == b and pure.is_prime_u64(p), (l, b, p)


def workloads():
    """(name, timed call, value check) for each row."""
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 20:
        p = rng.randrange(2**25 | 1, 2**26, 2)
        q = rng.randrange(2**25 | 1, 2**26, 2)
        if pure.is_prime_u64(p) and pure.is_prime_u64(q):
            pairs.append((p, q))
    units105 = [a for a in range(1, 105) if math.gcd(a, 105) == 1]
    stress = [[rng.choice(units105) for _ in range(29)] for _ in range(200)]
    mr_values = [rng.randrange(2**62) for _ in range(20_000)]
    # The sizes the construction harvest tests: q = g*j + 1 and p = d*k*nu + 1.
    mr_harvest = [rng.randrange(2**34, 2**52) for _ in range(20_000)]
    # Most of those are composites that the first base settles; a prime
    # takes every base of its set.
    mr_primes = []
    while len(mr_primes) < 20_000:
        n = rng.randrange(2**34, 2**52) | 1
        while not pure.is_prime_u64(n):
            n += 2
        mr_primes.append(n)
    # Every tenth g of the derived z=200 harvest: five window primes each,
    # searched to its j_cap of 789.
    window = tuple(pure.primes_in_range(100, 200))
    harvest_g = sorted(math.prod(c) for c in itertools.combinations(window, 5))[::10]
    ap_caps = [int(l * math.log(l) ** 3) + 100 for l in range(2, 501)]
    band = range(1000, 1200)
    band_caps = [int(l * math.log(l) ** 3) + 100 for l in band]

    def check_harvest(js):
        # Each j is the least one, by Miller-Rabin on every j below it.
        for g, j in zip(harvest_g, js):
            assert j == next((i for i in range(1, 790)
                              if math.gcd(i, g) == 1 and pure.is_prime_u64(g * i + 1)), 0), g

    def check_factors(results):
        assert [fi.factors for fi in results] == [
            ((min(p, q), 1), (max(p, q), 1)) for p, q in pairs
        ]

    def check_witnesses(results):
        for elements, (status, witness) in zip(stress, results):
            assert status == pure.FOUND
            assert math.prod(elements[i] for i in witness) % 105 == 1

    for e, rows in CENSUS_ROWS.items():
        yield (f"census to 1e{e}", lambda limit=10**e: pure.carmichael_census(limit),
               count_is(rows))
    yield ("sieve [1e12, 1e12+1e6]", lambda: pure.primes_in_range(10**12, 10**12 + 10**6),
           count_is(36_249))
    yield ("miller-rabin x 20k", lambda: [pure.is_prime_u64(n) for n in mr_values],
           count_is(451))
    yield ("miller-rabin x 20k, 2^34..2^52", lambda: [pure.is_prime_u64(n) for n in mr_harvest],
           count_is(588))
    yield ("miller-rabin x 20k primes, 2^34..2^52",
           lambda: [pure.is_prime_u64(n) for n in mr_primes], count_is(20_000))
    yield (f"harvest_j x {len(harvest_g)} g, derived z=200",
           lambda: [pure.harvest_j(g, window, 1, 789) for g in harvest_g], check_harvest)
    yield "ap scan l <= 500", lambda: pure.ap_max_scan(2, 500, ap_caps), check_scan
    # One call, so one table, per modulus, as in perfbench's ap_scan.
    yield ("ap scan, one call per l = 1000..1199",
           lambda: [pure.ap_max_scan(l, l, [cap]) for l, cap in zip(band, band_caps)],
           lambda results: [check_scan(r) for r in results])
    yield ("factorize x 20 semiprimes", lambda: [arith.factorize(p * q) for p, q in pairs],
           check_factors)
    yield ("subset mitm x 200 (mod 105)",
           lambda: [pure.subset_witness_mitm(e, 105, 0) for e in stress], check_witnesses)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    header = f"{'workload':<38} {'seconds':>10}"
    print(header)
    print("-" * len(header))
    for name, fn, check in workloads():
        value, seconds = timed(fn, args.repeat)
        check(value)
        print(f"{name:<38} {seconds:>9.3f}s")


if __name__ == "__main__":
    main()
