"""Timing comparison: compiled kernels vs the pure-Python fallback.

Usage:  python3 benchmarks/bench_kernels.py [--repeat N]

The compiled side is the extension built from the hand-written
``_native.c`` (``python setup.py build_ext --inplace``); without it only
the pure side is timed.  Each workload of a contract kernel runs on both
backends (results are asserted identical) and the table reports wall time
per backend plus the speedup.  The census, AP-scan and subset-search rows
time the pure kernels only, since the library runs those on either
backend.  The census row counts are asserted against OEIS A055553.
"""

import argparse
import itertools
import math
import random
import time

from carmik._kernels import pure

try:
    from carmik._kernels import _native as native
except ImportError:
    native = None


# Carmichael numbers up to 10^7 .. 10^10 (OEIS A055553).
CENSUS_ROWS = {"census to 1e7": 105, "census to 1e8": 255, "census to 1e9": 646,
               "census to 1e10": 1547}

# Kernels with no compiled twin: these rows are timed on pure only.
PURE_ONLY = {*CENSUS_ROWS, "ap scan l <= 500", "ap scan, one call per l = 1000..1199",
             "subset mitm x 200 (mod 105)"}


def timed(fn, repeat):
    best = math.inf
    value = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return value, best


def workloads():
    rng = random.Random(7)
    semiprimes = []
    while len(semiprimes) < 20:
        p = rng.randrange(2**25 | 1, 2**26, 2)
        q = rng.randrange(2**25 | 1, 2**26, 2)
        if pure.is_prime_u64(p) and pure.is_prime_u64(q):
            semiprimes.append(p * q)
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

    for e in range(7, 11):
        yield f"census to 1e{e}", lambda b, limit=10**e: b.carmichael_census(limit)
    yield "sieve [1e12, 1e12+1e6]", lambda b: b.primes_in_range(10**12, 10**12 + 10**6)
    yield "miller-rabin x 20k", lambda b: [b.is_prime_u64(n) for n in mr_values]
    yield "miller-rabin x 20k, 2^34..2^52", lambda b: [b.is_prime_u64(n) for n in mr_harvest]
    yield "miller-rabin x 20k primes, 2^34..2^52", lambda b: [b.is_prime_u64(n) for n in mr_primes]
    yield f"harvest_j x {len(harvest_g)} g, derived z=200", lambda b: [
        b.harvest_j(g, window, 1, 789) for g in harvest_g
    ]
    yield "ap scan l <= 500", lambda b: b.ap_max_scan(2, 500, ap_caps)
    # One call, so one table, per modulus, as in perfbench's ap_scan.
    yield "ap scan, one call per l = 1000..1199", lambda b: [
        b.ap_max_scan(l, l, [cap]) for l, cap in zip(band, band_caps)
    ]
    yield "brent x 20 semiprimes", lambda b: [b.brent_factor(n) for n in semiprimes]
    yield "subset mitm x 200 (mod 105)", lambda b: [
        b.subset_witness_mitm(e, 105, 0) for e in stress
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if native is None:
        print("compiled backend unavailable; timing the pure backend only")
    header = f"{'workload':<38} {'pure':>10} {'native':>10} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, fn in workloads():
        pure_value, pure_time = timed(lambda: fn(pure), args.repeat)
        if name in CENSUS_ROWS:
            assert len(pure_value) == CENSUS_ROWS[name], name
        if native is None or name in PURE_ONLY:
            print(f"{name:<38} {pure_time:>9.3f}s {'-':>10} {'-':>9}")
            continue
        native_value, native_time = timed(lambda: fn(native), args.repeat)
        assert pure_value == native_value, f"backend mismatch in {name}"
        print(
            f"{name:<38} {pure_time:>9.3f}s {native_time:>9.3f}s "
            f"{pure_time / native_time:>8.1f}x"
        )


if __name__ == "__main__":
    main()
