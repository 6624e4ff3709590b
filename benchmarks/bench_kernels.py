"""Wall time of the kernels on fixed workloads.

Usage:  PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]

Each row times one workload of a kernel in ``carmik._kernels.pure``, best
of N runs, and checks its value against an answer found another way: the
census counts against OEIS A055553, the prime counts against
``sympy.isprime`` (found once and written here), the planted subsets
against their positions, the long lists in small groups against the sums
of their exponents, and every other row against a plain recomputation,
untimed.  The semiprime row runs through ``arith.factorize``, the
library's one Brent driver, and the long-list row through
``zerosum.find_product_one_subsequence``.  The results go to
BENCH_kernels.json beside this script.
"""

import argparse
import itertools
import json
import math
import os
import platform
import random
import time
from pathlib import Path

from bench_harvest import commit
from carmik import arith, construction, pipeline, zerosum
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

    # The modulus M = L1*L2*k1*k2*nu of the derived z=200 instance, 260
    # bits, and 18 units mod M per list with a product-one subset of 2 to 4
    # planted at odd indices of the upper half, as in perfbench's find-mitm
    # calls: the walk of the upper half reaches it late.
    derived = pipeline.harvest_instance(
        construction.ConstructionConfig(z=200, nu=2, omega_d=2, q_subset_size=3))
    assert pipeline.instance_fingerprint(derived).startswith("sha256:a0324db82e0e5a19")
    m260 = construction.zero_sum_modulus(derived).value

    def unit():
        while True:
            u = rng.randrange(2, m260)
            if math.gcd(u, m260) == 1:
                return u

    planted = []
    for _ in range(40):
        units = [unit() for _ in range(18)]
        where = sorted(rng.sample(range(9, 18, 2), rng.randint(2, 4)))
        units[where[-1]] = pow(math.prod(units[i] for i in where[:-1]), -1, m260)
        planted.append((units, tuple(where)))

    # The same for 12 units, as in perfbench's enumerate calls, each with a
    # subset of 2 or 3 planted at odd indices of the upper half: the
    # enumeration lists that subset alone, after all 2**12 - 1 nodes.
    planted12 = []
    for _ in range(40):
        units = [unit() for _ in range(12)]
        where = sorted(rng.sample(range(7, 12, 2), rng.randint(2, 3)))
        units[where[-1]] = pow(math.prod(units[i] for i in where[:-1]), -1, m260)
        planted12.append((units, tuple(where)))

    # Long lists in small groups, the regime past 45 elements: 40 lists of
    # 60 to 80 powers g**e, e in 1..3, of a primitive root g mod a prime
    # p < 500, with the exponents summing below p - 1.  Every nonempty
    # subset's exponent sum then lies strictly between 0 and p - 1, so no
    # subset has product 1 and the search covers every reachable product.
    small_primes = pure.primes_in_range(250, 500)
    long_lists = []
    while len(long_lists) < 40:
        p = rng.choice(small_primes)
        g = next(g for g in range(2, p)
                 if all(pow(g, (p - 1) // q, p) != 1 for q in arith.factorize(p - 1).primes))
        exps = [rng.randint(1, 3) for _ in range(rng.randint(60, 80))]
        if sum(exps) < p - 1:
            long_lists.append(([pow(g, e, p) for e in exps], p))

    def check_long(results):
        assert results == [None] * len(long_lists)

    def check_planted(results):
        assert [w for _, w in planted] == [witness for _, witness in results]
        assert all(status == pure.FOUND and math.prod(units[i] for i in w) % m260 == 1
                   for (units, w), (status, _) in zip(planted, results))

    def check_enumerated(results):
        assert results == [(pure.FOUND, [w], 2**12 - 1) for _, w in planted12]
        assert all(math.prod(units[i] for i in w) % m260 == 1 for units, w in planted12)

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
    yield (f"subset mitm x {len(planted)}, 18 units mod a {m260.bit_length()}-bit M",
           lambda: [pure.subset_witness_mitm(u, m260, 0) for u, _ in planted], check_planted)
    yield (f"find x {len(long_lists)}, 60-80 units mod p < 500",
           lambda: [zerosum.find_product_one_subsequence(u, p) for u, p in long_lists],
           check_long)
    yield (f"product-one walk x {len(planted12)}, 12 units mod the M",
           lambda: [pure._product_one_walk(u, m260, None, 0) for u, _ in planted12],
           check_enumerated)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    header = f"{'workload':<44} {'seconds':>10}"
    print(header)
    print("-" * len(header))
    rows = []
    for name, fn, check in workloads():
        value, seconds = timed(fn, args.repeat)
        check(value)
        rows.append(dict(workload=name, seconds=round(seconds, 5)))
        print(f"{name:<44} {seconds:>9.4f}s", flush=True)
    result = dict(
        python=platform.python_version(), cores=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)), commit=commit(),
        statistic=f"best of {args.repeat} runs", rows=rows,
    )
    Path(__file__).with_name("BENCH_kernels.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
