"""Brute-force references for the tests: every base, every unit, no shortcuts.

The residue checks loop over all residues mod n, so they suit only small
n.  ``smallest_prime_factors`` is the table that ``spf_census``, the
Korselt scan over every odd n, reads; the census kernels are checked
against that scan.  ``search_P`` is the family search that tests every
candidate with ``sympy.isprime``.
"""

from itertools import combinations
from math import gcd, isqrt, prod

import sympy

from carmik.errors import DomainError, SearchExhaustedError


def all_units_pow_one(n, exponent):
    """True iff a**exponent == 1 (mod n) for every a coprime to n."""
    return first_unit_failing(n, exponent) == 0


def first_unit_failing(n, exponent):
    """Smallest unit a mod n with a**exponent != 1 (mod n); 0 if none."""
    for a in range(1, n):
        if gcd(a, n) == 1 and pow(a, exponent, n) != 1:
            return a
    return 0


def count_coprime(n):
    """#{a in [1, n] : gcd(a, n) = 1}."""
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def fermat_carmichael(n):
    """n is composite and a**n == a (mod n) for every a < n."""
    return n >= 2 and not sympy.isprime(n) and all(pow(a, n, n) == a for a in range(n))


def smallest_prime_factors(limit):
    """List spf with spf[n] = smallest prime factor of n (spf[0] = spf[1] = 0)."""
    spf = list(range(limit + 1))
    if limit >= 1:
        spf[1] = 0
    if limit >= 0:
        spf[0] = 0
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def spf_census(limit):
    """All (n, K) with n <= limit a Carmichael number, ascending.

    Korselt scan over a smallest-prime-factor table: n qualifies iff it is
    composite, squarefree, and p - 1 | n - 1 for every prime p | n.  K is
    gcd(p - 1) over the prime factors.  Even n can never qualify, so only
    odd n are scanned.
    """
    if limit < 3:
        return []
    spf = smallest_prime_factors(limit)
    out = []
    for n in range(9, limit + 1, 2):
        if spf[n] == n:
            continue
        m = n
        k = 0
        good = True
        while m > 1:
            p = spf[m]
            m //= p
            if m % p == 0 or (n - 1) % (p - 1) != 0:
                good = False
                break
            k = gcd(k, p - 1)
        if good:
            out.append((n, k))
    return out


def search_P(l_own, l_other, nu, omega_d, k_cap, min_count, k1=None):
    """construction.search_P testing every candidate p: no sieve, no pruning."""
    ll = l_own.value * l_other.value
    if k1 is not None and gcd(k1, nu * ll) != 1:
        raise DomainError("supplied k1 is not coprime to nu*L1*L2")
    divisors = sorted(prod(c) for c in combinations(l_own.primes, omega_d))
    if not divisors:
        raise SearchExhaustedError(
            f"no divisor of {l_own.value} has {omega_d} prime factors",
            omega_d=omega_d,
            available=l_own.omega,
        )
    best, best_any = None, (0, 0)
    for k_step in range(1, k_cap + 1):
        k = nu * k_step + 1 if k1 is None else nu * k_step * k1 + 1
        if gcd(k, ll) != 1:
            continue
        hits = tuple((d * k * nu + 1, d) for d in divisors if sympy.isprime(d * k * nu + 1))
        if len(hits) > best_any[0]:
            best_any = (len(hits), k)
        if len(hits) >= min_count and (best is None or len(hits) > len(best[1])):
            best = (k, hits)
            if len(hits) == len(divisors):
                break
    if best is None:
        raise SearchExhaustedError(
            f"no k <= {k_cap} produced {min_count} primes over {len(divisors)} divisors",
            k_cap=k_cap,
            min_count=min_count,
            divisors=len(divisors),
            best_size=best_any[0],
            best_k=best_any[1],
        )
    return best
