"""Brute-force references for the tests: every base, every unit, no shortcuts.

The residue checks loop over all residues mod n, so they suit only small
n.  ``smallest_prime_factors`` is the table that ``spf_census``, the
Korselt scan over every odd n, reads; the census kernel is checked
against that scan, and against ``walk_census``, the linear walk over
n == P (mod P(P - 1)) from each largest prime P, at limits too large for
the table.  ``search_P`` is the family search that tests every
candidate with ``sympy.isprime`` and counts, by trial division, the
candidates that the sieve leaves.
"""

from itertools import combinations
from math import gcd, isqrt, prod

import sympy

from carmik._kernels.pure import primes_in_range
from carmik.construction import _SIEVE_BOUND
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


def walk_census(limit):
    """All (n, K) with n <= limit a Carmichael number, ascending.

    The census that walks each n from its largest prime factor P (Pinch,
    "The Carmichael numbers up to 10^21", 2007).  By Korselt, n = P*m where
    m is a squarefree product of odd primes below P, so at most their
    product, and m == 1 (mod P - 1) with 1 < m != P, so m > P and
    P < sqrt(n).  Each such m that P does not divide gets a base-2 Fermat
    test, which every Carmichael number passes, and ``_korselt_k`` decides
    the survivors.  Its cost is linear in limit; the descent in
    ``pure.carmichael_census`` must return the same rows.
    """
    odd_primes = primes_in_range(3, isqrt(max(limit, 0)))
    out = []
    m_cap = 1  # product of the odd primes below P, capped at limit
    for i, big in enumerate(odd_primes):
        for m in range(2 * big - 1, min(limit // big, m_cap) + 1, big - 1):
            n = big * m
            if m % big and pow(2, n - 1, n) == 1:
                k = _korselt_k(n, m, big, odd_primes[:i])
                if k:
                    out.append((n, k))
        m_cap = min(m_cap * big, limit)
    out.sort()
    return out


def _korselt_k(n, m, big, primes):
    """K of n = big*m if m is a squarefree product of ``primes``, the odd
    primes below big, each with p - 1 | n - 1; else 0."""
    k = big - 1
    for q in primes:
        if q * q > m:
            break
        if m % q == 0:
            m //= q
            if m % q == 0 or (n - 1) % (q - 1):
                return 0
            k = gcd(k, q - 1)
    # Trial division leaves 1 or one prime, which must lie below big.
    if m > 1 and (m >= big or (n - 1) % (m - 1)):
        return 0
    return gcd(k, m - 1)


def search_P(l_own, l_other, nu, omega_d, k_cap, min_count, k1=None):
    """construction.search_P testing every candidate p: no sieve, no pruning.

    Its SearchExhaustedError counts as survivors the candidates p at every
    k <= k_cap coprime to L1*L2 that no prime r <= _SIEVE_BOUND, r != p,
    divides.
    """
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
    small = list(sympy.primerange(2, _SIEVE_BOUND + 1))
    best, best_any, survivors = None, (0, 0), 0
    for k_step in range(1, k_cap + 1):
        k = nu * k_step + 1 if k1 is None else nu * k_step * k1 + 1
        if gcd(k, ll) != 1:
            continue
        for d in divisors:
            p = d * k * nu + 1
            survivors += all(p % r or p == r for r in small)
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
            survivors=survivors,
        )
    return best

