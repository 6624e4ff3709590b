"""Brute-force references for the tests: every base, every unit, no shortcuts.

The residue checks loop over all residues mod n, so they suit only small
n.  The compiled backend keeps a twin of the first four and of
``smallest_prime_factors``, which ``test_native_parity.py`` compares
against these.  ``spf_census`` is the Korselt scan over every odd n that
the census kernels are checked against.
"""

from math import gcd, isqrt

import sympy


def fermat_all_bases(n):
    """True iff a**n == a (mod n) for every a in [0, n)."""
    return all(pow(a, n, n) == a for a in range(n))


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
    return n >= 2 and not sympy.isprime(n) and fermat_all_bases(n)


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
