"""Brute-force references for the tests: every base, every unit, no shortcuts.

Each loops over all residues mod n, so they suit only small n.  The
compiled backend keeps a twin of the first four, which
``test_native_parity.py`` compares against these.
"""

from math import gcd

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
