"""Arithmetic the benchmark uses to judge outputs.

Nothing here imports carmik: every answer the checks compare against is
computed by this file, by sympy (in checks.py) or by the input generator's
own knowledge of how it built an input.
"""

from __future__ import annotations

import itertools
import math

def prime_flags(limit: int) -> bytearray:
    """flags[i] == 1 iff i is prime, for 0 <= i <= limit (Eratosthenes)."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def totient(n: int) -> int:
    """Euler's phi by trial division."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def worst_class(modulus: int, primes: list[int]) -> tuple[int, int, int]:
    """(b, p, classes) for the class b mod modulus whose least prime p is largest.

    ``primes`` is an ascending list of primes; walking it fills the classes
    coprime to the modulus in the order their least primes appear, so the
    last class filled is the worst one.  ``classes`` is how many classes the
    list reached; it is below phi(modulus) when the list ends too early.
    """
    want = totient(modulus)
    seen: set[int] = set()
    for p in primes:
        b = p % modulus
        if modulus % p == 0 or b in seen:
            continue
        seen.add(b)
        if len(seen) == want:
            return b, p, want
    return 0, 0, len(seen)


def korselt_products(family1, family2) -> dict[int, int]:
    """Every Korselt number prod(S1) * prod(S2), mapped to its K.

    S1 and S2 run over the nonempty subsets of the two prime families with
    |S1| + |S2| >= 3.  Korselt's criterion is checked from the known
    primes, and K is gcd(p - 1) over them.
    """
    found = {}
    for s1 in _nonempty_subsets(family1):
        for s2 in _nonempty_subsets(family2):
            primes = s1 + s2
            if len(primes) < 3 or set(s1) & set(s2):
                continue
            n = math.prod(primes)
            if all((n - 1) % (p - 1) == 0 for p in primes):
                found[n] = math.gcd(*(p - 1 for p in primes))
    return found


def _nonempty_subsets(items):
    items = list(items)
    return [
        subset
        for size in range(1, len(items) + 1)
        for subset in itertools.combinations(items, size)
    ]


def product_mod(elements, indices, modulus: int) -> int:
    prod = 1
    for i in indices:
        prod = prod * elements[i] % modulus
    return prod


def product_one_subsets(elements, modulus: int) -> list[tuple[int, ...]]:
    """Every nonempty index subset whose product is 1 mod modulus, ascending."""
    found = []
    for size in range(1, len(elements) + 1):
        for subset in itertools.combinations(range(len(elements)), size):
            if product_mod(elements, subset, modulus) == 1 % modulus:
                found.append(subset)
    return sorted(found)
