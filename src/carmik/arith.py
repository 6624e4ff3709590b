"""Arbitrary-precision integer primitives.

Primality policy
----------------
Below ``KERNEL_BOUND`` (2**64) primality is decided exactly by the kernel
``pure.is_prime_u64``.  It rejects n with one gcd against the primes up to
211, then runs Miller-Rabin with the smallest published base set that is
exact at n's size (miller-rabin.appspot.com: one base below 341531, three
to six below 585226005592931977, seven below 2**64).  At or above the
bound, ``is_prime`` runs the same kernel with the fixed, documented base
set ``LARGE_BASES`` (the first 25 primes), after the same gcd: a
probable-prime method, but a reproducible one, and the range this package
actually exercises is cross-checked exactly by the test suite.  The split
is the policy, set where the exact base sets end; the kernels themselves
are exact Python integer arithmetic at every size.

The harvest asks a different question of each g: the least j with
gcd(j, g) = 1 and q = g*j + 1 prime.  ``harvest_j`` splits its walk at the
same bound and runs the kernel ``pure.harvest_j`` on each part.  The
kernel knows part of q - 1 factored, the primes of g, and proves q with
the n - 1 test: Pocklington's criterion when their product F has
F**2 > q, the Brillhart-Lehmer-Selfridge one when F**3 > q.  A candidate
costs about one full-size modular power, prime or not, where Miller-Rabin
spends three to five on a prime.  Where F stays too small, or no base
settles q, it falls back to Miller-Rabin with the bases ``is_prime`` uses
at q's size.  So below the bound every answer is exact, and at or above
it only a fallback is probable.

Factorization is trial division over a cached small-prime list followed by
Brent's cycle method, recursing on cofactors: the kernel ``_brent_round``
over offsets 1..63, at every size.  Work is bounded by a digit cap and a
per-offset step budget; exceeding either raises
``FactorizationEffortError`` rather than ever returning a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ._kernels import pure
from .errors import DomainError, EmptyRangeError, FactorizationEffortError

KERNEL_BOUND = 2**64

#: Miller-Rabin bases used for operands >= KERNEL_BOUND.
LARGE_BASES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

#: Default digit cap for factorization effort.
DEFAULT_FACTOR_DIGITS = 64

#: Brent step budget per polynomial offset.
_BRENT_BUDGET = 2_000_000

_TRIAL_LIMIT = 20_000
_trial_primes: list[int] | None = None


def _small_primes() -> list[int]:
    global _trial_primes
    if _trial_primes is None:
        _trial_primes = pure.primes_in_range(2, _TRIAL_LIMIT)
    return _trial_primes


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its complete prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes; it is empty exactly when value == 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 0
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise DomainError("factors must be ascending primes with positive exponents")
            prev = p
            prod *= p**e
        if prod != self.value or self.value < 1:
            raise DomainError(f"factorization does not multiply back to {self.value}")

    @classmethod
    def of(cls, n: int | FactoredInteger, effort_digits: int | None = None) -> FactoredInteger:
        if isinstance(n, FactoredInteger):
            return n
        return factorize(n, effort_digits=effort_digits)

    @classmethod
    def from_factor_map(cls, factor_map: dict[int, int]) -> FactoredInteger:
        items = tuple(sorted(factor_map.items()))
        value = math.prod(p**e for p, e in items)
        return cls(value, items)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def __int__(self) -> int:
        return self.value


def is_prime(n: int) -> bool:
    """Exact below 2**64; reproducible probable-prime above (see module doc)."""
    if n < 2:
        return False
    if n < KERNEL_BOUND:
        return pure.is_prime_u64(n)
    return pure.is_prime_u64(n, LARGE_BASES)


def harvest_j(g: int, primes: tuple[int, ...], start: int, cap: int) -> int:
    """Least j in [start, cap] with gcd(j, g) = 1 and g*j + 1 prime, or 0.

    ``primes`` are ascending primes that hold those of g, such as the
    window primes; the kernel proves each q = g*j + 1 from them.  Where no
    proof settles q, it is decided as ``is_prime`` decides it: with the
    exact default bases below ``KERNEL_BOUND``, with ``LARGE_BASES`` at or
    above.
    """
    if g < 1:
        raise DomainError("g must be >= 1")
    top = (KERNEL_BOUND - 2) // g  # the last j with g*j + 1 < KERNEL_BOUND
    # A g past the word has no j below the bound (top = 0).
    j = pure.harvest_j(g, primes, start, min(cap, top)) if start <= top else 0
    if not j and cap > top:
        j = pure.harvest_j(g, primes, max(start, top + 1), cap, LARGE_BASES)
    return j


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending; both endpoints included."""
    if lo > hi:
        raise EmptyRangeError(f"empty range: lo={lo} > hi={hi}")
    if hi >= KERNEL_BOUND:
        raise FactorizationEffortError(f"sieving beyond {KERNEL_BOUND} is not supported")
    return pure.primes_in_range(max(lo, 0), hi)


def factorize(n: int, effort_digits: int | None = None) -> FactoredInteger:
    """Complete prime factorization of n >= 1.

    Raises FactorizationEffortError when n has more than ``effort_digits``
    decimal digits (default DEFAULT_FACTOR_DIGITS) or when the rho stage
    exceeds its iteration budget.
    """
    if n == 0:
        raise DomainError("0 has no prime factorization")
    if n < 0:
        raise DomainError("negative integers are not in the domain")
    cap = DEFAULT_FACTOR_DIGITS if effort_digits is None else effort_digits
    if len(str(n)) > cap:
        raise FactorizationEffortError(
            f"{len(str(n))}-digit operand exceeds the {cap}-digit effort cap"
        )
    factors: dict[int, int] = {}
    m = n
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    if m > 1:
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(m):
            # Below the square of the trial bound any survivor is prime.
            factors[m] = factors.get(m, 0) + 1
        else:
            _factor_hard(m, factors)
    return FactoredInteger.from_factor_map(factors) if factors else FactoredInteger(1, ())


def _factor_hard(m: int, factors: dict[int, int]) -> None:
    """Split composite m (no factors below _TRIAL_LIMIT) with Brent's method."""
    stack = [m]
    while stack:
        v = stack.pop()
        if is_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        root = math.isqrt(v)
        if root * root == v:
            stack.extend((root, root))
            continue
        for c in range(1, 64):
            d = pure._brent_round(v, c, _BRENT_BUDGET)
            if d is None:
                raise FactorizationEffortError(
                    f"rho budget exhausted while splitting a {len(str(v))}-digit composite"
                )
            if d:
                break
        else:
            raise FactorizationEffortError("rho failed to split after 63 polynomial offsets")
        stack.extend((d, v // d))


def carmichael_lambda(n: int | FactoredInteger) -> int:
    """lambda(n): the exponent of the unit group mod n.

    Prime-power rules: lambda(p**e) = phi(p**e) for odd p and for 2, 4;
    lambda(2**e) = 2**(e-2) for e >= 3; combined with lcm.
    """
    fi = FactoredInteger.of(n)
    if fi.value < 1:
        raise DomainError("lambda is defined for n >= 1")
    result = 1
    for p, e in fi.factors:
        if p == 2 and e >= 3:
            block = 2 ** (e - 2)
        else:
            block = p ** (e - 1) * (p - 1)
        result = math.lcm(result, block)
    return result


def euler_phi(n: int | FactoredInteger) -> int:
    """Euler's totient, multiplicatively from the factorization."""
    fi = FactoredInteger.of(n)
    result = 1
    for p, e in fi.factors:
        result *= p ** (e - 1) * (p - 1)
    return result


def largest_prime_factor(y: int | FactoredInteger) -> int:
    fi = FactoredInteger.of(y)
    if fi.value < 2:
        raise DomainError("largest prime factor needs y >= 2")
    return fi.factors[-1][0]


def gcd_all(values: Iterable[int]) -> int:
    vals = list(values)
    if not vals:
        raise DomainError("gcd of an empty list is undefined")
    return math.gcd(*vals) if len(vals) > 1 else abs(vals[0])


def lcm_all(values: Iterable[int]) -> int:
    vals = list(values)
    if not vals:
        raise DomainError("lcm of an empty list is undefined")
    if any(v < 1 for v in vals):
        raise DomainError("lcm requires values >= 1")
    return math.lcm(*vals)
