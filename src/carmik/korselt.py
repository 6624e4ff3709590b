"""Carmichael certification, the K-invariant, and an exact census.

The certifier is factorization-based: n qualifies iff it is composite,
squarefree, and p - 1 | n - 1 for every prime p | n; a certificate is that
factorization, built from known primes or by factoring.  The census,
``pure.carmichael_census``, applies the same test: it chooses the primes
of n largest first, and where the product N of those chosen has few
completions left it reads the cofactor m from the progression
m == N^-1 (mod lcm(p - 1)) that Korselt forces, so it misses none.  It holds only the primes up to sqrt(limit), and ``census`` refuses
a limit whose table of them would pass ``CENSUS_TABLE_CAP`` bytes.  The
Fermat condition is only probed here, at seeded random bases
(``fermat_probe``); the exhaustive all-bases oracle that cross-checks the
certifier lives with the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

from . import arith
from ._kernels import pure
from .errors import DomainError, InternalConsistencyError

__all__ = [
    "CarmichaelCertificate",
    "KorseltRejection",
    "is_carmichael",
    "k_invariant",
    "census",
    "fermat_probe",
]


@dataclass(frozen=True)
class CarmichaelCertificate:
    """Positive Korselt verdict: the factorization of n, whose primes the
    builder has proven.  Construction checks Korselt on them; n and K are
    read from them."""

    factors: arith.FactoredInteger

    def __post_init__(self):
        rejection = _korselt_rejection(self.factors)
        if rejection is not None or self.factors.omega < 3:
            reason = "fewer than three primes" if rejection is None else rejection.describe()
            raise InternalConsistencyError(f"malformed certificate for {self.n}: {reason}")

    @property
    def n(self) -> int:
        return self.factors.value

    @property
    def k_invariant(self) -> int:
        return k_invariant(self.factors)

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class KorseltRejection:
    """Negative verdict carrying the first failed condition."""

    n: int
    reason: str
    prime: int | None = None

    def __bool__(self) -> bool:
        return False

    def describe(self) -> str:
        if self.reason == "prime":
            return f"{self.n} is prime"
        if self.reason == "not squarefree":
            return f"{self.n} is divisible by {self.prime}**2"
        if self.reason == "divisibility":
            return f"{self.prime} | {self.n} but {self.prime - 1} does not divide {self.n - 1}"
        return f"{self.n}: {self.reason}"


def k_invariant(factors: arith.FactoredInteger | list[int] | tuple[int, ...]) -> int:
    """gcd of p - 1 over the listed primes.

    Accepts a squarefree FactoredInteger or a bare prime list.  A single
    prime yields p - 1.
    """
    if isinstance(factors, arith.FactoredInteger):
        if not factors.is_squarefree():
            raise DomainError("K is defined for squarefree integers only")
        primes = factors.primes
    else:
        primes = tuple(factors)
    if not primes:
        raise DomainError("K needs at least one prime")
    return arith.gcd_all([p - 1 for p in primes])


def is_carmichael(
    n: int, effort_digits: int | None = None
) -> CarmichaelCertificate | KorseltRejection:
    """Korselt verdict for n >= 2.

    Returns a truthy CarmichaelCertificate or a falsy KorseltRejection whose
    reason names the first failed condition (prime input, a repeated prime,
    or the prime at which p - 1 | n - 1 breaks).
    """
    if n < 2:
        raise DomainError("Carmichael candidates start at 2")
    if arith.is_prime(n):
        return KorseltRejection(n, "prime")
    factors = arith.factorize(n, effort_digits=effort_digits)
    rejection = _korselt_rejection(factors)
    return CarmichaelCertificate(factors) if rejection is None else rejection


def _korselt_rejection(factors: arith.FactoredInteger) -> KorseltRejection | None:
    """The first prime at which Korselt's criterion fails, or None."""
    n = factors.value
    for p, e in factors.factors:
        if e > 1:
            return KorseltRejection(n, "not squarefree", prime=p)
        if (n - 1) % (p - 1) != 0:
            return KorseltRejection(n, "divisibility", prime=p)
    return None


# The census sieves a table of sqrt(limit) bytes and lists the primes in
# it before its first row; past this many bytes (limit > 10**16) it refuses.
CENSUS_TABLE_CAP = 10**8


def census(limit: int, nu_filter: int | None = None) -> list[tuple[int, int]]:
    """All Carmichael numbers n <= limit with their K values, ascending.

    With nu_filter, only rows with K == nu_filter are returned.
    """
    if limit < 2:
        raise DomainError("census needs limit >= 2")
    table = isqrt(limit)
    if table > CENSUS_TABLE_CAP:
        raise DomainError(
            f"census({limit}) needs a prime table of {table} bytes, "
            f"past the cap of {CENSUS_TABLE_CAP} bytes"
        )
    rows = pure.carmichael_census(limit)
    if nu_filter is not None:
        rows = [(n, k) for n, k in rows if k == nu_filter]
    return rows


def fermat_probe(n: int, bases: int = 200, seed: int = 0) -> bool:
    """a**n == a (mod n) for ``bases`` seeded-random a in [2, n - 2]."""
    rng = random.Random(seed)
    for _ in range(bases):
        a = rng.randrange(2, max(n - 1, 3))
        if pow(a, n, n) != a:
            return False
    return True
