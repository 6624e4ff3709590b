"""Least prime in an arithmetic progression, and bound-ratio scans.

All logarithms here are natural logarithms.  The scan normalizes the least
prime p == b (mod l) by l * (ln l)**A; for l < SMALL_MODULUS_CUTOFF the
normalization is meaningless or inverted, so those rows are reported but
kept out of the "consistent" summary statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernels import backend, pure
from .errors import DomainError, InvalidClassError, SearchExhaustedError

__all__ = [
    "SMALL_MODULUS_CUTOFF",
    "ApQuery",
    "ApResult",
    "ScanRow",
    "ScanTable",
    "default_cap",
    "first_prime_in_ap",
    "heath_brown_scan",
]

#: Moduli below this are excluded from the consistent-summary statistic.
SMALL_MODULUS_CUTOFF = 16


def default_cap(modulus: int) -> int:
    """Search ceiling l * (ln l)**3 + 100 used by scans and sanity sweeps."""
    return int(modulus * math.log(modulus) ** 3) + 100


def _ratio(p: int, modulus: int, exponent: float) -> float:
    return p / (modulus * math.log(modulus) ** exponent)


@dataclass(frozen=True)
class ApQuery:
    """A residue class b mod l and a search ceiling."""

    modulus: int
    residue: int
    cap: int

    def __post_init__(self):
        if self.modulus < 2:
            raise DomainError("modulus must be >= 2")
        if not 0 <= self.residue < self.modulus:
            raise DomainError("residue must satisfy 0 <= b < l")
        if math.gcd(self.residue, self.modulus) != 1:
            raise InvalidClassError(
                f"gcd({self.residue}, {self.modulus}) > 1: the class holds at most one prime"
            )
        if self.cap < self.residue:
            raise DomainError("cap must be at least the residue")


@dataclass(frozen=True)
class ApResult:
    """Least prime found for a query; ratio(A) is p / (l * (ln l)**A)."""

    query: ApQuery
    p: int
    steps: int

    def ratio(self, exponent: float) -> float:
        return _ratio(self.p, self.query.modulus, exponent)


def first_prime_in_ap(
    modulus: int,
    residue: int,
    cap: int | None = None,
) -> ApResult:
    """Least prime p == residue (mod modulus), scanning b, b+l, b+2l, ... <= cap.

    Raises InvalidClassError when gcd(b, l) > 1 and SearchExhaustedError when
    the cap is reached without a prime (never a silent miss).
    """
    if cap is None:
        cap = default_cap(modulus)
    query = ApQuery(modulus=modulus, residue=residue, cap=cap)
    p, steps = backend.first_prime_in_ap(modulus, residue, cap)
    if p == 0:
        raise SearchExhaustedError(
            f"no prime == {residue} (mod {modulus}) up to {cap}",
            modulus=modulus,
            residue=residue,
            cap=cap,
            steps=steps,
        )
    return ApResult(query=query, p=p, steps=steps)


@dataclass(frozen=True)
class ScanRow:
    modulus: int
    residue: int
    p: int
    ratio: float


@dataclass(frozen=True)
class ScanTable:
    """Per-modulus worst cases for a range of moduli.

    per_l holds, for each l in range, the class with the largest least
    prime (ties to the smallest b).  global_max is the worst row over all
    moduli scanned; consistent_max restricts to l >= SMALL_MODULUS_CUTOFF.
    misses lists every (l, b) whose progression held no prime up to the cap.
    """

    exponent: float
    per_l: tuple[ScanRow, ...]
    misses: tuple[tuple[int, int], ...]
    global_max: ScanRow | None
    consistent_max: ScanRow | None

    def csv_rows(self):
        yield ("l", "b", "p", "ratio")
        for row in self.per_l:
            yield (row.modulus, row.residue, row.p, f"{row.ratio:.6f}")


def heath_brown_scan(
    l_min: int,
    l_max: int,
    exponent: float = 2.0,
    cap: int | None = None,
) -> ScanTable:
    """Least-prime ratios p / (l (ln l)**A) for every l in [l_min, l_max].

    Every residue class b coprime to l is searched up to ``cap`` (default:
    default_cap(l) per modulus).  An empty range yields an empty table.
    The scan is ``pure.ap_max_scan`` on either backend: it reads a sieve
    table in rows of width l, and one integer AND per row settles every
    class whose term in that row is prime, so no term is tested alone.
    """
    if l_min < 2:
        raise DomainError("moduli start at 2")
    if l_min > l_max:
        return ScanTable(exponent, (), (), None, None)
    caps = [cap if cap is not None else default_cap(l) for l in range(l_min, l_max + 1)]
    raw, raw_misses = pure.ap_max_scan(l_min, l_max, caps)
    per_l = []
    for l, b, p in raw:
        if p == 0:
            continue
        per_l.append(ScanRow(l, b, p, _ratio(p, l, exponent)))
    global_max = max(per_l, key=lambda r: r.ratio, default=None)
    consistent = [r for r in per_l if r.modulus >= SMALL_MODULUS_CUTOFF]
    consistent_max = max(consistent, key=lambda r: r.ratio, default=None)
    return ScanTable(
        exponent=exponent,
        per_l=tuple(per_l),
        misses=tuple(tuple(x) for x in raw_misses),
        global_max=global_max,
        consistent_max=consistent_max,
    )
