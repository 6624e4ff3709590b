"""Harvesting pipeline for the two coupled prime families.

Stages, in order: build the window product J; enumerate its divisors g
with a fixed prime count; bucket primes q = g*j + 1 by the smallest
admissible j; pick the fattest bucket j0; split it into two disjoint prime
sets Q1/Q2 with products L1/L2; search the coupled prime families P1/P2 of
the form p = d*k_i*nu + 1 for d | L_i; and verify the coprimality ledger
that pins gcd(p1 - 1, p2 - 1) to exactly nu.

Everything is deterministic: buckets assign each g at its smallest j,
ties in bucket selection break to the smallest j, the Q-split takes
ascending primes, and the k-search prefers larger families then smaller k.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import threading
import typing
from dataclasses import dataclass
from itertools import combinations

from . import arith
from .errors import (
    ConfigError,
    DomainError,
    InternalConsistencyError,
    SearchExhaustedError,
)

__all__ = [
    "ConstructionConfig",
    "RBucket",
    "RMap",
    "ConstructionInstance",
    "build_J",
    "enumerate_g",
    "populate_R",
    "select_j0",
    "split_Q",
    "squarefree_product",
    "search_P",
    "verify_pairwise_gcd",
    "zero_sum_modulus",
]


@dataclass(frozen=True)
class ConstructionConfig:
    """Parameters of one construction run.

    omega_g and j_cap default to 0, meaning "derive from z": floor(ln z)
    (at least 1) for omega_g and ceil((ln z)**(2A)) for j_cap.  nu must be
    even: every prime factor of a certified number is odd, so the invariant
    gcd(p - 1) is always even.
    """

    z: int
    nu: int
    omega_g: int = 0
    omega_d: int = 1
    j_cap: int = 0
    k_cap: int = 10_000
    q_subset_size: int = 1
    exponent_a: float = 2.0
    min_count: int = 1
    factor_digits: int = arith.DEFAULT_FACTOR_DIGITS

    def __post_init__(self):
        if self.z < 4:
            raise ConfigError("z must be at least 4")
        if self.nu < 2 or self.nu % 2 != 0:
            raise ConfigError("nu must be an even integer >= 2")
        if self.omega_g < 0 or self.omega_d < 1:
            raise ConfigError("omega_g must be >= 0 (0 = derive), omega_d >= 1")
        if self.j_cap < 0 or self.k_cap < 1 or self.q_subset_size < 1 or self.min_count < 1:
            raise ConfigError("caps and sizes must be positive")
        if self.exponent_a <= 0:
            raise ConfigError("the conjectural exponent must be positive")

    @property
    def resolved_omega_g(self) -> int:
        return self.omega_g if self.omega_g else max(1, int(math.log(self.z)))

    @property
    def resolved_j_cap(self) -> int:
        if self.j_cap:
            return self.j_cap
        return math.ceil(math.log(self.z) ** (2 * self.exponent_a))


def _parse_bool(text: str) -> bool:
    spelling = text.lower()
    if spelling in ("1", "true", "yes"):
        return True
    if spelling in ("0", "false", "no"):
        return False
    raise ValueError(f"{text!r} is not a boolean (1/true/yes or 0/false/no)")


def read_key_values(text: str, error: type[Exception]) -> dict[str, str]:
    """Keys and values of a flat "key = value" document with '#' comments.

    A line without '=' or a repeated key raises ``error`` naming the line.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise error(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in raw:
            raise error(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def text_parsers(cls) -> dict[str, typing.Callable[[str], object]]:
    """Field name -> parser of its text form, from a config dataclass's annotations.

    A bool is "1", "true" or "yes", or "0", "false" or "no", in any case;
    every type raises ValueError on malformed text.
    """
    hints = typing.get_type_hints(cls)
    return {
        f.name: _parse_bool if hints[f.name] is bool else hints[f.name]
        for f in dataclasses.fields(cls)
    }


@dataclass(frozen=True)
class RBucket:
    """Primes q = g*j + 1 sharing the same j, with their g values."""

    j: int
    members: tuple[tuple[int, int], ...]  # (q, g), ascending by q

    def __len__(self) -> int:
        return len(self.members)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.members)


@dataclass(frozen=True)
class RMap:
    """Bucket map j -> RBucket plus the g values that never produced a prime.

    Misses are data, not errors: each records an unwitnessed g at this j cap.
    """

    buckets: dict[int, RBucket]
    misses: tuple[int, ...]


def build_J(z: int) -> arith.FactoredInteger:
    """Product of the primes in the window [ceil(z/2), z]."""
    if z < 2:
        raise DomainError("the prime window needs z >= 2")
    lo = (z + 1) // 2
    primes = arith.primes_in_range(lo, z)
    if not primes:
        raise DomainError(f"no primes in [{lo}, {z}]")
    return arith.FactoredInteger.from_factor_map({p: 1 for p in primes})


def enumerate_g(j_product: arith.FactoredInteger, omega_g: int) -> list[int]:
    """Squarefree divisors of J with exactly omega_g prime factors, ascending.

    The count is binomial(omega(J), omega_g); an oversized omega_g yields an
    empty list rather than an error.
    """
    if omega_g < 1:
        raise DomainError("omega_g must be >= 1")
    return sorted(math.prod(c) for c in combinations(j_product.primes, omega_g))


# A fork, with the child's exit and reaping, costs about 2 ms in a 25 MB
# process, and one g about 30 us of harvest_j; a worker is started only
# for a slice that takes at least ten times its fork.
_MIN_SLICE = 10 * 2000 // 30


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _harvest_workers(count: int) -> int:
    """Processes to walk ``count`` g: 1 where a fork is useless or unsafe.

    A fork is useless for fewer g than two minimum slices or on one CPU,
    missing off POSIX, and unsafe while other threads run (a child could
    inherit a lock that one of them holds).
    """
    if count < 2 * _MIN_SLICE or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), count // _MIN_SLICE)


def _least_js(gs: list[int], primes: tuple[int, ...], j_cap: int) -> typing.Iterable[int]:
    """``arith.harvest_j(g, primes, 1, j_cap)`` for each g of gs, in order.

    With w > 1 workers, worker i walks the slice gs[i::w].  This process is
    worker 0; each other worker is a forked child that writes its j values
    to a pipe as one array('q') and leaves with os._exit.  A slice whose
    child could not be forked, or ended without writing all of it, is
    walked here after slice 0, so an error of harvest_j leaves with its own
    type.  Every child is reaped before this returns or raises; one still
    running when this process raises is killed first.
    """
    workers = _harvest_workers(len(gs))
    if workers == 1:
        return (arith.harvest_j(g, primes, 1, j_cap) for g in gs)
    import signal
    from array import array

    def walk(i):
        return array("q", [arith.harvest_j(g, primes, 1, j_cap) for g in gs[i::workers]])

    children = {}  # worker index -> (pid, read end of its pipe)
    try:
        for i in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: walk the rest here
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(walk(i))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[i] = (pid, open(read_fd, "rb"))
        js = array("q", bytes(8 * len(gs)))
        js[0::workers] = walk(0)
        for i in range(1, workers):
            data = b""
            if i in children:
                pid, pipe = children[i]
                with pipe:
                    data = pipe.read()
                os.waitpid(pid, 0)
                del children[i]
            if len(data) == 8 * len(range(i, len(gs), workers)):
                js[i::workers] = array("q", data)
            else:
                js[i::workers] = walk(i)
        return js
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def populate_R(
    j_product: arith.FactoredInteger, omega_g: int, j_cap: int
) -> RMap:
    """Bucket each q = g*j + 1 at g's smallest admissible j <= j_cap.

    Admissible means gcd(j, g) = 1 and g*j + 1 prime; ``arith.harvest_j``
    finds it, and its kernel proves each q from the window primes of g that
    divide q - 1.  Each g contributes at most one q; a q already
    claimed by an earlier g is skipped, by a second call from j + 1, so that
    every prime appears in exactly one bucket (the decomposition of q - 1
    is not always unique, so first-come by ascending g canonicalizes it).

    The walk has two parts.  The first, each g's least j, depends on g
    alone, so ``_least_js`` splits it across the usable CPUs in
    interleaved slices of the ascending g.  The second, the merge, runs
    here over those j in ascending g: only it reads and grows the set of
    claimed q, so every collision is met, and settled, in the same order
    as by one process, and the buckets are the same.
    """
    if j_cap < 1:
        raise DomainError("j_cap must be >= 1")
    assignments: dict[int, list[tuple[int, int]]] = {}
    taken: set[int] = set()
    misses = []
    primes = j_product.primes
    gs = enumerate_g(j_product, omega_g)
    for g, j in zip(gs, _least_js(gs, primes, j_cap)):
        while j and g * j + 1 in taken:
            j = arith.harvest_j(g, primes, j + 1, j_cap)
        if j:
            q = g * j + 1
            assignments.setdefault(j, []).append((q, g))
            taken.add(q)
        else:
            misses.append(g)
    buckets = {
        j: RBucket(j=j, members=tuple(sorted(members)))
        for j, members in assignments.items()
    }
    return RMap(buckets=buckets, misses=tuple(misses))


def select_j0(rmap: RMap) -> tuple[int, RBucket]:
    """The fattest bucket; ties break to the smallest j."""
    if not rmap.buckets:
        raise DomainError("no buckets to select from")
    j0 = min(rmap.buckets, key=lambda j: (-len(rmap.buckets[j]), j))
    return j0, rmap.buckets[j0]


def split_Q(bucket: RBucket, size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """First `size` primes ascending as Q1, the next `size` as Q2."""
    if size < 1:
        raise DomainError("subset size must be >= 1")
    primes = bucket.primes
    if len(primes) < 2 * size:
        raise SearchExhaustedError(
            f"bucket j={bucket.j} holds {len(primes)} primes; {2 * size} needed",
            achieved=len(primes),
            required=2 * size,
        )
    return primes[:size], primes[size : 2 * size]


def squarefree_product(primes: tuple[int, ...]) -> arith.FactoredInteger:
    return arith.FactoredInteger.from_factor_map({p: 1 for p in primes})


# search_P sieves each divisor's candidates by the primes up to this bound.
_SIEVE_BOUND = 1000


def _affine_sieve(a: int, b: int, count: int, primes: list[int]) -> bytearray:
    """Flags for t = 0..count: 0 where t >= 1 and a*t + b has a factor in
    primes other than itself, 1 elsewhere (a, b >= 1).
    """
    flags = bytearray(b"\x01") * (count + 1)
    for r in primes:
        if a % r == 0:
            if b % r == 0:  # r | a*t + b > r for every t
                flags[1:] = bytes(count)
                return flags
            continue
        t = -b * pow(a, -1, r) % r or r
        if a * t + b == r:
            t += r
        flags[t::r] = bytes(len(range(t, count + 1, r)))
    return flags


def search_P(
    l_own: arith.FactoredInteger,
    l_other: arith.FactoredInteger,
    nu: int,
    omega_d: int,
    k_cap: int,
    min_count: int,
    k1: int | None = None,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Search k and the prime family {p = d*k*nu + 1 : d | l_own, omega(d) = omega_d}.

    First mode (k1 is None) tries k = nu*k' + 1 for k' = 1..k_cap; second
    mode tries k = nu*k'*k1 + 1, which is automatically coprime to both nu
    and k1.  Coprimality to L1*L2 is checked explicitly for every candidate
    k.  Among candidates reaching min_count hits, the largest family wins,
    ties to the smallest k.  Returns (k, ((p, d), ...)) with d ascending.
    Each divisor's candidates are sieved by the primes up to _SIEVE_BOUND
    before any primality test.

    Only a strictly larger family changes the answer, so a k is tested only
    while it can still beat the largest family seen so far: a k whose sieve
    survivors are no more than that size is skipped, and testing within a
    k stops once its hits plus its untested survivors are no more.  While
    no family has reached min_count, the largest seen is below min_count,
    so a skipped k could not have reached it either; the result and the
    SearchExhaustedError stats are those of testing every survivor.
    """
    if nu % 2 != 0:
        raise DomainError("nu must be even")
    ll = l_own.value * l_other.value
    if k1 is not None and math.gcd(k1, nu * ll) != 1:
        raise DomainError("supplied k1 is not coprime to nu*L1*L2")
    divisors = sorted(
        math.prod(c) for c in combinations(l_own.primes, omega_d)
    )
    if not divisors:
        raise SearchExhaustedError(
            f"no divisor of {l_own.value} has {omega_d} prime factors",
            omega_d=omega_d,
            available=l_own.omega,
        )
    c = 1 if k1 is None else k1
    # p = d*k*nu + 1 with k = nu*c*k' + 1 is affine in k': p = a*k' + b.
    primes = arith.primes_in_range(2, _SIEVE_BOUND)
    sieves = [_affine_sieve(d * nu * nu * c, d * nu + 1, k_cap, primes) for d in divisors]
    best: tuple[int, tuple[tuple[int, int], ...]] | None = None
    best_any = (0, 0)  # (size, k) over every candidate, for diagnostics
    for k_step in range(1, k_cap + 1):
        k = nu * c * k_step + 1
        if math.gcd(k, ll) != 1:
            continue
        left = [d for d, sieve in zip(divisors, sieves) if sieve[k_step]]
        hits = []
        for i, d in enumerate(left):
            # Stop once even a hit at every untested survivor could not beat
            # best_any; at i = 0 that skips k without a test.
            if len(hits) + len(left) - i <= best_any[0]:
                break
            p = d * k * nu + 1
            if arith.is_prime(p):
                hits.append((p, d))
        if len(hits) > best_any[0]:
            best_any = (len(hits), k)
        if len(hits) >= min_count and (best is None or len(hits) > len(best[1])):
            best = (k, tuple(hits))
            if len(hits) == len(divisors):
                break  # no candidate can beat a full family
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


def verify_pairwise_gcd(
    p1: tuple[tuple[int, int], ...],
    p2: tuple[tuple[int, int], ...],
    nu: int,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Check gcd(p1 - 1, p2 - 1) == nu for every cross pair.

    Returns (True, None) or (False, (p1, p2, gcd)) for the first offending
    pair in index order.
    """
    if not p1 or not p2:
        raise DomainError("both families must be nonempty")
    for q1, _ in p1:
        for q2, _ in p2:
            g = math.gcd(q1 - 1, q2 - 1)
            if g != nu:
                return False, (q1, q2, g)
    return True, None


def _omega_over(d: int, primes: tuple[int, ...]) -> int:
    """Prime count of a divisor d of prod(primes), all of them prime."""
    return sum(1 for q in set(primes) if d % q == 0)


@dataclass(frozen=True)
class ConstructionInstance:
    """Everything one harvest produced, with its coprimality ledger."""

    config: ConstructionConfig
    j0: int
    q1: tuple[int, ...]
    q2: tuple[int, ...]
    k1: int
    k2: int
    p1: tuple[tuple[int, int], ...]  # (p, d), d | l1
    p2: tuple[tuple[int, int], ...]  # (p, d), d | l2

    # J, L1 and L2 are read from z, Q1 and Q2, never stored beside them.
    j_product = functools.cached_property(lambda self: build_J(self.config.z))
    l1 = functools.cached_property(lambda self: squarefree_product(self.q1))
    l2 = functools.cached_property(lambda self: squarefree_product(self.q2))

    def verify(self) -> None:
        """Assert the full invariant ledger; raises on the first violation."""
        cfg = self.config
        nu = cfg.nu
        if set(self.q1) & set(self.q2):
            raise InternalConsistencyError("Q1 and Q2 intersect")
        j_value, j_primes = self.j_product.value, self.j_product.primes
        for q in self.q1 + self.q2:
            if not arith.is_prime(q):
                raise InternalConsistencyError(f"{q} is not prime")
            g, rem = divmod(q - 1, self.j0)
            if rem or math.gcd(self.j0, g) != 1:
                raise InternalConsistencyError(f"{q} - 1 != g * {self.j0} with (j, g) = 1")
            # J is the squarefree product of the window primes, so g needs no factoring.
            if j_value % g != 0:
                raise InternalConsistencyError(f"cofactor of {q} leaves the window")
            if _omega_over(g, j_primes) != cfg.resolved_omega_g:
                raise InternalConsistencyError(f"cofactor of {q} has the wrong shape")
        ll = self.l1.value * self.l2.value
        for label, k in (("k1", self.k1), ("k2", self.k2)):
            if math.gcd(k, nu * ll) != 1:
                raise InternalConsistencyError(f"{label} is not coprime to nu*L1*L2")
        if math.gcd(self.k1, self.k2) != 1:
            raise InternalConsistencyError("k1 and k2 are not coprime")
        for p, d in self.p1:
            if d * self.k1 * nu + 1 != p or self.l1.value % d != 0:
                raise InternalConsistencyError(f"{p} does not decompose over L1")
            if _omega_over(d, self.q1) != cfg.omega_d:
                raise InternalConsistencyError(f"divisor {d} has the wrong prime count")
            if (p - 1 - d * nu) % (d * nu * nu) != 0:
                raise InternalConsistencyError(f"{p} fails its congruence family")
        for p, d in self.p2:
            if d * self.k2 * nu + 1 != p or self.l2.value % d != 0:
                raise InternalConsistencyError(f"{p} does not decompose over L2")
            if _omega_over(d, self.q2) != cfg.omega_d:
                raise InternalConsistencyError(f"divisor {d} has the wrong prime count")
            if (p - 1 - d * nu) % (d * nu * nu * self.k1) != 0:
                raise InternalConsistencyError(f"{p} fails its congruence family")
        ok, bad = verify_pairwise_gcd(self.p1, self.p2, nu)
        if not ok:
            raise InternalConsistencyError(f"pairwise gcd violated at {bad}")
        # Structural reason the pairwise gcd collapses to nu:
        if math.gcd(self.l1.value * self.k1 * nu, self.l2.value * self.k2 * nu) != nu:
            raise InternalConsistencyError("gcd(L1*k1*nu, L2*k2*nu) != nu")

    # -- flat text serialization (resume/inspect format) -----------------

    def serialize(self) -> str:
        lines = ["format = carmik-instance-v1"]
        lines += [f"{f.name} = {getattr(self.config, f.name)}"
                  for f in dataclasses.fields(ConstructionConfig)]
        lines += [
            f"J = {self.j_product.value}",
            "J_primes = " + ",".join(str(p) for p in self.j_product.primes),
            f"j0 = {self.j0}",
            "Q1 = " + ",".join(str(q) for q in self.q1),
            "Q2 = " + ",".join(str(q) for q in self.q2),
            f"k1 = {self.k1}",
            f"k2 = {self.k2}",
            "P1 = " + ",".join(f"{p}:{d}" for p, d in self.p1),
            "P2 = " + ",".join(f"{p}:{d}" for p, d in self.p2),
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ConstructionInstance":
        """Read a serialized instance; unknown keys are rejected."""
        fields = read_key_values(text, DomainError)
        if fields.pop("format", None) != "carmik-instance-v1":
            raise DomainError("unrecognized instance document")

        def value(key, parse=int):
            # Each key is read once; whatever is left at the end is unknown.
            if key not in fields:
                raise DomainError(f"instance document has no {key!r} line")
            try:
                return parse(fields.pop(key))
            except ValueError as exc:
                raise DomainError(f"instance field {key!r} is malformed: {exc}") from exc

        def ints(s):
            return tuple(int(x) for x in s.split(",") if x)

        def pairs(s):
            out = []
            for part in s.split(","):
                if part:
                    p, _, d = part.partition(":")
                    out.append((int(p), int(d)))
            return tuple(out)

        cfg = ConstructionConfig(
            **{key: value(key, parse) for key, parse in text_parsers(ConstructionConfig).items()}
        )
        instance = cls(
            config=cfg,
            j0=value("j0"),
            q1=value("Q1", ints),
            q2=value("Q2", ints),
            k1=value("k1"),
            k2=value("k2"),
            p1=value("P1", pairs),
            p2=value("P2", pairs),
        )
        if value("J") != instance.j_product.value:
            raise DomainError(f"J is not the window product for z = {cfg.z}")
        if value("J_primes", str) != ",".join(str(p) for p in instance.j_product.primes):
            raise DomainError(f"J_primes are not the window primes for z = {cfg.z}")
        if fields:
            raise DomainError(f"unknown instance keys: {', '.join(sorted(fields))}")
        instance.verify()
        return instance


def zero_sum_modulus(instance: ConstructionInstance) -> arith.FactoredInteger:
    """M = L1*L2*k1*k2*nu, factored: the modulus of both zero-sum searches."""
    parts: dict[int, int] = {q: 1 for q in instance.q1 + instance.q2}
    for k in (instance.k1, instance.k2, instance.config.nu):
        for p, e in arith.factorize(k).factors:
            parts[p] = parts.get(p, 0) + e
    return arith.FactoredInteger.from_factor_map(parts)
