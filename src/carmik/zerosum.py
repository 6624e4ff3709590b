"""Subset-product-to-identity search in (Z/MZ)^*.

Three interchangeable strategies, picked by sequence length when
``strategy="auto"``:

* ``exhaustive``  — depth-first over index subsets (<= 24 elements),
* ``mitm``        — meet-in-the-middle on two halves (<= 48),
* ``dlog``        — discrete logs on the CRT decomposition of the unit
  group, then reachability over the resulting additive lattice.

A cheap prefix-product pigeonhole pass runs first in every case; on random
input it settles most queries immediately.  Every witness any strategy
returns is re-verified by a direct modular product before reaching the
caller.  Repeated elements are distinct by index (sequence semantics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith
from ._kernels import backend, pure
from .errors import DomainError, InternalConsistencyError, SearchExhaustedError

__all__ = [
    "UnitGroupStructure",
    "ZeroSumWitness",
    "unit_group_structure",
    "discrete_log_vector",
    "davenport_upper_bound",
    "davenport_upper_bound_log",
    "find_product_one_subsequence",
    "enumerate_product_one_subsets",
]

EXHAUSTIVE_MAX = 24
MITM_MAX = 48

DEFAULT_NODE_CAP = 50_000_000
DEFAULT_TABLE_CAP = 4_194_304
DEFAULT_STATE_CAP = 2_000_000


@dataclass(frozen=True)
class UnitGroupStructure:
    """Internal direct product decomposition of (Z/MZ)^*.

    Each (generator, order) pair generates one cyclic factor; generators are
    CRT-lifted so they act trivially on every other prime-power block of M.
    Component order follows the ascending prime-power blocks, with the
    classical {-1, 5} pair (in that order) for blocks 2**e, e >= 3.
    """

    modulus: arith.FactoredInteger
    components: tuple[tuple[int, int], ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(order for _, order in self.components)


@dataclass(frozen=True)
class ZeroSumWitness:
    """An index subset whose selected elements multiply to 1 mod M."""

    indices: tuple[int, ...]
    product_check: int

    def verify(self, elements, modulus: int) -> bool:
        m = int(modulus)
        prod = 1
        for i in self.indices:
            prod = prod * (elements[i] % m) % m
        return len(self.indices) > 0 and prod == 1 % m and self.product_check == prod


def _primitive_root(p: int, phi_factors: tuple[int, ...]) -> int:
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in phi_factors):
            return g
    raise InternalConsistencyError(f"no primitive root found mod {p}")


def _local_blocks(fi: arith.FactoredInteger) -> list[tuple[int, int, int]]:
    """(prime_power, local generator, order) per cyclic factor, in order."""
    blocks: list[tuple[int, int, int]] = []
    for p, e in fi.factors:
        q = p**e
        if p == 2:
            if e == 1:
                continue  # (Z/2Z)^* is trivial
            if e == 2:
                blocks.append((4, 3, 2))
            else:
                blocks.append((q, q - 1, 2))
                blocks.append((q, 5, 2 ** (e - 2)))
        else:
            phi_factors = arith.factorize(p - 1).primes
            g = _primitive_root(p, phi_factors)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            blocks.append((q, g % q, p ** (e - 1) * (p - 1)))
    return blocks


def unit_group_structure(m: int | arith.FactoredInteger) -> UnitGroupStructure:
    """CRT decomposition of the unit group mod m >= 2.

    Odd prime powers get a primitive root; 4 its single generator; 2**e
    with e >= 3 the {-1, 5} pair.  Factoring m, and each p - 1 for the
    root search, is subject to the usual effort caps.
    """
    fi = arith.FactoredInteger.of(m)
    if fi.value < 2:
        raise DomainError("unit group structure needs m >= 2")
    components = []
    for q, g, order in _local_blocks(fi):
        rest = fi.value // q
        if rest == 1:
            lifted = g % fi.value
        else:
            # lifted == g (mod q), lifted == 1 (mod rest)
            lifted = (g * rest * pow(rest, -1, q) + q * pow(q, -1, rest)) % fi.value
        components.append((lifted, order))
    return UnitGroupStructure(modulus=fi, components=tuple(components))


def _bsgs(base: int, target: int, order: int, mod: int) -> int:
    """x with base**x == target (mod mod), 0 <= x < order."""
    step = math.isqrt(order) + 1
    table: dict[int, int] = {}
    cur = 1
    for j in range(step):
        table.setdefault(cur, j)
        cur = cur * base % mod
    giant = pow(pow(base, step, mod), -1, mod)
    cur = target
    for i in range(step + 1):
        j = table.get(cur)
        if j is not None:
            return (i * step + j) % order
        cur = cur * giant % mod
    raise DomainError("target lies outside the subgroup generated by base")


def _pohlig_hellman(base: int, target: int, order: int, mod: int) -> int:
    """Discrete log of target in <base>, |<base>| = order (smooth)."""
    residues: list[tuple[int, int]] = []
    for p, e in arith.factorize(order).factors:
        pe = p**e
        b = pow(base, order // pe, mod)
        t = pow(target, order // pe, mod)
        gamma = pow(b, pe // p, mod)  # element of order p
        x = 0
        for k in range(e):
            h = pow(pow(b, x, mod), -1, mod) * t % mod
            h = pow(h, pe // p ** (k + 1), mod)
            x += _bsgs(gamma, h, p, mod) * p**k
        residues.append((x, pe))
    x, m = 0, 1
    for r, q in residues:
        x += ((r - x) * pow(m % q, -1, q) % q) * m
        m *= q
    return x % order


def discrete_log_vector(structure: UnitGroupStructure, x: int) -> tuple[int, ...]:
    """Exponent vector of unit x over the structure's components.

    An odd block's local generator is its lifted generator mod p**e, read
    from the structure rather than searched for again.
    """
    fi = structure.modulus
    if math.gcd(x, fi.value) != 1:
        raise DomainError(f"{x} is not a unit mod {fi.value}")
    # Components follow the ascending prime powers: none for 2, one for 4,
    # two for 2**e with e >= 3, one for each odd block.
    components = iter(structure.components)
    coords: list[int] = []
    for p, e in fi.factors:
        q = p**e
        y = x % q
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                next(components)
                coords.append(0 if y == 1 else 1)
            else:
                next(components), next(components)
                # y == (-1)**a * 5**b over Z/2**e; a is read off mod 4.
                a = 0 if y % 4 == 1 else 1
                z = y if a == 0 else (q - y) % q
                coords.append(a)
                coords.append(_pohlig_hellman(5, z, 2 ** (e - 2), q))
        else:
            gen, order = next(components)
            coords.append(_pohlig_hellman(gen % q, y, order, q))
    return tuple(coords)


def davenport_upper_bound(m: int | arith.FactoredInteger) -> float:
    """lambda(M) * (1 + ln(phi(M) / lambda(M))); natural log.

    An upper bound on the least length forcing a product-one subsequence in
    any unit sequence mod M.  Returns inf when the value overflows a float.
    """
    fi = arith.FactoredInteger.of(m)
    if fi.value < 2:
        raise DomainError("bound needs m >= 2")
    lam = arith.carmichael_lambda(fi)
    phi = arith.euler_phi(fi)
    log_ratio = math.log(phi) - math.log(lam)
    try:
        return lam * (1.0 + log_ratio)
    except OverflowError:
        return math.inf


def davenport_upper_bound_log(m: int | arith.FactoredInteger) -> float:
    """Natural log of the bound; finite even when the bound itself is not."""
    fi = arith.FactoredInteger.of(m)
    lam = arith.carmichael_lambda(fi)
    phi = arith.euler_phi(fi)
    return math.log(lam) + math.log1p(math.log(phi) - math.log(lam))


def _validate_units(elements, m: int) -> list[int]:
    if m < 2:
        raise DomainError("modulus must be >= 2")
    reduced = []
    for i, e in enumerate(elements):
        if math.gcd(e, m) != 1:
            raise DomainError(f"element at index {i} ({e}) is not a unit mod {m}")
        reduced.append(e % m)
    return reduced


def _dlog_walk(elements: list[int], fi: arith.FactoredInteger, state_cap: int):
    """Reachability over the additive component lattice.

    Processes elements in index order, keeping the first index tuple that
    reaches each exponent vector; complete for existence as long as the
    state table stays within state_cap.
    """
    structure = unit_group_structure(fi)
    orders = structure.orders
    if not orders:
        # Trivial unit group: any single element is already the identity.
        return (0,) if elements else None
    vectors = [discrete_log_vector(structure, e) for e in elements]
    zero = tuple(0 for _ in orders)
    states: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i, vec in enumerate(vectors):
        if vec == zero:
            return (i,)
        additions = []
        for state, picked in states.items():
            new = tuple((s + v) % o for s, v, o in zip(state, vec, orders))
            if new == zero:
                return picked + (i,)
            if new not in states:
                additions.append((new, picked + (i,)))
        for new, picked in additions:
            states.setdefault(new, picked)
        states.setdefault(vec, (i,))
        if len(states) > state_cap:
            raise SearchExhaustedError(
                "state table exceeded its cap during the lattice walk",
                states=len(states),
                cap=state_cap,
            )
    return None


def find_product_one_subsequence(
    elements,
    modulus: int | arith.FactoredInteger,
    strategy: str = "auto",
    node_cap: int = DEFAULT_NODE_CAP,
    table_cap: int = DEFAULT_TABLE_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ZeroSumWitness | None:
    """A nonempty index subset whose product is 1 mod modulus, or None.

    Every element must be a unit mod modulus.  None means the search space
    was covered completely without finding a witness; a blown budget raises
    SearchExhaustedError instead of guessing.
    """
    fi = modulus if isinstance(modulus, arith.FactoredInteger) else None
    m = int(modulus) if fi is None else fi.value
    reduced = _validate_units(list(elements), m)
    if not reduced:
        return None

    run = pure.prefix_run_witness(reduced, m)
    if run is not None:
        return _checked(run, reduced, m)

    if strategy == "auto":
        if len(reduced) <= EXHAUSTIVE_MAX:
            strategy = "exhaustive"
        elif len(reduced) <= MITM_MAX:
            strategy = "mitm"
        else:
            strategy = "dlog"

    if strategy == "exhaustive":
        impl = backend if m < arith.KERNEL_BOUND else pure
        status, witness = impl.subset_witness_exhaustive(reduced, m, node_cap)
    elif strategy == "mitm":
        impl = backend if m < arith.KERNEL_BOUND else pure
        status, witness = impl.subset_witness_mitm(reduced, m, table_cap)
    elif strategy == "dlog":
        witness = _dlog_walk(reduced, fi if fi is not None else arith.FactoredInteger.of(m), state_cap)
        status = pure.FOUND if witness is not None else pure.NO_WITNESS
    else:
        raise DomainError(f"unknown strategy {strategy!r}")

    if status == pure.BUDGET_EXCEEDED:
        raise SearchExhaustedError(
            f"{strategy} search budget exhausted on {len(reduced)} elements",
            strategy=strategy,
            elements=len(reduced),
        )
    if witness is None:
        return None
    return _checked(witness, reduced, m)


def _checked(indices, reduced, m) -> ZeroSumWitness:
    prod = 1
    for i in indices:
        prod = prod * reduced[i] % m
    if prod != 1 % m or not indices:
        raise InternalConsistencyError(f"solver returned an invalid witness {indices}")
    return ZeroSumWitness(indices=tuple(indices), product_check=prod)


def enumerate_product_one_subsets(
    elements,
    modulus: int | arith.FactoredInteger,
    len_min: int = 1,
    len_max: int | None = None,
    count_cap: int | None = None,
    node_cap: int | None = None,
) -> list[ZeroSumWitness]:
    """All product-one index subsets with len_min <= size <= len_max.

    Enumeration order is lexicographic on the index tuples and the result
    is truncated at count_cap.  node_cap bounds the number of search nodes;
    hitting it before the enumeration finished raises SearchExhaustedError
    rather than silently returning a partial answer.
    """
    m = int(modulus)
    reduced = _validate_units(list(elements), m)
    n = len(reduced)
    if len_min < 1:
        raise DomainError("len_min must be >= 1")
    hi = n if len_max is None else min(len_max, n)
    if len_min > hi:
        return []
    one = 1 % m
    out: list[ZeroSumWitness] = []
    path: list[int] = []
    prods = [one]
    i = 0
    nodes = 0
    while True:
        if i < n and len(path) < hi:
            nodes += 1
            if node_cap and nodes > node_cap:
                raise SearchExhaustedError(
                    "enumeration budget exhausted", nodes=nodes, found=len(out)
                )
            p = prods[-1] * reduced[i] % m
            path.append(i)
            prods.append(p)
            if p == one and len(path) >= len_min:
                out.append(ZeroSumWitness(indices=tuple(path), product_check=p))
                if count_cap is not None and len(out) >= count_cap:
                    return out
            i += 1
        else:
            if not path:
                return out
            i = path.pop() + 1
            prods.pop()
