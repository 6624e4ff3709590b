"""Subset-product-to-identity search in (Z/MZ)^*.

``find_product_one_subsequence`` runs one search at every length.  A
cheap prefix-product pigeonhole pass comes first; on random input it
settles most queries immediately.  Then ``pure.subset_witness_mitm``
meets in the middle over the distinct subset products of each half, so a
half holds at most min(2**size - 1, reachable products) entries: short
lists and long lists in a small group go through the same search, under
one budget, ``_TABLE_CAP``.  Every witness is re-verified by a direct
modular product before reaching the caller.  Repeated elements are
distinct by index (sequence semantics).

``enumerate_product_one_subsets`` lists every witness in lexicographic
order with ``pure._product_one_walk``, which meets in the middle: it
tabulates the subsets of the last indices, at most 2**16 - 1 of them, and
walks the subsets of the first.  Its ``node_cap`` still counts the subsets
that the lexicographic walk over all of them passes.  Neither search
factors M; the CRT decomposition and discrete logs below describe the
group for ``carmik davenport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith
from ._kernels import pure
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

# Budget of find_product_one_subsequence, read at call time: the distinct
# products each half of the search may hold.  At 2**22 a collision-free
# list of 45 elements still fits, 2**22 - 1 products per half.
_TABLE_CAP = 4_194_304


@dataclass(frozen=True)
class UnitGroupStructure:
    """Internal direct product decomposition of (Z/MZ)^*.

    Each (generator, order) pair generates one cyclic factor; generators are
    CRT-lifted so they act trivially on every other prime-power block of M.
    Component order follows the ascending prime-power blocks, with the
    classical {-1, 5} pair (in that order) for blocks 2**e, e >= 3.
    ``factored_orders`` holds each component's order, factored once here for
    the Pohlig-Hellman steps of every discrete log taken over the structure.
    """

    modulus: arith.FactoredInteger
    components: tuple[tuple[int, int], ...]
    factored_orders: tuple[arith.FactoredInteger, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(order for _, order in self.components)


@dataclass(frozen=True)
class ZeroSumWitness:
    """An index subset whose selected elements multiply to 1 mod M."""

    indices: tuple[int, ...]

    def verify(self, elements, modulus: int) -> bool:
        m = int(modulus)
        prod = 1
        for i in self.indices:
            prod = prod * (elements[i] % m) % m
        return len(self.indices) > 0 and prod == 1 % m


def _primitive_root(p: int, phi_factors: tuple[int, ...]) -> int:
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in phi_factors):
            return g
    raise InternalConsistencyError(f"no primitive root found mod {p}")


def _local_blocks(fi: arith.FactoredInteger) -> list[tuple[int, int, arith.FactoredInteger]]:
    """(prime_power, local generator, factored order) per cyclic factor, in order."""
    blocks: list[tuple[int, int, arith.FactoredInteger]] = []
    for p, e in fi.factors:
        q = p**e
        if p == 2:
            if e == 1:
                continue  # (Z/2Z)^* is trivial
            if e == 2:
                blocks.append((4, 3, arith.FactoredInteger(2, ((2, 1),))))
            else:
                blocks.append((q, q - 1, arith.FactoredInteger(2, ((2, 1),))))
                blocks.append((q, 5, arith.FactoredInteger(2 ** (e - 2), ((2, e - 2),))))
        else:
            phi = arith.factorize(p - 1)
            g = _primitive_root(p, phi.primes)
            if e > 1 and pow(g, p - 1, p * p) == 1:
                g += p
            order = dict(phi.factors)
            if e > 1:
                order[p] = e - 1
            blocks.append((q, g % q, arith.FactoredInteger.from_factor_map(order)))
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
    blocks = _local_blocks(fi)
    components = []
    for q, g, order in blocks:
        rest = fi.value // q
        if rest == 1:
            lifted = g % fi.value
        else:
            # lifted == g (mod q), lifted == 1 (mod rest)
            lifted = (g * rest * pow(rest, -1, q) + q * pow(q, -1, rest)) % fi.value
        components.append((lifted, order.value))
    return UnitGroupStructure(
        modulus=fi,
        components=tuple(components),
        factored_orders=tuple(order for _, _, order in blocks),
    )


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


def _pohlig_hellman(
    base: int, target: int, factored_order: arith.FactoredInteger, mod: int
) -> int:
    """Discrete log of target in <base>, whose order is given factored (smooth)."""
    order = factored_order.value
    residues: list[tuple[int, int]] = []
    for p, e in factored_order.factors:
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

    Each odd block's local generator (its lifted generator mod p**e) and
    each component's factored order are read from the structure; nothing is
    searched for or factored again per element.
    """
    fi = structure.modulus
    if math.gcd(x, fi.value) != 1:
        raise DomainError(f"{x} is not a unit mod {fi.value}")
    # Components follow the ascending prime powers: none for 2, one for 4,
    # two for 2**e with e >= 3, one for each odd block.
    components = iter(zip(structure.components, structure.factored_orders))
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
                next(components)
                _, order = next(components)
                # y == (-1)**a * 5**b over Z/2**e; a is read off mod 4.
                a = 0 if y % 4 == 1 else 1
                z = y if a == 0 else (q - y) % q
                coords.append(a)
                coords.append(_pohlig_hellman(5, z, order, q))
        else:
            (gen, _), order = next(components)
            coords.append(_pohlig_hellman(gen % q, y, order, q))
    return tuple(coords)


def _lambda_phi(m: int | arith.FactoredInteger) -> tuple[int, int]:
    """(lambda(M), phi(M)) for the length bound, which needs M >= 2."""
    fi = arith.FactoredInteger.of(m)
    if fi.value < 2:
        raise DomainError("bound needs m >= 2")
    return arith.carmichael_lambda(fi), arith.euler_phi(fi)


def davenport_upper_bound(m: int | arith.FactoredInteger) -> float:
    """lambda(M) * (1 + ln(phi(M) / lambda(M))); natural log.

    An upper bound on the least length forcing a product-one subsequence in
    any unit sequence mod M.  Returns inf when the value overflows a float.
    """
    lam, phi = _lambda_phi(m)
    log_ratio = math.log(phi) - math.log(lam)
    try:
        return lam * (1.0 + log_ratio)
    except OverflowError:
        return math.inf


def davenport_upper_bound_log(m: int | arith.FactoredInteger) -> float:
    """Natural log of the bound; finite even when the bound itself is not."""
    lam, phi = _lambda_phi(m)
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


def find_product_one_subsequence(
    elements,
    modulus: int | arith.FactoredInteger,
    strategy: str = "auto",
) -> ZeroSumWitness | None:
    """A nonempty index subset whose product is 1 mod modulus, or None.

    Every element must be a unit mod modulus.  After the prefix pass, one
    search answers at every length: ``pure.subset_witness_mitm``, which
    meets in the middle over each half's distinct subset products, and
    whose witness is the first subset of each half to reach its product.
    None means the search space was covered completely without finding a
    witness; a half holding more than ``_TABLE_CAP`` products raises
    SearchExhaustedError instead of guessing.  ``strategy`` is "auto" or
    "mitm", which run that same search.
    """
    if strategy not in ("auto", "mitm"):
        raise DomainError(f"unknown strategy {strategy!r}")
    m = int(modulus)
    reduced = _validate_units(list(elements), m)
    if not reduced:
        return None

    run = pure.prefix_run_witness(reduced, m)
    if run is not None:
        return _checked(run, reduced, m)

    status, witness = pure.subset_witness_mitm(reduced, m, _TABLE_CAP)
    if status == pure.BUDGET_EXCEEDED:
        raise SearchExhaustedError(
            f"subset-product search budget exhausted on {len(reduced)} elements",
            elements=len(reduced),
            cap=_TABLE_CAP,
        )
    if witness is None:
        return None
    return _checked(witness, reduced, m)


def _checked(indices, reduced, m) -> ZeroSumWitness:
    witness = ZeroSumWitness(indices=tuple(indices))
    if not witness.verify(reduced, m):
        raise InternalConsistencyError(f"solver returned an invalid witness {indices}")
    return witness


def enumerate_product_one_subsets(
    elements,
    modulus: int | arith.FactoredInteger,
    count_cap: int | None = None,
    node_cap: int | None = None,
) -> list[ZeroSumWitness]:
    """All nonempty product-one index subsets.

    Enumeration order is lexicographic on the index tuples and the result
    is truncated at count_cap (None: no cap).  node_cap (None or 0: no cap)
    bounds the index subsets that the lexicographic walk over all 2**n - 1
    of them passes, the witnesses and the subsets between them; hitting it
    before the enumeration finished raises SearchExhaustedError rather than
    silently returning a partial answer.  The walk is
    ``pure._product_one_walk``, whose first hit is
    ``pure.subset_witness_exhaustive``.  It meets in the middle: without a
    cap it computes 2**h - 1 + 2**(n - h) - 1 subset products, h =
    min(ceil(n/2), 16), and its memory is bounded by its table of the at
    most 2**16 - 1 subsets of the last h indices.
    """
    m = int(modulus)
    reduced = _validate_units(list(elements), m)
    if count_cap is not None and count_cap < 1:
        raise DomainError("count_cap must be >= 1")
    if node_cap is not None and node_cap < 0:
        raise DomainError("node_cap must be >= 0")
    status, found, nodes = pure._product_one_walk(reduced, m, count_cap, node_cap)
    if status == pure.BUDGET_EXCEEDED:
        raise SearchExhaustedError("enumeration budget exhausted", nodes=nodes, found=len(found))
    return [ZeroSumWitness(indices=indices) for indices in found]
