"""The kernels of the library, in pure Python.

Every hot loop lives here once, and the library calls it by name.
Everything here is exact integer arithmetic and deterministic.
``_MR_TIERS`` is the one table of Miller-Rabin base sets.  The census
descends over the primes of n, largest first; ``tests/brute_force.py``
keeps the linear walk over n == P (mod P(P - 1)) that it replaced, as its
reference.

Arguments fit in an unsigned 64-bit word, except where ``carmik.arith``
hands this module larger operands: ``is_prime_u64`` and ``harvest_j`` with
their own base set and ``_brent_round`` with a step budget, all of which
are exact Python integer arithmetic at any size.

The product-one subset walk lives here once, as ``_product_one_walk``:
``zerosum.enumerate_product_one_subsets`` runs it with a count cap, and
``subset_witness_exhaustive`` is its first hit, the lex-first witness
that the tests compare the library's searches against.
"""

from bisect import bisect_right
from functools import cache
from math import gcd, isqrt, lcm, prod

# Minimal Miller-Rabin base sets, as published at miller-rabin.appspot.com
# and used by the "Step 2" tiers of sympy's isprime.  Each entry is
# (bound, bases): bound is the least composite that is a strong probable
# prime to every base reduced mod it, so the set is exact below bound, and
# the last one (Sinclair's seven bases) on the whole 64-bit range.
_MR_TIERS = (
    (341531, (9345883071009581737,)),
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851,
     (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977,
     (2, 123635709730000, 9233062284813009, 43835965440333360, 761179012939631437,
      1263739024124850375)),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)

# Search outcome codes shared by the subset-product kernels.
FOUND = 0
NO_WITNESS = 1
BUDGET_EXCEEDED = 2


def is_prime_u64(n, bases=None):
    """Exact primality for 0 <= n < 2**64 with the default bases.

    n <= 211 is looked up in the small-prime set, and a larger n sharing a
    factor with the primes up to 211 is composite.  Survivors go to
    Miller-Rabin: by default with the first ``_MR_TIERS`` set whose bound
    exceeds n, one to seven bases; with an explicit ``bases``, with exactly
    those bases, answering whether n is a strong probable prime to each of
    them.  Each base is reduced mod n and skipped when below 2, since a
    base set may hold a multiple of a prime it is exact for (98207 divides
    the one base below 341531).
    """
    if n <= 211:
        return n in _SMALL_PRIMES
    if gcd(n, _SMALL_PRODUCT) != 1:
        return False
    if bases is None:
        for bound, bases in _MR_TIERS:
            if n < bound:
                break
        else:
            raise OverflowError(f"{n} >= 2**64 needs explicit bases")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Bases the n - 1 proof of ``_prove_prime`` tries, in order.
_PROOF_BASES = (2, 3, 5, 7, 11)


def _prove_prime(n, factors):
    """Whether odd n >= 3 is prime, from distinct primes of n - 1, or None.

    ``factors`` are distinct primes dividing n - 1 whose product F has
    F**3 > n.  For a base a, x = a**((n - 1)/F) mod n, and x**F == 1 is
    the Fermat test, so a composite usually costs one power.  If also
    gcd(x**(F/p) - 1, n) == 1 for each p in factors, Pocklington's theorem
    puts every prime factor of n at 1 mod F.  Then n is prime when
    F**2 > n, and otherwise, writing n = c2*F**2 + c1*F + 1 with
    0 <= c1, c2 < F, exactly when c1**2 - 4*c2 is not a square
    (Brillhart-Lehmer-Selfridge, Math. Comp. 1975; Crandall-Pomerance,
    *Prime Numbers*, section 4.1).  A gcd equal to n settles nothing for
    that base, so the next base of ``_PROOF_BASES`` is tried; None when
    none settles it.
    """
    big_f = prod(factors)
    r = (n - 1) // big_f
    for a in _PROOF_BASES:
        if a == n:
            continue
        x = pow(a, r, n)
        if pow(x, big_f, n) != 1:
            return False
        for p in factors:
            d = gcd(pow(x, big_f // p, n) - 1, n)
            if d == n:
                break
            if d != 1:
                return False
        else:
            if big_f * big_f > n:
                return True
            c2, c1 = divmod(r, big_f)
            disc = c1 * c1 - 4 * c2
            return disc < 0 or isqrt(disc) ** 2 != disc
    return None


# 2*3*5*7: harvest_j skips the j at which g*j + 1 shares a factor with it.
_WHEEL = 210


@cache
def _wheel_offsets(r):
    """The t in [0, 210) with gcd(r*t + 1, 210) == 1, ascending."""
    return tuple(t for t in range(_WHEEL) if gcd(r * t + 1, _WHEEL) == 1)


def harvest_j(g, primes, start, cap, bases=None):
    """Least j in [start, cap] with gcd(j, g) == 1 and g*j + 1 prime, or 0.

    ``primes`` are primes, ascending, among them those of g that the proof
    uses; the library passes the window primes whole.  With the default
    bases g*cap + 1 must lie below 2**64.  Whether g*j + 1 is prime to
    2*3*5*7 depends only on g mod 210 and j mod 210, so the j that keep it
    so are read from one wheel per residue; a g below 7 can make q itself
    2, 3, 5 or 7, so it walks every j.  A q past that wheel and the gcd of
    ``is_prime_u64`` is proved by ``_prove_prime`` from F, the product of
    the largest primes of g, taken until F**3 > q.  Where they never get
    there, or no base settles q, ``is_prime_u64(q, bases)`` decides it.
    """
    if bases is None and g * cap + 1 >= 2**64:
        raise OverflowError(f"g*cap + 1 = {g * cap + 1} >= 2**64 needs explicit bases")
    offsets = _wheel_offsets(g % _WHEEL) if g >= 7 else range(_WHEEL)
    factors = []
    big_f = 1
    i = len(primes)
    base = start - start % _WHEEL
    while base <= cap:
        for t in offsets:
            j = base + t
            if j > cap:
                return 0
            if j < start or gcd(j, g) != 1:
                continue
            q = g * j + 1
            if q <= 211:
                if q in _SMALL_PRIMES:
                    return j
                continue
            if gcd(q, _SMALL_PRODUCT) != 1:
                continue
            # q grows with j, so F only grows.
            while big_f * big_f * big_f <= q and i:
                i -= 1
                if g % primes[i] == 0:
                    factors.append(primes[i])
                    big_f *= primes[i]
            verdict = _prove_prime(q, factors) if big_f * big_f * big_f > q else None
            if verdict is None:
                verdict = is_prime_u64(q, bases)
            if verdict:
                return j
        base += _WHEEL
    return 0


def _sieve_bytes(limit):
    """bytearray flags, flags[i] == 1 iff i prime, for 0 <= i <= limit."""
    if limit < 2:
        return bytearray(limit + 1)
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    flags[4::2] = bytes((limit - 2) // 2)
    # Odd multiples only: the even ones are already struck.
    for p in range(3, isqrt(limit) + 1, 2):
        if flags[p]:
            start = p * p
            flags[start::2 * p] = bytes((limit - start) // (2 * p) + 1)
    return flags


# The primes up to 211 and their product: one gcd with it rejects every n
# with a prime factor <= 211 before any modular exponentiation.
_SMALL_PRIMES = frozenset(i for i, flag in enumerate(_sieve_bytes(211)) if flag)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def primes_in_range(lo, hi):
    """Ascending list of primes p with lo <= p <= hi (segmented sieve)."""
    if hi < 2 or hi < lo:
        return []
    lo = max(lo, 2)
    root = isqrt(hi)
    base = _sieve_bytes(root)
    base_primes = [i for i in range(2, root + 1) if base[i]]
    width = hi - lo + 1
    seg = bytearray(b"\x01") * width
    for p in base_primes:
        start = max(p * p, (lo + p - 1) // p * p)
        if start > hi:
            continue
        seg[start - lo : width : p] = b"\x00" * ((hi - start) // p + 1)
    if lo == 1:
        seg[0] = 0
    return [lo + i for i in range(width) if seg[i]]


# A node of the census walks its cofactor progression when that has at
# most this many terms per prime that could come next, and branches on the
# next prime otherwise.
_WALK_PER_PRIME = 2


def carmichael_census(limit):
    """All (n, K) with n <= limit a Carmichael number, ascending.

    A depth-first descent over the primes of n, largest first (Pinch, "The
    Carmichael numbers up to 10^15", 1993).  A node holds the primes chosen
    so far: N their product, L the lcm of their p - 1, K the gcd of their
    p - 1, s the smallest and d how many.  The roots are the odd primes
    P <= sqrt(limit), since Korselt puts the largest prime of n below
    sqrt(n).  A node with gcd(N, L) > 1 holds nothing: a prime of N
    dividing some p - 1 would make n == 0 and n == 1 modulo it.  N itself
    is a row if d >= 3 and N == 1 (mod L).  Every other n below the node is
    N*m with m a squarefree product of primes below s, at most their
    product and limit // N, and m == N^-1 (mod L).  When that progression
    has few terms for the primes q < s that could come next, each term gets
    a base-2 Fermat test, which every Carmichael number passes, and
    ``_cofactor_k`` decides the survivors; otherwise the node branches on
    q.  Each n is found once, on the path of its own primes, and memory is
    the primes up to sqrt(limit).
    """
    odd_primes = primes_in_range(3, isqrt(max(limit, 0)))
    # caps[i]: product of the odd primes below odd_primes[i], kept while at
    # most limit; past the end of caps that bound is looser than limit // N.
    caps = [1]
    for p in odd_primes:
        if caps[-1] * p > limit:
            break
        caps.append(caps[-1] * p)
    out = []

    def node(big_n, lam, k, i, depth):
        if depth >= 3 and big_n % lam == 1:
            out.append((big_n, k))
        m_top = limit // big_n
        if i < len(caps):
            m_top = min(m_top, caps[i])
        first = pow(big_n, -1, lam)
        if first == 1:
            first += lam
        terms = (m_top - first) // lam + 1 if m_top >= first else 0
        # At d = 1 the cofactor needs two primes, so the next is at most a
        # third of it.
        count = min(i, bisect_right(odd_primes, m_top // 3 if depth == 1 else m_top))
        if terms <= _WALK_PER_PRIME * count:
            s = odd_primes[i]
            for m in range(first, m_top + 1, lam):
                n = big_n * m
                # At d = 1, P | m would make n a prime power.
                if (depth > 1 or m % s) and pow(2, n - 1, n) == 1:
                    kn = _cofactor_k(n, m, k, s, odd_primes, 3 - depth)
                    if kn:
                        out.append((n, kn))
        else:
            for j in range(count):
                q = odd_primes[j]
                # Keep the child only if gcd(N*q, lcm(L, q - 1)) == 1.
                if lam % q and gcd(big_n, q - 1) == 1:
                    node(big_n * q, lcm(lam, q - 1), gcd(k, q - 1), j, depth + 1)

    for i, big in enumerate(odd_primes):
        node(big, big - 1, big - 1, i, 1)
    out.sort()
    return out


def _cofactor_k(n, m, k, s, odd_primes, need):
    """K of n = N*m, given k = gcd(p - 1) over the primes of N, if m is a
    squarefree product of at least ``need`` odd primes below s, each with
    q - 1 | n - 1; else 0.  ``odd_primes`` ascends from 3."""
    for q in odd_primes:
        if q * q > m:
            break
        if q >= s:
            return 0  # m >= q*q has no prime factor below q
        if m % q == 0:
            m //= q
            if m % q == 0 or (n - 1) % (q - 1):
                return 0
            k = gcd(k, q - 1)
            need -= 1
    # Trial division leaves 1 or one prime, which must lie below s.
    if m > 1:
        if m >= s or (n - 1) % (m - 1):
            return 0
        k = gcd(k, m - 1)
        need -= 1
    return k if need <= 0 else 0


def first_prime_in_ap(modulus, residue, cap):
    """Least prime p == residue (mod modulus) with p <= cap.

    Returns (p, steps) where steps counts every progression term examined;
    (0, steps) when the cap is reached without finding a prime.
    """
    t = residue
    steps = 0
    while t <= cap:
        steps += 1
        if t >= 2 and is_prime_u64(t):
            return t, steps
        t += modulus
    return 0, steps


# First size of the ap_max_scan prime table, in multiples of the largest
# modulus.  For each l from 1000 to 1199 the worst class has its least
# prime below 64 l, and for half of them below 22 l.
_AP_TABLE_FACTOR = 32


def ap_max_scan(l_lo, l_hi, caps):
    """Scan every (l, b) with l in [l_lo, l_hi], gcd(b, l) = 1, 0 < b < l.

    caps[i] is the search ceiling for l = l_lo + i.  Returns
    (per_l, misses): per_l holds one (l, b_of_max, max_p) triple per l
    (zeros when no class produced a prime), misses lists every (l, b)
    whose progression held no prime up to the cap, b ascending.

    A sieve table, built once per call, is read in rows of width l: row
    lo, lo + l, ... holds the next term of every class b at byte b.  The
    classes still without a prime are the set bits 8*b of ``pending``, so
    one AND of a row, read as an int, with ``pending`` settles every class
    whose term there is prime.  A prime lies in one class only, so the
    worst class is the top hit of the last row that had any.  The table
    starts at the smaller of the largest cap and a fixed multiple of l_hi,
    and doubles, never past the largest cap, only when a row passes its
    end with classes pending below the cap; so a huge cap costs memory
    only if some least prime really lies that far out.
    """
    top = max(caps, default=0)
    limit = max(1, min(top, _AP_TABLE_FACTOR * l_hi))
    flags = _sieve_bytes(limit)
    per_l = []
    misses = []
    for i, l in enumerate(range(l_lo, l_hi + 1)):
        cap = caps[i]
        pending = int.from_bytes(_unit_bytes(l), "little")
        best_p = 0
        best_b = 0
        lo = 0
        while pending and lo <= cap:
            hi = min(lo + l, cap + 1)
            hits = int.from_bytes(flags[lo:hi], "little") & pending
            if hits:
                pending ^= hits
                best_b = (hits.bit_length() - 1) >> 3
                best_p = lo + best_b
            if hi > len(flags) and pending:
                # hi <= cap + 1, so the table is below the cap: grow it and
                # read the row again for the classes still pending.
                limit = min(2 * limit, top)
                flags = _sieve_bytes(limit)
                continue
            lo += l
        if pending:
            row = pending.to_bytes(l, "little")
            misses.extend((l, b) for b in range(l) if row[b])
        per_l.append((l, best_b, best_p))
    return per_l, misses


def _unit_bytes(l):
    """bytearray of length l, byte b == 1 iff gcd(b, l) == 1 and 0 < b.

    The multiples of each prime factor of l, found by trial division, are
    struck.
    """
    units = bytearray(b"\x01") * l
    units[0] = 0
    n = l
    q = 2
    while q * q <= n:
        if n % q == 0:
            units[::q] = bytes((l + q - 1) // q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        units[::n] = bytes((l + n - 1) // n)
    return units


def _brent_round(n, c, budget):
    """One cycle search with offset c: a factor of n, or 0 if it closed on n.

    Brent's cycle method on y -> y*y + c from the fixed start y = 2.  It
    returns None once the steps of its doublings sum past budget, checked
    after each doubling, even one that found a factor.
    """
    y, r, q = 2, 1, 1
    g = 1
    m = 128
    x = ys = y
    steps = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y if x > y else y - x) % n
            g = gcd(q, n)
            k += m
        steps += r
        if steps > budget:
            return None
        r *= 2
    if g == n:
        g = 1
        y = ys
        while g == 1:
            y = (y * y + c) % n
            g = gcd(x - y if x > y else y - x, n)
    if g == n:
        return 0
    return g


def prefix_run_witness(elements, modulus):
    """Indices of a consecutive run with product 1 mod modulus, or None.

    Pigeonhole pass over prefix products: a repeated prefix value brackets
    a run whose product is the identity.  Cheap, and on random input it
    resolves almost every query before the general searches run.
    """
    seen = {1: -1}
    pref = 1
    for i, e in enumerate(elements):
        pref = pref * e % modulus
        if pref in seen:
            return tuple(range(seen[pref] + 1, i + 1))
        seen[pref] = i
    return None


def _product_one_walk(elements, modulus, count_cap, node_cap):
    """Preorder walk over index subsets, indices ascending, for product 1.

    Each nonempty subset with product 1 is recorded, in lexicographic
    order, and the walk goes on below it.  Returns (status, found, nodes):
    BUDGET_EXCEEDED once node_cap > 0 nodes were visited, else FOUND if
    found is nonempty (the walk stops at the count_cap-th; None: no cap),
    else NO_WITNESS.  nodes counts the visited nodes, the one past node_cap
    included.
    """
    n = len(elements)
    reduced = [e % modulus for e in elements]
    one = 1 % modulus
    found = []
    path = []
    prods = [one]
    i = 0
    nodes = 0
    while True:
        if i < n:
            nodes += 1
            if node_cap and nodes > node_cap:
                return BUDGET_EXCEEDED, found, nodes
            p = prods[-1] * reduced[i] % modulus
            path.append(i)
            prods.append(p)
            if p == one:
                found.append(tuple(path))
                if len(found) == count_cap:
                    return FOUND, found, nodes
            i += 1
        else:
            if not path:
                return (FOUND if found else NO_WITNESS), found, nodes
            i = path.pop() + 1
            prods.pop()


# The library never calls this one: the tests compare its searches against
# it, and perfbench/tracing.py wraps it by name, so a traced benchmark run
# needs it defined here.
def subset_witness_exhaustive(elements, modulus, node_cap):
    """Depth-first search, indices ascending, for a subset with product 1.

    Returns (FOUND, indices) for the first witness in preorder (equivalently
    the lexicographically smallest index tuple), (NO_WITNESS, None) after a
    complete traversal, or (BUDGET_EXCEEDED, None) once node_cap > 0 nodes
    were visited.  It is the first hit of ``_product_one_walk``.
    """
    status, found, _ = _product_one_walk(elements, modulus, 1, node_cap)
    return status, (found[0] if status == FOUND else None)


def subset_witness_mitm(elements, modulus, table_cap):
    """Meet-in-the-middle search for a subset with product 1 mod modulus.

    Subset products of the low half are tabulated, then subsets of the high
    half are matched against inverses.  Deterministic: both enumerations run
    in the same preorder as subset_witness_exhaustive, and the first match
    wins.  Requires every element to be a unit mod modulus.

    Returns the same (status, witness) protocol as the exhaustive search;
    the budget bounds the table size.
    """
    n = len(elements)
    reduced = [e % modulus for e in elements]
    one = 1 % modulus
    half = n // 2
    table = {}

    # Tabulate low-half subset products, keeping the first (lex-least)
    # subset per value. A product of 1 is a witness outright.
    path = []
    prods = [one]
    i = 0
    while True:
        if i < half:
            p = prods[-1] * reduced[i] % modulus
            path.append(i)
            prods.append(p)
            if p == one:
                return FOUND, tuple(path)
            if p not in table:
                if table_cap and len(table) >= table_cap:
                    return BUDGET_EXCEEDED, None
                table[p] = tuple(path)
            i += 1
        else:
            if not path:
                break
            i = path.pop() + 1
            prods.pop()

    # Walk high-half subsets; match the inverse of each product against
    # the table, and catch high-half-only witnesses directly.
    path = []
    prods = [one]
    i = half
    while True:
        if i < n:
            p = prods[-1] * reduced[i] % modulus
            path.append(i)
            prods.append(p)
            if p == one:
                return FOUND, tuple(path)
            mate = table.get(pow(p, -1, modulus))
            if mate is not None:
                return FOUND, mate + tuple(path)
            i += 1
        else:
            if not path:
                return NO_WITNESS, None
            i = path.pop() + 1
            prods.pop()
