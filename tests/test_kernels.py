"""Pure kernels against references assembled from simpler pure kernels,
or from sympy."""

import functools
import itertools
import math
import random

import brute_force
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carmik._kernels import pure
from carmik.ap_search import default_cap


TWELVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_k (OEIS A014233) with no prime factor <= 211: the least odd composite
# that is a strong probable prime to the first k prime bases.
PSI_WITHOUT_SMALL_FACTORS = (
    (2, 1373653),
    (3, 25326001),
    (5, 2152302898747),
    (6, 3474749660383),
    (7, 341550071728321),
    (9, 3825123056546413051),
)


def test_sieve_matches_trial_division_at_every_limit_to_3000():
    # Covers limit < 4, where no even number is struck, and each limit at
    # or just past an odd prime's square, where its first strike lands.
    reference = [n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)) for n in range(3001)]
    for limit in range(3001):
        assert pure._sieve_bytes(limit) == bytearray(reference[: limit + 1]), limit


def test_small_n_against_a_sieve():
    # The whole range of the one-base tier.
    limit = pure._MR_TIERS[0][0]
    flags = pure._sieve_bytes(limit)
    got = [pure.is_prime_u64(n) for n in range(-3, limit + 1)]
    assert got == [False] * 3 + list(map(bool, flags))


@pytest.mark.parametrize("k, psi", PSI_WITHOUT_SMALL_FACTORS)
def test_tier_boundaries_reject_each_psi(k, psi):
    # psi_k fools the first k prime bases; the default base sets and all
    # twelve of them reject it.
    assert pure.is_prime_u64(psi, TWELVE_PRIMES[:k])
    assert not pure.is_prime_u64(psi)
    assert not pure.is_prime_u64(psi, TWELVE_PRIMES)


def test_twelve_bases_are_not_exact_past_psi_12():
    psi_12 = 318665857834031151167461  # > 2**64: outside the exact range
    assert pure.is_prime_u64(psi_12, TWELVE_PRIMES) and not sympy.isprime(psi_12)
    with pytest.raises(OverflowError):
        pure.is_prime_u64(psi_12)  # the default bases are exact below 2**64 only


# The finite bounds of the default base sets, each with its set.
FINITE_TIERS = pure._MR_TIERS[:-1]


@pytest.mark.parametrize("bound, bases", FINITE_TIERS, ids=[str(b) for b, _ in FINITE_TIERS])
def test_each_base_set_is_fooled_at_its_bound(bound, bases):
    # The bound is the least composite that passes its set, so the default
    # must have moved on to the next set there.
    assert not sympy.isprime(bound)
    assert pure.is_prime_u64(bound, bases)
    assert not pure.is_prime_u64(bound)


def test_a_base_that_is_a_multiple_of_n_is_skipped():
    # 98207 divides the one base below 341531, and 3709689913 divides the
    # second of the three below 350269456337: each base is 0 mod its prime.
    for n, (_, bases) in ((98207, pure._MR_TIERS[0]), (3709689913, pure._MR_TIERS[1])):
        assert any(a % n == 0 for a in bases)
        assert pure.is_prime_u64(n)


PRIME_ABOVE_211 = st.integers(212, 2**32 - 100).map(sympy.nextprime)


def examples(values):
    """An @example for each of values."""

    def apply(test):
        for value in values:
            test = example(value)(test)
        return test

    return apply


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.sampled_from(
            [psi for _, psi in PSI_WITHOUT_SMALL_FACTORS] + [bound for bound, _ in FINITE_TIERS]
        ).flatmap(lambda edge: st.integers(edge - 3000, edge + 3000)),
        st.integers(2**34, 2**52),
        st.integers(2**34, 2**52).map(sympy.nextprime),
        st.tuples(PRIME_ABOVE_211, PRIME_ABOVE_211).map(lambda t: t[0] * t[1]),
        st.integers(0, 2**64 - 1),
    )
)
@example(2**64 - 59)  # the largest 64-bit prime
@examples(n for bound, _ in FINITE_TIERS for n in range(bound - 2, bound + 3))
def test_tiered_bases_agree_with_twelve_and_sympy(n):
    expected = sympy.isprime(n)
    assert pure.is_prime_u64(n) == expected
    assert pure.is_prime_u64(n, TWELVE_PRIMES) == expected


CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
EDGE_VALUES = [0, 1, 2, 3, 4, 5, 16, 211, 212, 211 * 211, 211 * 211 + 2, 561, 647]
EDGE_VALUES += [2**31 - 1, 2**32 + 15, 2**61 - 1, 2**63 - 25, 2**63 + 29, 2**64 - 59, 2**64 - 1]
# Each bound of the default base sets, and two primes that divide a base of
# their own set.
EDGE_VALUES += [bound + e for bound, _ in FINITE_TIERS for e in (-2, 0, 2)]
EDGE_VALUES += [98207, 3709689913]


@pytest.mark.parametrize("n", EDGE_VALUES + CARMICHAELS)
def test_edge_values_match_sympy(n):
    assert pure.is_prime_u64(n) == sympy.isprime(n)


def proof_sets(n):
    """(factors, F) for every set of distinct primes of n - 1 with F**3 > n."""
    primes = sympy.primefactors(n - 1)
    for size in range(1, len(primes) + 1):
        for factors in itertools.combinations(primes, size):
            if math.prod(factors) ** 3 > n:
                yield factors, math.prod(factors)


def test_n_minus_1_proof_against_a_sieve():
    # Every odd n < 3*10**4 and every factor set it may be handed: the
    # proof is right or settles nothing, and both of its criteria prove
    # primes, Pocklington's (F**2 > n) and the discriminant (F**2 <= n).
    # Of the 78 496 pairs, 13 657 and 4800 primes are proved by each and
    # 898 pairs are left to Miller-Rabin.
    limit = 30_000
    flags = pure._sieve_bytes(limit)
    by_pocklington = by_discriminant = 0
    for n in range(3, limit, 2):
        for factors, big_f in proof_sets(n):
            verdict = pure._prove_prime(n, factors)
            if verdict is None:
                continue
            assert verdict == bool(flags[n]), (n, factors)
            if verdict and big_f * big_f > n:
                by_pocklington += 1
            elif verdict:
                by_discriminant += 1
    assert by_pocklington and by_discriminant


@pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 13747])
def test_n_minus_1_proof_rejects_pseudoprimes(n):
    # Base-2 strong pseudoprimes, Carmichael numbers, and 13747 = 59 * 233,
    # whose base-2 Pocklington conditions hold for F = 29, so that only the
    # discriminant rejects it.  1729 - 1 = 2**6 * 3**3 has no set with
    # F**3 > 1729, so harvest_j falls back to Miller-Rabin there.
    assert not sympy.isprime(n)
    sets = list(proof_sets(n))
    assert all(pure._prove_prime(n, factors) is False for factors, _ in sets)
    assert (n == 1729) == (sets == [])
    assert pure.harvest_j(n - 1, tuple(sympy.primefactors(n - 1)), 1, 1) == 0


@st.composite
def harvest_calls(draw):
    """harvest_j arguments: g over the primes of a window [z/2, z], passed
    whole, from the first j, past cap < start, and up to 2**64."""
    z = draw(st.integers(4, 700))
    primes = tuple(pure.primes_in_range((z + 1) // 2, z))
    factors = draw(st.lists(st.sampled_from(primes), min_size=1, max_size=6, unique=True))
    g = math.prod(factors)
    top = (2**64 - 2) // g  # the last j with g*j + 1 < 2**64
    if draw(st.booleans()):
        cap = top - draw(st.integers(0, 50))
        start = cap - draw(st.integers(-5, 300))
    else:
        start = draw(st.integers(1, 300))
        cap = max(0, min(top, start + draw(st.integers(-5, 800))))
    return g, primes, start, cap


def plain_harvest_walk(g, start, cap):
    """The least j in [start, cap] with gcd(j, g) == 1 and g*j + 1 prime,
    by Miller-Rabin on every j in turn; 0 if none."""
    return next((j for j in range(start, cap + 1)
                 if math.gcd(j, g) == 1 and pure.is_prime_u64(g * j + 1)), 0)


@settings(deadline=None, max_examples=300)
@given(harvest_calls())
@example((3, (3,), 1, 10))  # q = 7 at j = 2
@example((2, (2, 3), 1, 10))  # q = 3 at j = 1
@example((101 * 103 * 107 * 109 * 113, (101, 103, 107, 109, 113), 5, 4))  # cap < start
@example((2, (2,), 2**63 - 200, 2**63 - 1))  # q up to 2**64 - 1
def test_harvest_j_matches_a_plain_walk(args):
    g, primes, start, cap = args
    assert pure.harvest_j(g, primes, start, cap) == plain_harvest_walk(g, start, cap), args


def test_harvest_j_refuses_a_cap_past_the_word():
    # The default bases are exact below 2**64 only.
    for g, cap in ((2, 2**63), (2**63, 2), (1, 2**64 - 1)):
        with pytest.raises(OverflowError):
            pure.harvest_j(g, (), 1, cap)


def test_discriminant_alone_rejects_13747():
    # The premise of 13747's case above: base 2 passes Fermat and the gcd
    # for F = 29, and c1**2 - 4*c2 is the square (8 - 2)**2.
    n, big_f = 13747, 29
    x = pow(2, (n - 1) // big_f, n)
    assert pow(x, big_f, n) == 1 and math.gcd(x - 1, n) == 1
    c2, c1 = divmod((n - 1) // big_f, big_f)
    assert (c1 * c1 - 4 * c2, (59 - 1) // big_f, (233 - 1) // big_f) == (36, 2, 8)


def reference_ap_max_scan(l_lo, l_hi, caps):
    """ap_max_scan class by class from first_prime_in_ap, ties to the smallest b."""
    per_l = []
    misses = []
    for l, cap in zip(range(l_lo, l_hi + 1), caps):
        best_b = best_p = 0
        for b in range(1, l):
            if math.gcd(b, l) != 1:
                continue
            p, _ = pure.first_prime_in_ap(l, b, cap)
            if p == 0:
                misses.append((l, b))
            elif p > best_p:
                best_b, best_p = b, p
        per_l.append((l, best_b, best_p))
    return per_l, misses


def plain_first_prime(modulus, residue, cap):
    """first_prime_in_ap by sympy.isprime on every term."""
    t, steps = residue, 0
    while t <= cap:
        steps += 1
        if sympy.isprime(t):
            return t, steps
        t += modulus
    return 0, steps


def test_first_prime_in_ap_matches_a_sympy_walk():
    rng = random.Random(3)
    # The last three end at the top of the word: the next term of the first
    # two would pass 2**64 - 1, and the third's second term is 2**64 - 59.
    cases = [(4, 1, 1000), (2, 1, 1000), (25, 24, 30),
             (2**63, 1, 2**64 - 1), (2**64 - 2, 1, 2**64 - 1), (2**64 - 60, 1, 2**64 - 1)]
    while len(cases) < 200:
        l = rng.randrange(2, 500)
        b = rng.randrange(1, l)
        if math.gcd(b, l) == 1:
            cases.append((l, b, l * 50 + 100))
    for l, b, cap in cases:
        assert pure.first_prime_in_ap(l, b, cap) == plain_first_prime(l, b, cap), (l, b, cap)
    assert pure.first_prime_in_ap(2**64 - 60, 1, 2**64 - 1) == (2**64 - 59, 2)


@st.composite
def scan_args(draw):
    l_lo = draw(st.integers(2, 350))
    l_hi = draw(st.integers(l_lo, l_lo + 3))
    # Caps below some residues, caps that leave classes without a prime,
    # and caps wide enough for every class.
    cap = st.one_of(
        st.integers(-2, 2 * l_hi),
        st.integers(0, 80 * l_hi),
        st.just(default_cap(l_hi)),
    )
    caps = draw(st.lists(cap, min_size=l_hi - l_lo + 1, max_size=l_hi - l_lo + 1))
    return l_lo, l_hi, caps


@settings(deadline=None)
@given(scan_args())
# l = 283 and l = 337 have a least prime past 32 * l, the table's first size.
@example((283, 283, [default_cap(283)]))
@example((335, 338, [default_cap(l) for l in range(335, 339)]))
# The benchmark's band; 1001's worst prime, 33107, and 1213's, 77003, lie
# past 32 * l, so a row there runs off the table and grows it.
@example((1000, 1003, [default_cap(l) for l in range(1000, 1004)]))
@example((1213, 1213, [default_cap(1213)]))
# The worst prime lies in the row that crosses the table's end, past it:
# 10103 in 32 * 307 .. 33 * 307, and 62701 in 64 * 967 .. 65 * 967.
@example((307, 307, [default_cap(307)]))
@example((967, 967, [default_cap(967)]))
# Class masks: five prime factors, a power of two, a power of three, a prime.
@example((2310, 2310, [default_cap(2310)]))
@example((1024, 1024, [default_cap(1024)]))
@example((729, 729, [default_cap(729)]))
@example((1009, 1009, [default_cap(1009)]))
@example((3, 60, [10**12] * 58))
@example((2, 30, [0] * 29))
@example((2, 30, [-2] * 29))
def test_ap_max_scan_matches_class_by_class_reference(args):
    assert pure.ap_max_scan(*args) == reference_ap_max_scan(*args)


def test_ap_max_scan_table_grows_past_first_size(monkeypatch):
    sizes = []
    sieve = pure._sieve_bytes

    def recording_sieve(limit):
        sizes.append(limit)
        return sieve(limit)

    monkeypatch.setattr(pure, "_sieve_bytes", recording_sieve)
    caps = [default_cap(337)]
    (row,), misses = pure.ap_max_scan(337, 337, caps)
    assert row == (337, 284, 17471) and not misses
    # The worst least prime, 17471, lies between 32 * 337 and 64 * 337.
    assert sizes == [32 * 337, 64 * 337]
    sizes.clear()
    got = pure.ap_max_scan(337, 337, [15_000])
    assert sizes == [32 * 337, 15_000]  # never past the largest cap
    assert (337, 284) in got[1] and got == reference_ap_max_scan(337, 337, [15_000])


REFERENCE_LIMIT = 200_000


@functools.cache
def reference_census():
    return brute_force.spf_census(REFERENCE_LIMIT)


def reference_rows(limit):
    return [row for row in reference_census() if row[0] <= limit]


def test_census_matches_the_spf_scan_at_every_limit_to_3000():
    got = [pure.carmichael_census(limit) for limit in range(3001)]
    assert got == [reference_rows(limit) for limit in range(3001)]


@settings(deadline=None)
@given(
    st.one_of(
        st.integers(0, REFERENCE_LIMIT),
        # Limits at and next to a Carmichael number.
        st.sampled_from([n for n, _ in reference_census()]).flatmap(
            lambda n: st.integers(n - 1, n + 1)
        ),
    )
)
@example(REFERENCE_LIMIT)
def test_census_matches_the_spf_scan(limit):
    assert pure.carmichael_census(limit) == reference_rows(limit)


def test_census_rows_are_distinct_korselt_numbers_with_their_k():
    rows = pure.carmichael_census(10**6)
    assert len(rows) == 43
    assert [n for n, _ in rows] == sorted({n for n, _ in rows})
    for n, k in rows:
        factors = sympy.factorint(n)
        assert len(factors) >= 3 and set(factors.values()) == {1}
        assert all((n - 1) % (p - 1) == 0 for p in factors)
        assert k == math.gcd(*(p - 1 for p in factors))


def test_census_never_fermat_tests_a_prime_power(monkeypatch):
    # P**e could only be reached from the root P, where m = P**(e - 1) is a
    # multiple of P and skipped: it cannot be squarefree.  Only the base-2
    # calls are Fermat tests; the descent's other pow calls are inverses.
    tested = []

    def recording_pow(base, exponent, modulus):
        if base == 2:
            tested.append(modulus)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(pure, "pow", recording_pow, raising=False)
    assert pure.carmichael_census(10**5) == reference_rows(10**5)
    assert tested
    assert [n for n in tested if len(sympy.primefactors(n)) == 1] == []
    # The descent tests far fewer terms than a walk over n == P (mod P(P - 1))
    # from every P, which makes 13 724 tests to 10^6.
    tested.clear()
    assert len(pure.carmichael_census(10**6)) == 43
    assert len(tested) < 3000


def test_walk_matches_the_spf_scan():
    assert brute_force.walk_census(REFERENCE_LIMIT) == reference_census()


@functools.cache
def walk_rows():
    return brute_force.walk_census(10**7)


# The last three Carmichael numbers below 10^7.
LAST_BELOW_1E7 = (9_585_541, 9_613_297, 9_890_881)


@pytest.mark.parametrize(
    "limit", [10**6, 10**7] + [n + delta for n in LAST_BELOW_1E7 for delta in (-1, 0, 1)]
)
def test_census_matches_the_walk(limit):
    assert tuple(n for n, _ in walk_rows()[-3:]) == LAST_BELOW_1E7
    assert pure.carmichael_census(limit) == [row for row in walk_rows() if row[0] <= limit]
