import bisect
import math
import random

import brute_force
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carmik import arith
from carmik._kernels import pure
from carmik.errors import DomainError, EmptyRangeError, FactorizationEffortError


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


U64_HIGH = st.integers(2**63, 2**64 - 1)
ABOVE_U64 = st.integers(2**64, 2**96)
# Squares and products of two of these run from 2**63 to just past 2**66.
NEAR_2_32 = st.integers(3_037_000_500, 2**33)


class TestIsPrime:
    def test_examples(self):
        assert arith.is_prime(2)
        assert not arith.is_prime(561)  # 3 | 561
        assert arith.is_prime(647)

    def test_small_range_against_trial_division(self):
        for n in range(4000):
            assert arith.is_prime(n) == trial_division_is_prime(n), n

    def test_large_operands(self):
        assert arith.is_prime(2**89 - 1)  # Mersenne prime
        assert not arith.is_prime(2**67 - 1)  # 193707721 * 761838257287
        assert not arith.is_prime(3**41)

    def test_strong_pseudoprimes_are_rejected(self):
        # Composites that fool single-base Fermat tests.
        for n in (2047, 1373653, 25326001, 3215031751, 3825123056546413051):
            assert not arith.is_prime(n), n

    def test_the_top_of_the_word_goes_to_the_kernel(self, monkeypatch):
        # 2**64 - 59 is the largest 64-bit prime; 2**63 + 1 is divisible by 3.
        # Only a word gets the kernel's exact default bases.
        calls = []
        kernel = pure.is_prime_u64

        def recording(n, bases=None):
            if bases is None:
                calls.append(n)
            return kernel(n, bases)

        monkeypatch.setattr(pure, "is_prime_u64", recording)
        assert arith.is_prime(2**64 - 59)
        assert not arith.is_prime(2**63 + 1)
        assert not arith.is_prime(2**64 + 1)  # 274177 * 67280421310721
        assert calls == [2**64 - 59, 2**63 + 1]

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(
            U64_HIGH,
            U64_HIGH.map(sympy.nextprime),
            NEAR_2_32.map(lambda a: sympy.nextprime(a) ** 2),
            st.tuples(NEAR_2_32, NEAR_2_32).map(
                lambda t: sympy.nextprime(t[0]) * sympy.nextprime(t[1])
            ),
            ABOVE_U64,
            ABOVE_U64.map(sympy.nextprime),
        )
    )
    # Strong pseudoprimes to the first 12 prime bases, which are exact below
    # 2**64: psi_12 and psi_14 of OEIS A014233.
    @example(318665857834031151167461)
    @example(3317044064679887385961981)
    def test_large_operands_agree_with_sympy(self, n):
        assert arith.is_prime(n) == sympy.isprime(n)


class TestHarvestJ:
    # Seven window primes of z = 600: g*j + 1 passes 2**64 from j = 2 on.
    PRIMES = tuple(arith.primes_in_range(300, 600))
    G = 521 * 523 * 541 * 547 * 557 * 563 * 571

    def plain_walk(self, start, cap):
        g = self.G
        return next((j for j in range(start, cap + 1)
                     if math.gcd(j, g) == 1 and arith.is_prime(g * j + 1)), 0)

    def test_the_walk_crosses_the_kernel_bound(self):
        assert (arith.KERNEL_BOUND - 2) // self.G == 1
        for start, cap in ((1, 1), (1, 11), (1, 79), (13, 79), (31, 60), (2, 1)):
            assert arith.harvest_j(self.G, self.PRIMES, start, cap) == self.plain_walk(start, cap)
        assert arith.harvest_j(self.G, self.PRIMES, 1, 79) == 12

    def test_a_g_past_the_word_never_reaches_the_kernel(self, monkeypatch):
        # Eight window primes of z = 400, g ~ 2.2e20: every q passes 2**64,
        # so every kernel call for this g carries LARGE_BASES, never the
        # word-only default bases.
        primes = tuple(arith.primes_in_range(200, 400))
        g = math.prod(primes[-8:])
        assert g >= arith.KERNEL_BOUND
        bases_for_g = []
        kernel = pure.harvest_j

        def recording(g_, primes, start, cap, bases=None):
            if g_ == g:
                bases_for_g.append(bases)
            return kernel(g_, primes, start, cap, bases)

        monkeypatch.setattr(pure, "harvest_j", recording)
        want = next(j for j in range(1, 100) if math.gcd(j, g) == 1 and arith.is_prime(g * j + 1))
        assert arith.harvest_j(g, primes, 1, 100) == want
        assert arith.harvest_j(g, primes, want + 1, want) == 0
        assert bases_for_g and set(bases_for_g) == {arith.LARGE_BASES}
        assert arith.harvest_j(self.G, self.PRIMES, 2, 79) == self.plain_walk(2, 79)

    def test_g_must_be_positive(self):
        with pytest.raises(DomainError):
            arith.harvest_j(0, (), 1, 10)


class TestPrimesInRange:
    def test_examples(self):
        assert arith.primes_in_range(10, 20) == [11, 13, 17, 19]
        assert arith.primes_in_range(2, 2) == [2]
        assert arith.primes_in_range(24, 28) == []

    def test_empty_range_is_an_error(self):
        with pytest.raises(EmptyRangeError):
            arith.primes_in_range(10, 9)

    def test_agrees_with_is_prime(self):
        listed = set(arith.primes_in_range(0, 2000))
        for n in range(2001):
            assert (n in listed) == arith.is_prime(n)

    def test_high_window(self):
        window = arith.primes_in_range(10**12, 10**12 + 200)
        assert window == [n for n in range(10**12, 10**12 + 201) if arith.is_prime(n)]
        assert all(sympy.isprime(p) for p in window)


class TestFactorize:
    def test_examples(self):
        assert arith.factorize(561).factors == ((3, 1), (11, 1), (17, 1))
        assert arith.factorize(1).factors == ()
        assert arith.factorize(46189).factors == ((11, 1), (13, 1), (17, 1), (19, 1))

    def test_zero_is_a_domain_error(self):
        with pytest.raises(DomainError):
            arith.factorize(0)

    def test_roundtrip_dense(self):
        for n in range(1, 100_000):
            fi = arith.factorize(n)
            assert math.prod(p**e for p, e in fi.factors) == n

    def test_roundtrip_to_one_million_via_spf(self):
        # Dense sweep over the full range, cross-checked against an
        # independently built smallest-prime-factor table.
        spf = brute_force.smallest_prime_factors(1_000_000)
        for n in range(2, 1_000_001):
            fi = arith.factorize(n)
            assert fi.value == math.prod(p**e for p, e in fi.factors)
            assert fi.factors[0][0] == spf[n]

    def test_random_64bit_semiprimes(self):
        rng = random.Random(20260811)
        for _ in range(1000):
            p = _random_prime(rng)
            q = _random_prime(rng)
            n = p * q
            fi = arith.factorize(n)
            assert math.prod(r**e for r, e in fi.factors) == n
            assert all(arith.is_prime(r) for r in fi.primes)

    def test_effort_cap(self):
        with pytest.raises(FactorizationEffortError):
            arith.factorize(10**70 + 1, effort_digits=40)

    def test_rho_budget_above_the_kernel_bound(self, monkeypatch):
        n = 4294967311 * 4294967357  # two primes above 2**32; n >= 2**64
        assert n >= arith.KERNEL_BOUND
        monkeypatch.setattr(arith, "_BRENT_BUDGET", 100)
        with pytest.raises(FactorizationEffortError, match="rho budget exhausted"):
            arith.factorize(n)

    def test_word_size_composites_split_by_the_budgeted_loop(self, monkeypatch):
        # Every size goes through the same budgeted Brent loop: a semiprime
        # at the top of the word, a prime power that trial division settles,
        # and the cube of a prime past the trial bound, which Brent splits.
        n = 4294967291 * 4294967279
        assert 2**63 <= n < arith.KERNEL_BOUND
        assert arith.factorize(n).factors == ((4294967279, 1), (4294967291, 1))
        assert arith.factorize(3**10).factors == ((3, 10),)
        assert arith.factorize(20011**3).factors == ((20011, 3),)
        monkeypatch.setattr(arith, "_BRENT_BUDGET", 100)
        with pytest.raises(FactorizationEffortError, match="rho budget exhausted"):
            arith.factorize(n)

    def test_prime_powers(self):
        assert arith.factorize(3**12).factors == ((3, 12),)
        assert arith.factorize((10**9 + 7) ** 2).factors == ((10**9 + 7, 2),)


def _random_prime(rng):
    while True:
        c = rng.randrange(2**31 + 1, 2**32, 2)
        if arith.is_prime(c):
            return c


class TestCarmichaelLambda:
    def test_examples(self):
        assert arith.carmichael_lambda(1) == 1
        assert arith.carmichael_lambda(8) == 2
        assert arith.carmichael_lambda(561) == 80

    def test_accepts_factored_input(self):
        fi = arith.factorize(561)
        assert arith.carmichael_lambda(fi) == 80

    def test_exponent_and_minimality_sweep(self):
        # For every n: lambda annihilates every unit, and every proper
        # divisor of lambda leaves some unit unannihilated.  Every unit below
        # n is a product of the primes below n that do not divide n, so it
        # is enough to check those generators, and, since each proper
        # divisor of lambda divides lambda / r for a prime r | lambda, only
        # the divisors lambda / r.
        primes = list(sympy.primerange(2, 10_001))
        for n in range(2, 10_001):
            lam = arith.carmichael_lambda(n)
            gens = [a for a in primes[: bisect.bisect_left(primes, n)] if n % a]
            assert all(pow(a, lam, n) == 1 for a in gens), n
            for r in sympy.primefactors(lam):
                assert any(pow(a, lam // r, n) != 1 for a in gens), (n, lam, r)


class TestEulerPhi:
    def test_examples(self):
        assert arith.euler_phi(1) == 1
        assert arith.euler_phi(10) == 4
        assert arith.euler_phi(561) == 320

    def test_brute_force_count(self):
        for n in range(1, 5001):
            assert arith.euler_phi(n) == brute_force.count_coprime(n), n


class TestLargestPrimeFactor:
    def test_examples(self):
        assert arith.largest_prime_factor(2) == 2
        assert arith.largest_prime_factor(12) == 3
        assert arith.largest_prime_factor(646) == 19

    def test_domain(self):
        with pytest.raises(DomainError):
            arith.largest_prime_factor(1)


class TestGcdLcm:
    def test_examples(self):
        assert arith.gcd_all([2, 10, 16]) == 2
        assert arith.gcd_all([7]) == 7
        assert arith.lcm_all([2, 10, 16]) == 80

    def test_empty_is_an_error(self):
        with pytest.raises(DomainError):
            arith.gcd_all([])
        with pytest.raises(DomainError):
            arith.lcm_all([])

    def test_lcm_rejects_zero(self):
        with pytest.raises(DomainError):
            arith.lcm_all([4, 0])


class TestFactoredInteger:
    def test_rejects_unsorted_primes(self):
        with pytest.raises(DomainError):
            arith.FactoredInteger(33, ((11, 1), (3, 1)))

    def test_rejects_wrong_product(self):
        with pytest.raises(DomainError):
            arith.FactoredInteger(10, ((2, 1), (3, 1)))

    def test_from_factor_map(self):
        fi = arith.FactoredInteger.from_factor_map({17: 1, 3: 2})
        assert fi.value == 153
        assert fi.primes == (3, 17)
        assert not fi.is_squarefree()
        assert fi.omega == 2
