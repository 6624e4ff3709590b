import dataclasses

import brute_force
import pytest

from carmik import arith, korselt
from carmik._kernels import pure
from carmik.errors import DomainError, InternalConsistencyError

# Frozen by an exhaustive Korselt scan, cross-checked below by the
# all-bases Fermat oracle.
FIRST_SEVEN = [
    (561, 2), (1105, 4), (1729, 6), (2465, 4), (2821, 6), (6601, 2), (8911, 6),
]


class TestIsCarmichael:
    def test_561(self):
        cert = korselt.is_carmichael(561)
        assert cert
        assert (cert.n, cert.k_invariant) == (561, 2)
        assert cert.factors.primes == (3, 11, 17)
        assert [f.name for f in dataclasses.fields(cert)] == ["factors"]

    def test_certificate_checks_korselt_on_its_factors(self):
        cert = korselt.CarmichaelCertificate(arith.FactoredInteger.from_factor_map({3: 1, 11: 1, 17: 1}))
        assert cert == korselt.is_carmichael(561)
        cases = (
            (arith.FactoredInteger(627, ((3, 1), (11, 1), (19, 1))), r"11 \| 627 but 10 does not divide 626"),
            (arith.FactoredInteger(45, ((3, 2), (5, 1))), "divisible by 3\\*\\*2"),
            (arith.FactoredInteger(7, ((7, 1),)), "fewer than three primes"),
        )
        for factors, message in cases:
            with pytest.raises(InternalConsistencyError, match=message):
                korselt.CarmichaelCertificate(factors)

    def test_6_fails_divisibility_at_3(self):
        verdict = korselt.is_carmichael(6)
        assert not verdict
        assert verdict.reason == "divisibility"
        assert verdict.prime == 3

    def test_primes_are_rejected(self):
        verdict = korselt.is_carmichael(7)
        assert not verdict
        assert verdict.reason == "prime"

    def test_squarefree_rejection(self):
        verdict = korselt.is_carmichael(45)  # 3**2 * 5
        assert not verdict
        assert verdict.reason == "not squarefree"
        assert verdict.prime == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            korselt.is_carmichael(1)


class TestKInvariant:
    def test_examples(self):
        assert korselt.k_invariant((3, 11, 17)) == 2
        assert korselt.k_invariant((5, 13, 17)) == 4   # n = 1105
        assert korselt.k_invariant((7, 13, 19)) == 6   # n = 1729

    def test_single_prime(self):
        assert korselt.k_invariant((17,)) == 16

    def test_factored_input_must_be_squarefree(self):
        with pytest.raises(DomainError):
            korselt.k_invariant(arith.factorize(45))
        assert korselt.k_invariant(arith.factorize(561)) == 2

    def test_empty(self):
        with pytest.raises(DomainError):
            korselt.k_invariant(())


class TestCensus:
    def test_first_seven(self):
        assert korselt.census(10_000) == FIRST_SEVEN

    def test_below_561_is_empty(self):
        assert korselt.census(500) == []

    def test_nu_filter(self):
        assert korselt.census(10_000, nu_filter=4) == [(1105, 4), (2465, 4)]

    def test_monotone_and_partitioned(self):
        full = korselt.census(50_000)
        assert full == sorted(full)
        assert len(korselt.census(10_000)) <= len(full)
        by_nu = {}
        for _, k in full:
            by_nu[k] = by_nu.get(k, 0) + 1
        for nu, count in by_nu.items():
            assert len(korselt.census(50_000, nu_filter=nu)) == count
        assert sum(by_nu.values()) == len(full)

    def test_rows_match_certifier(self):
        for n, k in korselt.census(20_000):
            cert = korselt.is_carmichael(n)
            assert cert and cert.k_invariant == k

    def test_census_runs_the_pure_kernel_on_either_backend(self, monkeypatch):
        calls = []
        census = pure.carmichael_census
        monkeypatch.setattr(pure, "carmichael_census", lambda *args: calls.append(args) or census(*args))
        assert korselt.census(600) == [(561, 2)]
        assert calls == [(600,)]

    def test_count_to_1e9(self):
        # 646 is OEIS A055553 at 10^9; the K counts are those of the linear
        # walk, which gave the same rows there.  Here, unlike at 10^7, the
        # descent branches at N = 89*47 and must reach 62745 = 89*47*5*3
        # as a node whose cofactor bound, 3, is its next prime.
        counts = {}
        for _, k in korselt.census(10**9):
            counts[k] = counts.get(k, 0) + 1
        assert sum(counts.values()) == 646
        assert [counts[k] for k in range(2, 30, 2)] == [
            210, 77, 127, 5, 28, 18, 4, 5, 19, 5, 1, 1, 3, 4,
        ]

    def test_refuses_a_prime_table_past_the_cap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pure, "carmichael_census", lambda limit: calls.append(limit) or [])
        with pytest.raises(DomainError) as info:
            korselt.census(10**17)
        assert str(info.value) == (
            "census(100000000000000000) needs a prime table of 316227766 bytes, "
            "past the cap of 100000000 bytes"
        )
        top = (korselt.CENSUS_TABLE_CAP + 1) ** 2 - 1
        assert korselt.census(top) == []
        with pytest.raises(DomainError):
            korselt.census(top + 1)
        assert calls == [top]

    def test_extended_counts(self):
        # Frozen from the scan itself and probed below; the tail rows are
        # too large for the all-bases oracle, so they get a seeded probe.
        assert len(korselt.census(10**6)) == 43
        rows = korselt.census(10**7)
        assert len(rows) == 105
        for n, k in rows[-3:]:
            cert = korselt.is_carmichael(n)
            assert cert and cert.k_invariant == k
            assert korselt.fermat_probe(n, bases=100, seed=n)


class TestOracleEquivalence:
    def test_all_n_to_2000(self):
        # Korselt verdict iff composite with a**n == a for every base.
        for n in range(2, 2001):
            korselt_says = bool(korselt.is_carmichael(n))
            oracle_says = brute_force.fermat_carmichael(n)
            assert korselt_says == oracle_says, n

    def test_certificate_shape(self):
        for n, _ in FIRST_SEVEN:
            cert = korselt.is_carmichael(n)
            assert cert.k_invariant % 2 == 0
            assert all(p % 2 == 1 for p in cert.factors.primes)
            assert cert.factors.omega >= 3


class TestFermatProbe:
    def test_carmichael_passes(self):
        assert korselt.fermat_probe(561, bases=50, seed=7)

    def test_generic_composite_fails(self):
        assert not korselt.fermat_probe(9, bases=50, seed=7)

    def test_seeded_reproducibility(self):
        assert korselt.fermat_probe(2821, bases=25, seed=3) == korselt.fermat_probe(
            2821, bases=25, seed=3
        )
