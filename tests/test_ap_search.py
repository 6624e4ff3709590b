import math
import random
import tracemalloc

import pytest

from carmik import ap_search
from carmik._kernels import pure
from carmik.errors import DomainError, InvalidClassError, SearchExhaustedError


def naive_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


class TestFirstPrimeInAp:
    def test_examples(self):
        r = ap_search.first_prime_in_ap(4, 1)
        assert r.p == 5 and r.steps == 2  # scans 1, then 5
        assert r.ratio(2.0) == pytest.approx(5 / (4 * math.log(4) ** 2))
        r = ap_search.first_prime_in_ap(2, 1)
        assert r.p == 3  # scans 1, then 3
        assert r.ratio(2.0) == pytest.approx(3 / (2 * math.log(2) ** 2))

    def test_invalid_class(self):
        with pytest.raises(InvalidClassError):
            ap_search.first_prime_in_ap(4, 2)

    def test_residue_and_cap_validation(self):
        with pytest.raises(DomainError):
            ap_search.first_prime_in_ap(4, 5)
        with pytest.raises(DomainError):
            ap_search.first_prime_in_ap(9, 4, cap=3)

    def test_cap_at_the_residue_tests_the_residue_alone(self):
        assert ap_search.first_prime_in_ap(10, 3, cap=3).p == 3
        with pytest.raises(SearchExhaustedError):
            ap_search.first_prime_in_ap(10, 9, cap=9)

    def test_exhaustion_is_loud(self):
        with pytest.raises(SearchExhaustedError):
            ap_search.first_prime_in_ap(25, 24, cap=30)  # 24, 49 both composite

    def test_minimality_against_independent_sieve(self):
        rng = random.Random(1234)
        done = 0
        while done < 100:
            l = rng.randrange(2, 1001)
            b = rng.randrange(1, l)
            if math.gcd(b, l) != 1:
                continue
            result = ap_search.first_prime_in_ap(l, b)
            flags = naive_sieve(result.p)
            earlier = [t for t in range(b, result.p, l) if t >= 2 and flags[t]]
            assert earlier == [], (l, b)
            assert flags[result.p]
            assert result.p % l == b
            done += 1


class TestScan:
    def test_empty_range(self):
        table = ap_search.heath_brown_scan(5, 4)
        assert table.per_l == () and table.global_max is None

    def test_single_modulus_four(self):
        table = ap_search.heath_brown_scan(4, 4, exponent=2.0)
        assert table.global_max.ratio == pytest.approx(5 / (4 * math.log(4) ** 2))
        assert (table.global_max.modulus, table.global_max.residue) == (4, 1)

    def test_small_modulus_rows_exceed_one(self):
        table = ap_search.heath_brown_scan(2, 2, exponent=2.0)
        assert table.global_max.ratio == pytest.approx(3 / (2 * math.log(2) ** 2))
        assert table.global_max.ratio > 1
        assert table.consistent_max is None  # l = 2 sits below the cutoff

    def test_consistent_summary_skips_small_moduli(self):
        table = ap_search.heath_brown_scan(2, 40, exponent=2.0)
        assert table.consistent_max.modulus >= ap_search.SMALL_MODULUS_CUTOFF
        assert table.global_max.ratio >= table.consistent_max.ratio

    def test_scan_runs_the_pure_kernel_on_either_backend(self, monkeypatch):
        calls = []
        scan = pure.ap_max_scan
        monkeypatch.setattr(pure, "ap_max_scan", lambda *args: calls.append(args) or scan(*args))
        table = ap_search.heath_brown_scan(4, 4)
        assert len(calls) == 1 and table.global_max.p == 5

    def test_no_misses_with_default_caps_to_200(self):
        table = ap_search.heath_brown_scan(2, 200)
        assert table.misses == ()
        assert len(table.per_l) == 199

    def test_huge_cap_allocates_only_what_the_walks_need(self):
        default = ap_search.heath_brown_scan(3, 60)
        tracemalloc.start()
        try:
            table = ap_search.heath_brown_scan(3, 60, cap=10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.per_l == default.per_l and table.misses == ()
        assert peak < 2**20  # a table sized to the cap would need 10**12 bytes
