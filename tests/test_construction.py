import collections
import dataclasses
import functools
import itertools
import math
import os
import threading
import time
from fractions import Fraction

import brute_force
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from carmik import arith, construction as cons
from carmik._kernels import pure
from carmik.errors import ConfigError, DomainError, InternalConsistencyError, SearchExhaustedError


def factored(*primes):
    return arith.FactoredInteger.from_factor_map({p: 1 for p in primes})


class TestConfig:
    def test_odd_nu_rejected(self):
        with pytest.raises(ConfigError):
            cons.ConstructionConfig(z=20, nu=3)

    def test_small_z_rejected(self):
        with pytest.raises(ConfigError):
            cons.ConstructionConfig(z=3, nu=2)

    def test_derived_defaults(self):
        cfg = cons.ConstructionConfig(z=74, nu=2)
        assert cfg.resolved_omega_g == int(math.log(74))
        assert cfg.resolved_j_cap == math.ceil(math.log(74) ** 4)

    def test_explicit_values_win(self):
        cfg = cons.ConstructionConfig(z=74, nu=2, omega_g=2, j_cap=9)
        assert cfg.resolved_omega_g == 2
        assert cfg.resolved_j_cap == 9


class TestBuildJ:
    def test_examples(self):
        assert cons.build_J(20).value == 11 * 13 * 17 * 19
        assert cons.build_J(4).value == 6    # window [2, 4]
        assert cons.build_J(3).value == 6    # window [2, 3]

    def test_primes_recorded(self):
        assert cons.build_J(20).primes == (11, 13, 17, 19)

    def test_empty_window(self):
        with pytest.raises(DomainError):
            cons.build_J(1)


class TestEnumerateG:
    def test_pairs(self):
        got = cons.enumerate_g(factored(17, 19, 23, 29), 2)
        assert got == [323, 391, 437, 493, 551, 667]

    def test_full_product(self):
        assert cons.enumerate_g(factored(17, 19, 23, 29), 4) == [17 * 19 * 23 * 29]

    def test_oversized_count_is_empty(self):
        assert cons.enumerate_g(factored(17, 19, 23, 29), 5) == []

    def test_count_is_binomial(self):
        j20 = cons.build_J(20)
        for k in range(1, 5):
            assert len(cons.enumerate_g(j20, k)) == math.comb(4, k)


class TestPopulateR:
    def test_smallest_j_wins(self):
        # 323 * 1 + 1 = 324 is composite; 323 * 2 + 1 = 647 is prime.
        rmap = cons.populate_R(cons.build_J(30), 2, 5)
        assert (647, 323) in rmap.buckets[2].members

    def test_miss_recorded_at_tight_cap(self):
        rmap = cons.populate_R(cons.build_J(30), 2, 1)
        assert 667 in rmap.misses  # 668 = 4 * 167

    def test_no_divisors_no_buckets(self):
        rmap = cons.populate_R(cons.build_J(20), 5, 10)
        assert rmap.buckets == {} and rmap.misses == ()

    def test_every_member_reverifies(self):
        j_product = cons.build_J(60)
        rmap = cons.populate_R(j_product, 1, 30)
        seen = set()
        for j, bucket in rmap.buckets.items():
            assert bucket.j == j
            for q, g in bucket.members:
                assert q == g * j + 1
                assert arith.is_prime(q)
                assert j_product.value % g == 0
                assert arith.factorize(g).omega == 1
                assert math.gcd(j, g) == 1
                assert q not in seen
                seen.add(q)

    def test_single_prime_window(self):
        # g = 3: 3*1 + 1 = 4 is composite, 3*2 + 1 = 7 lands in bucket 2.
        rmap = cons.populate_R(factored(3), 1, 10)
        ((q, g),) = rmap.buckets[2].members
        assert (q, g) == (7, 3)


def reference_populate_R(j_product, omega_g, j_cap):
    """populate_R as a plain walk over every j, with no wheel."""
    assignments, taken, misses = {}, set(), []
    for g in cons.enumerate_g(j_product, omega_g):
        for j in range(1, j_cap + 1):
            if math.gcd(j, g) != 1:
                continue
            q = g * j + 1
            if q in taken or not arith.is_prime(q):
                continue
            assignments.setdefault(j, []).append((q, g))
            taken.add(q)
            break
        else:
            misses.append(g)
    buckets = {j: cons.RBucket(j=j, members=tuple(sorted(m))) for j, m in assignments.items()}
    return cons.RMap(buckets=buckets, misses=tuple(misses))


@functools.cache
def derived_150():
    """populate_R's arguments at derived z = 150 (2002 g), and the plain walk's RMap."""
    cc = cons.ConstructionConfig(z=150, nu=2)
    args = (cons.build_J(150), cc.resolved_omega_g, cc.resolved_j_cap)
    return args, reference_populate_R(*args)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs, whatever the host; the list of the pids os.fork returns."""
    monkeypatch.setattr(cons, "_usable_cpus", lambda: 3)
    fork, pids = os.fork, []

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except SearchExhaustedError as exc:
        return "exhausted", str(exc), exc.stats
    except DomainError as exc:
        return "domain", str(exc)


def assert_rmap_equal(got, want):
    assert got.misses == want.misses
    assert sorted(got.buckets.items()) == sorted(want.buckets.items())


def assert_families_match(rmap, nu, size, omega_d, k_cap):
    """Both families of one harvest: search_P against its reference."""
    if not rmap.buckets:
        return
    _, bucket = cons.select_j0(rmap)
    if len(bucket) < 2 * size:
        return
    q1, q2 = cons.split_Q(bucket, size)
    l1, l2 = cons.squarefree_product(q1), cons.squarefree_product(q2)
    got = outcome(cons.search_P, l1, l2, nu, omega_d, k_cap, 1)
    assert got == outcome(brute_force.search_P, l1, l2, nu, omega_d, k_cap, 1)
    if got[0] == "ok":
        k1 = got[1][0]
        got = outcome(cons.search_P, l2, l1, nu, omega_d, k_cap, 1, k1=k1)
        assert got == outcome(brute_force.search_P, l2, l1, nu, omega_d, k_cap, 1, k1=k1)


# The construct benchmark's small variants (omega_g = 1, j_cap = 40,
# k_cap = 4000), with the two whose family 2 is empty mod 3:
# (z, nu, |Q|, omega_d).
BENCHMARK_VARIANTS = (
    (400, 6, 4, 1), (500, 2, 4, 2), (600, 4, 4, 2), (300, 6, 3, 2),
    (400, 10, 3, 1), (300, 8, 3, 1), (250, 12, 3, 1), (600, 12, 4, 1),
    (500, 10, 4, 1), (150, 6, 2, 1), (400, 4, 2, 1), (200, 8, 2, 2),
    (400, 2, 5, 2), (200, 2, 3, 2),
)


ODD_PRIMES = arith.primes_in_range(3, 1500)


def counted(test, calls):
    """test, counting its calls in calls[test.__name__]."""

    def wrapper(n):
        calls[test.__name__] += 1
        return test(n)

    return wrapper


@st.composite
def family_searches(draw):
    """search_P arguments over small disjoint Q sets, in both modes."""
    q = draw(st.lists(st.sampled_from(ODD_PRIMES), min_size=2, max_size=8, unique=True))
    cut = draw(st.integers(max(1, len(q) - 4), min(4, len(q) - 1)))
    l_own, l_other = factored(*sorted(q[:cut])), factored(*sorted(q[cut:]))
    nu = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
    k1 = draw(st.none() | st.integers(1, 100).map(lambda t: nu * t + 1))
    omega_d = draw(st.integers(1, 2))
    k_cap = draw(st.integers(1, 300))
    min_count = draw(st.integers(1, 3))
    return l_own, l_other, nu, omega_d, k_cap, min_count, k1


class TestCandidateSieves:
    """populate_R's harvest kernel and search_P's sieve and pruning change no result."""

    def test_small_windows_match_the_plain_walks(self):
        for z in range(4, 61):
            j_product = cons.build_J(z)
            for omega_g in (1, 2, 3):
                for j_cap in (1, 5, 40):
                    rmap = cons.populate_R(j_product, omega_g, j_cap)
                    assert_rmap_equal(rmap, reference_populate_R(j_product, omega_g, j_cap))
            rmap = cons.populate_R(j_product, 1, 40)
            for nu in (2, 4, 6):
                for size, omega_d in ((1, 1), (2, 1), (2, 2)):
                    assert_families_match(rmap, nu, size, omega_d, 300)

    def test_a_derived_window_matches_the_plain_walk(self, three_cpus):
        # z = 150 at the derived omega_g = 5 and j_cap = 631: 2002 g, whose
        # q the pure kernel proves from two or three window primes each,
        # walked by three workers on any host.
        args, want = derived_150()
        assert args[1:] == (5, 631)
        assert_rmap_equal(cons.populate_R(*args), want)
        assert len(three_cpus) == 2
        assert_no_child()

    def test_a_g_past_the_word_matches_the_plain_walk(self):
        # omega_g = 8 over the top nine window primes of z = 400: each g is
        # about 2e20, so every q lies past the kernel's word.
        j_product = factored(*arith.primes_in_range(200, 400)[-9:])
        assert min(cons.enumerate_g(j_product, 8)) >= arith.KERNEL_BOUND
        rmap = cons.populate_R(j_product, 8, 60)
        assert rmap.buckets
        assert_rmap_equal(rmap, reference_populate_R(j_product, 8, 60))

    @pytest.mark.parametrize("z, nu, size, omega_d", BENCHMARK_VARIANTS)
    def test_benchmark_variants_match_the_plain_walks(self, z, nu, size, omega_d):
        j_product = cons.build_J(z)
        rmap = cons.populate_R(j_product, 1, 40)
        assert_rmap_equal(rmap, reference_populate_R(j_product, 1, 40))
        assert_families_match(rmap, nu, size, omega_d, 4000)

    def test_no_candidate_with_a_small_factor_is_tested(self, monkeypatch):
        # The pure harvest kernel proves, or hands to Miller-Rabin, only a q
        # that its wheel and its gcd leave: q prime to every prime <= 211.
        proved = []
        for name in ("_prove_prime", "is_prime_u64"):
            test = getattr(pure, name)
            monkeypatch.setattr(pure, name, lambda n, *a, test=test: proved.append(n) or test(n, *a))
        j_product = cons.build_J(60)
        for g in cons.enumerate_g(j_product, 1):
            pure.harvest_j(g, j_product.primes, 1, 40)
        assert proved and all(math.gcd(q, pure._SMALL_PRODUCT) == 1 for q in proved)
        # A g below 7 walks every j: g = 2 and 3 reach q = 3 and 7.
        assert (pure.harvest_j(2, (2, 3), 1, 10), pure.harvest_j(3, (2, 3), 1, 10)) == (1, 2)
        monkeypatch.undo()
        tested = []
        is_prime = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n, **kw: tested.append(n) or is_prime(n, **kw))
        sieve_primes = math.prod(arith.primes_in_range(2, cons._SIEVE_BOUND))
        cons.search_P(factored(149, 173), factored(269, 293), 2, 1, 500, 1)
        assert tested and all(math.gcd(p, sieve_primes) == 1 for p in tested)

    @settings(deadline=None, max_examples=200)
    @given(family_searches())
    def test_pruned_search_matches_the_plain_walk(self, args):
        *head, k1 = args
        assert outcome(cons.search_P, *head, k1=k1) == outcome(brute_force.search_P, *head, k1=k1)

    def test_pruning_tests_fewer_candidates_than_the_sieve_leaves(self, monkeypatch):
        # Family 1 of the z=500, nu=2, |Q|=4, omega_d=2 benchmark variant.
        rmap = cons.populate_R(cons.build_J(500), 1, 40)
        q1, q2 = cons.split_Q(cons.select_j0(rmap)[1], 4)
        l1, l2 = cons.squarefree_product(q1), cons.squarefree_product(q2)
        calls = collections.Counter()
        for module, name in ((arith, "is_prime"), (sympy, "isprime")):
            monkeypatch.setattr(module, name, counted(getattr(module, name), calls))
        k, family = cons.search_P(l1, l2, 2, 2, 4000, 1)
        assert brute_force.search_P(l1, l2, 2, 2, 4000, 1) == (k, family)
        # What the search tested before pruning: every sieve survivor up to
        # k_cap, since the family is not full.
        divisors = sorted(math.prod(c) for c in itertools.combinations(q1, 2))
        assert len(family) < len(divisors)
        primes = arith.primes_in_range(2, cons._SIEVE_BOUND)
        sieves = [cons._affine_sieve(4 * d, 2 * d + 1, 4000, primes) for d in divisors]
        ll = l1.value * l2.value
        sieved = sum(s[t] for t in range(1, 4001) if math.gcd(2 * t + 1, ll) == 1 for s in sieves)
        assert 20 * calls["is_prime"] < sieved < calls["isprime"]


class TestParallelHarvest:
    """populate_R's forked workers: the same RMap, or the same error, and no child left."""

    def test_a_child_that_dies_has_its_slice_redone(self, three_cpus, monkeypatch):
        parent, harvest_j = os.getpid(), arith.harvest_j

        def dies_in_a_child(*args):
            if os.getpid() != parent:
                os._exit(1)
            return harvest_j(*args)

        monkeypatch.setattr(arith, "harvest_j", dies_in_a_child)
        args, want = derived_150()
        assert_rmap_equal(cons.populate_R(*args), want)
        assert len(three_cpus) == 2
        assert_no_child()

    @pytest.mark.parametrize("error", [DomainError, OverflowError])
    def test_a_harvest_error_leaves_with_its_type(self, three_cpus, monkeypatch, error):
        args, _ = derived_150()
        # The first g of slice 1, which a child walks; the parent redoes it.
        bad, harvest_j = cons.enumerate_g(*args[:2])[1], arith.harvest_j

        def fails_at_bad(g, *rest):
            if g == bad:
                raise error(f"planted at g = {g}")
            return harvest_j(g, *rest)

        monkeypatch.setattr(arith, "harvest_j", fails_at_bad)
        with pytest.raises(error, match=f"planted at g = {bad}$"):
            cons.populate_R(*args)
        assert len(three_cpus) == 2
        assert_no_child()

    def test_an_error_here_kills_every_child(self, three_cpus, monkeypatch):
        # A child would stall for 30 s; the parent fails at once.
        parent = os.getpid()

        def stalls_in_a_child(*args):
            if os.getpid() != parent:
                time.sleep(30)
                os._exit(1)
            raise DomainError("planted in the parent")

        monkeypatch.setattr(arith, "harvest_j", stalls_in_a_child)
        args, _ = derived_150()
        start = time.perf_counter()
        with pytest.raises(DomainError, match="planted in the parent"):
            cons.populate_R(*args)
        assert time.perf_counter() - start < 10
        assert len(three_cpus) == 2
        assert_no_child()

    def test_a_failed_fork_leaves_its_slice_here(self, three_cpus, monkeypatch):
        fork = os.fork

        def forks_once():
            if three_cpus:
                raise BlockingIOError("planted: no process to be had")
            return fork()

        monkeypatch.setattr(os, "fork", forks_once)
        args, want = derived_150()
        assert_rmap_equal(cons.populate_R(*args), want)
        assert len(three_cpus) == 1
        assert_no_child()

    @pytest.mark.parametrize("case", ["no os.fork", "one CPU", "another thread", "few g"])
    def test_serial_where_a_fork_is_useless_or_unsafe(self, monkeypatch, case):
        def no_fork():
            raise AssertionError("populate_R forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(cons, "_usable_cpus", lambda: 1 if case == "one CPU" else 3)
        if case == "no os.fork":
            monkeypatch.delattr(os, "fork")
        args, want = derived_150()
        if case == "few g":
            args = (args[0], 3, args[2])  # 364 g
            want = reference_populate_R(*args)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(30,))
        if case == "another thread":
            thread.start()
        try:
            assert_rmap_equal(cons.populate_R(*args), want)
        finally:
            stop.set()
            if thread.ident is not None:
                thread.join(30)
        assert not thread.is_alive()


class TestSelectJ0:
    def test_argmax(self):
        rmap = cons.RMap(
            buckets={
                1: cons.RBucket(1, ((3, 2),)),
                2: cons.RBucket(2, ((7, 3), (11, 5))),
            },
            misses=(),
        )
        j0, bucket = cons.select_j0(rmap)
        assert j0 == 2 and len(bucket) == 2

    def test_tie_breaks_to_smallest_j(self):
        rmap = cons.RMap(
            buckets={
                3: cons.RBucket(3, ((43, 14),)),
                1: cons.RBucket(1, ((3, 2),)),
            },
            misses=(),
        )
        assert cons.select_j0(rmap)[0] == 1

    def test_empty_is_an_error(self):
        with pytest.raises(DomainError):
            cons.select_j0(cons.RMap(buckets={}, misses=()))


class TestSplitQ:
    def test_deterministic_split(self):
        bucket = cons.RBucket(2, ((5, 2), (7, 3), (11, 5), (13, 6)))
        q1, q2 = cons.split_Q(bucket, 2)
        assert q1 == (5, 7) and q2 == (11, 13)

    def test_single(self):
        bucket = cons.RBucket(2, ((5, 2), (7, 3)))
        assert cons.split_Q(bucket, 1) == ((5,), (7,))

    def test_insufficient_members(self):
        bucket = cons.RBucket(2, ((5, 2), (7, 3), (11, 5)))
        with pytest.raises(SearchExhaustedError) as exc:
            cons.split_Q(bucket, 2)
        assert exc.value.stats["achieved"] == 3


class TestSearchP:
    def test_single_prime_family(self):
        k, family = cons.search_P(factored(647), factored(1103), 2, 1, 100, 1)
        assert k == 7
        assert family == ((9059, 647),)

    def test_k_form_coprimality(self):
        k, family = cons.search_P(factored(149, 173), factored(269, 293), 2, 1, 500, 1)
        assert math.gcd(k, 2) == 1
        assert k % 2 == 1 and (k - 1) % 2 == 0
        for p, d in family:
            assert p == d * k * 2 + 1
            assert (p - 1 - d * 2) % (d * 4) == 0

    def test_second_mode_form(self):
        k1 = 7
        k2, family = cons.search_P(
            factored(269, 293), factored(149, 173), 2, 1, 4000, 1, k1=k1
        )
        assert (k2 - 1) % (2 * k1) == 0
        assert math.gcd(k1, k2) == 1
        for p, d in family:
            assert (p - 1 - d * 2) % (d * 4 * k1) == 0

    def test_no_eligible_divisor(self):
        with pytest.raises(SearchExhaustedError):
            cons.search_P(factored(647), factored(1103), 2, 2, 100, 1)

    def test_min_count_exhaustion_reports_best(self):
        # k' = 1, 2 give 3883 = 11 * 353 and 6471 = 3 * 2157, both composite
        # with a factor the sieve strikes.
        with pytest.raises(SearchExhaustedError) as exc:
            cons.search_P(factored(647), factored(1103), 2, 1, 2, 1)
        assert exc.value.stats["best_size"] == 0
        assert exc.value.stats["survivors"] == 0

    def test_a_composite_the_sieve_leaves_is_a_survivor(self):
        # k' = 2 gives 10000391 = 2689 * 3719, past the sieve's primes.
        args = (factored(1000039), factored(1103), 2, 1, 2, 1)
        got = outcome(cons.search_P, *args)
        assert got == outcome(brute_force.search_P, *args)
        assert got[2]["best_size"] == 0 and got[2]["survivors"] == 1

    @pytest.mark.parametrize("primes, omega_d", [(11, 5), (13, 6)])
    @pytest.mark.parametrize("min_count", [1, 2000])
    def test_lanes_past_one_byte_match_the_plain_walk(self, primes, omega_d, min_count):
        # 462 and 1716 divisors need lanes of two bytes; at 1716 a lane
        # counts more than 255 survivors.  min_count = 2000 exhausts both.
        l_own = factored(*arith.primes_in_range(1000, 1200)[:primes])
        l_other = factored(1201, 1213)
        k_cap = 12 if primes == 11 else 4
        for k1 in (None, 7):
            args = (l_own, l_other, 2, omega_d, k_cap, min_count)
            got = outcome(cons.search_P, *args, k1=k1)
            assert got == outcome(brute_force.search_P, *args, k1=k1)
            assert got[0] == ("ok" if min_count == 1 else "exhausted")

    def test_bad_k1_rejected(self):
        with pytest.raises(DomainError):
            cons.search_P(factored(269), factored(149), 2, 1, 10, 1, k1=269)


class TestVerifyPairwiseGcd:
    def test_matching_pair(self):
        ok, bad = cons.verify_pairwise_gcd(((13, 1),), ((23, 1),), 2)
        assert ok and bad is None  # gcd(12, 22) = 2

    def test_counterexample_reported(self):
        ok, bad = cons.verify_pairwise_gcd(((13, 1),), ((17, 1),), 2)
        assert not ok
        assert bad == (13, 17, 4)

    def test_identical_prime(self):
        ok, _ = cons.verify_pairwise_gcd(((13, 1),), ((13, 1),), 12)
        assert ok

    def test_empty_family_is_an_error(self):
        with pytest.raises(DomainError):
            cons.verify_pairwise_gcd((), ((13, 1),), 2)


def harvested_instance(z=74, nu=2, q_subset_size=2):
    from carmik import pipeline

    cfg = cons.ConstructionConfig(
        z=z, nu=nu, omega_g=1, omega_d=1, j_cap=40, k_cap=4000, q_subset_size=q_subset_size
    )
    return pipeline.harvest_instance(cfg)


class TestInstance:
    def test_ledger_verifies(self):
        harvested_instance().verify()

    def test_serialize_roundtrip(self):
        # z = 400 has an 80-digit J, past the factorization effort cap.
        for instance in (harvested_instance(), harvested_instance(z=400, nu=6, q_subset_size=4)):
            text = instance.serialize()
            again = cons.ConstructionInstance.parse(text)
            assert again == instance
            assert again.serialize() == text

    def test_tampered_document_is_rejected(self):
        instance = harvested_instance()
        text = instance.serialize()
        broken = text.replace(f"k1 = {instance.k1}", f"k1 = {instance.k1 + 2}")
        assert broken != text
        with pytest.raises(InternalConsistencyError):
            cons.ConstructionInstance.parse(broken)
        broken = text.replace(f"J = {instance.j_product.value}", f"J = {instance.j_product.value * 2}")
        with pytest.raises(DomainError, match="window product"):
            cons.ConstructionInstance.parse(broken)
        primes_line = "J_primes = " + ",".join(str(p) for p in instance.j_product.primes)
        broken = text.replace(primes_line, "J_primes = 2,3,5")
        assert broken != text
        with pytest.raises(DomainError, match="window primes"):
            cons.ConstructionInstance.parse(broken)

    def test_derived_values_are_not_fields(self):
        instance = harvested_instance()
        names = [f.name for f in dataclasses.fields(instance)]
        assert names == ["config", "j0", "q1", "q2", "k1", "k2", "p1", "p2"]
        assert instance.j_product == cons.build_J(instance.config.z)
        assert instance.l1 == factored(*instance.q1)
        assert instance.l2 == factored(*instance.q2)

    def test_divisor_prime_count_is_read_from_Q(self, monkeypatch):
        instance = harvested_instance()
        calls = []
        factorize = arith.factorize
        monkeypatch.setattr(
            arith, "factorize", lambda n, *a, **kw: calls.append(n) or factorize(n, *a, **kw)
        )
        instance.verify()
        # The Q cofactors g are read against J's primes, the divisors d against Q's.
        assert calls == []
        d = instance.q1[0] * instance.q1[1]  # two primes where omega_d = 1
        forged = (d * instance.k1 * instance.config.nu + 1, d)
        tampered = dataclasses.replace(instance, p1=(forged,) + instance.p1[1:])
        with pytest.raises(InternalConsistencyError, match="wrong prime count"):
            tampered.verify()
        assert calls == []

    def test_q_cofactor_is_read_against_the_window(self):
        instance = harvested_instance()
        j0, primes = instance.j0, instance.j_product.primes
        lo = primes[0]

        def forged_q(cofactors):
            # The first prime g * j0 + 1 over the given cofactors, outside Q1 and Q2.
            return next(g * j0 + 1 for g in cofactors
                        if math.gcd(g, j0) == 1 and arith.is_prime(g * j0 + 1)
                        and g * j0 + 1 not in instance.q1 + instance.q2)

        outside = forged_q(p for p in arith.primes_in_range(3, lo - 1))
        tampered = dataclasses.replace(instance, q1=(outside,) + instance.q1[1:])
        with pytest.raises(InternalConsistencyError, match="leaves the window"):
            tampered.verify()
        two_primes = forged_q(a * b for a, b in itertools.combinations(primes, 2))
        tampered = dataclasses.replace(instance, q1=(two_primes,) + instance.q1[1:])
        with pytest.raises(InternalConsistencyError, match="wrong shape"):
            tampered.verify()

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            cons.ConstructionInstance.parse("format = something-else\n")

    def test_malformed_document_names_the_field(self):
        with pytest.raises(DomainError, match="no 'nu' line"):
            cons.ConstructionInstance.parse("format = carmik-instance-v1\nz = 74\n")
        text = harvested_instance().serialize()
        for key, bad in (("k1", "abc"), ("exponent_a", "two"), ("Q2", "5,x"), ("P1", "7")):
            line = next(l for l in text.splitlines() if l.startswith(f"{key} = "))
            broken = text.replace(line, f"{key} = {bad}")
            with pytest.raises(DomainError, match=f"instance field '{key}' is malformed"):
                cons.ConstructionInstance.parse(broken)
            without = text.replace(line + "\n", "")
            with pytest.raises(DomainError, match=f"no '{key}' line"):
                cons.ConstructionInstance.parse(without)

    def test_document_lines_are_read_strictly(self):
        text = harvested_instance().serialize()
        last = len(text.splitlines()) + 1
        with pytest.raises(DomainError, match=f"line {last}: duplicate key 'nu'"):
            cons.ConstructionInstance.parse(text + "nu = 4\n")
        with pytest.raises(DomainError, match=f"line {last}: expected 'key = value'"):
            cons.ConstructionInstance.parse(text + "P3\n")


class TestCombinatorialIdentity:
    def test_binomial_dominates_power_exactly(self):
        # binom(n, k) >= (n/k)**k in exact rational arithmetic.
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert Fraction(math.comb(n, k)) >= Fraction(n, k) ** k, (n, k)
