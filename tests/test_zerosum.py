import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmik import arith, zerosum
from carmik._kernels import pure
from carmik.errors import DomainError, FactorizationEffortError, SearchExhaustedError


def brute_subset_count(elements, m):
    count = 0
    for size in range(1, len(elements) + 1):
        for combo in itertools.combinations(range(len(elements)), size):
            if math.prod(elements[i] for i in combo) % m == 1:
                count += 1
    return count


def random_units(rng, m, size):
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    return [rng.choice(units) for _ in range(size)]


class TestUnitGroupStructure:
    def test_examples(self):
        assert zerosum.unit_group_structure(5).components == ((2, 4),)
        assert zerosum.unit_group_structure(2).components == ()
        assert zerosum.unit_group_structure(8).components == ((7, 2), (5, 2))

    def test_orders_multiply_to_phi_and_lcm_to_lambda(self):
        for m in range(2, 300):
            s = zerosum.unit_group_structure(m)
            orders = s.orders
            assert math.prod(orders) == arith.euler_phi(m), m
            assert math.lcm(*orders) == arith.carmichael_lambda(m) if orders else True

    def test_generator_orders_are_exact(self):
        for m in (5, 8, 15, 16, 21, 35, 105, 256, 441):
            s = zerosum.unit_group_structure(m)
            for g, order in s.components:
                assert pow(g, order, m) == 1
                for r in arith.factorize(order).primes:
                    assert pow(g, order // r, m) != 1, (m, g, order)

    def test_internal_direct_product_spans_all_units(self):
        for m in (5, 8, 12, 15, 16, 21, 24, 35, 40, 63, 100):
            s = zerosum.unit_group_structure(m)
            span = {1}
            for g, order in s.components:
                span = {x * pow(g, e, m) % m for x in span for e in range(order)}
            assert span == {a for a in range(1, m) if math.gcd(a, m) == 1}

    def test_domain(self):
        with pytest.raises(DomainError):
            zerosum.unit_group_structure(1)


class TestDiscreteLog:
    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(60):
            m = rng.randrange(3, 5000)
            s = zerosum.unit_group_structure(m)
            x = random_units(rng, m, 1)[0]
            vec = zerosum.discrete_log_vector(s, x)
            recon = 1
            for (g, order), e in zip(s.components, vec):
                assert 0 <= e < order
                recon = recon * pow(g, e, m) % m
            assert recon == x, (m, x)

    def test_non_unit_rejected(self):
        s = zerosum.unit_group_structure(10)
        with pytest.raises(DomainError):
            zerosum.discrete_log_vector(s, 5)


class TestDavenportBound:
    def test_examples(self):
        assert zerosum.davenport_upper_bound(5) == pytest.approx(4.0)
        assert zerosum.davenport_upper_bound(2) == pytest.approx(1.0)
        assert zerosum.davenport_upper_bound(8) == pytest.approx(2 * (1 + math.log(2)))

    def test_log_variant_matches(self):
        for m in (5, 8, 105, 9699690):
            assert zerosum.davenport_upper_bound_log(m) == pytest.approx(
                math.log(zerosum.davenport_upper_bound(m))
            )

    def test_both_forms_need_m_at_least_2(self):
        for bound in (zerosum.davenport_upper_bound, zerosum.davenport_upper_bound_log):
            with pytest.raises(DomainError, match="bound needs m >= 2"):
                bound(1)


class TestFind:
    def test_examples_mod_5(self):
        w = zerosum.find_product_one_subsequence([2, 3], 5)
        assert w.indices == (0, 1)
        w = zerosum.find_product_one_subsequence([1, 2], 5)
        assert w.indices == (0,)
        assert zerosum.find_product_one_subsequence([2, 2], 5) is None

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            zerosum.find_product_one_subsequence([5, 2], 10)

    def test_empty(self):
        assert zerosum.find_product_one_subsequence([], 7) is None

    def test_unknown_strategy_rejected_before_any_search(self):
        # The prefix pass alone would find (0, 1) here.
        for strategy in ("bogus", "exhaustive", "reach"):
            with pytest.raises(DomainError, match=f"unknown strategy '{strategy}'"):
                zerosum.find_product_one_subsequence([2, 3], 5, strategy=strategy)

    def test_auto_meets_in_the_middle_without_the_exhaustive_walk(self, monkeypatch):
        # 2 has order 61 mod 2**61 - 1, so no product of at most 24 copies
        # of it is 1; a walk over all 2**24 subsets would take seconds.
        def walk(*args):
            raise AssertionError("auto ran the exhaustive walk")

        monkeypatch.setattr(pure, "subset_witness_exhaustive", walk)
        assert zerosum.find_product_one_subsequence([2] * 24, 2**61 - 1) is None

    def test_search_needs_no_factorization(self):
        # A 90-digit modulus cannot be factored under the 64-digit cap, and
        # the search needs no factorization.  2 * 2**-1 is no contiguous
        # run, so the prefix pass leaves the answer to the search.
        m = 10**89 + 1
        with pytest.raises(FactorizationEffortError):
            arith.factorize(m)
        elems = [2, 3, pow(2, -1, m)]
        w = zerosum.find_product_one_subsequence(elems, m)
        assert w.indices == (0, 2) and w.verify(elems, m)

    def test_every_returned_witness_verifies(self):
        rng = random.Random(5)
        for _ in range(300):
            m = rng.randrange(3, 2000)
            elems = random_units(rng, m, rng.randrange(1, 18))
            w = zerosum.find_product_one_subsequence(elems, m)
            if w is not None:
                assert w.verify(elems, m)

    def test_budget_exhaustion_raises(self, monkeypatch):
        # 2 has order 10 mod 11, so there is no witness, and the table of
        # the low half holds its four products 2, 4, 8 and 5.
        elems = [2] * 9
        assert zerosum.find_product_one_subsequence(elems, 11) is None
        monkeypatch.setattr(zerosum, "_TABLE_CAP", 3)
        with pytest.raises(SearchExhaustedError):
            zerosum.find_product_one_subsequence(elems, 11)

    def test_a_collision_free_45_list_fits_the_table(self):
        # The low half of 45 elements is 22 of them, and the high half
        # stores the products of all but its last, 22 more: 2**22 - 1
        # products each.  One more element puts 23 in the low half.
        for n in (45, 46):
            low = n // 2
            stored = n - low - 1
            assert 2**stored - 1 <= zerosum._TABLE_CAP
            assert (2**low - 1 <= zerosum._TABLE_CAP) == (n == 45)

    def test_46_twos_mod_53_have_no_witness(self, monkeypatch):
        # 2 has order 52 mod 53: no subset of 46 twos has product 1, and the
        # prefix pass cannot say so, so the search must.  The low half's 23
        # twos reach 23 distinct products, which a cap of 23 still holds.
        assert zerosum.find_product_one_subsequence([2] * 46, 53) is None
        monkeypatch.setattr(zerosum, "_TABLE_CAP", 23)
        assert zerosum.find_product_one_subsequence([2] * 46, 53) is None
        monkeypatch.setattr(zerosum, "_TABLE_CAP", 22)
        with pytest.raises(SearchExhaustedError):
            zerosum.find_product_one_subsequence([2] * 46, 53)

    @pytest.mark.parametrize("strategy, cap", [("mitm", "_TABLE_CAP"), ("auto", "_TABLE_CAP")])
    def test_each_strategy_reads_its_budget_at_call_time(self, monkeypatch, strategy, cap):
        elems = [2] * 9
        assert zerosum.find_product_one_subsequence(elems, 11, strategy=strategy) is None
        monkeypatch.setattr(zerosum, cap, 1)
        with pytest.raises(SearchExhaustedError):
            zerosum.find_product_one_subsequence(elems, 11, strategy=strategy)

    def test_strategies_agree_with_exhaustive(self):
        rng = random.Random(99)
        checked = 0
        hard = 0
        while checked < 500:
            m = rng.randrange(3, 10_000)
            elems = random_units(rng, m, rng.randrange(1, 21))
            reduced = [e % m for e in elems]
            if pure.prefix_run_witness(reduced, m) is None:
                hard += 1
            _, lex_first = pure.subset_witness_exhaustive(reduced, m, 0)
            for strategy in ("auto", "mitm"):
                w = zerosum.find_product_one_subsequence(elems, m, strategy=strategy)
                assert (w is not None) == (lex_first is not None), (m, elems, strategy)
                if w is not None:
                    assert w.verify(elems, m)
            checked += 1
        assert hard >= 50  # the prefix pass must not mask the comparison


class TestEnumerate:
    def test_count_cap_truncates(self):
        ws = zerosum.enumerate_product_one_subsets([4, 4, 2, 3], 5, count_cap=1)
        assert [w.indices for w in ws] == [(0, 1)]
        ws = zerosum.enumerate_product_one_subsets([4, 4, 2, 3], 5, count_cap=2)
        assert [w.indices for w in ws] == [(0, 1), (0, 1, 2, 3)]

    def test_count_cap_must_be_positive(self):
        for cap in (0, -1):
            with pytest.raises(DomainError, match="count_cap"):
                zerosum.enumerate_product_one_subsets([4, 4, 2, 3], 5, count_cap=cap)
        ws = zerosum.enumerate_product_one_subsets([4, 4, 2, 3], 5, count_cap=None)
        assert [w.indices for w in ws] == [(0, 1), (0, 1, 2, 3), (2, 3)]

    def test_lexicographic_order(self):
        rng = random.Random(21)
        for _ in range(50):
            m = rng.randrange(3, 300)
            elems = random_units(rng, m, rng.randrange(1, 12))
            ws = zerosum.enumerate_product_one_subsets(elems, m)
            tuples = [w.indices for w in ws]
            assert tuples == sorted(tuples)
            for w in ws:
                assert w.verify(elems, m)

    def test_counting_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(50):
            m = rng.randrange(3, 500)
            n = rng.randrange(1, 15)
            elems = random_units(rng, m, n)
            ws = zerosum.enumerate_product_one_subsets(elems, m)
            assert len(ws) == brute_subset_count(elems, m)

    def test_node_budget(self):
        with pytest.raises(SearchExhaustedError):
            zerosum.enumerate_product_one_subsets([2] * 12, 13, node_cap=5)

    def test_node_cap_must_not_be_negative(self):
        for cap in (-1, -5):
            with pytest.raises(DomainError, match="node_cap"):
                zerosum.enumerate_product_one_subsets([4, 4, 2, 3], 5, node_cap=cap)
        ws = zerosum.enumerate_product_one_subsets([4, 4, 2, 3], 5, node_cap=0)
        assert [w.indices for w in ws] == [(0, 1), (0, 1, 2, 3), (2, 3)]

    def test_no_cap_on_24_units_without_a_witness(self):
        # 2 has order 61 mod 2**61 - 1, so none of the 2**24 - 1 subsets
        # has product 1; meeting in the middle computes 2 * 4095 products.
        assert zerosum.enumerate_product_one_subsets([2] * 24, 2**61 - 1) == []


def reference_exhaustive(elements, modulus, node_cap):
    """pure.subset_witness_exhaustive as it was before it shared its walk."""
    n = len(elements)
    reduced = [e % modulus for e in elements]
    one = 1 % modulus
    path = []
    prods = [one]
    i = 0
    nodes = 0
    while True:
        if i < n:
            nodes += 1
            if node_cap and nodes > node_cap:
                return pure.BUDGET_EXCEEDED, None
            p = prods[-1] * reduced[i] % modulus
            path.append(i)
            prods.append(p)
            if p == one:
                return pure.FOUND, tuple(path)
            i += 1
        else:
            if not path:
                return pure.NO_WITNESS, None
            i = path.pop() + 1
            prods.pop()


def reference_enumerate(elements, m, count_cap=None, node_cap=None):
    """enumerate_product_one_subsets as it was before it shared its walk,
    without its length window, for units mod m >= 2."""
    reduced = [e % m for e in elements]
    n = len(reduced)
    one = 1 % m
    out = []
    path = []
    prods = [one]
    i = 0
    nodes = 0
    while True:
        if i < n:
            nodes += 1
            if node_cap and nodes > node_cap:
                raise SearchExhaustedError(
                    "enumeration budget exhausted", nodes=nodes, found=len(out)
                )
            p = prods[-1] * reduced[i] % m
            path.append(i)
            prods.append(p)
            if p == one:
                out.append(zerosum.ZeroSumWitness(indices=tuple(path)))
                if count_cap is not None and len(out) >= count_cap:
                    return out
            i += 1
        else:
            if not path:
                return out
            i = path.pop() + 1
            prods.pop()


@st.composite
def unit_sequences(draw):
    """(units, m): m below 2**63 or above it, up to 13 units, often with a
    planted product-one subset; small m repeat units and hit often."""
    m = draw(st.one_of(st.integers(2, 60), st.integers(61, 2**63 - 1), st.integers(2**63, 2**80)))
    units = []
    for a in draw(st.lists(st.integers(1, max(1, m - 1)), max_size=13)):
        units.append(a if math.gcd(a, m) == 1 else 1)
    if len(units) >= 2 and draw(st.booleans()):
        where = draw(st.lists(st.integers(0, len(units) - 1), min_size=2, max_size=4, unique=True))
        rest = math.prod(units[i] for i in where[1:]) % m
        units[where[0]] = pow(rest, -1, m)
    return units, m


def enumerate_outcome(fn, *args):
    try:
        return fn(*args)
    except SearchExhaustedError as exc:
        return "exhausted", str(exc), exc.stats


class TestProductOneWalk:
    """The shared walk gives what the two separate loops gave."""

    @settings(deadline=None, max_examples=400)
    @given(unit_sequences(), st.one_of(st.just(0), st.integers(1, 300)))
    def test_exhaustive_matches_its_former_loop(self, case, node_cap):
        units, m = case
        assert pure.subset_witness_exhaustive(units, m, node_cap) == reference_exhaustive(
            units, m, node_cap
        )

    @settings(deadline=None, max_examples=400)
    @given(
        unit_sequences(),
        st.none() | st.integers(1, 6),
        st.none() | st.just(0) | st.integers(1, 300),
    )
    def test_enumerate_matches_its_former_loop(self, case, count_cap, node_cap):
        units, m = case
        args = (units, m, count_cap, node_cap)
        assert enumerate_outcome(zerosum.enumerate_product_one_subsets, *args) == enumerate_outcome(
            reference_enumerate, *args
        )


def preorder_rank(indices, n):
    """Position, from 1, of an index tuple in the preorder walk over the
    nonempty subsets of range(n): each index j passed over takes its
    subtree of 2**(n - 1 - j) subsets with it."""
    rank = 0
    j = 0
    for i in indices:
        rank += sum(2 ** (n - 1 - s) for s in range(j, i)) + 1
        j = i + 1
    return rank


class TestProductOneWalkSplit:
    """The walk meets in the middle: it walks the subsets of the first
    n - h indices and looks each product up in a table of the subsets of
    the last h = min(ceil(n/2), 16, node_cap.bit_length()), while keeping
    the preorder walk's order and node count."""

    def test_preorder_rank(self):
        subsets = [c for size in range(1, 6) for c in itertools.combinations(range(5), size)]
        assert [preorder_rank(c, 5) for c in sorted(subsets)] == list(range(1, 32))

    @pytest.mark.parametrize("seed", range(4))
    def test_long_low_walks_match_the_reference(self, seed):
        # 33 to 40 units: from node_cap = 2**15 on, h is 16 and the walk
        # of the first n - 16 indices is longer than the table's.
        rng = random.Random(seed)
        n = rng.randrange(33, 41)
        m = (7, 13, 105, 221)[seed]
        units = random_units(rng, m, n)
        caps = (1, 2, 17, 4095, 32_768, 100_000, rng.randrange(1, 100_001))
        for node_cap in caps:
            for count_cap in (None, rng.randrange(1, 300)):
                args = (units, m, count_cap, node_cap)
                assert enumerate_outcome(
                    zerosum.enumerate_product_one_subsets, *args
                ) == enumerate_outcome(reference_enumerate, *args), (seed, node_cap, count_cap)

    @pytest.mark.parametrize(
        "n, where",
        [
            (16, (2, 10, 13)),  # h = 8: (2,) meets (10, 13)
            (20, tuple(range(12)) + (14, 18)),  # h = 8 by the budget's 8 bits
        ],
    )
    def test_budget_at_a_mated_witness(self, n, where):
        m = 2**61 - 1
        rng = random.Random(n)
        units = [rng.randrange(2, m) for _ in range(n)]
        units[where[-1]] = pow(math.prod(units[i] for i in where[:-1]), -1, m)
        rank = preorder_rank(where, n)
        for node_cap, found in ((rank, 1), (rank - 1, 0)):
            args = (units, m, None, node_cap)
            outcome = enumerate_outcome(zerosum.enumerate_product_one_subsets, *args)
            assert outcome == enumerate_outcome(reference_enumerate, *args)
            assert outcome[2] == dict(nodes=node_cap + 1, found=found)
        assert pure._product_one_walk(units, m, 1, rank) == (pure.FOUND, [where], rank)

    @pytest.mark.parametrize("m", (7, 13, 31))
    def test_count_cap_inside_a_block(self, m):
        # 14 units, h = 7: the mates of a subset of indices 0..6 among the
        # subsets of 7..13 follow its low subtree, and a count cap may stop
        # the walk between two of them.
        rng = random.Random(m)
        units = random_units(rng, m, 14)
        every = [w.indices for w in reference_enumerate(units, m)]
        mated = [k for k, w in enumerate(every) if w[0] < 7 <= w[-1]]
        assert len(mated) >= 5
        for k in mated[:20]:
            args = (units, m, k + 1, None)
            assert enumerate_outcome(
                zerosum.enumerate_product_one_subsets, *args
            ) == enumerate_outcome(reference_enumerate, *args)
            rank = preorder_rank(every[k], 14)
            assert pure._product_one_walk(*args) == (pure.FOUND, every[: k + 1], rank)


@st.composite
def mitm_cases(draw):
    """(units, m, table_cap): m = 1, 2, 105 or about 2**260, up to 20 units,
    often with a planted product-one subset, and a table cap that a full
    half of a large m overflows."""
    m = draw(st.sampled_from((1, 2, 105)) | st.integers(2**259, 2**260))
    units = []
    for a in draw(st.lists(st.integers(1, 2**261), max_size=20)):
        while math.gcd(a, m) != 1:
            a += 1
        units.append(a)
    if len(units) >= 2 and draw(st.booleans()):
        where = draw(st.lists(st.integers(0, len(units) - 1), min_size=2, max_size=4, unique=True))
        rest = math.prod(units[i] for i in where[1:]) % m
        units[where[0]] = pow(rest, -1, m)
    return units, m, draw(st.just(0) | st.integers(1, 64))


def mitm_status(units, m, table_cap):
    """The status of pure.subset_witness_mitm, from sets of subset products.

    The low half's products grow one element at a time, and the high
    half's products of inverses the same way, up to its last element; a
    half passing table_cap > 0 after an element that completed no witness
    exhausts the budget.
    """
    reduced = [u % m for u in units]
    one = 1 % m
    half = len(reduced) // 2
    low = set()
    for x in reduced[:half]:
        low |= {p * x % m for p in low} | {x}
        if one in low:
            return pure.FOUND
        if table_cap and len(low) > table_cap:
            return pure.BUDGET_EXCEEDED
    high = set()
    for i in range(half, len(reduced)):
        y = pow(reduced[i], -1, m)
        high |= {v * y % m for v in high} | {y}
        if one in high or not low.isdisjoint(high):
            return pure.FOUND
        if i < len(reduced) - 1 and table_cap and len(high) > table_cap:
            return pure.BUDGET_EXCEEDED
    return pure.NO_WITNESS


class TestMeetInTheMiddle:
    @settings(deadline=None, max_examples=300)
    @given(mitm_cases())
    def test_status_witness_and_budget(self, case):
        units, m, table_cap = case
        status, witness = pure.subset_witness_mitm(units, m, table_cap)
        assert status == mitm_status(units, m, table_cap)
        if status != pure.BUDGET_EXCEEDED:
            assert status == reference_exhaustive(units, m, 0)[0]
        if status == pure.FOUND:
            assert list(witness) == sorted(set(witness))
            assert zerosum.ZeroSumWitness(witness).verify(units, m)
        else:
            assert witness is None


def multiplicative_order(g, m):
    order, x = 1, g % m
    while x != 1 % m:
        order, x = order + 1, x * g % m
    return order


@st.composite
def long_small_group_cases(draw):
    """(units, m): 46 to 80 units mod m <= 500, half the time each g or
    g**2 for the drawn unit g of the largest order, which has no witness
    when that order passes the sum of the exponents."""
    m = draw(st.integers(2, 500))
    units = []
    for a in draw(st.lists(st.integers(1, m), min_size=46, max_size=80)):
        while math.gcd(a, m) != 1:
            a += 1
        units.append(a)
    if draw(st.booleans()):
        g = max(units, key=lambda u: multiplicative_order(u, m))
        units = [pow(g, 1 + a % 2, m) for a in units]
    return units, m


class TestLongListsInSmallGroups:
    """The regime past 45 elements, where each half's distinct products,
    at most phi(m) of them, bound the search."""

    @settings(deadline=None, max_examples=200)
    @given(long_small_group_cases())
    def test_existence_matches_the_set_of_reachable_products(self, case):
        units, m = case
        reached = set()
        for u in units:
            reached |= {p * u % m for p in reached} | {u % m}
        w = zerosum.find_product_one_subsequence(units, m)
        assert (w is not None) == (1 % m in reached)
        if w is not None:
            assert w.verify(units, m)
        status, _ = pure.subset_witness_mitm(units, m, 0)
        assert (status == pure.FOUND) == (1 % m in reached)


class TestStressSmall:
    def test_bound_lengths_always_yield_witnesses(self):
        rng = random.Random(404)
        for m in (5, 8, 15):
            length = math.ceil(zerosum.davenport_upper_bound(m))
            for _ in range(100):
                elems = random_units(rng, m, length)
                w = zerosum.find_product_one_subsequence(elems, m)
                assert w is not None and w.verify(elems, m)
