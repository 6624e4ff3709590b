"""Pure kernels against references assembled from simpler pure kernels.

These run on every machine.  ``test_native_parity.py`` compares the
compiled backend with the pure one where the extension is built, and
``test_compiled_twin_builds_and_matches_pure`` builds it in a temporary
copy to run that comparison wherever a C compiler is found.
"""

import functools
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import brute_force
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carmik._kernels import pure
from carmik.ap_search import default_cap


KERNELS_DIR = Path(pure.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def backend_contract():
    """Every name the library reads as backend.<name>."""
    contract = set()
    for path in KERNELS_DIR.parent.rglob("*.py"):
        contract |= set(re.findall(r"\bbackend\.(\w+)", path.read_text()))
    return contract


def test_both_backends_define_the_contract():
    # Read from the C source's method table and module constants, so it
    # holds where the extension is not built; equality keeps kernels that
    # only tests call out of the compiled module.
    contract = backend_contract()
    named = {"BACKEND_NAME", "is_prime_u64", "first_prime_in_ap", "brent_factor", "harvest_j"}
    assert named <= contract
    source = (KERNELS_DIR / "_native.c").read_text()
    table = source.split("native_methods[] = {", 1)[1].split("};", 1)[0]
    compiled = set(re.findall(r'^\s*\{"(\w+)",', table, flags=re.MULTILINE))
    compiled |= set(re.findall(r'PyModule_Add\w*Constant\(\w+, "(\w+)"', source))
    assert compiled == contract
    assert sorted(n for n in contract if not hasattr(pure, n)) == []


def test_compiled_twin_builds_and_matches_pure(tmp_path):
    # Builds the extension in a copy, never under src/, and runs the parity
    # tests against it.  setup.py's optional=True turns a compile error into
    # a warning, so the test fails when no module was built.
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler: {compiler} not found")
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(REPO / name, tmp_path / name)
    build = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=600)
    built = tmp_path / "src/carmik/_kernels" / ("_native" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert built.exists(), build.stdout[-4000:] + build.stderr[-4000:]
    env = {k: v for k, v in os.environ.items() if k != "CARMIK_PURE"}
    env["PYTHONPATH"] = str(tmp_path / "src")
    parity = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(REPO / "tests/test_native_parity.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    summary = parity.stdout.strip().splitlines()[-1:]
    assert parity.returncode == 0, parity.stdout[-4000:] + parity.stderr[-4000:]
    assert "passed" in summary[0] and "skipped" not in summary[0], summary


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
