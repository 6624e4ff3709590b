"""Judging a run's outputs against answers computed apart from carmik.

The sources are the published counts of Carmichael numbers (OEIS A055553),
sympy's primality tests and factorizations, the input generators' own
knowledge of what they built, the benchmark's own sieve and census, the
exhaustive Korselt oracle and the benchmark's own modular products.

``judge`` walks a run's rounds, rebuilds each round's inputs from the seed,
and returns how many operations were attempted, which failed (raised), the
items the others finished, and every output that a check rejects.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from pathlib import Path

import sympy

import oracles
import workloads

# Carmichael numbers below 10**k (OEIS A055553; Pinch, "The Carmichael
# numbers up to 10^21").  None of 10**3 .. 10**9 is itself Carmichael.
A055553 = {10**3: 1, 10**4: 7, 10**5: 16, 10**6: 43, 10**7: 105, 10**8: 255, 10**9: 646}

# A run asks about the same primes round after round.
is_prime = functools.cache(sympy.isprime)


@dataclasses.dataclass
class Judgement:
    attempted: int = 0
    failed: list = dataclasses.field(default_factory=list)  # (operation, error)
    wrong: list = dataclasses.field(default_factory=list)  # check messages
    items: list = dataclasses.field(default_factory=list)  # per round


def judge(workload: str, seed: int, root: Path, rounds: list[dict]) -> Judgement:
    checker = CHECKERS[workload](seed, root)
    verdict = Judgement()
    for r, rnd in enumerate(rounds):
        items = 0
        for record, problems, amount in checker.round(r, rnd["ops"]):
            verdict.attempted += 1
            if "error" in record:
                verdict.failed.append((record["op"], record["error"]))
            elif problems:
                verdict.wrong += [f"round {r} {record['op']}: {p}" for p in problems]
            else:
                items += amount
        verdict.items.append(items)
    return verdict


# -- census ----------------------------------------------------------------


def own_census(limit: int) -> list[tuple[int, int]]:
    """Carmichael numbers <= limit with K, found apart from carmik.

    Every Carmichael number is odd and a base-2 Fermat pseudoprime, so the
    odd composites passing 2**(n-1) == 1 (mod n) are the candidates; sympy
    factors each and Korselt's criterion decides.
    """
    flags = oracles.prime_flags(limit)
    rows = []
    for n in range(9, limit + 1, 2):
        if flags[n] or pow(2, n - 1, n) != 1:
            continue
        factors = sympy.factorint(n)
        if all(e == 1 for e in factors.values()) and all((n - 1) % (p - 1) == 0 for p in factors):
            rows.append((n, math.gcd(*(p - 1 for p in factors))))
    return rows


@functools.cache
def row_problems(n: int, k: int) -> tuple[str, ...]:
    """A census row refactored by sympy: squarefree, >= 3 primes, Korselt, K."""
    factors = sympy.factorint(n)
    problems = []
    if any(e > 1 for e in factors.values()) or len(factors) < 3:
        problems.append(f"{n} = {factors} is not squarefree with at least 3 primes")
    if any((n - 1) % (p - 1) for p in factors):
        problems.append(f"{n} fails Korselt: some p - 1 does not divide n - 1")
    if k != math.gcd(*(p - 1 for p in factors)):
        problems.append(f"K = {k} for {n}, but gcd(p - 1) = {math.gcd(*(p - 1 for p in factors))}")
    return tuple(problems)


class CensusCheck:
    def __init__(self, seed: int, root: Path):
        self.inputs = workloads.Census(seed, root).inputs
        top = max(workloads.Census.POWERS)
        self.reference = own_census(top)
        counts = {x: sum(1 for n, _ in self.reference if n <= x) for x in workloads.Census.POWERS}
        self.self_problems = [f"own census has {c} rows <= {x}, A055553 says {A055553[x]}"
                              for x, c in counts.items() if c != A055553[x]]

    def check(self, limit: int, rows: list) -> list[str]:
        problems = list(self.self_problems)
        if limit in A055553 and len(rows) != A055553[limit]:
            problems.append(f"{len(rows)} rows up to {limit}, A055553 says {A055553[limit]}")
        expected = [list(row) for row in self.reference if row[0] <= limit]
        if rows != expected:
            missing = [r for r in expected if r not in rows][:3]
            extra = [r for r in rows if r not in expected][:3]
            problems.append(f"rows differ from the own census: missing {missing}, extra {extra}")
        for n, k in rows:
            problems += row_problems(n, k)
        return problems

    def round(self, r: int, ops: list[dict]):
        limits = self.inputs(r)
        if [op["limit"] for op in ops] != limits:
            raise ValueError(f"round {r} ran other limits than the seed gives")
        for op in ops:
            yield op, ([] if "error" in op else self.check(op["limit"], op["out"])), op["limit"]


# -- ap_scan ---------------------------------------------------------------


def scan_cap(modulus: int) -> int:
    """The scan's documented default ceiling, l * (ln l)**3 + 100."""
    return int(modulus * math.log(modulus) ** 3) + 100


class ApScanCheck:
    def __init__(self, seed: int, root: Path):
        self.moduli = workloads.ApScan(seed, root).moduli()
        top = max(scan_cap(l) for l in self.moduli)
        self.flags = oracles.prime_flags(top)
        primes = [i for i in range(2, top + 1) if self.flags[i]]
        self.expected = {l: oracles.worst_class(l, primes) for l in self.moduli}

    def check(self, l: int, out: dict) -> list[str]:
        b, p, classes = self.expected[l]
        problems = []
        if out["misses"]:
            problems.append(f"misses {out['misses'][:3]}")
        if classes != oracles.totient(l) or p > scan_cap(l):
            problems.append(f"own sieve: some class mod {l} has no prime up to the cap")
        if len(out["rows"]) != 1:
            return problems + [f"{len(out['rows'])} rows for one modulus"]
        got_l, got_b, got_p = out["rows"][0]
        if got_l != l or not (got_p < len(self.flags) and self.flags[got_p]) or got_p % l != got_b:
            problems.append(f"row ({got_l}, {got_b}, {got_p}) is not a prime of its class mod {l}")
        if (got_b, got_p) != (b, p):
            problems.append(f"worst class ({got_b}, {got_p}), own sieve gives ({b}, {p})")
        return problems

    def round(self, r: int, ops: list[dict]):
        if [op["l"] for op in ops] != list(self.moduli):
            raise ValueError(f"round {r} scanned other moduli than the seed gives")
        for op in ops:
            problems = [] if "error" in op else self.check(op["l"], op["out"])
            yield op, problems, oracles.totient(op["l"])


# -- construct -------------------------------------------------------------


def oracle_problems() -> list[str]:
    """The Korselt oracle's self-check on 561 = 3 * 11 * 17."""
    cases = (
        (([3], [11, 17]), {561: 2}),
        (([5], [7, 11]), {}),
        (([3, 11, 17], [5]), {}),  # 561 inside one family does not count
    )
    return [f"Korselt oracle on {args} gives {oracles.korselt_products(*args)}, expected {want}"
            for args, want in cases if oracles.korselt_products(*args) != want]


def instance_problems(inst: dict, nu: int) -> list[str]:
    problems = []
    if inst["nu"] != nu:
        problems.append(f"instance nu = {inst['nu']}, config nu = {nu}")
    if set(inst["q1"]) & set(inst["q2"]):
        problems.append("Q1 and Q2 intersect")
    problems += [f"q = {q} is not prime" for q in inst["q1"] + inst["q2"] if not is_prime(q)]
    for family, qs, k in ((inst["p1"], inst["q1"], inst["k1"]), (inst["p2"], inst["q2"], inst["k2"])):
        l_value = math.prod(qs)
        for p, d in family:
            if not is_prime(p):
                problems.append(f"family prime {p} is not prime (sympy)")
            if p != d * k * nu + 1 or l_value % d:
                problems.append(f"{p} is not d*k*nu + 1 with d = {d} dividing L = {l_value}")
    for p1, _ in inst["p1"]:
        for p2, _ in inst["p2"]:
            if math.gcd(p1 - 1, p2 - 1) != nu:
                problems.append(f"gcd({p1} - 1, {p2} - 1) = {math.gcd(p1 - 1, p2 - 1)} != {nu}")
    return problems


def verdict_problems(verdict: dict, family1, family2, nu: int) -> list[str]:
    """A completion verdict judged against the exhaustive Korselt oracle."""
    oracle = oracles.korselt_products(family1, family2)
    if "certificates" in verdict:
        certs = verdict["certificates"]
        if not certs:
            return ["no certificate and no stage error"]
        problems = []
        for c in certs:
            if oracle.get(c["n"]) != nu or c["k"] != nu:
                problems.append(f"certificate {c['n']} (K = {c['k']}) is not a K = {nu} "
                                f"Korselt product of the families")
            if math.prod(c["factors"]) != c["n"] or not set(c["factors"]) <= set(family1) | set(family2):
                problems.append(f"certificate {c['n']} has factors {c['factors']} "
                                f"outside the families")
        return problems
    problems = []
    if oracle:
        problems.append(f"no certificate ({verdict['stage']}), but the Korselt oracle "
                        f"finds {sorted(oracle)[:3]}")
    if not verdict["stage"].startswith("zero-sum-"):
        problems.append(f"stage {verdict['stage']!r} is not a zero-sum stage")
    size = verdict["data"].get("family_size")
    threshold, bound_log = verdict["data"].get("threshold"), verdict["data"].get("bound_log")
    if size is None:
        problems.append("the stage error does not carry the family size")
    elif threshold is not None:
        if not size < threshold:
            problems.append(f"family size {size} is not below the threshold {threshold}")
    elif bound_log is None or not math.log(size) < bound_log:
        problems.append(f"family size {size} is not below exp(bound_log = {bound_log})")
    return problems


def solver_problems(kind: str, sequence, planted, m: int, out) -> list[str]:
    if kind == "enumerate":
        expected = [list(s) for s in oracles.product_one_subsets(sequence, m)]
        problems = [] if out == expected else [f"enumerated {out[:3]}..., own search gives {expected[:3]}..."]
        if list(planted) not in out:
            problems.append(f"planted subset {list(planted)} is missing")
        return problems
    if out is None:
        return [f"no witness, but {list(planted)} is planted"]
    if not out or len(set(out)) != len(out) or not all(0 <= i < len(sequence) for i in out):
        return [f"witness {out} is not a subset of the indices"]
    if oracles.product_mod(sequence, out, m) != 1 % m:
        return [f"witness {out} does not multiply to 1 mod M"]
    return []


class ConstructCheck:
    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.specs = workloads.construct_specs()
        self.self_problems = oracle_problems()

    def round(self, r: int, ops: list[dict]):
        if [op["config"] for op in ops if "kind" not in op] != list(range(len(self.specs))):
            raise ValueError(f"round {r} ran other configs than the workload lists")
        instance = None
        for op in ops:
            spec = self.specs[op["config"]]
            if "kind" not in op:
                instance = None
                if "error" in op:
                    yield op, [], 0
                    continue
                instance = op["out"]["instance"]
                problems = list(self.self_problems)
                problems += instance_problems(instance, spec.nu)
                problems += verdict_problems(op["out"]["verdict"], [p for p, _ in instance["p1"]],
                                             [p for p, _ in instance["p2"]], spec.nu)
                yield op, problems, 1
                continue
            if instance is None:
                raise ValueError(f"round {r}: solver call {op['op']} without its instance")
            if "error" in op:
                yield op, [], 0
                continue
            m = workloads.modulus(instance)
            length = dict(workloads.SOLVER_CALLS)[op["kind"]]
            sequence, planted = workloads.planted_sequence(self.seed, r, op["config"], op["kind"], m, length)
            yield op, solver_problems(op["kind"], sequence, planted, m, op["out"]), 1


CHECKERS = {"census": CensusCheck, "ap_scan": ApScanCheck, "construct": ConstructCheck}
