"""The three workloads: their inputs, made from the seed, and one round of calls.

A run repeats whole rounds.  Every round of a workload makes the same
operations in the same proportions, so the share of failed operations and
the make-up of the call-time distribution are the same in every run.
Inputs come from ``random.Random`` seeded with a string built from the
workload, the seed and the round, so the checks can rebuild them.

``run_round`` runs in the worker process, where carmik is importable; it
passes every call into carmik through ``call``, which times it, and turns
each result into plain data for the checks.  Nothing else here touches
carmik, so the checks can import this file without it.
"""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path


def _op(label: str, compute, **inputs) -> dict:
    """Run one operation; an exception it raises makes it a failed one."""
    record = {"op": label, **inputs}
    try:
        record["out"] = compute()
    except Exception as exc:  # the run goes on and reports the failure
        record["error"] = _describe(exc)
    return record


def _describe(exc: BaseException) -> str:
    stage = getattr(exc, "stage", None)
    head = f"{type(exc).__name__} {stage}" if stage else type(exc).__name__
    return f"{head}: {exc}"


class Census:
    """korselt.census at the powers of ten 1e4..1e6 and at 37 seeded limits.

    The seeded limits are log-uniform over (1e4, 1e6), one per stratum, so
    the range is covered evenly; they are the same in every round of a run,
    so that each call repeats round after round.  A round runs them in ascending
    order, so that every round leaves the heap as the last one did and the
    peak memory does not depend on the order.  An item is one integer covered.
    """

    name = "census"
    warmup = "from carmik import korselt\nkorselt.census(1000)\n"
    POWERS = (10**4, 10**5, 10**6)
    SEEDED = 37

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def inputs(self, r: int) -> list[int]:
        rng = random.Random(f"census:{self.seed}")
        limits = list(self.POWERS)
        for i in range(self.SEEDED):
            limits.append(int(10 ** (4 + 2 * (i + rng.random()) / self.SEEDED)))
        return sorted(limits)

    def run_round(self, r: int, call) -> list[dict]:
        from carmik import korselt

        return [
            _op(
                f"census({limit})",
                lambda: [list(row) for row in call(korselt.census, limit)],
                limit=limit,
            )
            for limit in self.inputs(r)
        ]


class ApScan:
    """ap_search.heath_brown_scan(l, l) for 200 contiguous moduli from l0.

    l0 is 1000 plus a seeded offset below 25, so every seed scans nearly
    the same moduli and the per-call times stay comparable.  Every round
    scans the same block.  An item is one residue class, phi(l) per call.
    """

    name = "ap_scan"
    warmup = "from carmik import ap_search\nap_search.heath_brown_scan(50, 50)\n"
    BASE = 1000
    OFFSETS = 25
    WIDTH = 200

    def __init__(self, seed: int, root: Path):
        self.seed = seed

    def moduli(self) -> range:
        l0 = self.BASE + random.Random(f"ap_scan:{self.seed}").randrange(self.OFFSETS)
        return range(l0, l0 + self.WIDTH)

    def inputs(self, r: int) -> list[int]:
        return list(self.moduli())

    def run_round(self, r: int, call) -> list[dict]:
        from carmik import ap_search

        def scan(l):
            table = call(ap_search.heath_brown_scan, l, l)
            return dict(rows=[[row.modulus, row.residue, row.p] for row in table.per_l],
                        misses=[list(m) for m in table.misses])

        return [_op(f"heath_brown_scan({l}, {l})", lambda: scan(l), l=l) for l in self.inputs(r)]


# Small variants: omega_g = 1, j_cap = 40, k_cap = 4000, chosen from the
# harvestable grid z in 105..600, nu in 2..12, |Q| <= 4, omega_d in {1, 2}
# to cover every nu and families of one to five primes.  (z, nu, |Q|, omega_d)
SMALL_VARIANTS = (
    (400, 6, 4, 1), (500, 2, 4, 2), (600, 4, 4, 2), (300, 6, 3, 2),
    (400, 10, 3, 1), (300, 8, 3, 1), (250, 12, 3, 1), (600, 12, 4, 1),
    (500, 10, 4, 1), (150, 6, 2, 1), (400, 4, 2, 1), (200, 8, 2, 2),
)
# The two configs construction.search_P gets wrong: it picks k1 = 0 mod 3
# while every Q2 prime is 1 mod 3, so every family-2 candidate is divisible
# by 3 and the harvest fails.  They stay in the round as failed operations.
KEPT_FAILURES = ((400, 2, 5, 2), (200, 2, 3, 2))
# At the derived defaults (omega_g, j_cap and k_cap from z); the heavy one.
DERIVED = (200, 2, 3, 2)
# Lengths of the planted unit sequences per solver call.  Their costs are
# nearly equal (3 to 7 ms on the pure backend), so that the calls of a
# round form one cluster around their median.
SOLVER_CALLS = (("enumerate", 12), ("find", 12), ("find-mitm", 18))


@dataclasses.dataclass(frozen=True)
class ConstructSpec:
    label: str
    nu: int
    params: dict | None  # ConstructionConfig keywords; None for a shipped config file


def construct_specs() -> list[ConstructSpec]:
    def small(z, nu, q, od):
        return dict(z=z, nu=nu, omega_g=1, omega_d=od, j_cap=40, k_cap=4000, q_subset_size=q)

    small_specs = [ConstructSpec(f"z={z} nu={nu} |Q|={q} omega_d={od}", nu, small(z, nu, q, od))
                   for z, nu, q, od in SMALL_VARIANTS + KEPT_FAILURES]
    z, nu, q, od = DERIVED
    derived = ConstructSpec(f"derived z={z} nu={nu} |Q|={q} omega_d={od}", nu,
                            dict(z=z, nu=nu, omega_d=od, q_subset_size=q))
    # The derived harvest takes most of a round; it sits mid-round, between
    # the two halves of the small variants.
    half = len(SMALL_VARIANTS) // 2
    return ([ConstructSpec("nu2.cfg", 2, None), ConstructSpec("nu4.cfg", 4, None)]
            + small_specs[:half] + [derived] + small_specs[half:])


def modulus(instance: dict) -> int:
    """M = L1 * L2 * k1 * k2 * nu, from the instance's Q primes and k values."""
    return (math.prod(instance["q1"]) * math.prod(instance["q2"])
            * instance["k1"] * instance["k2"] * instance["nu"])


def planted_sequence(seed: int, r: int, index: int, kind: str, m: int, length: int):
    """Seeded units mod m, with a product-one subset of 2 to 4 planted among them.

    The planted indices are odd ones in the upper half.  Odd, so that no
    two are adjacent and the solver's prefix-product pass cannot see them;
    upper half, so that the depth-first search in index order, and the
    meet-in-the-middle walk over the upper half, reach them only after
    nearly all other subsets.  That keeps the cost of a call nearly the
    same for every seed.
    """
    rng = random.Random(f"construct:{seed}:{r}:{index}:{kind}")

    def unit():
        while True:
            u = rng.randrange(2, m)
            if math.gcd(u, m) == 1:
                return u

    slots = range(length // 2 | 1, length, 2)
    size = rng.randint(2, min(4, len(slots)))
    planted = [unit() for _ in range(size - 1)]
    planted.append(pow(math.prod(planted) % m, -1, m))
    positions = sorted(rng.sample(slots, size))
    sequence = [unit() for _ in range(length)]
    for pos, value in zip(positions, planted):
        sequence[pos] = value
    return sequence, tuple(positions)


class Construct:
    """The pipeline end to end, and the final-stage solver on planted sequences.

    Per round, for each config in ``construct_specs``: harvest_instance and,
    if it succeeds, complete_batch with force_zero_sum, then the solver on
    three seeded sequences mod the instance's M: enumerate_product_one_subsets
    (12 units), find_product_one_subsequence (12 units, the exhaustive
    strategy) and the same with strategy="mitm" (18 units).  An item is one
    operation: a harvest with its completion, or one solver call.
    """

    name = "construct"
    warmup = (
        "from carmik import pipeline\n"
        "from carmik.construction import ConstructionConfig\n"
        "from carmik.errors import StageError\n"
        "cc = ConstructionConfig(z=105, nu=4, omega_g=1, omega_d=1, j_cap=40, k_cap=4000,"
        " q_subset_size=2)\n"
        "try:\n"
        "    pipeline.complete_batch(pipeline.harvest_instance(cc),"
        " pipeline.RunConfig(construction=cc, force_zero_sum=True))\n"
        "except StageError:\n"
        "    pass\n"
    )

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self._configs = None

    def configs(self):
        """RunConfigs in the order of construct_specs, with force_zero_sum set."""
        if self._configs is None:
            from carmik import pipeline
            from carmik.construction import ConstructionConfig

            self._configs = []
            for spec in construct_specs():
                if spec.params is None:
                    rc = pipeline.parse_config((self.root / "configs" / spec.label).read_text())
                else:
                    rc = pipeline.RunConfig(construction=ConstructionConfig(**spec.params))
                self._configs.append(dataclasses.replace(rc, force_zero_sum=True))
        return self._configs

    def run_round(self, r: int, call) -> list[dict]:
        from carmik import pipeline, zerosum
        from carmik.errors import StageError

        ops = []
        for index, (spec, rc) in enumerate(zip(construct_specs(), self.configs())):

            def harvest_and_complete():
                inst = call(pipeline.harvest_instance, rc.construction)
                plain = dict(nu=inst.config.nu, q1=list(inst.q1), q2=list(inst.q2),
                             k1=inst.k1, k2=inst.k2,
                             p1=[list(x) for x in inst.p1], p2=[list(x) for x in inst.p2])
                try:
                    batch = call(pipeline.complete_batch, inst, rc)
                except StageError as exc:
                    verdict = dict(stage=exc.stage, data={
                        k: exc.data.get(k) for k in ("family_size", "threshold", "bound_log")})
                else:
                    verdict = dict(certificates=[
                        dict(n=c.n, factors=list(c.factors.primes), k=c.k_invariant)
                        for c in batch.certificates])
                return dict(instance=plain, verdict=verdict)

            record = _op(f"harvest+complete {spec.label}", harvest_and_complete, config=index)
            ops.append(record)
            if "error" in record:
                continue
            m = modulus(record["out"]["instance"])
            for kind, length in SOLVER_CALLS:
                sequence, _ = planted_sequence(self.seed, r, index, kind, m, length)
                if kind == "enumerate":
                    compute = lambda: [list(w.indices) for w in call(
                        zerosum.enumerate_product_one_subsets, sequence, m)]
                else:
                    strategy = "mitm" if kind == "find-mitm" else "auto"

                    def compute():
                        w = call(zerosum.find_product_one_subsequence, sequence, m,
                                 strategy=strategy)
                        return None if w is None else list(w.indices)
                ops.append(_op(f"{kind} {spec.label}", compute, config=index, kind=kind))
        return ops


WORKLOADS = {w.name: w for w in (Census, ApScan, Construct)}
