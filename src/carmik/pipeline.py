"""Orchestration: run the full construction from a config file.

A run harvests a ConstructionInstance (window product, buckets, Q-split,
both prime families, coprimality ledger), serializes it for resume, then
reduces each family mod M = L1*L2*k1*k2*nu, enumerates product-one
subsets, assembles n = n1*n2 from one witness per family, and certifies
the result with K equal to the configured nu.

Output is deterministic: a given config yields byte-identical instance and
certificate documents.  Stage timings are written to a separate sidecar
precisely so they stay out of the deterministic documents.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields as dc_fields
from pathlib import Path
from typing import Callable

from . import arith, korselt, zerosum
from .construction import (
    ConstructionConfig,
    ConstructionInstance,
    build_J,
    populate_R,
    search_P,
    select_j0,
    split_Q,
    squarefree_product,
    read_key_values,
    text_parsers,
    zero_sum_modulus,
)
from .errors import (
    ConfigError,
    FactorizationEffortError,
    InternalConsistencyError,
    SearchExhaustedError,
    StageError,
)

__all__ = [
    "RunConfig",
    "CarmichaelBatch",
    "parse_config",
    "render_config",
    "harvest_instance",
    "complete_batch",
    "run_construction",
    "independent_recheck",
    "write_outputs",
    "write_timings",
]

# Budgets of each family's product-one enumeration: the subsets kept, and
# the search nodes visited before the zero-sum stage gives up.
_WITNESS_CAP = 8
_NODE_CAP = 2_000_000


@dataclass(frozen=True)
class RunConfig:
    """A ConstructionConfig plus the zero-sum and output knobs of one run."""

    construction: ConstructionConfig
    target_count: int = 1
    force_zero_sum: bool = False

    def __post_init__(self):
        # Certificates come from pairs of at most _WITNESS_CAP witnesses each.
        if not 1 <= self.target_count <= _WITNESS_CAP**2:
            raise ConfigError(f"target_count must lie in [1, {_WITNESS_CAP**2}]")


def parse_config(text: str) -> RunConfig:
    """Parse a flat "key = value" document with '#' comments and no sections.

    The keys are the fields of ConstructionConfig and RunConfig, typed by
    their annotations; unknown keys are rejected.
    """
    raw = read_key_values(text, ConfigError)
    construction = text_parsers(ConstructionConfig)
    run = text_parsers(RunConfig)
    del run["construction"]
    unknown = set(raw) - set(construction) - set(run)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for f in dc_fields(ConstructionConfig):
        if f.default is MISSING and f.name not in raw:
            raise ConfigError(f"missing required key {f.name!r}")
    try:
        ckw = {k: parse(raw[k]) for k, parse in construction.items() if k in raw}
        rkw = {k: parse(raw[k]) for k, parse in run.items() if k in raw}
    except ValueError as exc:
        raise ConfigError(f"bad value in config: {exc}") from exc
    return RunConfig(construction=ConstructionConfig(**ckw), **rkw)


def render_config(rc: RunConfig) -> str:
    """Canonical text form of a RunConfig (round-trips through parse_config)."""
    lines = [f"{f.name} = {getattr(rc.construction, f.name)}" for f in dc_fields(ConstructionConfig)]
    lines += [f"{f.name} = {getattr(rc, f.name)}" for f in dc_fields(RunConfig)
              if f.name != "construction"]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CarmichaelBatch:
    """One run's harvest and its certified outputs."""

    instance: ConstructionInstance
    certificates: tuple[korselt.CarmichaelCertificate, ...]

    def records(self) -> list[str]:
        """One JSON document per certificate, in a fixed field order."""
        fp = instance_fingerprint(self.instance)
        out = []
        for cert in self.certificates:
            out.append(
                json.dumps(
                    {
                        "n": str(cert.n),
                        "factors": [p for p, _ in cert.factors.factors],
                        "k_invariant": cert.k_invariant,
                        "nu": self.instance.config.nu,
                        "instance": fp,
                    },
                    separators=(",", ":"),
                )
            )
        return out


def instance_fingerprint(instance: ConstructionInstance) -> str:
    return "sha256:" + hashlib.sha256(instance.serialize().encode()).hexdigest()


@contextmanager
def _stage(timings: dict[str, float] | None, name: str, tag: str | None = None):
    """Time the block as stage ``name`` in timings, also when it raises.

    With a tag, a SearchExhaustedError raised in the block leaves it as
    StageError(tag, ...) with the search's stats as data.
    """
    start = time.perf_counter()
    try:
        yield
    except SearchExhaustedError as exc:
        if tag is None:
            raise
        raise StageError(tag, str(exc), **exc.stats) from exc
    finally:
        if timings is not None:
            timings[name] = time.perf_counter() - start


def harvest_instance(cc: ConstructionConfig, timings: dict[str, float] | None = None) -> ConstructionInstance:
    """Run the harvesting stages and return a verified instance."""
    with _stage(timings, "build_J"):
        j_product = build_J(cc.z)
    with _stage(timings, "populate_R"):
        rmap = populate_R(j_product, cc.resolved_omega_g, cc.resolved_j_cap)
    with _stage(timings, "select_split", "bucket"):
        if not rmap.buckets:
            raise StageError("bucket", "no residue bucket produced any prime", misses=len(rmap.misses))
        j0, bucket = select_j0(rmap)
        q1, q2 = split_Q(bucket, cc.q_subset_size)
    with _stage(timings, "search_P1", "family-1"):
        l1, l2 = squarefree_product(q1), squarefree_product(q2)
        k1, p1 = search_P(l1, l2, cc.nu, cc.omega_d, cc.k_cap, cc.min_count)
    with _stage(timings, "search_P2", "family-2"):
        k2, p2 = search_P(l2, l1, cc.nu, cc.omega_d, cc.k_cap, cc.min_count, k1=k1)
    with _stage(timings, "verify_ledger"):
        instance = ConstructionInstance(
            config=cc, j0=j0, q1=q1, q2=q2, k1=k1, k2=k2, p1=p1, p2=p2,
        )
        instance.verify()
    return instance


def _family_witnesses(family, modulus: arith.FactoredInteger, force: bool, which: int):
    """Product-one subsets of one family mod M, or a stage error."""
    m_value = modulus.value
    bound_log = zerosum.davenport_upper_bound_log(modulus)
    # Guard: below the guaranteed-witness threshold the search may honestly
    # come up empty; the error then reports both sides of the comparison.
    threshold_known = bound_log < math.log(2**62)
    threshold = 1 + math.ceil(math.exp(bound_log)) if threshold_known else None
    primes = [p for p, _ in family]
    if any(math.gcd(p, m_value) != 1 for p in primes):
        raise StageError(f"zero-sum-{which}", "a family prime divides the modulus")
    bound_text = f"= {threshold}" if threshold is not None else f"~ exp({bound_log:.1f})"
    if threshold is None or len(primes) < threshold:
        if not force:
            raise StageError(
                f"zero-sum-{which}",
                f"insufficient primes: family size {len(primes)} "
                f"< 1 + ceil(zero-sum bound) {bound_text}",
                family_size=len(primes),
                threshold=threshold,
                bound_log=bound_log,
            )
    try:
        witnesses = zerosum.enumerate_product_one_subsets(
            [p % m_value for p in primes], m_value, count_cap=_WITNESS_CAP, node_cap=_NODE_CAP
        )
    except SearchExhaustedError as exc:
        raise StageError(
            f"zero-sum-{which}", f"search budget exhausted: {exc}", **exc.stats
        ) from exc
    if not witnesses:
        raise StageError(
            f"zero-sum-{which}",
            f"no product-one subset in a family of {len(primes)} "
            f"(guaranteed-witness threshold {bound_text})",
            family_size=len(primes),
            threshold=threshold,
            bound_log=bound_log,
        )
    return witnesses


def complete_batch(
    instance: ConstructionInstance,
    rc: RunConfig,
    timings: dict[str, float] | None = None,
) -> CarmichaelBatch:
    """Zero-sum, assembly, and certification stages for a harvested instance.

    The instance must have been harvested under rc's construction config;
    a ConfigError names the keys that differ.
    """
    cc = instance.config
    if rc.construction != cc:
        differ = [f.name for f in dc_fields(ConstructionConfig)
                  if getattr(rc.construction, f.name) != getattr(cc, f.name)]
        raise ConfigError(f"the config and the instance differ in {', '.join(differ)}")
    with _stage(timings, "zero_sum"):
        modulus = zero_sum_modulus(instance)
        w1s = _family_witnesses(instance.p1, modulus, rc.force_zero_sum, 1)
        w2s = _family_witnesses(instance.p2, modulus, rc.force_zero_sum, 2)

    p1_primes = [p for p, _ in instance.p1]
    p2_primes = [p for p, _ in instance.p2]
    certificates = []
    with _stage(timings, "certify"):
        for w1 in w1s:
            for w2 in w2s:
                s1 = [p1_primes[i] for i in w1.indices]
                s2 = [p2_primes[i] for i in w2.indices]
                if len(s1) + len(s2) < 3 or set(s1) & set(s2):
                    continue
                certificates.append(_certify(s1 + s2, cc))
                if len(certificates) >= rc.target_count:
                    break
            if len(certificates) >= rc.target_count:
                break
    if len(certificates) < rc.target_count:
        raise StageError(
            "assembly",
            f"only {len(certificates)} of {rc.target_count} certificates assembled",
            assembled=len(certificates),
        )
    return CarmichaelBatch(instance=instance, certificates=tuple(certificates))


def _certify(primes: list[int], cc: ConstructionConfig) -> korselt.CarmichaelCertificate:
    """The certificate of the assembled primes; only the recheck factors n."""
    for p in primes:
        if not arith.is_prime(p):
            raise InternalConsistencyError(f"assembled factor {p} is composite")
    cert = korselt.CarmichaelCertificate(squarefree_product(tuple(primes)))
    if cert.k_invariant != cc.nu:
        raise InternalConsistencyError(f"assembled n = {cert.n} has K = {cert.k_invariant}")
    try:
        independent_recheck(cert.n, cc.nu, effort_digits=cc.factor_digits)
    except FactorizationEffortError as exc:
        raise StageError("certify", f"recheck: {exc}", digits=len(str(cert.n)),
                         factor_digits=cc.factor_digits) from exc
    return cert


def run_construction(
    rc: RunConfig,
    workdir: str | Path | None = None,
    instance: ConstructionInstance | None = None,
    on_instance: Callable[[ConstructionInstance], None] | None = None,
) -> CarmichaelBatch:
    """Full pipeline: harvest, zero-sum, assemble, certify.

    A given instance, one resumed from its document, skips the harvest.
    on_instance sees the instance before the completion stages run.  With a
    workdir, a fresh harvest writes instance.txt there, a success writes
    ``write_outputs``'s files, and a StageError writes timings.json with
    the stages that ran, the failed one included.
    """
    wd = None if workdir is None else Path(workdir)
    if wd is not None:
        wd.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    try:
        if instance is None:
            instance = harvest_instance(rc.construction, timings)
            if wd is not None:
                (wd / "instance.txt").write_text(instance.serialize())
        if on_instance is not None:
            on_instance(instance)
        batch = complete_batch(instance, rc, timings)
    except StageError:
        if wd is not None:
            write_timings(wd, timings)
        raise
    if wd is not None:
        write_outputs(wd, batch, timings)
    return batch


def independent_recheck(n: int, nu: int, effort_digits: int | None = None) -> None:
    """Re-verify a certified n from scratch.

    Fresh factorization through the Korselt conditions, the K-invariant
    check, and ``korselt.fermat_probe``'s seeded random Fermat bases.
    Raises InternalConsistencyError on any failure.
    """
    verdict = korselt.is_carmichael(n, effort_digits=effort_digits)
    if not verdict:
        raise InternalConsistencyError(f"recheck rejected {n}: {verdict.describe()}")
    if verdict.k_invariant != nu:
        raise InternalConsistencyError(
            f"recheck found K = {verdict.k_invariant}, expected {nu}"
        )
    if not korselt.fermat_probe(n):
        raise InternalConsistencyError(f"a Fermat base rejected {n}")


def write_outputs(workdir: str | Path, batch: CarmichaelBatch, timings: dict[str, float]) -> dict[str, Path]:
    """Write certificates.jsonl and the run's timings.json under workdir.

    The certificate document is deterministic for a given config; timings
    are live measurements and live in their own sidecar.
    """
    wd = Path(workdir)
    wd.mkdir(parents=True, exist_ok=True)
    cert_path = wd / "certificates.jsonl"
    cert_path.write_text("".join(line + "\n" for line in batch.records()))
    return {"certificates": cert_path, "timings": write_timings(wd, timings)}


def write_timings(workdir: str | Path, timings: dict[str, float]) -> Path:
    """Write the stage timings to timings.json under workdir, also for a failed run."""
    path = Path(workdir) / "timings.json"
    path.write_text(json.dumps(timings, indent=2) + "\n")
    return path
