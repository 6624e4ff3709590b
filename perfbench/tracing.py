"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces public functions of carmik's modules with
wrappers, wherever a carmik module holds a reference to them, and
``uninstall`` puts the originals back; nothing under src/carmik is edited.
Each wrapped call is a span whose parent is the innermost open span.  A
span's self time is its duration minus the durations of its child spans.
Spans are folded as they close into per-name totals and per (parent, name)
edges, kept in memory: the AP scan alone opens millions of kernel spans a
run, too many to keep one record each.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Kernel names wrapped on the backend module and on the pure twin, which
# zerosum calls directly for moduli at or above 2**63.  Calls a compiled
# kernel makes internally are not seen.
KERNELS = (
    "carmichael_census", "primes_in_range", "is_prime_u64", "first_prime_in_ap",
    "ap_max_scan", "subset_witness_exhaustive", "subset_witness_mitm",
)

# (metric, unit, better, statistic, span or counter name).  Every value is
# per traced round, except kernels.primes_in_range.s, which is taken over the
# warm-up call: the set-up work that builds prime tables.
PER_LAYER = (
    ("kernels.carmichael_census.s", "s/round", "lower", "self", "kernels.carmichael_census"),
    ("kernels.primes_in_range.s", "s", "lower", "setup_self", "kernels.primes_in_range"),
    ("kernels.is_prime_u64.calls", "count/round", "lower", "calls", "kernels.is_prime_u64"),
    ("kernels.is_prime_u64.s", "s/round", "lower", "self", "kernels.is_prime_u64"),
    ("kernels.first_prime_in_ap.steps", "count/round", "lower", "count", "kernels.first_prime_in_ap.steps"),
    ("kernels.ap_max_scan.s", "s/round", "lower", "self", "kernels.ap_max_scan"),
    ("kernels.subset_witness_exhaustive.s", "s/round", "lower", "self", "kernels.subset_witness_exhaustive"),
    ("kernels.subset_witness_mitm.s", "s/round", "lower", "self", "kernels.subset_witness_mitm"),
    ("arith.factorize.calls", "count/round", "lower", "calls", "arith.factorize"),
    ("arith.factorize.s", "s/round", "lower", "self", "arith.factorize"),
    ("arith.factorize.big.s", "s/round", "lower", "self", "arith.factorize.big"),
    ("arith.is_prime.calls", "count/round", "lower", "calls", "arith.is_prime"),
    ("arith.is_prime.s", "s/round", "lower", "self", "arith.is_prime"),
    ("arith.is_prime.prime_ratio", "ratio", "higher", "prime_ratio", "arith.is_prime"),
    ("korselt.census.s", "s/round", "lower", "self", "korselt.census"),
    ("ap_search.heath_brown_scan.s", "s/round", "lower", "self", "ap_search.heath_brown_scan"),
    ("construction.populate_R.s", "s/round", "lower", "self", "construction.populate_R"),
    ("construction.search_P.calls", "count/round", "lower", "calls", "construction.search_P"),
    ("construction.search_P.s", "s/round", "lower", "self", "construction.search_P"),
    ("construction.verify.s", "s/round", "lower", "self", "construction.verify"),
    ("zerosum.enumerate_product_one_subsets.s", "s/round", "lower", "self", "zerosum.enumerate_product_one_subsets"),
    ("zerosum.find_product_one_subsequence.s", "s/round", "lower", "self", "zerosum.find_product_one_subsequence"),
    ("pipeline.harvest_instance.s", "s/round", "lower", "self", "pipeline.harvest_instance"),
    ("pipeline.complete_batch.s", "s/round", "lower", "self", "pipeline.complete_batch"),
)
OVERHEAD_METRIC = ("trace.overhead_pct", "%", "lower")


def _targets():
    """(owner, attribute, span name, after-hook) for every wrapped function."""
    from carmik import _kernels, ap_search, arith, construction, korselt, pipeline, zerosum
    from carmik._kernels import pure

    def count_steps(tracer, args, result, self_s):
        tracer.count("kernels.first_prime_in_ap.steps", result[1])

    def count_primes(tracer, args, result, self_s):
        tracer.count("arith.is_prime.prime", 1 if result else 0)

    def split_big(tracer, args, result, self_s):
        if args[0] >= arith.KERNEL_BOUND:
            tracer.add("arith.factorize.big", self_s)

    owners = [_kernels.backend] + ([pure] if pure is not _kernels.backend else [])
    out = [(owner, name, f"kernels.{name}", count_steps if name == "first_prime_in_ap" else None)
           for owner in owners for name in KERNELS]
    out += [
        (arith, "factorize", "arith.factorize", split_big),
        (arith, "is_prime", "arith.is_prime", count_primes),
        (korselt, "census", "korselt.census", None),
        (ap_search, "heath_brown_scan", "ap_search.heath_brown_scan", None),
        (construction, "populate_R", "construction.populate_R", None),
        (construction, "search_P", "construction.search_P", None),
        (construction.ConstructionInstance, "verify", "construction.verify", None),
        (zerosum, "enumerate_product_one_subsets", "zerosum.enumerate_product_one_subsets", None),
        (zerosum, "find_product_one_subsequence", "zerosum.find_product_one_subsequence", None),
        (pipeline, "harvest_instance", "pipeline.harvest_instance", None),
        (pipeline, "complete_batch", "pipeline.complete_batch", None),
    ]
    return out


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, seconds in child spans]
        self.spans: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total s]
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def add(self, name: str, self_s: float) -> None:
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += self_s

    def _wrap(self, name: str, fn, after):
        stack, spans, edges = self._stack, self.spans, self.edges

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = spans.get(name)
                if entry is None:
                    entry = spans[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
            if after is not None:
                after(self, args, result, elapsed - frame[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "carmik" or key.startswith("carmik."))]
        for owner, attr, name, after in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, after)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def per_layer(self, rounds: int, setup: "Tracer") -> dict[str, float]:
        """The PER_LAYER values, per round of ``rounds`` traced rounds."""
        out = {}
        for metric, _, _, stat, source in PER_LAYER:
            calls, _, self_s = self.spans.get(source, (0, 0.0, 0.0))
            if stat == "self":
                value = self_s / rounds
            elif stat == "calls":
                value = calls / rounds
            elif stat == "count":
                value = self.counts.get(source, 0) / rounds
            elif stat == "prime_ratio":
                value = self.counts.get("arith.is_prime.prime", 0) / calls if calls else 0.0
            else:  # setup_self
                value = setup.spans.get(source, (0, 0.0, 0.0))[2]
            out[metric] = value
        return out

    def dump(self) -> dict:
        return {
            "spans": {k: dict(calls=v[0], total_s=v[1], self_s=v[2]) for k, v in sorted(self.spans.items())},
            "edges": [dict(parent=p, name=n, calls=v[0], total_s=v[1])
                      for (p, n), v in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }
