"""carmik's benchmark: one workload per run, end to end or layer by layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads: census, ap_scan, construct (see workloads.py and the
README beside this file).  The workload runs in a child process
(worker.py) for --seconds of whole rounds; this process then judges every
output against independent answers (checks.py), times set-up in fresh
interpreters, and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones.  Details of the run go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 25
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
TAIL_CALLS = 10  # calls per round that lie above the tail percentile

# Times `import carmik` plus the workload's warm-up call in a fresh interpreter.
SETUP_PROGRAM = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import carmik
{warmup}
print(time.perf_counter() - t0)
"""


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    params = dict(root=str(ROOT), workload=workload, seed=seed, seconds=seconds, trace=trace)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(params), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"the {workload} worker exited with code {proc.returncode}")
    *rounds, summary = (json.loads(line) for line in proc.stdout.splitlines())
    return dict(summary, rounds=rounds)


def setup_seconds(workload: str, repeats: int) -> list[float]:
    program = SETUP_PROGRAM.format(src=str(ROOT / "src"), warmup=workloads.WORKLOADS[workload].warmup)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-I", "-c", program], capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit("a set-up interpreter failed")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def tail_percentile(calls_per_round: int) -> int:
    """Highest whole percentile with TAIL_CALLS calls of a round above it."""
    return math.floor(100 * (1 - TAIL_CALLS / calls_per_round))


def end_to_end(result: dict, items: list, setup: list[float]) -> tuple[dict, dict]:
    """Each call's median over the run's rounds, then the figures of that typical round.

    Every round makes the same calls in the same order, so the k-th call of
    one round repeats the k-th call of every other.  The host changes speed
    in phases of seconds to tens of seconds; the median of a call over the
    rounds ignores a phase that covers fewer than half of them, where a
    figure per round, averaged over the rounds, moves with every phase.
    """
    rounds = result["rounds"]
    calls = rounds[0]["calls"]
    if any(rnd["calls"] != calls for rnd in rounds):
        raise SystemExit("the rounds made different calls, so their times cannot be paired")
    typical = [statistics.median(column) for column in zip(*(rnd["times"] for rnd in rounds))]
    q = tail_percentile(len(typical))
    metrics = dict(
        setup_s=(statistics.median(setup), "s"),
        items_per_s=(statistics.median(items) / sum(typical), "1/s"),
        call_p50_ms=(statistics.median(typical) * 1e3, "ms"),
        call_tail_ms=(statistics.quantiles(typical, n=100, method="inclusive")[q - 1] * 1e3, "ms"),
        peak_rss_mb=(result["peak_rss_mb"], "MB"),
    )
    per_round = [(done / sum(rnd["times"]), statistics.median(rnd["times"]) * 1e3)
                 for rnd, done in zip(rounds, items)]
    by_name: dict[str, list[float]] = {}
    for name, t in zip(calls, typical):
        by_name.setdefault(name, []).append(t)
    detail = dict(rounds=len(rounds), calls=len(calls) * len(rounds),
                  calls_per_round=len(calls), tail_percentile=q, setup_samples_s=setup,
                  per_round=dict(items_per_s=[r for r, _ in per_round],
                                 call_p50_ms=[t for _, t in per_round]),
                  call_ms_by_function={k: dict(calls=len(v), p50=statistics.median(v) * 1e3,
                                               max=max(v) * 1e3) for k, v in by_name.items()})
    return {k: dict(value=v, unit=u) for k, (v, u) in metrics.items()}, detail


def per_layer(result: dict, items: list) -> tuple[dict, dict]:
    """The traced rounds' layer figures, and the overhead of tracing.

    The overhead compares the mean items per second of the untraced and
    the traced rounds, which alternate through the run.
    """
    speed = {}
    for traced in (False, True):
        speed[traced] = statistics.fmean(done / sum(rnd["times"])
                                         for rnd, done in zip(result["rounds"], items)
                                         if rnd["traced"] == traced)
    metrics = {name: dict(value=result["per_layer"][name], unit=unit)
               for name, unit, _, _, _ in tracing.PER_LAYER}
    name, unit, _ = tracing.OVERHEAD_METRIC
    metrics[name] = dict(value=100 * (speed[False] / speed[True] - 1), unit=unit)
    detail = dict(rounds=len(result["rounds"]),
                  traced_rounds=sum(1 for rnd in result["rounds"] if rnd["traced"]),
                  items_per_s_untraced=speed[False], items_per_s_traced=speed[True])
    return metrics, detail


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "carmik" / "__init__.py").is_file():
        raise SystemExit(f"no carmik sources under {ROOT / 'src'}")

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(f"python {platform.python_version()}, cores {os.cpu_count()}, commit {commit()}")
    # Half the set-up timings before the worker and half after it, so that
    # they see two moments of the host's speed phases, not one.
    setup = [] if args.trace else setup_seconds(args.workload, SETUP_REPEATS // 2)
    result = run_worker(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"backend {result['backend']}, worker threads {result['threads']}")

    import checks  # sympy is loaded only after the worker ran, so it stays out of its peak RSS

    verdict = checks.judge(args.workload, args.seed, ROOT, result["rounds"])
    if args.trace:
        metrics, detail = per_layer(result, verdict.items)
    else:
        setup += setup_seconds(args.workload, SETUP_REPEATS - len(setup))
        metrics, detail = end_to_end(result, verdict.items, setup)
    print(", ".join(f"{k} {v}" for k, v in detail.items() if k not in ("setup_samples_s", "per_round", "call_ms_by_function")))
    print(f"{args.workload}: attempted {verdict.attempted}, failed {len(verdict.failed)}")
    failures: dict[str, int] = {}
    for op, error in verdict.failed:
        key = f"{op} -> {error}"
        failures[key] = failures.get(key, 0) + 1
    for key, count in failures.items():
        print(f"  failed x{count}: {key}")
    for message in verdict.wrong[:20]:
        print(f"  WRONG {message}")
    print(f"checks: {len(verdict.wrong)} wrong outputs")

    OUT.mkdir(exist_ok=True)
    report = dict(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  backend=result["backend"], python=platform.python_version(),
                  cores=os.cpu_count(), commit=commit(), threads=result["threads"],
                  detail=detail, metrics=metrics, attempted=verdict.attempted,
                  failed=failures, wrong=verdict.wrong, trace_spans=result["trace"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(dict(correct=not verdict.wrong, attempted=verdict.attempted,
                          failed=len(verdict.failed), metrics=metrics)))


if __name__ == "__main__":
    main()
