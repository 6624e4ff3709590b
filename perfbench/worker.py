"""One workload in one process: warm-up, then timed rounds for the run length.

Reads {"root", "workload", "seed", "seconds", "trace"} as JSON on stdin.
Writes each round to stdout as one JSON line as soon as it ends and then
drops it, so the process's peak memory does not grow with the number of
rounds; the last line is a summary.  carmik is imported from <root>/src,
as the test suite does.  Only calls into carmik's public functions are
timed.  With trace set, odd rounds are traced and even ones not, so both
kinds see the same phases of the host and the run measures its own
tracing overhead.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter


def _threads() -> int:
    """Operating-system threads of this process (Linux), else Python threads."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def main() -> None:
    params = json.load(sys.stdin)
    root = Path(params["root"])
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import carmik

    if Path(carmik.__file__).resolve().parent != src / "carmik":
        raise SystemExit(f"carmik was imported from {carmik.__file__}, not from {src}")
    import tracing
    import workloads

    workload = workloads.WORKLOADS[params["workload"]](params["seed"], root)
    seconds = params["seconds"]
    trace = bool(params["trace"])

    setup_tracer = tracing.Tracer()
    if trace:
        setup_tracer.install()
    try:
        exec(workload.warmup, {})
    finally:
        setup_tracer.uninstall()

    def emit(record: dict) -> None:
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    times: list[float] = []
    names: list[str] = []

    def call(fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(perf_counter() - t0)
            names.append(getattr(fn, "__wrapped__", fn).__name__)

    tracer = tracing.Tracer()
    rounds = traced_rounds = 0
    start = perf_counter()
    threads = _threads()
    while True:
        traced = trace and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            ops = workload.run_round(rounds, call)
        finally:
            tracer.uninstall()
        emit(dict(traced=traced, ops=ops, times=times, calls=names))
        del ops
        times.clear()
        names.clear()
        rounds += 1
        traced_rounds += traced
        threads = max(threads, _threads())
        # A traced run needs at least one round of each kind.
        if perf_counter() - start >= seconds and rounds >= (2 if trace else 1):
            break

    emit(
        dict(
            backend=carmik.backend_name(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            threads=threads,
            per_layer=tracer.per_layer(traced_rounds, setup_tracer) if trace else None,
            trace=dict(setup=setup_tracer.dump(), rounds=tracer.dump()) if trace else None,
        )
    )


if __name__ == "__main__":
    main()
