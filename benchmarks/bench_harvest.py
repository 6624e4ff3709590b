"""Wall time of the derived harvests, on one worker and on every usable CPU.

Usage:  PYTHONPATH=src python3 benchmarks/bench_harvest.py [--repeat N] [--out PATH]

Each row runs ``pipeline.harvest_instance`` N times at the derived
omega_g and j_cap of its z and records the medians of its wall time, of
its ``populate_R`` stage and of the CPU time (user + sys) of this process
and its children.  The one-worker rows pin this process to one CPU, which
leaves ``populate_R`` one usable CPU and so no fork; the other rows run on
the CPUs the process was started with.  Rows run in ascending z, one
worker first, so the peak RSS of this process and of its largest child,
both read after a row, are those of the largest harvest so far (Linux
keeps the children's figure across exec, so before the first fork it
reads what the launching process's children reached).  Every
run's instance fingerprint must start with the sha256 prefix that the
harvest has had since before it was split across CPUs.  The results go to
BENCH_harvest.json beside this script.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

from carmik import construction, pipeline

# (z, nu, q_subset_size, omega_d, sha256 prefix of the instance).  z = 200
# is perfbench's derived construct config; z = 400 is the largest derived
# harvest that completes in seconds.
ROWS = ((200, 2, 3, 2, "a0324db82e0e5a19"), (400, 2, 5, 2, "99ee355d122b4a13"))


def commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                             text=True, cwd=Path(__file__).resolve().parent, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_seconds() -> float:
    return sum(u.ru_utime + u.ru_stime for u in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def peak_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def run_row(z, nu, size, omega_d, prefix, repeat, cpus):
    cc = construction.ConstructionConfig(z=z, nu=nu, omega_d=omega_d, q_subset_size=size)
    count = len(construction.enumerate_g(construction.build_J(z), cc.resolved_omega_g))
    walls, stages, cpu = [], [], []
    for _ in range(repeat):
        timings = {}
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        instance = pipeline.harvest_instance(cc, timings)
        walls.append(time.perf_counter() - t0)
        cpu.append(cpu_seconds() - cpu0)
        stages.append(timings["populate_R"])
        fingerprint = pipeline.instance_fingerprint(instance)
        assert fingerprint.startswith("sha256:" + prefix), (z, fingerprint)
    return dict(
        z=z, nu=nu, q_subset_size=size, omega_d=omega_d,
        omega_g=cc.resolved_omega_g, j_cap=cc.resolved_j_cap, g=count,
        usable_cpus=len(cpus), workers=construction._harvest_workers(count),
        fingerprint=fingerprint, runs=repeat,
        harvest_s=round(statistics.median(walls), 4),
        populate_R_s=round(statistics.median(stages), 4),
        cpu_s=round(statistics.median(cpu), 4),
        peak_rss_mb=round(peak_mb(resource.RUSAGE_SELF), 1),
        children_peak_rss_mb=round(peak_mb(resource.RUSAGE_CHILDREN), 1),
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path(__file__).with_name("BENCH_harvest.json"))
    args = parser.parse_args()
    every = os.sched_getaffinity(0)
    rows = []
    for z, nu, size, omega_d, prefix in ROWS:
        for cpus in ({min(every)}, every):
            os.sched_setaffinity(0, cpus)
            try:
                row = run_row(z, nu, size, omega_d, prefix, args.repeat, cpus)
            finally:
                os.sched_setaffinity(0, every)
            rows.append(row)
            print(f"z={z} workers={row['workers']}: harvest {row['harvest_s']:.3f}s, "
                  f"populate_R {row['populate_R_s']:.3f}s, cpu {row['cpu_s']:.3f}s, "
                  f"children peak {row['children_peak_rss_mb']} MB", flush=True)
    result = dict(
        python=platform.python_version(), cores=os.cpu_count(), usable_cpus=len(every),
        commit=commit(), statistic=f"median of {args.repeat} runs", rows=rows,
    )
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
