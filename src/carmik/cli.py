"""Command-line interface.

Exit codes: 0 success, 1 negative verdict (check), 2 search exhausted,
3 invalid configuration or arguments.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import __version__, korselt, pipeline, zerosum
from .ap_search import heath_brown_scan
from .construction import ConstructionInstance
from .errors import (
    CarmikError,
    ConfigError,
    DomainError,
    SearchExhaustedError,
    StageError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_EXHAUSTED = 2
EXIT_BADARGS = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carmik",
        description="Carmichael numbers with a prescribed K-invariant",
    )
    parser.add_argument("--version", action="version",
                        version=f"carmik {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Korselt verdict and K for one integer")
    p.add_argument("n", type=int)

    p = sub.add_parser("census", help="all Carmichael numbers up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="keep rows with K equal to this")
    p.add_argument("--csv", type=Path, default=None, help="also write rows to this CSV file")

    p = sub.add_parser("construct", help="run the construction pipeline from a config")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--workdir", type=Path, default=Path("."))
    p.add_argument("--resume", type=Path, default=None,
                   help="resume from a serialized instance document")

    p = sub.add_parser("ap-scan", help="least-prime ratios over a range of moduli")
    p.add_argument("--lmin", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--exponent", type=float, default=2.0)
    p.add_argument("--csv", type=Path, default=None)

    p = sub.add_parser("davenport", help="zero-sum length bound for a modulus")
    p.add_argument("--modulus", type=int, required=True)

    p = sub.add_parser("zerosum", help="find a product-one subsequence")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--elements", type=int, nargs="+", required=True)
    return parser


def _cmd_check(args) -> int:
    verdict = korselt.is_carmichael(args.n)
    if verdict:
        factors = "*".join(str(p) for p in verdict.factors.primes)
        print(f"{args.n} is a Carmichael number: K = {verdict.k_invariant}, factors {factors}")
        return EXIT_OK
    print(f"{args.n} is not a Carmichael number: {verdict.describe()}")
    return EXIT_NEGATIVE


def _cmd_census(args) -> int:
    rows = korselt.census(args.limit, nu_filter=args.k)
    for n, k in rows:
        print(f"{n},{k}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("n", "k_invariant"))
            writer.writerows(rows)
    print(f"# {len(rows)} Carmichael numbers <= {args.limit}"
          + (f" with K = {args.k}" if args.k is not None else ""))
    return EXIT_OK


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


def _cmd_construct(args) -> int:
    rc = pipeline.parse_config(_read(args.config))
    resumed = ConstructionInstance.parse(_read(args.resume)) if args.resume else None

    def show(instance: ConstructionInstance) -> None:
        label = "resumed instance" if resumed else "instance"
        print(f"{label} {pipeline.instance_fingerprint(instance)}")
        print(f"j0={instance.j0} |Q|={len(instance.q1)}+{len(instance.q2)} "
              f"k1={instance.k1} k2={instance.k2} |P1|={len(instance.p1)} |P2|={len(instance.p2)}")

    batch = pipeline.run_construction(rc, args.workdir, resumed, on_instance=show)
    for cert in batch.certificates:
        factors = "*".join(str(p) for p in cert.factors.primes)
        print(f"certified n = {cert.n} = {factors} (K = {cert.k_invariant})")
    print(f"# wrote {args.workdir / 'certificates.jsonl'}")
    return EXIT_OK


def _cmd_ap_scan(args) -> int:
    table = heath_brown_scan(args.lmin, args.lmax, exponent=args.exponent)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(table.csv_rows())
    for l, b in table.misses:
        print(f"miss: no prime found for b={b} mod l={l}")
    if table.global_max:
        r = table.global_max
        print(f"global max ratio {r.ratio:.4f} at l={r.modulus}, b={r.residue} (p={r.p})")
    if table.consistent_max:
        r = table.consistent_max
        print(f"max ratio for l >= 16: {r.ratio:.4f} at l={r.modulus}, b={r.residue} (p={r.p})")
    if table.misses:
        print(f"# {len(table.misses)} classes exhausted their caps")
        return EXIT_EXHAUSTED
    return EXIT_OK


def _cmd_davenport(args) -> int:
    bound = zerosum.davenport_upper_bound(args.modulus)
    structure = zerosum.unit_group_structure(args.modulus)
    comps = ", ".join(f"<{g}> (order {o})" for g, o in structure.components) or "trivial"
    print(f"unit group mod {args.modulus}: {comps}")
    print(f"zero-sum length bound: {bound:.6f}")
    return EXIT_OK


def _cmd_zerosum(args) -> int:
    witness = zerosum.find_product_one_subsequence(args.elements, args.modulus)
    if witness is None:
        print("no product-one subsequence")
        return EXIT_EXHAUSTED
    picked = "*".join(str(args.elements[i]) for i in witness.indices)
    print(f"indices {list(witness.indices)}: {picked} == 1 (mod {args.modulus})")
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "census": _cmd_census,
    "construct": _cmd_construct,
    "ap-scan": _cmd_ap_scan,
    "davenport": _cmd_davenport,
    "zerosum": _cmd_zerosum,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments; remap to the documented code.
        return EXIT_BADARGS if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADARGS
    except (SearchExhaustedError, StageError) as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        if isinstance(exc, StageError) and exc.data:
            detail = ", ".join(f"{k}={v}" for k, v in exc.data.items())
            print(f"  {detail}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except CarmikError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADARGS


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
