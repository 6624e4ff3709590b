"""Kernel backend selection.

The hot inner loops (sieving, Miller-Rabin, the census scan, Brent rho,
arithmetic-progression scans, subset-product search) exist twice: a
compiled extension, built from the tracked ``_native.c`` that Cython
generated from ``_native.pyx``, and the pure-Python twin in ``pure.py``,
with identical values.  The backend contract is exactly the set of names
the library reads as ``backend.<name>``; ``tests/test_kernels.py`` checks
that both twins define each of them.

The twins share values, not algorithms: the pure Miller-Rabin screens with
one gcd and uses only the bases n's size needs, while the compiled one
trial-divides by its 12 bases and then runs all 12.  The pure census walks
each n from its largest prime and holds the primes up to sqrt(limit),
where the compiled one reads a smallest-prime-factor table of 4 bytes per
integer; from 10^7 on the pure one is also faster, so ``korselt.census``
calls ``pure.carmichael_census`` on either backend.  The pure AP scan
reads a sieve table in rows of width l and settles every class whose term
in a row is prime with one integer AND, where the compiled one runs
Miller-Rabin on every progression term, so ``ap_search.heath_brown_scan``
calls ``pure.ap_max_scan`` on either backend.  The compiled backend is
preferred when importable; set CARMIK_PURE=1 to force the fallback.
``benchmarks/bench_kernels.py`` compares the two.
"""

import os

from . import pure

if os.environ.get("CARMIK_PURE"):
    backend = pure
else:
    try:
        from . import _native as backend  # type: ignore[no-redef]
    except ImportError:
        backend = pure


def backend_name() -> str:
    return backend.BACKEND_NAME
