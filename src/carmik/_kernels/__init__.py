"""Kernel backend selection.

The hot inner loops (sieving, Miller-Rabin sweeps, the census scan,
arithmetic-progression scans, subset-product search) exist twice: a
compiled Cython extension and a pure-Python twin with identical semantics.
The twins share values, not algorithms: the pure AP scan reads primality
from a sieve table, while the compiled one runs Miller-Rabin on every
progression term; the pure Miller-Rabin screens with one gcd and uses only
the bases n's size needs, while the compiled one trial-divides by its 12
bases and then runs all 12.  The compiled backend is preferred when
importable; set CARMIK_PURE=1 to force the fallback.
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
