"""Kernel backend selection.

Four hot kernels (the sieve, Miller-Rabin, Brent rho and the first prime
in a progression) exist twice: a compiled extension, hand-written against
the CPython C API in ``_native.c``, and the pure-Python twin in
``pure.py``, with identical values.  The backend contract is exactly the
set of names the library reads as ``backend.<name>``;
``tests/test_kernels.py`` checks that the pure module defines each of
them and that the C method table defines exactly them.

Both Miller-Rabin twins use the minimal base sets of ``pure._MR_TIERS``,
which the compiled module reads when it loads.  The census, the AP scan
and the subset-product searches have only a pure kernel, which the
library calls on either backend: the census descends over the primes of
n, largest first, and holds the primes up to sqrt(limit), the AP scan
settles a row of residue classes with one integer AND over a sieve table,
and most zero-sum moduli of the construction lie past 2**64.  The
compiled backend is preferred when importable; set CARMIK_PURE=1 to force
the fallback.  ``benchmarks/bench_kernels.py`` compares the two.
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
