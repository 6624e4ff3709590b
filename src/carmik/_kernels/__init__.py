"""Kernel backend selection.

Five hot kernels (the sieve, Miller-Rabin, Brent rho, the first prime in
a progression and the harvest's least j with g*j + 1 prime) exist twice: a
compiled extension, hand-written against the CPython C API in
``_native.c``, and the pure-Python twin in ``pure.py``, with identical
values.  The harvest kernel differs in method, not value: the compiled
twin runs Miller-Rabin on each q = g*j + 1, and the pure one proves q from
the primes of g that divide q - 1, which costs about one modular power per
candidate in place of three to five.  The backend contract is exactly the
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
