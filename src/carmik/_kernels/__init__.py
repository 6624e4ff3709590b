"""The hot kernels, one implementation each, in ``pure.py``.

The sieve, Miller-Rabin, the first prime in a progression, the harvest's
least j with g*j + 1 prime, Brent's cycle search, the census descent, the
AP scan and the subset-product searches are pure Python, exact integer
arithmetic throughout.  The library modules import ``pure`` and call its
kernels by name; ``carmik.arith`` says which kernel decides primality at
which size.
"""

from . import pure

# Kept for readers outside the package: perfbench/tracing.py wraps the
# kernels it finds on ``backend``, and perfbench/worker.py records
# ``backend_name()`` with every run.
backend = pure


def backend_name() -> str:
    return "pure"
