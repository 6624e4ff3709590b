"""carmik: Carmichael numbers with a prescribed K-invariant.

K of a squarefree integer is gcd(p - 1) over its prime factors.  The
package certifies Carmichael numbers via Korselt's criterion, runs an
exact census with K values, probes least primes in arithmetic
progressions, solves subset-product-to-identity problems in unit groups,
and drives the two-family construction pipeline that targets K equal to a
prescribed even value.
"""

# backend_name stays public: perfbench/worker.py records it with each run.
from ._kernels import backend_name
from .arith import (
    FactoredInteger,
    carmichael_lambda,
    euler_phi,
    factorize,
    gcd_all,
    is_prime,
    largest_prime_factor,
    lcm_all,
    primes_in_range,
)
from .korselt import CarmichaelCertificate, KorseltRejection, census, is_carmichael, k_invariant
from .zerosum import (
    ZeroSumWitness,
    davenport_upper_bound,
    enumerate_product_one_subsets,
    find_product_one_subsequence,
    unit_group_structure,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    "FactoredInteger",
    "carmichael_lambda",
    "euler_phi",
    "factorize",
    "gcd_all",
    "is_prime",
    "largest_prime_factor",
    "lcm_all",
    "primes_in_range",
    "CarmichaelCertificate",
    "KorseltRejection",
    "census",
    "is_carmichael",
    "k_invariant",
    "ZeroSumWitness",
    "davenport_upper_bound",
    "enumerate_product_one_subsets",
    "find_product_one_subsequence",
    "unit_group_structure",
]
