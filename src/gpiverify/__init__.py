"""gpiverify: exact-arithmetic verification of a three-dimensional Gaussian
product inequality, its bivariate moment-ratio bound, and the accompanying
sums-of-squares positivity certificates.

All core computations are exact (arbitrary-precision rationals); the only
floating point lives in the real-exponent extension and its quadrature
cross-check oracle.

Importing the package loads nothing else: the library is its submodules
(``gpiverify.inequality.scan``, ``gpiverify.soscert.verify_sos``, ...), and
``gpiverify.cli`` is the command-line front end.
"""

__version__ = "1.0.0"
