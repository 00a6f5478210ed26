"""gpiverify: exact-arithmetic verification of a three-dimensional Gaussian
product inequality, its bivariate moment-ratio bound, and the accompanying
sums-of-squares positivity certificates.

All core computations are exact (arbitrary-precision rationals); the only
floating point lives in the real-exponent extension and the Monte Carlo
cross-check oracle.
"""

__version__ = "1.0.0"

from .exactnum import RationalInterval, rational, sqrt_enclosure
from .polyring import MultiPoly
from .moments import GaussianPair
from .inequality import (
    GpiParams,
    check_gpi,
    check_mri,
    check_point,
    g_poly,
    h_poly,
    make_params,
    scan,
)
from .soscert import SosCertificate, load_certificate, verify_sos

__all__ = [
    "GaussianPair",
    "GpiParams",
    "MultiPoly",
    "RationalInterval",
    "SosCertificate",
    "__version__",
    "check_gpi",
    "check_mri",
    "check_point",
    "g_poly",
    "h_poly",
    "load_certificate",
    "make_params",
    "rational",
    "scan",
    "sqrt_enclosure",
    "verify_sos",
]
