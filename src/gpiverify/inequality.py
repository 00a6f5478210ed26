"""Inequality objects and predicates for the product-moment verification.

This module materializes, with exact rational arithmetic wherever possible:

* the parameter family r = (2 m2 + 1)(2 m3 + 1) + 1, the threshold t, and the
  bound function H(z) = [(m2+m3+1)(rz-1) + sqrt(D(z))] / (r^2 z - 1) with
  radicand D(z) = ((m3-m2)(rz-1))^2 + (r-1)^3 z;
* the cleared-denominator positivity polynomial S(z) whose strict positivity
  implies the hypergeometric-ratio inequality (HFRI);
* the bivariate polynomials h_1 .. h_7 obtained from S by the substitutions
  m3 -> b^2 + offset and z -> c^2/(1+c^2);
* the truncated three-variable polynomial f and its positified form g under
  u -> (11/4) c^2/(1+c^2), x2 -> a^2 + 8, x3 -> b^2 + 8;
* exact checks of the product inequality (GPI) and the moment-ratio
  inequality (MRI), and grid scans of the inequality predicates.

Every predicate is decided exactly.  Each holds at z iff
alpha(z) + beta(z) sqrt(D(z)) > 0, where alpha, beta and the radicand D of H
are polynomials in z built once per (predicate, params) (margin_polys; beta
is 0 for the HFRI polynomial S).  At a rational z the sign is decided by
comparing alpha^2 with beta^2 D (sign_sqrt).  Interval enclosures (H_value,
G_value) remain as independent references and as the margin that
accompanies an MRI verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable

from .exactnum import (
    RationalInterval,
    RationalLike,
    rational,
    sign_sqrt,
    sqrt_enclosure,
)
from .gausshyp import HALF, THREE_HALVES, hyp_poly, hyp_poly_symbolic_m3, hyp_value_at_one
from .moments import (
    GaussianPair,
    TripleSpec,
    double_factorial_odd,
    even_moment,
    gauss_hyp_real,
    odd_moment,
    triple_even_moment,
)
from .polyring import MultiPoly
from .report import (
    FAILS,
    HOLDS,
    INDETERMINATE,
    CheckReport,
)

#: split point of the large-index case analysis: below TRUNCATION_BOUND/(m2*m3)
#: the truncated-series route (f, g positivity) applies, above it G is scanned
TRUNCATION_BOUND = Fraction(11, 4)

#: factorial scale making every coefficient of the truncated polynomial f an
#: integer: (2j+1)! divides it for all truncation indices j <= 4
FACT17 = math.factorial(17)

DEFAULT_WIDTH = Fraction(1, 10**6)

#: float-path guard: series results within this of zero are indeterminate
REAL_MARGIN_GUARD = 1e-9

SCAN_PREDICATES = (
    "hfri",
    "g-negative",
    "h-half",
    "h-seventh",
    "h-deriv",
    "h-deriv-reduced",
)

#: lower bounds of H checked exactly by the threshold predicates
H_THRESHOLDS = {"h-half": Fraction(1, 2), "h-seventh": Fraction(1, 7)}


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------


def in_coverage_set(m2: int, m3: int) -> bool:
    """Membership in the covered parameter set: (1, >=5), (2, >=3) and all
    pairs with both indices >= 3; order-insensitive."""
    lo, hi = min(m2, m3), max(m2, m3)
    if lo == 1:
        return hi >= 5
    if lo == 2:
        return hi >= 3
    return lo >= 3


@dataclass(frozen=True)
class GpiParams:
    """Exact parameter bundle for an exponent pair (m2, m3), both >= 1."""

    m2: int
    m3: int
    r: Fraction
    t: Fraction
    in_s: bool

    @property
    def msum(self) -> Fraction:
        """m2 + m3 + 1 as an exact rational."""
        return Fraction(self.m2 + self.m3 + 1)

    @property
    def mdiff_sq(self) -> Fraction:
        return Fraction((self.m3 - self.m2) ** 2)


def make_params(m2: int, m3: int) -> GpiParams:
    if m2 < 1 or m3 < 1:
        raise ValueError("make_params requires m2, m3 >= 1")
    r = Fraction((2 * m2 + 1) * (2 * m3 + 1) + 1)
    t = 1 / (r + (1 + Fraction(1, 2 * m2)) * (1 + Fraction(1, 2 * m3)))
    if not (1 / (r * r) < t < 1 / r):
        raise AssertionError(f"parameter identity 1/r^2 < t < 1/r failed for ({m2},{m3})")
    return GpiParams(m2, m3, r, t, in_coverage_set(m2, m3))


@dataclass(frozen=True)
class RealGpiParams:
    """Float parameter bundle for real exponents y2, y3 > 0."""

    y2: float
    y3: float
    r: float
    t: float


def make_real_params(y2: float, y3: float) -> RealGpiParams:
    if not (0 < y2 < math.inf and 0 < y3 < math.inf):  # also rejects NaN
        raise ValueError("make_real_params requires finite y2, y3 > 0")
    r = (y2 + 1.0) * (y3 + 1.0) + 1.0
    if not math.isfinite(r):
        raise ValueError("make_real_params requires a finite r = (y2 + 1)(y3 + 1) + 1")
    t = 1.0 / (r + (1.0 + 1.0 / y2) * (1.0 + 1.0 / y3))
    return RealGpiParams(y2, y3, r, t)


@dataclass(frozen=True)
class QuadraticForm:
    """Coefficients of the quadratic (1-z) y^2 + 2 beta y + gamma whose
    positivity at the hypergeometric ratio y restates the target inequality.

    Construction validates the exact discriminant identity
    beta^2 - (1-z) gamma = ((m3-m2)(1-rz)/(r-1))^2 + (r-1) z.
    """

    beta: Fraction
    gamma: Fraction
    leading: Fraction  # = 1 - z

    @staticmethod
    def build(params: GpiParams, z: RationalLike) -> "QuadraticForm":
        z = rational(z)
        r = params.r
        rm1 = r - 1
        beta = -params.msum * (1 - r * z) / rm1
        gamma = (1 - r * r * z) / rm1
        lhs = beta * beta - (1 - z) * gamma
        rhs = ((params.m3 - params.m2) * (1 - r * z) / rm1) ** 2 + rm1 * z
        if lhs != rhs:
            raise AssertionError(f"discriminant identity failed at z={z}")
        return QuadraticForm(beta, gamma, 1 - z)

    def reciprocal_bound_interval(self, width: RationalLike = DEFAULT_WIDTH) -> RationalInterval:
        """Enclosure of (-beta + sqrt(beta^2 - (1-z) gamma)) / (1-z), an
        independent route to 1/H(z); requires z < 1."""
        if self.leading == 0:
            raise ValueError("undefined at z = 1")
        disc = self.beta * self.beta - self.leading * self.gamma
        root = sqrt_enclosure(disc, rational(width) * abs(self.leading))
        return (root - self.beta) / RationalInterval.point(self.leading)


# ----------------------------------------------------------------------
# the bound function H
# ----------------------------------------------------------------------


def h_radicand(params: GpiParams, z: Fraction | MultiPoly) -> Fraction | MultiPoly:
    """D(z) = ((m3 - m2)(rz - 1))^2 + (r - 1)^3 z, for a rational z or the
    polynomial variable z."""
    r = params.r
    return params.mdiff_sq * (r * z - 1) ** 2 + (r - 1) ** 3 * z


def _check_h_domain(params: GpiParams, z: Fraction) -> None:
    if not (1 / (params.r * params.r) < z <= 1):
        raise ValueError(f"H is defined for 1/r^2 < z <= 1; got z={z}")


def H_value(
    params: GpiParams, z: RationalLike, width: RationalLike = DEFAULT_WIDTH
) -> RationalInterval:
    """Rigorous enclosure of H(z) of at most the requested width."""
    z = rational(z)
    _check_h_domain(params, z)
    r = params.r
    root = sqrt_enclosure(h_radicand(params, z), rational(width) * (r * r * z - 1))
    return (root + params.msum * (r * z - 1)) / RationalInterval.point(r * r * z - 1)


def H_at_one(params: GpiParams) -> Fraction:
    """H(1) = 2 (m2 + m3 + 1) / (r + 1), exact."""
    return 2 * params.msum / (params.r + 1)


def _h_excess(
    params: GpiParams, z: Fraction | MultiPoly, threshold: Fraction
) -> Fraction | MultiPoly:
    """alpha with (H(z) - threshold)(r^2 z - 1) = alpha + sqrt(D), for a
    rational z or the polynomial variable z:

        H(z) > c  <=>  (m2+m3+1)(r z - 1) - c (r^2 z - 1) + sqrt(D) > 0.
    """
    r = params.r
    return params.msum * (r * z - 1) - threshold * (r * r * z - 1)


def h_compare(params: GpiParams, z: RationalLike, threshold: RationalLike) -> int:
    """Exact sign of H(z) - threshold, by isolating the radical (_h_excess)."""
    z = rational(z)
    _check_h_domain(params, z)
    return sign_sqrt(_h_excess(params, z, rational(threshold)), 1, h_radicand(params, z))


def h_lower_bound_check(params: GpiParams, z: RationalLike, which: str) -> CheckReport:
    """Exact check of the two lower bounds for H on its split domain:
    H > 1/2 on (1/r^2, 1/r] and H > 1/7 on (1/r, min(B/(m2 m3), 1)] with
    B = 11/4 (the ``h-half`` and ``h-seventh`` scan predicates)."""
    predicate = f"h-{which}"
    if predicate not in H_THRESHOLDS:
        raise ValueError(f"which must be 'half' or 'seventh', got {which!r}")
    z = check_domain(predicate, params, z)
    status, sign = _scan_point(predicate, params, z)
    return CheckReport(
        name=f"{predicate}:m2={params.m2},m3={params.m3},z={z}",
        status=status,
        margin=None,
        witnesses=[{"z": z, "threshold": H_THRESHOLDS[predicate], "sign": sign}],
        metadata={"method": "exact radical comparison"},
    )


# ----------------------------------------------------------------------
# the positivity polynomial S and the bivariate h family
# ----------------------------------------------------------------------


def _s_combination(f1, f2, z, r, msum, one=1) -> MultiPoly:
    """(r-1)(one-z) f1^2 + 2 msum (rz-one) f1 f2 - (r^2 z - one) f2^2.

    ``r`` and ``msum`` may be numbers or polynomials; ``one`` homogenizes the
    form (the truncated f passes x2 x3 with z = u)."""
    return (
        (f1 * f1) * ((r - 1) * (one - z))
        + (f1 * f2) * (2 * msum * (r * z - one))
        - (f2 * f2) * (r * r * z - one)
    )


@lru_cache(maxsize=None)
def S_poly(params: GpiParams) -> MultiPoly:
    """Cleared-denominator positivity polynomial in z, degree 2 m2 + 1:

        (r-1)(1-z) f1^2 + 2 (m2+m3+1)(rz-1) f1 f2 - (r^2 z - 1) f2^2

    with f1 = F(-m2, -m3; 1/2; z) and f2 = F(-m2, -m3; 3/2; z).  Its strict
    positivity on (1/r^2, 1) is equivalent to the ratio inequality
    f1/f2 > 1/H there.
    """
    m2, m3 = params.m2, params.m3
    return _s_combination(
        hyp_poly(m2, m3, HALF), hyp_poly(m2, m3, THREE_HALVES), MultiPoly.var("z"),
        params.r, params.msum,
    )


@lru_cache(maxsize=None)
def s_poly_symbolic(m2: int) -> MultiPoly:
    """S with the second exponent kept symbolic: a polynomial in (z, m3)."""
    ring = ("z", "m3")
    m3v = MultiPoly.var("m3", ring)
    return _s_combination(
        hyp_poly_symbolic_m3(m2, HALF), hyp_poly_symbolic_m3(m2, THREE_HALVES),
        MultiPoly.var("z", ring), (m3v * 2 + 1) * (2 * m2 + 1) + 1, m3v + (m2 + 1),
    )


def h_offset(m2: int) -> int:
    """Offset in the substitution m3 = b^2 + offset defining h_{m2}."""
    if m2 == 1:
        return 5
    if m2 == 2:
        return 3
    return m2


@lru_cache(maxsize=None)
def h_poly(m2: int) -> MultiPoly:
    """Bivariate polynomial h_{m2}(b, c) = (1+c^2)^(2 m2 + 1) * S(z)
    under m3 = b^2 + offset and z = c^2/(1+c^2); positive for all real b, c.

    Defined for 1 <= m2 <= 7 (the explicitly certified range).
    """
    if not 1 <= m2 <= 7:
        raise ValueError("h_poly is defined for m2 in 1..7")
    s = s_poly_symbolic(m2)
    b = MultiPoly.var("b")
    s_b = s.substitute("m3", b * b + h_offset(m2))
    c = MultiPoly.var("c")
    c2 = c * c
    return s_b.substitute_rational("z", c2, c2 + 1, 2 * m2 + 1).in_ring(("b", "c"))


@lru_cache(maxsize=None)
def f_truncated_poly() -> MultiPoly:
    """Four-term truncation polynomial f(x2, x3, u), scaled by 17! so all
    coefficients are integers.

    With R = (2 x2 + 1)(2 x3 + 1) + 1 and B1, B2 the 17!-scaled truncated
    series ((2j)! and (2j+1)! factorials respectively, j = 0..4):

        f = (2x2+1)(2x3+1)(x2 x3 - u) B1^2
            + 2 (x2+x3+1)(R u - x2 x3) B1 B2
            - (R^2 u - x2 x3) B2^2
    """
    ring = ("x2", "x3", "u")
    x2 = MultiPoly.var("x2", ring)
    x3 = MultiPoly.var("x3", ring)
    u = MultiPoly.var("u", ring)
    x2x3 = x2 * x3

    def bracket(odd: bool) -> MultiPoly:
        total = x2x3**3 * FACT17
        for j in range(1, 5):
            fact = math.factorial(2 * j + 1) if odd else math.factorial(2 * j)
            coeff = Fraction(4**j * FACT17, fact)
            piece = MultiPoly.const(coeff, ring) * u**j * x2x3 ** (4 - j)
            for i in range(1, j):
                piece = piece * (x2 - i) * (x3 - i)
            total = total + piece
        return total

    r = (x2 * 2 + 1) * (x3 * 2 + 1) + 1
    return _s_combination(
        bracket(odd=False), bracket(odd=True), u, r, x2 + x3 + 1, one=x2x3
    )


@lru_cache(maxsize=None)
def g_poly() -> MultiPoly:
    """g(a, b, c) = (1+c^2)^9 f(a^2+8, b^2+8, (11/4) c^2/(1+c^2)): an
    everywhere-positive polynomial with only even exponents whose coefficient
    nonnegativity certifies the truncated inequality on its whole domain."""
    f = f_truncated_poly()
    a = MultiPoly.var("a")
    b = MultiPoly.var("b")
    g = f.substitute("x2", a * a + 8).substitute("x3", b * b + 8)
    c = MultiPoly.var("c")
    c2 = c * c
    return g.substitute_rational(
        "u", c2 * TRUNCATION_BOUND, c2 + 1, 9
    ).in_ring(("a", "b", "c"))


# ----------------------------------------------------------------------
# exact checks: GPI, MRI, HFRI
# ----------------------------------------------------------------------


def check_gpi(params: GpiParams, a: RationalLike, x: RationalLike) -> CheckReport:
    """Exact margin of the product inequality for X1 = X2 + a X3 over a
    unit-variance pair with correlation x:

        margin = E[X1^2 X2^(2m2) X3^(2m3)] - E[X1^2] E[X2^(2m2)] E[X3^(2m3)]

    Holds iff margin >= 0; equality (margin exactly 0) is reported in the
    metadata and occurs only in independent/degenerate configurations.
    """
    a, x = rational(a), rational(x)
    if abs(x) > 1:
        raise ValueError("correlation x must satisfy |x| <= 1")
    spec = TripleSpec(GaussianPair.unit(x), a)
    lhs = triple_even_moment(spec, params.m2, params.m3)
    rhs = spec.var1 * double_factorial_odd(params.m2) * double_factorial_odd(params.m3)
    margin = lhs - rhs
    status = HOLDS if margin >= 0 else FAILS
    return CheckReport(
        name=f"gpi:m2={params.m2},m3={params.m3},a={a},x={x}",
        status=status,
        margin=margin,
        metadata={"equality": margin == 0, "method": "exact rational"},
    )


def mri_ratio(params: GpiParams, pair: GaussianPair) -> Fraction:
    """|E[X2^(2m2+1) X3^(2m3+1)]| / ((2m2+1)(2m3+1) E[X2^(2m2) X3^(2m3)])."""
    return abs(odd_moment(params.m2, params.m3, pair)) / (
        (params.r - 1) * even_moment(params.m2, params.m3, pair)
    )


def check_mri(
    params: GpiParams, pair: GaussianPair, width: RationalLike = DEFAULT_WIDTH
) -> CheckReport:
    """Moment-ratio inequality check, decided exactly.

    The bound is |Cov| when Corr^2 <= t and H(Corr^2) |Cov| otherwise; the
    branch test and the comparison are exact (radical isolated and squared),
    so the verdict is never indeterminate.  An interval enclosure of
    lhs - bound at the requested width accompanies the verdict.
    """
    lhs = mri_ratio(params, pair)
    z = pair.corr_sq
    abs_cov = abs(pair.cov)
    if z <= params.t:
        bound = abs_cov
        diff = lhs - bound
        status = HOLDS if diff <= 0 else FAILS
        equality = diff == 0
        enclosure = RationalInterval.point(diff)
        branch = "covariance"
    else:
        # lhs <= H(z) |cov|  <=>  H(z) >= lhs/|cov|
        q = lhs / abs_cov
        sign = h_compare(params, z, q)
        status = HOLDS if sign >= 0 else FAILS
        equality = sign == 0
        h_iv = H_value(params, z, width)
        enclosure = RationalInterval.point(lhs) - h_iv * abs_cov
        branch = "ratio-bound"
    return CheckReport(
        name=f"mri:m2={params.m2},m3={params.m3}",
        status=status,
        margin=enclosure,
        witnesses=[{"corr_sq": z, "lhs": lhs, "branch": branch}],
        metadata={"equality": equality, "method": "exact radical comparison"},
    )


def find_mri_violation(
    params: GpiParams, steps: int = 100
) -> CheckReport:
    """Search correlations x = k/steps, scanning down from x = 1, for an
    exact MRI violation; the report carries the first witness found (or none).

    Scanning downward surfaces the full-correlation witness first where it
    exists (as for small index pairs)."""
    for k in range(steps, 0, -1):
        x = Fraction(k, steps)
        report = check_mri(params, GaussianPair.unit(x))
        if report.status == FAILS:
            return CheckReport(
                name=f"mri-violation:m2={params.m2},m3={params.m3}",
                status=HOLDS,
                witnesses=[{"x": x, "detail": report.witnesses}],
                metadata={"found": True, "grid_steps": steps},
            )
    return CheckReport(
        name=f"mri-violation:m2={params.m2},m3={params.m3}",
        status=FAILS,
        metadata={"found": False, "grid_steps": steps},
    )


def hfri_check(params: GpiParams, z: RationalLike) -> CheckReport:
    """Hypergeometric ratio inequality at one point, via exact positivity of
    the cleared-denominator polynomial S(z) (the ``hfri`` scan predicate)."""
    z = check_domain("hfri", params, z)
    status, value = _scan_point("hfri", params, z)
    return CheckReport(
        name=f"hfri:m2={params.m2},m3={params.m3},z={z}",
        status=status,
        margin=value,
        metadata={"method": "exact rational"},
    )


# ----------------------------------------------------------------------
# the difference function G for the large-parameter case
# ----------------------------------------------------------------------


def G_value(
    params: GpiParams, z: RationalLike, width: RationalLike = DEFAULT_WIDTH
) -> RationalInterval:
    """Enclosure of G(z) = F(-m2-1, -m3; 1/2; z)
    - [(1-z) + (2 m3 + 1) z H(z)] F(-m2, -m3; 1/2; z)."""
    z = rational(z)
    _check_h_domain(params, z)
    width = rational(width)
    m2, m3 = params.m2, params.m3
    f_big = hyp_poly(m2 + 1, m3, HALF).eval({"z": z})
    f1 = hyp_poly(m2, m3, HALF).eval({"z": z})
    scale = (2 * m3 + 1) * z * f1
    h_iv = H_value(params, z, width / scale)
    bracket = RationalInterval.point(1 - z) + h_iv * ((2 * m3 + 1) * z)
    return RationalInterval.point(f_big) - bracket * f1


def G_at_one(params: GpiParams) -> Fraction:
    """G(1), exact: F(-m2-1, -m3; 1/2; 1) - (2 m3 + 1) H(1) F(-m2, -m3; 1/2; 1)."""
    m2, m3 = params.m2, params.m3
    return hyp_value_at_one(m2 + 1, m3, HALF) - (2 * m3 + 1) * H_at_one(
        params
    ) * hyp_value_at_one(m2, m3, HALF)


# ----------------------------------------------------------------------
# scan predicates
# ----------------------------------------------------------------------
#
# Each predicate holds at z iff alpha(z) + beta(z) sqrt(D(z)) > 0, where
# margin_polys builds alpha, beta and D as polynomials in z, once per
# (predicate, params).  With s = sqrt(D), den = r^2 z - 1 > 0 and
# M = (m2+m3+1)(rz - 1):
#
#     H = (M + s)/den,    H^2 = (M^2 + D + 2 M s)/den^2,
#     H' = [r (r-1)(m2+m3+1) + P s/(2 D)]/den^2,
#
# with P = 2 (m3-m2)^2 r (r-1)(rz - 1) - (r-1)^3 (1 + r^2 z).


@lru_cache(maxsize=None)
def margin_polys(predicate: str, params: GpiParams) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(alpha, beta, D) of a predicate, as polynomials in z.  The margins:
    S for ``hfri`` (beta = 0); (H - c) den for ``h-half``/``h-seventh``;
    -G den for ``g-negative``; for ``h-deriv``, the critical-point condition
    (1-z) + [2(m2+m3+1) z - 1] H < (r-1) z H^2 + 2 z (1-z) H' as
    (rhs - lhs) den^2 D, where the factor D clears the 1/s of H'; and for
    ``h-deriv-reduced``, its radical-isolated form lhs s - rhs_num."""
    z = MultiPoly.var("z")
    r, msum, dd = params.r, params.msum, params.mdiff_sq
    rm1 = r - 1
    d = h_radicand(params, z)
    den = r * r * z - 1
    m = msum * (r * z - 1)
    if predicate == "hfri":
        alpha, beta = S_poly(params), MultiPoly.zero(z.vars)
    elif predicate in H_THRESHOLDS:
        alpha = _h_excess(params, z, H_THRESHOLDS[predicate])
        beta = MultiPoly.const(1, z.vars)
    elif predicate == "g-negative":
        f_big = hyp_poly(params.m2 + 1, params.m3, HALF)
        f1 = hyp_poly(params.m2, params.m3, HALF)
        beta = (2 * params.m3 + 1) * z * f1
        alpha = ((1 - z) * f1 - f_big) * den + beta * m
    elif predicate == "h-deriv":
        p = 2 * dd * r * rm1 * (r * z - 1) - rm1**3 * (1 + r * r * z)
        c = 2 * msum * z - 1
        alpha = (
            rm1 * z * (m * m + d) + 2 * z * (1 - z) * r * rm1 * msum
            - (1 - z) * den * den - c * den * m
        ) * d
        beta = (2 * rm1 * z * m - c * den) * d + z * (1 - z) * p
    elif predicate == "h-deriv-reduced":
        alpha = -(rm1 * z * (1 - z) * (rm1**2 * (1 + r * r * z) - 2 * dd * r * (r * z - 1))
                  + (2 * msum * z * (r + r * z - 2) - den) * d)
        beta = (
            (-1 + 4 * z - 4 * r * z + 3 * r * r * z + z * z - 8 * r * z * z
             + 8 * r * r * z * z - 4 * r**3 * z * z + r * r * z**3)
            + msum * (1 - 3 * r * z + r * r * z + 2 * r * z * z - 2 * r * r * z * z + r**3 * z * z)
            - 2 * dd * (2 * z - r * z - 3 * r * z * z + r * r * z * z + r * r * z**3)
        )
    else:
        raise ValueError(f"unknown predicate {predicate!r}; expected one of {SCAN_PREDICATES}")
    return alpha, beta, d


def default_scan_range(
    predicate: str, params: GpiParams
) -> tuple[Fraction, Fraction, bool, bool]:
    """(z_lo, z_hi, lo_open, hi_open): the domain of each predicate, shared
    by scans and point checks."""
    r = params.r
    b = TRUNCATION_BOUND / (params.m2 * params.m3)
    split = Fraction(21, 10) / (2 * params.m2 + 1)
    table = {
        "hfri": (1 / (r * r), Fraction(1), True, True),
        "g-negative": (b, Fraction(1), True, True),
        "h-half": (1 / (r * r), 1 / r, True, False),
        "h-seventh": (1 / r, min(b, Fraction(1)), True, False),
        "h-deriv": (split, Fraction(1), False, True),
        "h-deriv-reduced": (b, split, True, True),
    }
    if predicate not in table:
        raise ValueError(f"unknown predicate {predicate!r}; expected one of {SCAN_PREDICATES}")
    return table[predicate]


def check_domain(predicate: str, params: GpiParams, z: RationalLike) -> Fraction:
    """``z`` as a Fraction if it lies in the predicate's domain (an open end
    excludes its endpoint); ValueError otherwise."""
    z = rational(z)
    lo, hi, lo_open, hi_open = default_scan_range(predicate, params)
    if (z <= lo if lo_open else z < lo) or (z >= hi if hi_open else z > hi):
        raise ValueError(f"z={z} is outside the {_domain_text(predicate, params)}")
    return z


def _domain_text(predicate: str, params: GpiParams) -> str:
    lo, hi, lo_open, hi_open = default_scan_range(predicate, params)
    return f"{predicate} domain {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"


def scan(
    predicate: str,
    params: GpiParams,
    z_lo: RationalLike | None = None,
    z_hi: RationalLike | None = None,
    grid_n: int = 101,
    map_fn: Callable[[Callable, list], Iterable] = map,
) -> CheckReport:
    """Evaluate a named predicate at grid_n exact rational points.

    Grid points are z_lo + k (z_hi - z_lo)/(grid_n - 1); open endpoints are
    nudged inward by (z_hi - z_lo)/(10 grid_n), and the effective endpoints
    are recorded in the report.  Overrides of z_lo/z_hi may only narrow the
    predicate's domain: an effective endpoint outside it raises ValueError,
    and so does a predicate whose domain is empty for the pair.
    ``map_fn(fn, zs)`` evaluates the points and must return the results in
    the order of ``zs``; a process pool may stand in for the default serial
    ``map``.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    d_lo, d_hi, lo_open, hi_open = default_scan_range(predicate, params)
    if not d_lo < d_hi:
        raise ValueError(
            f"every z is outside the {_domain_text(predicate, params)}, which is "
            f"empty for m2={params.m2}, m3={params.m3}"
        )
    z_lo = d_lo if z_lo is None else rational(z_lo)
    z_hi = d_hi if z_hi is None else rational(z_hi)
    if not z_lo < z_hi:
        raise ValueError("need z_lo < z_hi")
    nudge = (z_hi - z_lo) / (10 * grid_n)
    lo_eff = check_domain(predicate, params, z_lo + nudge if lo_open else z_lo)
    hi_eff = check_domain(predicate, params, z_hi - nudge if hi_open else z_hi)
    step = (hi_eff - lo_eff) / (grid_n - 1)
    zs = [lo_eff + k * step for k in range(grid_n)]
    point = partial(_scan_point, predicate, params)
    points: list[dict] = []
    first_failure = None
    counts = {HOLDS: 0, FAILS: 0, INDETERMINATE: 0}
    for z, (verdict, value) in zip(zs, map_fn(point, zs)):
        counts[verdict] += 1
        entry = {"z": z, "verdict": verdict, "value": value}
        points.append(entry)
        if verdict == FAILS and first_failure is None:
            first_failure = entry
    return CheckReport(
        name=f"scan:{predicate}:m2={params.m2},m3={params.m3}",
        status=FAILS if counts[FAILS] else HOLDS,
        witnesses=[first_failure] if first_failure else [],
        metadata={
            "points": points,
            "counts": counts,
            "z_lo": lo_eff,
            "z_hi": hi_eff,
            "nudge": nudge,
            "grid_n": grid_n,
        },
    )


def _scan_point(predicate: str, params: GpiParams, z: Fraction):
    """(verdict, value) of a predicate at a point of its domain: the value is
    alpha(z) when beta = 0 (S(z) for ``hfri``) and otherwise the exact sign
    (1, -1 or 0) of alpha(z) + beta(z) sqrt(D(z)); the predicate holds iff
    the value is positive."""
    alpha, beta, d = margin_polys(predicate, params)
    point = {"z": z}
    value = alpha.eval(point)
    if beta:
        value = sign_sqrt(value, beta.eval(point), d.eval(point))
    return (HOLDS if value > 0 else FAILS), value


# ----------------------------------------------------------------------
# real-exponent path
# ----------------------------------------------------------------------


def _real_margin_status(margin: float) -> str:
    """Verdict of a float margin: within REAL_MARGIN_GUARD of zero it is not
    trusted and reads indeterminate; a non-finite margin raises ValueError."""
    if not math.isfinite(margin):
        raise ValueError(f"the float margin is {margin}: the inputs overflow the float range")
    if margin > REAL_MARGIN_GUARD:
        return HOLDS
    if margin < -REAL_MARGIN_GUARD:
        return FAILS
    return INDETERMINATE


def check_gpi_real(rp: RealGpiParams, a: float, x: float) -> CheckReport:
    """Float margin of the real-exponent product inequality:

        a^2 (y3+1) F(-y3/2-1, -y2/2; 1/2; x^2)
        + (y2+1) F(-y3/2, -y2/2-1; 1/2; x^2)
        + 2 a x (y3+1)(y2+1) F(-y3/2, -y2/2; 3/2; x^2)
        - (a^2 + 1 + 2 a x)

    Requires |x| < 1 (series convergence); margins within REAL_MARGIN_GUARD of
    zero are reported indeterminate rather than trusted.
    """
    if not abs(x) < 1:
        raise ValueError("check_gpi_real requires |x| < 1")
    if not math.isfinite(a):
        raise ValueError("check_gpi_real requires a finite a")
    y2, y3 = rp.y2, rp.y3
    z = x * x
    margin = (
        a * a * (y3 + 1.0) * gauss_hyp_real(-y3 / 2.0 - 1.0, -y2 / 2.0, 0.5, z)
        + (y2 + 1.0) * gauss_hyp_real(-y3 / 2.0, -y2 / 2.0 - 1.0, 0.5, z)
        + 2.0 * a * x * (y3 + 1.0) * (y2 + 1.0) * gauss_hyp_real(-y3 / 2.0, -y2 / 2.0, 1.5, z)
        - (a * a + 1.0 + 2.0 * a * x)
    )
    return CheckReport(
        name=f"gpi-real:y2={rp.y2},y3={rp.y3},a={a},x={x}",
        status=_real_margin_status(margin),
        margin=margin,
        metadata={"series_tol": 1e-12, "guard": REAL_MARGIN_GUARD},
    )


def h_real(rp: RealGpiParams, z: float) -> float:
    """Real-exponent analogue of the bound function H, in floats:

        [ (y2+y3+2)/2 (rz-1) + sqrt( ((y3-y2)(rz-1))^2/4 + (y2+1)^3 (y3+1)^3 z ) ]
        / (r^2 z - 1)
    """
    r = rp.r
    if not r * r * z - 1.0 > 0.0:
        raise ValueError("h_real requires z > 1/r^2")
    disc = ((rp.y3 - rp.y2) * (r * z - 1.0)) ** 2 / 4.0 + (rp.y2 + 1.0) ** 3 * (
        rp.y3 + 1.0
    ) ** 3 * z
    return ((rp.y2 + rp.y3 + 2.0) / 2.0 * (r * z - 1.0) + math.sqrt(disc)) / (
        r * r * z - 1.0
    )


def check_mri_real(rp: RealGpiParams, x: float) -> CheckReport:
    """Real-exponent moment-ratio inequality at correlation x (unit variances):

        |x| F(-y2/2, -y3/2; 3/2; x^2) / F(-y2/2, -y3/2; 1/2; x^2)
        <=  |x|                 if x^2 <= t
        <=  H(x^2) |x|          otherwise
    """
    if not abs(x) < 1:
        raise ValueError("check_mri_real requires |x| < 1")
    z = x * x
    f1 = gauss_hyp_real(-rp.y2 / 2.0, -rp.y3 / 2.0, 0.5, z)
    f2 = gauss_hyp_real(-rp.y2 / 2.0, -rp.y3 / 2.0, 1.5, z)
    lhs = abs(x) * f2 / f1
    if z <= rp.t:
        bound = abs(x)
        branch = "covariance"
    else:
        bound = h_real(rp, z) * abs(x)
        branch = "ratio-bound"
    margin = bound - lhs
    return CheckReport(
        name=f"mri-real:y2={rp.y2},y3={rp.y3},x={x}",
        status=_real_margin_status(margin),
        margin=margin,
        witnesses=[{"x": x, "branch": branch, "lhs": lhs, "bound": bound}],
        metadata={"series_tol": 1e-12, "guard": REAL_MARGIN_GUARD},
    )


def find_mri_real_violation(rp: RealGpiParams, steps: int = 100) -> CheckReport:
    """Search x = k/steps (k = steps-1..1, descending) for a real-exponent
    ratio-bound violation."""
    for k in range(steps - 1, 0, -1):
        x = k / steps
        report = check_mri_real(rp, x)
        if report.status == FAILS:
            return CheckReport(
                name=f"mri-real-violation:y2={rp.y2},y3={rp.y3}",
                status=HOLDS,
                witnesses=[{"x": x, "margin": report.margin}],
                metadata={"found": True, "grid_steps": steps},
            )
    return CheckReport(
        name=f"mri-real-violation:y2={rp.y2},y3={rp.y3}",
        status=FAILS,
        metadata={"found": False, "grid_steps": steps},
    )
