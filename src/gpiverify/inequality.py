"""Inequality objects and predicates for the product-moment verification.

This module defines each object of the proof once, exactly where possible;
the real-exponent checks take the same definitions at floats, y = 2m:

* r = (y2 + 1)(y3 + 1) + 1 (r_of), the threshold t (r_and_t), the covered
  set (from h_offset), and the bound H(z) = (M + sqrt(D))/den, whose parts
  M, the radicand D and den every use of H, exact or float, takes from h_parts;
* the positivity polynomial S(z) (S_poly, for an int or polynomial m3) whose
  strict positivity implies the hypergeometric-ratio inequality (HFRI);
* the bivariate polynomials h_1 .. h_7 obtained from S by the substitutions
  m3 -> b^2 + h_offset(m2) and z -> c^2/(1+c^2);
* the truncated three-variable polynomial f and its positified form g under
  u -> (11/4) c^2/(1+c^2), x2 -> a^2 + 8, x3 -> b^2 + 8;
* the inequality predicates at one point (check_point) or on a grid (scan).

The point checks of the product inequality (GPI) and the moment-ratio
inequality (MRI) evaluate moments, so they live in ``checks``, which takes
these objects from here.  This module imports neither ``checks`` nor
``moments``, so a scan loads neither.

Every predicate is decided exactly.  Each holds at z iff
alpha(z) + beta(z) sqrt(D(z)) > 0, where alpha, beta and the radicand D of H
are polynomials in z that a scan or a point check builds once and passes on
(margin_polys; beta is 0 for the HFRI polynomial S).  The module keeps no
memo: a value that one call uses twice, like a predicate's alpha, beta and D
in a scan, is built once and passed down.  There is one margin per inequality:
G is written from f1, f2 and H, and the two derivative-side predicates share
one margin on their two domains.  A scan's grid is z_k = (A + k B)/C with
ints A, B and C > 0, so once per scan these become integer polynomials in
the grid index k (_index_polys, by polyring.affine_form), and a point is
decided at its int k by Horner evaluation and sign_sqrt, which compares
alpha^2 with beta^2 D (_scan_point).  For beta != 0 the margin can change
sign only at a root of Q = alpha^2 - beta^2 D, so a scan first decides
whole runs of points from one endpoint each, wherever Descartes' rule of
signs shows that Q has no root (_certified_points, by
polyring.descartes_variations), and decides only the other points one by
one, in the same process.  A point check is the one-point grid A/C = z,
B = 0.  The interval enclosure H_value gives the bound shown beside an MRI
verdict (checks.check_mri), which it does not decide; the enclosure of G
that the tests compare the g-negative signs against lives in
tests/reference.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exactnum import (
    InputError,
    RationalInterval,
    RationalLike,
    rational,
    sign_sqrt,
    sqrt_enclosure,
)
from .gausshyp import HALF, THREE_HALVES, hyp_poly
from .polyring import MultiPoly, affine_form, descartes_variations, horner
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


def h_offset(m2: int) -> int:
    """The least m3 of h_{m2}, which substitutes m3 = b^2 + h_offset(m2)."""
    if m2 == 1:
        return 5
    if m2 == 2:
        return 3
    return m2


def in_coverage_set(m2: int, m3: int) -> bool:
    """Membership in the covered set, order-insensitive: (1, >=5), (2, >=3)
    and all pairs with both indices >= 3."""
    return max(m2, m3) >= h_offset(min(m2, m3))


def r_of(y2, y3):
    """r = (y2 + 1)(y3 + 1) + 1, for numbers or polynomials; (m2, m3) has y = 2m."""
    return (y2 + 1) * (y3 + 1) + 1


def r_and_t(y2, y3):
    """(r, t = 1/(r + (1 + 1/y2)(1 + 1/y3))) of exact or float y2, y3 > 0."""
    r = r_of(y2, y3)
    return r, 1 / (r + (1 + 1 / y2) * (1 + 1 / y3))


class GpiParams(NamedTuple):
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
        raise InputError("make_params requires m2, m3 >= 1")
    r, t = r_and_t(Fraction(2 * m2), Fraction(2 * m3))
    if not (1 / (r * r) < t < 1 / r):
        raise AssertionError(f"parameter identity 1/r^2 < t < 1/r failed for ({m2},{m3})")
    return GpiParams(m2, m3, r, t, in_coverage_set(m2, m3))


class RealGpiParams(NamedTuple):
    """Float parameter bundle for real exponents y2, y3 > 0; at y = 2m it
    has the r, t, msum and mdiff_sq of GpiParams."""

    y2: float
    y3: float
    r: float
    t: float

    @property
    def msum(self) -> float:
        return (self.y2 + self.y3 + 2.0) / 2.0

    @property
    def mdiff_sq(self) -> float:
        return (self.y3 - self.y2) ** 2 / 4.0


def make_real_params(y2: float, y3: float) -> RealGpiParams:
    if not (0 < y2 < math.inf and 0 < y3 < math.inf):  # also rejects NaN
        raise InputError("make_real_params requires finite y2, y3 > 0")
    r, t = r_and_t(y2, y3)
    if not math.isfinite(r):
        raise InputError("make_real_params requires a finite r = (y2 + 1)(y3 + 1) + 1")
    return RealGpiParams(y2, y3, r, t)


# ----------------------------------------------------------------------
# the bound function H
# ----------------------------------------------------------------------


def h_parts(params: GpiParams | RealGpiParams, z):
    """(M, D, den) with H(z) = (M + sqrt(D))/den, for a rational z, the
    polynomial variable z, or a float z and RealGpiParams: M = (m2+m3+1)(rz - 1),
    the radicand D = ((m3 - m2)(rz - 1))^2 + (r - 1)^3 z and den = r^2 z - 1,
    which is positive on H's domain 1/r^2 < z <= 1."""
    r = params.r
    rz1 = r * z - 1
    return params.msum * rz1, params.mdiff_sq * rz1**2 + (r - 1) ** 3 * z, r * r * z - 1


def _check_h_domain(params: GpiParams, z: Fraction) -> None:
    if not (1 / (params.r * params.r) < z <= 1):
        raise ValueError(f"H is defined for 1/r^2 < z <= 1; got z={z}")


def H_value(
    params: GpiParams, z: RationalLike, width: RationalLike = DEFAULT_WIDTH
) -> RationalInterval:
    """Rigorous enclosure of H(z) of at most the requested width: the ends
    (M + lo)/den and (M + hi)/den of an enclosure [lo, hi] of sqrt(D(z)),
    with M, D and den > 0 from h_parts."""
    z = rational(z)
    _check_h_domain(params, z)
    m, d, den = h_parts(params, z)
    root = sqrt_enclosure(d, rational(width) * den)
    return RationalInterval((root.lo + m) / den, (root.hi + m) / den)


def H_at_one(params: GpiParams) -> Fraction:
    """H(1) = 2 (m2 + m3 + 1) / (r + 1), exact."""
    return 2 * params.msum / (params.r + 1)


# ----------------------------------------------------------------------
# the positivity polynomial S and the bivariate h family
# ----------------------------------------------------------------------


def _s_combination(f1, f2, z, r, msum, one=1) -> Fraction | MultiPoly:
    """(r-1)(one-z) f1^2 + 2 msum (rz-one) f1 f2 - (r^2 z - one) f2^2.

    Every argument may be a number or a polynomial: S(z) itself takes the
    values of f1 and f2 at a rational z; ``one`` homogenizes the form (the
    truncated f passes x2 x3 with z = u)."""
    return (
        (f1 * f1) * ((r - 1) * (one - z))
        + (f1 * f2) * (2 * msum * (r * z - one))
        - (f2 * f2) * (r * r * z - one)
    )


def S_poly(m2: int, m3: int | MultiPoly) -> MultiPoly:
    """Cleared-denominator positivity polynomial in z, degree 2 m2 + 1:

        (r-1)(1-z) f1^2 + 2 (m2+m3+1)(rz-1) f1 f2 - (r^2 z - 1) f2^2

    with f1 = F(-m2, -m3; 1/2; z) and f2 = F(-m2, -m3; 3/2; z).  Its strict
    positivity on (1/r^2, 1) is equivalent to the ratio inequality
    f1/f2 > 1/H there.  A polynomial m3 gives a polynomial in z and m3's
    variables that specializes to S at every integer m3 >= 1.
    """
    return _s_combination(
        hyp_poly(m2, m3, HALF), hyp_poly(m2, m3, THREE_HALVES), MultiPoly.var("z"),
        r_of(2 * m2, 2 * m3), m3 + (m2 + 1),
    )


def h_poly(m2: int) -> MultiPoly:
    """Bivariate polynomial h_{m2}(b, c) = (1+c^2)^(2 m2 + 1) * S(z)
    under m3 = b^2 + offset and z = c^2/(1+c^2), for any m2 >= 1; the bundled
    certificates prove it positive for all real b, c at each m2 they cover.
    """
    if m2 < 1:
        raise InputError("h_poly is defined for m2 >= 1")
    b = MultiPoly.var("b")
    s_b = S_poly(m2, b * b + h_offset(m2))
    return s_b.substitute("z", "c", 0, 1, clear=2 * m2 + 1)


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

    return _s_combination(
        bracket(odd=False), bracket(odd=True), u, r_of(2 * x2, 2 * x3), x2 + x3 + 1, one=x2x3
    )


def g_poly() -> MultiPoly:
    """g(a, b, c) = (1+c^2)^9 f(a^2+8, b^2+8, (11/4) c^2/(1+c^2)): an
    everywhere-positive polynomial with only even exponents whose coefficient
    nonnegativity certifies the truncated inequality on its whole domain."""
    g = f_truncated_poly().substitute("x2", "a", 8, 1).substitute("x3", "b", 8, 1)
    return g.substitute("u", "c", 0, TRUNCATION_BOUND, clear=9)


# ----------------------------------------------------------------------
# the difference function G for the large-parameter case
# ----------------------------------------------------------------------


def _f1_f2(params: GpiParams) -> tuple[MultiPoly, MultiPoly]:
    """f1 = F(-m2, -m3; 1/2; z) and f2 = F(-m2, -m3; 3/2; z), polynomials in z."""
    return hyp_poly(params.m2, params.m3, HALF), hyp_poly(params.m2, params.m3, THREE_HALVES)


def G_at_one(params: GpiParams) -> Fraction:
    """G(1), exact: (2 m3 + 1)(f2(1) - H(1) f1(1)), with f1 = F(-m2, -m3; 1/2; z)
    and f2 = F(-m2, -m3; 3/2; z)."""
    f1, f2 = (f.eval({"z": 1}) for f in _f1_f2(params))
    return (2 * params.m3 + 1) * (f2 - H_at_one(params) * f1)


# ----------------------------------------------------------------------
# scan predicates
# ----------------------------------------------------------------------
#
# Each predicate holds at z iff alpha(z) + beta(z) sqrt(D(z)) > 0, where
# margin_polys builds alpha, beta and D as polynomials in z.  A scan or a
# point check calls it once and passes (alpha, beta, D) on to _index_polys
# and _certified_points.  With M, D and den > 0 from h_parts and s = sqrt(D):
#
#     H = (M + s)/den,    H^2 = (M^2 + D + 2 M s)/den^2,
#     H' = [r (r-1)(m2+m3+1) + P s/(2 D)]/den^2,
#
# with P = 2 (m3-m2)^2 r (r-1)(rz - 1) - (r-1)^3 (1 + r^2 z).  G is
# (2 m3 + 1) z (f2 - H f1), since F(-m2-1, -m3; 1/2; z) = (1-z) f1
# + (2 m3 + 1) z f2, so -G den = (2 m3 + 1) z (f1 (M + s) - f2 den).  The
# derivative-side condition times den^2 D is s (alpha + beta s) below, so
# its direct form and its radical-isolated form have one margin.


def margin_polys(predicate: str, params: GpiParams) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(alpha, beta, D) of a predicate, as polynomials in z.  The margins:
    S for ``hfri`` (beta = 0); (H - c) den for ``h-half``/``h-seventh``;
    -G den/((2 m3 + 1) z) = f1 (M + s) - f2 den for ``g-negative``; and for
    ``h-deriv`` and ``h-deriv-reduced``, one condition on two domains, the
    critical-point condition (1-z) + [2(m2+m3+1) z - 1] H < (r-1) z H^2
    + 2 z (1-z) H' as (rhs - lhs) den^2 sqrt(D): the factor D clears the 1/s
    of H', and the positive s is divided out."""
    z = MultiPoly.var("z")
    r, msum = params.r, params.msum
    rm1 = r - 1
    m, d, den = h_parts(params, z)
    if predicate == "hfri":
        alpha, beta = S_poly(params.m2, params.m3), MultiPoly.zero(z.vars)
    elif predicate in H_THRESHOLDS:
        alpha = m - H_THRESHOLDS[predicate] * den
        beta = MultiPoly.const(1, z.vars)
    elif predicate == "g-negative":
        f1, f2 = _f1_f2(params)
        alpha, beta = f1 * m - f2 * den, f1
    elif predicate in ("h-deriv", "h-deriv-reduced"):
        p = 2 * params.mdiff_sq * r * rm1 * (r * z - 1) - rm1**3 * (1 + r * r * z)
        c = 2 * msum * z - 1
        alpha = (2 * rm1 * z * m - c * den) * d + z * (1 - z) * p
        beta = (
            rm1 * z * (m * m + d) + 2 * z * (1 - z) * r * rm1 * msum
            - (1 - z) * den * den - c * den * m
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
    excludes its endpoint); InputError otherwise."""
    z = rational(z)
    lo, hi, lo_open, hi_open = default_scan_range(predicate, params)
    if (z <= lo if lo_open else z < lo) or (z >= hi if hi_open else z > hi):
        raise InputError(f"z={z} is outside the {_domain_text(predicate, params)}")
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
) -> CheckReport:
    """Evaluate a named predicate at grid_n exact rational points.

    Grid points are z_lo + k (z_hi - z_lo)/(grid_n - 1); open endpoints are
    nudged inward by (z_hi - z_lo)/(10 grid_n), and the effective endpoints
    are recorded in the report.  Overrides of z_lo/z_hi may only narrow the
    predicate's domain: one outside its closure [lo, hi] raises InputError
    before any nudge, whatever grid_n is, and so does a predicate whose
    domain is empty for the pair.

    The points are z_k = (A + k B)/C for ints A, B and C > 0, so alpha, beta
    and D (margin_polys, built once) become integer polynomials in the grid
    index k (_index_polys).  The runs of points on which Q = alpha^2 -
    beta^2 D is certified root-free take the verdict of an exactly decided
    endpoint (_certified_points); every other point is decided at its int k
    (_scan_point), in this process.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    d_lo, d_hi, lo_open, hi_open = default_scan_range(predicate, params)
    if not d_lo < d_hi:
        raise InputError(
            f"every z is outside the {_domain_text(predicate, params)}, which is "
            f"empty for m2={params.m2}, m3={params.m3}"
        )
    z_lo = d_lo if z_lo is None else rational(z_lo)
    z_hi = d_hi if z_hi is None else rational(z_hi)
    for name, z in (("z_lo", z_lo), ("z_hi", z_hi)):
        if not d_lo <= z <= d_hi:
            raise InputError(f"{name}={z} is outside the {_domain_text(predicate, params)}")
    if not z_lo < z_hi:
        raise InputError("need z_lo < z_hi")
    # under half of z_hi - z_lo, so both nudged ends stay inside the domain
    nudge = (z_hi - z_lo) / (10 * grid_n)
    lo_eff = z_lo + nudge if lo_open else z_lo
    hi_eff = z_hi - nudge if hi_open else z_hi
    step = (hi_eff - lo_eff) / (grid_n - 1)
    c = math.lcm(lo_eff.denominator, step.denominator)
    a = lo_eff.numerator * (c // lo_eff.denominator)
    b = step.numerator * (c // step.denominator)
    margin = margin_polys(predicate, params)
    polys = _index_polys(margin, a, b, c)
    certified = _certified_points(margin, polys, (a, b, c), grid_n)
    results = [_scan_point(polys, k) if result is None else result
               for k, result in enumerate(certified)]
    points: list[dict] = []
    first_failure = None
    counts = {HOLDS: 0, FAILS: 0, INDETERMINATE: 0}
    for k, (verdict, value) in enumerate(results):
        counts[verdict] += 1
        entry = {"z": Fraction(a + k * b, c), "verdict": verdict, "value": value}
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


class _IndexPolys(NamedTuple):
    """A predicate's margin on the grid z = (a + k b)/c, as integer
    polynomials in k (coefficient lists for horner)."""

    alpha: list[int]
    beta: list[int]  # empty when the predicate's beta is 0
    radicand: list[int]
    scale: int  # alpha(k)/scale is the margin when beta is empty


def _index_polys(margin: tuple[MultiPoly, ...], a: int, b: int, c: int) -> _IndexPolys:
    """A margin_polys margin on the grid z = (a + k b)/c, as polynomials in k.

    affine_form gives alpha = qa/sa, beta = qb/sb and D = qd/sd with positive
    int scales; multiplying alpha + beta sqrt(D) by sa sb sd/g, where
    g = gcd(sa, sb sd), folds the scales into the coefficients:
    (sb sd/g) qa + (sa/g) qb sqrt(sd qd) has the margin's sign."""
    alpha, beta, d = margin
    qa, sa = affine_form(alpha, a, b, c)
    if not beta:
        return _IndexPolys(qa, [], [], sa)
    qb, sb = affine_form(beta, a, b, c)
    qd, sd = affine_form(d, a, b, c)
    g = math.gcd(sa, sb * sd)
    fa, fb = sb * sd // g, sa // g
    return _IndexPolys([q * fa for q in qa], [q * fb for q in qb], [q * sd for q in qd], 1)


def _certified_points(
    margin: tuple[MultiPoly, ...], polys: _IndexPolys, grid: tuple[int, int, int], n: int
) -> list:
    """The (verdict, value) of each grid index k < n that a root-freeness
    certificate decides, and None for each one left to _scan_point; ``polys``
    is _index_polys of ``margin`` on ``grid``.

    alpha + beta sqrt(D) can vanish only where Q = alpha^2 - beta^2 D does.
    So where D is positive and Q has no root, the margin keeps one sign, and
    one exactly decided point with a nonzero value gives it.  With Q as an
    integer polynomial in k (affine_form on the grid ``(a, b, c)``), a piece
    [lo, hi] of the index range whose Q has no sign variations
    (descartes_variations) takes the (verdict, value) of its endpoints,
    decided by _scan_point, for its interior.  A piece with variations, or
    whose endpoints are both zeros of the margin, splits at its midpoint.  A
    piece whose interior holds at most deg Q points is left to the per-point
    path: one variation count costs about as much as deg Q point
    evaluations.  deg Q is taken as max(2 deg alpha, 2 deg beta + deg D),
    known before Q is built, so a grid too small for any piece builds none.
    ``hfri`` (beta = 0) and a Q that vanishes identically leave every point
    to the per-point path."""
    results: list = [None] * n
    degree = max(2 * (len(polys.alpha) - 1), 2 * (len(polys.beta) - 1) + len(polys.radicand) - 1)
    if not polys.beta or n - 2 <= degree:
        return results
    alpha, beta, d = margin
    q, _ = affine_form(alpha * alpha - beta * beta * d, *grid)
    radicand = polys.radicand
    if (not q or descartes_variations(radicand, 0, n - 1)
            or min(horner(radicand, 0), horner(radicand, n - 1)) <= 0):
        return results
    pieces = [(0, n - 1)]
    while pieces:
        lo, hi = pieces.pop()
        if hi - lo - 1 <= degree:
            continue
        if not descartes_variations(q, lo, hi):
            for k in (lo, hi):
                if results[k] is None:
                    results[k] = _scan_point(polys, k)
            signed = [results[k] for k in (lo, hi) if results[k][1]]
            if signed:
                results[lo + 1:hi] = [signed[0]] * (hi - lo - 1)
                continue
        mid = (lo + hi) // 2
        pieces += [(mid, hi), (lo, mid)]
    return results


def _scan_point(polys: _IndexPolys, k: int):
    """(verdict, value) of a predicate at the grid point of index k: the value
    is alpha(z_k) when beta = 0 (S(z_k) for ``hfri``) and otherwise the exact
    sign (1, -1 or 0) of alpha(z_k) + beta(z_k) sqrt(D(z_k)); the predicate
    holds iff the value is positive.  ``polys`` comes from _index_polys.
    A scan calls it for the points that _certified_points leaves, and for the
    endpoints of the runs that it certifies."""
    if not polys.beta:
        value = Fraction(horner(polys.alpha, k), polys.scale)
    else:
        value = sign_sqrt(horner(polys.alpha, k), horner(polys.beta, k), horner(polys.radicand, k))
    return (HOLDS if value > 0 else FAILS), value


def check_point(predicate: str, params: GpiParams, z: RationalLike) -> CheckReport:
    """A scan predicate at one point of its domain (InputError outside it),
    decided as the one point k = 0 of the grid z_k = z; the margin is the
    scan point's value."""
    z = check_domain(predicate, params, z)
    polys = _index_polys(margin_polys(predicate, params), z.numerator, 0, z.denominator)
    status, value = _scan_point(polys, 0)
    return CheckReport(
        name=f"{predicate}:m2={params.m2},m3={params.m3},z={z}",
        status=status,
        margin=value,
        metadata={"method": "exact rational"},
    )
