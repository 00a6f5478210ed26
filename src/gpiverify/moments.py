"""Bivariate Gaussian product moments.

An integer-exponent moment of a unit-variance Gaussian pair is a polynomial
in the correlation x, built exactly two independent ways: the closed forms
(:func:`closed_form_poly`, from F(-m2, -m3; 1/2 or 3/2; x^2)) and the
Stein/pairing recursion (:func:`wick_poly`).  Their agreement is a polynomial
identity, so it holds at every correlation.  A moment at a correlation x is
the polynomial's value at x (:meth:`MultiPoly.eval`); the commands need no
other pair, and the homogenization to any variances and covariance lives in
tests/reference.py.

A real-exponent moment E[g(X2) h(X3)] of a unit-variance pair is one
:class:`MomentExponents` request (p, q, signed) at a float correlation x:
:func:`real_moment` is its closed form in floating point, from the Gauss
series, and :func:`polar_moment` its quadrature in polar coordinates, the
independent deterministic oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

from .exactnum import InputError, RationalLike, rational
from .gausshyp import HALF, THREE_HALVES, hyp_poly
from .polyring import MultiPoly


class GaussianPair:
    """Centered bivariate Gaussian law: variances and covariance, all rational.

    Nondegenerate (positive variances); |correlation| <= 1 with equality
    permitted.
    """

    __slots__ = ("var2", "var3", "cov")

    def __init__(self, var2: RationalLike, var3: RationalLike, cov: RationalLike):
        self.var2 = rational(var2)
        self.var3 = rational(var3)
        self.cov = rational(cov)
        if self.var2 <= 0 or self.var3 <= 0:
            raise InputError("variances must be positive")
        if self.cov * self.cov > self.var2 * self.var3:
            raise InputError("covariance violates |corr| <= 1")

    @staticmethod
    def unit(cov: RationalLike) -> "GaussianPair":
        return GaussianPair(Fraction(1), Fraction(1), rational(cov))

    @property
    def corr_sq(self) -> Fraction:
        """Squared correlation, exactly rational."""
        return self.cov * self.cov / (self.var2 * self.var3)


def double_factorial_odd(m: int) -> int:
    """(2m-1)!! as an exact integer; (-1)!! = 1."""
    if m < 0:
        raise ValueError("double_factorial_odd requires m >= 0")
    result = 1
    for i in range(1, m + 1):
        result *= 2 * i - 1
    return result


def wick_poly(p: int, q: int) -> MultiPoly:
    """E[X2^p X3^q] of a unit-variance pair as a polynomial in x, by the
    pairing recursion M(i, j) = (i-1) M(i-2, j) + j x M(i-1, j-1) with
    M(0, j) = (j-1)!! for even j; independent of hyp_poly.  Built bottom-up
    as integer coefficient lists, column j holding the rows i <= p - (q - j)."""
    if p < 0 or q < 0:
        raise ValueError("exponents must be >= 0")
    prev: list[list[int]] = []  # column j - 1
    for j in range(q + 1):
        col = [[double_factorial_odd(j // 2)] if j % 2 == 0 else []]
        for i in range(1, p - (q - j) + 1):
            # (i-1) M(i-2, j): the same column; j x M(i-1, j-1): the previous one
            same = [(i - 1) * c for c in col[i - 2]] if i >= 2 else []
            shifted = [0] + [j * c for c in prev[i - 1]] if j and prev[i - 1] else []
            col.append([a + b for a, b in zip_longest(same, shifted, fillvalue=0)])
        prev = col
    return MultiPoly(("x",), {(k,): c for k, c in enumerate(prev[p])})


def closed_form_poly(m2: int, m3: int, odd: bool) -> MultiPoly:
    """E[X2^(2m2+odd) X3^(2m3+odd)] of a unit-variance pair as a polynomial in
    x: (2m2-1)!! (2m3-1)!! F(-m2, -m3; 1/2; x^2), or when odd
    (2m2+1)!! (2m3+1)!! x F(-m2, -m3; 3/2; x^2)."""
    if m2 < 0 or m3 < 0:
        raise ValueError("exponent indices must be >= 0")
    f = hyp_poly(m2, m3, THREE_HALVES if odd else HALF)
    scale = double_factorial_odd(m2 + odd) * double_factorial_odd(m3 + odd)
    return MultiPoly(("x",), {(2 * j + odd,): n * scale for (j,), n in f.nums.items()}, f.den)


# ----------------------------------------------------------------------
# real-exponent floating-point path
# ----------------------------------------------------------------------

SERIES_TOL = 1e-12
SERIES_CAP = 10_000_000  # terms
CORR_CAP = 0.999


def gauss_hyp_real(a: float, b: float, c: float, z: float) -> float:
    """Gauss series F(a, b; c; z) for real parameters, |z| < 1.

    Terminates when a geometric tail bound certifies the remainder below
    SERIES_TOL; if either of a, b is a nonpositive integer the series is finite
    and summed exactly.  A partial sum that leaves the float range raises
    InputError, and so does an infinite series whose tail bound cannot apply
    within SERIES_CAP terms (|z| too close to 1, or |a|, |b| too large).
    """
    if not abs(z) < 1:
        raise ValueError("series evaluation requires |z| < 1")
    if c <= 0 and c == int(c):
        raise ValueError("c must not be a nonpositive integer")
    series = f"the series F({a}, {b}; {c}; {z})"
    if not any(p <= 0 and p == int(p) for p in (a, b)):
        # q = |z| (1 + |a|/j)(1 + |b|/j) < 1 only past the positive root of
        # (1 - |z|) j^2 - |z| (|a| + |b|) j - |z| |ab|
        w, s = abs(z), abs(a) + abs(b)
        root = (w * s + math.sqrt((w * s) ** 2 + 4 * (1 - w) * w * abs(a * b))) / (2 * (1 - w))
        if root >= SERIES_CAP:
            raise InputError(
                f"{series} needs about {root:.3g} terms before its tail bound applies,"
                f" more than {SERIES_CAP}: |z| is too close to 1 or |a|, |b| too large"
            )
    term = 1.0
    total = 1.0
    j = 0
    # index after which numerator factors keep a fixed sign
    settle = max(-a, -b, 0.0)
    while True:
        ratio = (a + j) * (b + j) / ((c + j) * (j + 1.0))
        term *= ratio * z
        j += 1
        if term == 0.0:
            return total
        total += term
        if not math.isfinite(total):
            raise InputError(f"{series} overflows the float range")
        if j > settle:
            q = abs(z) * (1.0 + abs(a) / j) * (1.0 + abs(b) / j)
            if q < 1.0 and abs(term) * q / (1.0 - q) < SERIES_TOL:
                return total
        if j > SERIES_CAP:
            raise InputError(f"{series} did not converge within {SERIES_CAP} terms")


class MomentExponents(NamedTuple):
    """A real-exponent moment E[g(X2) h(X3)] of a unit-variance pair, with
    g(x) = |x|^p and h(x) = |x|^q, each times sign x when signed."""

    p: float
    q: float
    signed: bool = False


def _check_request(exps: MomentExponents, x: float) -> None:
    """ValueError unless both real-exponent paths evaluate ``exps`` at the
    correlation x."""
    if min(exps.p, exps.q) < 0:
        raise ValueError("exponents must be >= 0")
    if not abs(x) <= CORR_CAP:  # also rejects NaN
        raise ValueError(f"|corr| capped at {CORR_CAP} in the float path")


def real_moment(exps: MomentExponents, x: float) -> float:
    """Closed form of the moment ``exps`` at the correlation |x| <= CORR_CAP,
    to series tolerance:

        unsigned:  2^((p+q)/2) Gamma((p+1)/2) Gamma((q+1)/2) / pi
                   * F(-p/2, -q/2; 1/2; x^2)
        signed:    x 2^((p+q)/2 + 1) Gamma(p/2 + 1) Gamma(q/2 + 1) / pi
                   * F((1-p)/2, (1-q)/2; 3/2; x^2)
    """
    p, q, signed = exps
    _check_request(exps, x)
    z = x * x
    if signed:
        scale = (
            2.0 ** ((p + q) / 2.0 + 1.0) * math.gamma(p / 2.0 + 1.0) * math.gamma(q / 2.0 + 1.0)
            / math.pi
        )
        return x * scale * gauss_hyp_real((1.0 - p) / 2.0, (1.0 - q) / 2.0, 1.5, z)
    scale = (
        2.0 ** ((p + q) / 2.0) * math.gamma((p + 1.0) / 2.0) * math.gamma((q + 1.0) / 2.0) / math.pi
    )
    return scale * gauss_hyp_real(-p / 2.0, -q / 2.0, 0.5, z)


QUAD_STEP = 1 / 32  # step of the tanh-sinh rule in t
QUAD_T_MAX = 3.5  # last node: its weight is below 1e-20 of the largest


def _tanh_sinh(f, a: float, b: float) -> float:
    """The integral of f over [a, b] by the tanh-sinh rule: the nodes are
    a + (b - a) / (1 + exp(-2u)) with u = (pi/2) sinh t, for t on the grid of
    step QUAD_STEP in [-QUAD_T_MAX, QUAD_T_MAX].  They crowd double
    exponentially toward both ends, so an end may hold a singularity of f or
    the centre of a narrow peak."""
    n = round(QUAD_T_MAX / QUAD_STEP)
    total = 0.0
    for k in range(-n, n + 1):
        t = k * QUAD_STEP
        u = math.pi / 2 * math.sinh(t)
        total += math.cosh(t) / math.cosh(u) ** 2 * f(a + (b - a) / (1.0 + math.exp(-2.0 * u)))
    return total * QUAD_STEP * (b - a) * math.pi / 4


def polar_moment(exps: MomentExponents, x: float) -> float:
    """The moment ``exps`` at the correlation |x| <= CORR_CAP, by quadrature;
    it shares no formula with real_moment.

    In polar coordinates the radial integral is a Gamma function, and the
    four quadrants fold onto the first.  With s = p + q + 2 the moment is

        Gamma(s/2) 2^(s/2) / (2 pi sqrt(1 - x^2)) * integral over [0, pi/2] of
        cos^p t sin^q t ([(1-x^2) / (1 - x sin 2t)]^(s/2)
                         +- [(1-x^2) / (1 + x sin 2t)]^(s/2)) dt,

    with - when the request is signed and + when it is not.  As |x| nears
    1, one of the two terms peaks ever more narrowly at t = pi/4, so the
    integral is split there and each half puts the peak at one of its ends.
    """
    p, q, signed = exps
    _check_request(exps, x)
    c = 1.0 - x * x
    half_s = (p + q + 2.0) / 2.0
    sign = -1.0 if signed else 1.0

    def integrand(t: float) -> float:
        w = x * math.sin(2.0 * t)
        kernel = (c / (1 - w)) ** half_s + sign * (c / (1 + w)) ** half_s
        return math.cos(t) ** p * math.sin(t) ** q * kernel

    quarter = math.pi / 4
    integral = _tanh_sinh(integrand, 0.0, quarter) + _tanh_sinh(integrand, quarter, 2 * quarter)
    return math.gamma(half_s) * 2.0**half_s / (2.0 * math.pi * math.sqrt(c)) * integral
