"""Bivariate Gaussian product moments.

An integer-exponent moment of a unit-variance Gaussian pair is a polynomial
in the correlation x, built exactly two independent ways: the closed forms
(:func:`closed_form_poly`, from F(-m2, -m3; 1/2 or 3/2; x^2)) and the
Stein/pairing recursion (:func:`wick_poly`).  Their agreement is a polynomial
identity, so it holds at every correlation.  A moment at a correlation x is
the polynomial's value at x (:meth:`MultiPoly.eval`); the commands need no
other pair, and the homogenization to any variances and covariance lives in
tests/reference.py.

A real-exponent moment E[g(X2) h(X3)] is named by one
:class:`MomentExponents` request: :func:`real_moment` is its closed form in
floating point, and :func:`mc_moment` its seeded Monte Carlo estimate, the
independent statistical oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

from .exactnum import InputError, RationalLike, rational
from .gausshyp import HALF, THREE_HALVES, hyp_poly
from .polyring import MultiPoly

MC_BLOCK = 2**15  # pairs per block of mc_moment: z1 then z2 for each block
MC_METHOD = (
    "numpy.random.Generator(PCG64(seed)).standard_normal (ziggurat), "
    f"z1 then z2 per block of {MC_BLOCK} pairs"
)


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
    """A real-exponent moment E[g(X2) h(X3)], with g(x) = |x|^p (times sign x
    when signed2) and h(x) = |x|^q (times sign x when signed3)."""

    p: float
    q: float
    signed2: bool = False
    signed3: bool = False


def real_moment(exps: MomentExponents, pair: GaussianPair) -> float:
    """Closed form of the moment ``exps`` of a unit-variance pair with
    correlation |x| <= CORR_CAP, to series tolerance:

        unsigned:     2^((p+q)/2) Gamma((p+1)/2) Gamma((q+1)/2) / pi
                      * F(-p/2, -q/2; 1/2; x^2)
        both signed:  x p q 2^((p+q)/2 - 1) Gamma(p/2) Gamma(q/2) / pi
                      * F((1-p)/2, (1-q)/2; 3/2; x^2)

    The moment with one sign factor has no closed form here (ValueError).
    """
    p, q, signed2, signed3 = exps
    if signed2 != signed3:
        raise ValueError("real_moment needs both sign factors or neither")
    if min(p, q) < 0:
        raise ValueError("exponents must be >= 0")
    if pair.var2 != 1 or pair.var3 != 1:
        raise ValueError("real-exponent moments require unit variances")
    x = float(pair.cov)
    if abs(x) > CORR_CAP:
        raise ValueError(f"|corr| capped at {CORR_CAP} in the float path")
    z = x * x
    if signed2:
        scale = 2.0 ** ((p + q) / 2.0 - 1.0) * math.gamma(p / 2.0) * math.gamma(q / 2.0) / math.pi
        return x * p * q * scale * gauss_hyp_real((1.0 - p) / 2.0, (1.0 - q) / 2.0, 1.5, z)
    scale = (
        2.0 ** ((p + q) / 2.0) * math.gamma((p + 1.0) / 2.0) * math.gamma((q + 1.0) / 2.0) / math.pi
    )
    return scale * gauss_hyp_real(-p / 2.0, -q / 2.0, 0.5, z)


def mc_moment(
    exponents: MomentExponents,
    pair: GaussianPair,
    n: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of the requested product moment.

    Draws n correlated Gaussian pairs from a PCG64 stream seeded with ``seed``
    (method recorded in MC_METHOD); deterministic for fixed (n, seed).  The
    pairs come in blocks of MC_BLOCK (the last block may be partial): each
    block draws its z1 values, then its z2 values, so the block size fixes
    how the two draws interleave in the stream.  A block's x2, x3 and
    g(x2) h(x3) are formed in three block-long float64 arrays, allocated once
    per call, and its sum and sum of squares are added to the totals; memory
    does not depend on n.
    """
    import numpy as np  # only this oracle needs numpy; keep it off the import path

    if n < 2:
        raise ValueError("n must be >= 2: one draw has no standard error")
    p, q, signed2, signed3 = exponents
    rng = np.random.default_rng(seed)
    s2 = math.sqrt(float(pair.var2))
    cond_scale = float(pair.var3 - pair.cov * pair.cov / pair.var2)
    cond_scale = math.sqrt(cond_scale) if cond_scale > 0 else 0.0
    slope = float(pair.cov / pair.var2)
    x2_buf, x3_buf, w_buf = (np.empty(min(MC_BLOCK, n)) for _ in range(3))
    total = 0.0
    total_sq = 0.0
    for lo in range(0, n, MC_BLOCK):
        m = min(MC_BLOCK, n - lo)
        x2, x3, w = x2_buf[:m], x3_buf[:m], w_buf[:m]
        rng.standard_normal(out=x2)  # z1
        x2 *= s2
        rng.standard_normal(out=x3)  # z2
        x3 *= cond_scale
        np.multiply(x2, slope, out=w)
        x3 += w  # x3 = slope x2 + cond_scale z2
        # in-place ** takes the path of ``abs(x) ** p``, numpy's scalar fast
        # paths included (sqrt for 0.5, square for 2): the values are equal
        np.abs(x2, out=w)
        w **= p
        if signed2:
            np.sign(x2, out=x2)
            w *= x2  # w = g(x2)
        if signed3:
            np.sign(x3, out=x2)
        np.abs(x3, out=x3)
        x3 **= q
        if signed3:
            x3 *= x2  # x3 = h(x3)
        np.multiply(w, x3, out=x2)
        total += float(x2.sum())
        x2 *= x2
        total_sq += float(x2.sum())
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    stderr = math.sqrt(var / n)
    return mean, stderr
