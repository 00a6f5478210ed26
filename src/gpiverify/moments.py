"""Bivariate and trivariate Gaussian product moments.

Integer-exponent moments of a centered Gaussian pair are computed exactly two
independent ways:

* closed form: ``E[X2^(2m2) X3^(2m3)]`` equals
  ``(2m2-1)!! (2m3-1)!! Var2^m2 Var3^m3 F(-m2, -m3; 1/2; x^2)`` and the odd
  analogue carries ``(2m2+1)!! (2m3+1)!!`` with a ``3/2`` parameter; the odd
  formula is implemented in the rationalized form
  ``(2m2+1)!!(2m3+1)!! Var2^m2 Var3^m3 Cov F(...)`` so no square roots appear.
* independent oracle: the Stein/pairing recursion
  ``M(p, q) = (p-1) Var2 M(p-2, q) + q Cov M(p-1, q-1)``.

Real (non-integer) exponents get a floating-point path built on the absolute
moment closed forms, plus a seeded Monte Carlo estimator used as an
independent statistical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import RationalLike, rational
from .gausshyp import HALF, THREE_HALVES, hyp_poly

__all__ = [
    "GaussianPair",
    "TripleSpec",
    "MomentExponents",
    "double_factorial_odd",
    "even_moment",
    "odd_moment",
    "wick_moment",
    "triple_even_moment",
    "gauss_hyp_real",
    "abs_moment_real",
    "mixed_abs_moment_real",
    "mc_moment",
]

MC_METHOD = "numpy.random.Generator(PCG64(seed)).standard_normal (ziggurat)"


@dataclass(frozen=True)
class GaussianPair:
    """Centered bivariate Gaussian law: variances and covariance, all rational.

    Nondegenerate (positive variances); |correlation| <= 1 with equality
    permitted.
    """

    var2: Fraction
    var3: Fraction
    cov: Fraction

    def __post_init__(self):
        object.__setattr__(self, "var2", rational(self.var2))
        object.__setattr__(self, "var3", rational(self.var3))
        object.__setattr__(self, "cov", rational(self.cov))
        if self.var2 <= 0 or self.var3 <= 0:
            raise ValueError("variances must be positive")
        if self.cov * self.cov > self.var2 * self.var3:
            raise ValueError("covariance violates |corr| <= 1")

    @staticmethod
    def unit(cov: RationalLike) -> "GaussianPair":
        return GaussianPair(Fraction(1), Fraction(1), rational(cov))

    @property
    def corr_sq(self) -> Fraction:
        """Squared correlation, exactly rational."""
        return self.cov * self.cov / (self.var2 * self.var3)


@dataclass(frozen=True)
class TripleSpec:
    """(X1, X2, X3) with X1 = X2 + a*X3 over a unit-variance pair."""

    pair: GaussianPair
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", rational(self.a))
        if self.pair.var2 != 1 or self.pair.var3 != 1:
            raise ValueError("TripleSpec requires a unit-variance pair")

    @property
    def var1(self) -> Fraction:
        """E[X1^2] = a^2 + 1 + 2 a x."""
        return self.a * self.a + 1 + 2 * self.a * self.pair.cov


def double_factorial_odd(m: int) -> int:
    """(2m-1)!! as an exact integer; (-1)!! = 1."""
    if m < 0:
        raise ValueError("double_factorial_odd requires m >= 0")
    result = 1
    for i in range(1, m + 1):
        result *= 2 * i - 1
    return result


def even_moment(m2: int, m3: int, pair: GaussianPair) -> Fraction:
    """E[X2^(2 m2) X3^(2 m3)], exact."""
    if m2 < 0 or m3 < 0:
        raise ValueError("exponent indices must be >= 0")
    f = hyp_poly(m2, m3, HALF).eval({"z": pair.corr_sq})
    return (
        double_factorial_odd(m2)
        * double_factorial_odd(m3)
        * pair.var2**m2
        * pair.var3**m3
        * f
    )


def odd_moment(m2: int, m3: int, pair: GaussianPair) -> Fraction:
    """E[X2^(2 m2 + 1) X3^(2 m3 + 1)], exact; sign equals the sign of Cov."""
    if m2 < 0 or m3 < 0:
        raise ValueError("exponent indices must be >= 0")
    f = hyp_poly(m2, m3, THREE_HALVES).eval({"z": pair.corr_sq})
    return (
        double_factorial_odd(m2 + 1)
        * double_factorial_odd(m3 + 1)
        * pair.var2**m2
        * pair.var3**m3
        * pair.cov
        * f
    )


def wick_moment(p: int, q: int, pair: GaussianPair) -> Fraction:
    """E[X2^p X3^q] by the pairing recursion; independent of hyp_poly.

    M(p, q) = (p-1) Var2 M(p-2, q) + q Cov M(p-1, q-1), M(0, 0) = 1, and zero
    whenever p + q is odd.  Memoized per call; by symmetry the recursion is
    run on whichever exponent is currently first.
    """
    if p < 0 or q < 0:
        raise ValueError("exponents must be >= 0")
    memo: dict[tuple[int, int], Fraction] = {}

    def rec(i: int, j: int, swapped: bool) -> Fraction:
        # swapped=True means (i, j) index (X3, X2); memo keys are unswapped
        if i < 0 or j < 0:
            return Fraction(0)
        if i == 0 and j == 0:
            return Fraction(1)
        if (i + j) % 2 == 1:
            return Fraction(0)
        if i == 0:
            return rec(j, i, not swapped)
        key = (j, i) if swapped else (i, j)
        got = memo.get(key)
        if got is not None:
            return got
        var_i = pair.var3 if swapped else pair.var2
        value = (i - 1) * var_i * rec(i - 2, j, swapped) + j * pair.cov * rec(
            i - 1, j - 1, swapped
        )
        memo[key] = value
        return value

    return rec(p, q, False)


def triple_even_moment(spec: TripleSpec, m2: int, m3: int) -> Fraction:
    """E[(X2 + a X3)^2 X2^(2 m2) X3^(2 m3)], exact.

    Expands to a^2 E[X2^(2m2) X3^(2m3+2)] + E[X2^(2m2+2) X3^(2m3)]
    + 2 a E[X2^(2m2+1) X3^(2m3+1)].
    """
    a, pair = spec.a, spec.pair
    return (
        a * a * even_moment(m2, m3 + 1, pair)
        + even_moment(m2 + 1, m3, pair)
        + 2 * a * odd_moment(m2, m3, pair)
    )


# ----------------------------------------------------------------------
# real-exponent floating-point path
# ----------------------------------------------------------------------

SERIES_TOL = 1e-12
CORR_CAP = 0.999


def gauss_hyp_real(a: float, b: float, c: float, z: float, tol: float = SERIES_TOL) -> float:
    """Gauss series F(a, b; c; z) for real parameters, |z| < 1.

    Terminates when a geometric tail bound certifies the remainder below
    ``tol``; if either of a, b is a nonpositive integer the series is finite
    and summed exactly.
    """
    if not abs(z) < 1:
        raise ValueError("series evaluation requires |z| < 1")
    if c <= 0 and c == int(c):
        raise ValueError("c must not be a nonpositive integer")
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
        if j > settle:
            q = abs(z) * (1.0 + abs(a) / j) * (1.0 + abs(b) / j)
            if q < 1.0 and abs(term) * q / (1.0 - q) < tol:
                return total
        if j > 10_000_000:  # pragma: no cover - safety stop
            raise RuntimeError("hypergeometric series failed to converge")


def abs_moment_real(y: float) -> float:
    """E[|X|^y] for standard Gaussian X: 2^(y/2) Gamma((y+1)/2) / sqrt(pi)."""
    if y < 0:
        raise ValueError("exponent must be >= 0")
    return 2.0 ** (y / 2.0) * math.gamma((y + 1.0) / 2.0) / math.sqrt(math.pi)


def _check_real_pair(pair: GaussianPair) -> float:
    if pair.var2 != 1 or pair.var3 != 1:
        raise ValueError("real-exponent mixed moments require unit variances")
    x = float(pair.cov)
    if abs(x) >= 1:
        raise ValueError("real-exponent path requires |corr| < 1")
    if abs(x) > CORR_CAP:
        raise ValueError(f"|corr| capped at {CORR_CAP} in the float path")
    return x


def mixed_abs_moment_real(kind: str, y2: float, y3: float, pair: GaussianPair) -> float:
    """Mixed absolute moments of a unit-variance pair, to series tolerance.

    kind = "even_shift2":  E[|X2|^y2 |X3|^(y3+2)]
         = (y3+1) 2^((y2+y3)/2) G2 G3 / pi * F(-y3/2-1, -y2/2; 1/2; x^2)
    kind = "odd_signed":   E[|X2|^y2 X2 |X3|^y3 X3]
         = x (y2+1)(y3+1) 2^((y2+y3)/2) G2 G3 / pi * F(-y2/2, -y3/2; 3/2; x^2)
    kind = "plain":        E[|X2|^y2 |X3|^y3]
         = 2^((y2+y3)/2) G2 G3 / pi * F(-y2/2, -y3/2; 1/2; x^2)

    with G2 = Gamma((y2+1)/2), G3 = Gamma((y3+1)/2).
    """
    if y2 < 0 or y3 < 0:
        raise ValueError("exponents must be >= 0")
    x = _check_real_pair(pair)
    z = x * x
    gamma_part = (
        2.0 ** ((y2 + y3) / 2.0)
        * math.gamma((y2 + 1.0) / 2.0)
        * math.gamma((y3 + 1.0) / 2.0)
        / math.pi
    )
    if kind == "even_shift2":
        return (y3 + 1.0) * gamma_part * gauss_hyp_real(-y3 / 2.0 - 1.0, -y2 / 2.0, 0.5, z)
    if kind == "odd_signed":
        return (
            x
            * (y2 + 1.0)
            * (y3 + 1.0)
            * gamma_part
            * gauss_hyp_real(-y2 / 2.0, -y3 / 2.0, 1.5, z)
        )
    if kind == "plain":
        return gamma_part * gauss_hyp_real(-y2 / 2.0, -y3 / 2.0, 0.5, z)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class MomentExponents:
    """Exponent request for the Monte Carlo oracle: E[g(X2) h(X3)] with
    g(x) = |x|^p (* sign x when signed2), similarly for h."""

    p: float
    q: float
    signed2: bool = False
    signed3: bool = False


def mc_moment(
    exponents: MomentExponents,
    pair: GaussianPair,
    n: int,
    seed: int,
    chunk: int = 1_000_000,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of the requested product moment.

    Draws n correlated Gaussian pairs from a PCG64 stream seeded with ``seed``
    (method recorded in MC_METHOD); deterministic for fixed (n, seed).
    """
    import numpy as np  # only this oracle needs numpy; keep it off the import path

    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    s2 = math.sqrt(float(pair.var2))
    cond_scale = float(pair.var3 - pair.cov * pair.cov / pair.var2)
    cond_scale = math.sqrt(cond_scale) if cond_scale > 0 else 0.0
    slope = float(pair.cov / pair.var2)
    total = 0.0
    total_sq = 0.0
    remaining = n
    while remaining > 0:
        m = min(chunk, remaining)
        z1 = rng.standard_normal(m)
        z2 = rng.standard_normal(m)
        x2 = s2 * z1
        x3 = slope * x2 + cond_scale * z2
        g = np.abs(x2) ** exponents.p
        if exponents.signed2:
            g = g * np.sign(x2)
        h = np.abs(x3) ** exponents.q
        if exponents.signed3:
            h = h * np.sign(x3)
        vals = g * h
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        remaining -= m
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    stderr = math.sqrt(var / n)
    return mean, stderr
