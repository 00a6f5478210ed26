"""Exact rational scalars and rational interval arithmetic.

Every quantity in the verification pipeline is either an exact rational or a
rational interval guaranteed to contain the real number it stands for.  Square
roots are the only irrational ingredient anywhere in the library; they are
handled by :func:`sign_sqrt`, which decides the sign of ``a + b sqrt(d)``
without ever leaving the rationals, and by :func:`sqrt_enclosure`, which
brackets the root between rational endpoints to any requested width.

All values are immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

BigRational = Fraction

RationalLike = Union[Fraction, int, str]

SIGN_POSITIVE = "positive"
SIGN_NEGATIVE = "negative"
SIGN_ZERO = "zero"
SIGN_INDETERMINATE = "indeterminate"


def rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from "p/q", "p" or decimal text such as "2.75".

    Decimal strings are converted exactly ("2.75" becomes 11/4), never through
    binary floating point.  Floats are rejected to keep accidental rounding out
    of the exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("refusing float input; pass a string, int or Fraction")
    return Fraction(str(value).strip())


def sign_sqrt(a: Fraction, b: Fraction, d: Fraction) -> int:
    """Sign of a + b sqrt(d), decided exactly.  Requires d >= 0.

    This is the workhorse for every inequality whose one irrational
    ingredient is a square root: when a and b sqrt(d) do not have opposite
    signs the answer is immediate, otherwise a^2 and b^2 d are compared.
    """
    if d < 0:
        raise ValueError("sign_sqrt requires a nonnegative radicand")
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0) if d else 0
    if sa * sb >= 0:
        return sa or sb
    diff = a * a - b * b * d
    return sa * ((diff > 0) - (diff < 0))


def _isqrt_is_exact(n: int) -> tuple[int, bool]:
    r = isqrt(n)
    return r, r * r == n


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval with exact rational endpoints, ``lo <= hi``.

    Since rational arithmetic is exact, the usual interval formulas give true
    enclosures with no outward rounding step: for any operation the image of
    the inputs is contained in the result.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def point(q: RationalLike) -> "RationalInterval":
        q = rational(q)
        return RationalInterval(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def encloses(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __add__(self, other: "RationalInterval | Fraction | int") -> "RationalInterval":
        o = _coerce(other)
        return RationalInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other: "RationalInterval | Fraction | int") -> "RationalInterval":
        return self + (-_coerce(other))

    def __rsub__(self, other: "RationalInterval | Fraction | int") -> "RationalInterval":
        return _coerce(other) + (-self)

    def __mul__(self, other: "RationalInterval | Fraction | int") -> "RationalInterval":
        o = _coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalInterval | Fraction | int") -> "RationalInterval":
        o = _coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return RationalInterval(min(quotients), max(quotients))

    def __rtruediv__(self, other: "Fraction | int") -> "RationalInterval":
        return _coerce(other) / self

    def square(self) -> "RationalInterval":
        """Tight enclosure of {x^2 : x in self} (tighter than self * self)."""
        if self.lo >= 0:
            return RationalInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RationalInterval(self.hi * self.hi, self.lo * self.lo)
        return RationalInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def sign(self) -> str:
        """Conservative sign: endpoints touching zero are indeterminate unless
        the interval is exactly the point 0."""
        if self.lo == 0 and self.hi == 0:
            return SIGN_ZERO
        if self.lo > 0:
            return SIGN_POSITIVE
        if self.hi < 0:
            return SIGN_NEGATIVE
        return SIGN_INDETERMINATE

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _coerce(value: "RationalInterval | Fraction | int") -> RationalInterval:
    if isinstance(value, RationalInterval):
        return value
    return RationalInterval.point(rational(value))


def sqrt_enclosure(q: Fraction, width_bound: RationalLike = Fraction(1, 10**6)) -> RationalInterval:
    """Rational interval [lo, hi] with lo^2 <= q <= hi^2, hi - lo <= width_bound, lo >= 0.

    Perfect squares of rationals collapse to a point interval.  Otherwise the
    enclosure is dyadic, ``[t, t+1] / (2^k * den)`` with ``t`` an integer
    square root, so that successively smaller width bounds produce nested
    intervals.
    """
    q = rational(q)
    width_bound = rational(width_bound)
    if q < 0:
        raise ValueError(f"sqrt of negative rational {q}")
    if width_bound <= 0:
        raise ValueError("width_bound must be positive")
    if q == 0:
        return RationalInterval.point(Fraction(0))
    n, d = q.numerator, q.denominator
    rn, n_exact = _isqrt_is_exact(n)
    if n_exact:
        rd, d_exact = _isqrt_is_exact(d)
        if d_exact:
            return RationalInterval.point(Fraction(rn, rd))
    # width of the dyadic enclosure is 1 / (2^k * d); pick the smallest such k
    k = 0
    while Fraction(1, d << k) > width_bound:
        k += 1
    t = isqrt((n * d) << (2 * k))
    scale = d << k
    return RationalInterval(Fraction(t, scale), Fraction(t + 1, scale))
