"""Exact rational scalars, and the one rational enclosure.

Every verdict in the verification pipeline is decided from exact rationals.
Square roots are the only irrational ingredient anywhere in the library; they
are handled by :func:`sign_sqrt`, which decides the sign of ``a + b sqrt(d)``
without ever leaving the rationals and returns 1, -1 or 0, and by
:func:`sqrt_enclosure`, which brackets the root between rational endpoints to
any requested width.  That enclosure, a :class:`RationalInterval` record,
serves only the bound shown beside an MRI verdict, which it does not decide;
it has no arithmetic.

No operation mutates a value; all operations are pure.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import isqrt
from typing import Union

RationalLike = Union[Fraction, int, str]

#: the exponent k that ends a decimal text m e k
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)


class InputError(ValueError):
    """An invalid value from outside the program (an option, a config file),
    raised where the value is checked; a usage error (exit 64) on the command line."""


def rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from "p/q", "p" or decimal text such as "2.75".

    Decimal strings are converted exactly ("2.75" becomes 11/4), never through
    binary floating point.  Floats are rejected to keep accidental rounding out
    of the exact pipeline.  A text whose numerator or denominator would have
    more digits than the interpreter converts to text
    (sys.get_int_max_str_digits(), unbounded when 0) is an InputError, so
    no report fails to print it.  Fraction refuses any run of more digits
    than that, so the value is at most a few times the limit long unless an
    exponent k makes it longer: an exponent past 3 limit is refused before
    10^k is built, which can take minutes, and any other value is built and
    its digits counted.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("refusing float input; pass a string, int or Fraction")
    text = str(value).strip()
    limit = sys.get_int_max_str_digits()
    power = _EXPONENT.search(text) if limit else None
    try:
        far = power is not None and abs(int(power[1])) > 3 * limit
        result = None if far else Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"{text!r} has a zero denominator") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if far:
        raise InputError(f"{text!r} has an exponent past {3 * limit} in magnitude")
    big = max(abs(result.numerator), result.denominator)
    # a number of at most 3 limit bits is below 8^limit, so it has at most limit digits
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise InputError(f"{text!r} has more than {limit} digits in its numerator or denominator")
    return result


def sign_sqrt(a: Fraction | int, b: Fraction | int, d: Fraction | int) -> int:
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


class RationalInterval:
    """Closed interval with exact rational endpoints, ``lo <= hi``: an
    enclosure of a real number, such as a square root or the MRI bound."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
            raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
        self.lo = lo
        self.hi = hi


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
    n, d = q.numerator, q.denominator
    rn, n_exact = _isqrt_is_exact(n)
    if n_exact:
        rd, d_exact = _isqrt_is_exact(d)
        if d_exact:
            root = Fraction(rn, rd)
            return RationalInterval(root, root)
    # width of the dyadic enclosure is 1 / (2^k * d); pick the smallest such k
    k = 0
    while Fraction(1, d << k) > width_bound:
        k += 1
    t = isqrt((n * d) << (2 * k))
    scale = d << k
    return RationalInterval(Fraction(t, scale), Fraction(t + 1, scale))
