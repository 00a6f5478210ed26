"""Terminating Gauss hypergeometric polynomials.

``F(-m2, -m3; c; z)`` with nonnegative integers m2, m3 is the finite sum

    sum_{j=0}^{min(m2, m3)}  (-m2)_j (-m3)_j / (c)_j  *  z^j / j!

with exactly positive rational coefficients.  This module builds those
polynomials exactly, in two flavours: both parameters numeric, or the second
parameter kept as a polynomial indeterminate (needed when it is later replaced
by a polynomial expression).  It also evaluates F at z = 1 in closed form.  The
four classical contiguous relations, which the tests check as polynomial
identities over hyp_poly, are written out in tests/reference.py.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactnum import RationalLike, rational
from .polyring import MultiPoly, falling_factorial

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)

def pochhammer(x: RationalLike, j: int) -> Fraction:
    """Rising factorial x (x+1) ... (x+j-1), exact; j = 0 gives 1."""
    if j < 0:
        raise ValueError("pochhammer requires j >= 0")
    x = rational(x)
    result = Fraction(1)
    for i in range(j):
        result *= x + i
    return result


@lru_cache(maxsize=None)
def hyp_poly(m2: int, m3: int, c: RationalLike = HALF) -> MultiPoly:
    """F(-m2, -m3; c; z) as an exact polynomial in z of degree min(m2, m3)."""
    if m2 < 0 or m3 < 0:
        raise ValueError("hyp_poly requires m2, m3 >= 0")
    c = rational(c)
    terms = {}
    term = Fraction(1)
    terms[(0,)] = term
    for j in range(min(m2, m3)):
        # t_{j+1} = t_j * (-m2+j)(-m3+j) / ((c+j)(j+1))
        term = term * (j - m2) * (j - m3) / ((c + j) * (j + 1))
        terms[(j + 1,)] = term
    return MultiPoly(("z",), terms)


@lru_cache(maxsize=None)
def hyp_poly_symbolic_m3(m2: int, c: RationalLike = HALF) -> MultiPoly:
    """F(-m2, -m3; c; z) with m3 kept symbolic: a polynomial in (z, m3).

    The z^j coefficient is m2!/(m2-j)! * ff(m3, j) / ((c)_j * j!) where ff is
    the degree-j falling factorial, so specializing m3 to any integer n >= m2
    reproduces :func:`hyp_poly`.
    """
    if m2 < 0:
        raise ValueError("hyp_poly_symbolic_m3 requires m2 >= 0")
    c = rational(c)
    ring = ("z", "m3")
    z = MultiPoly.var("z", ring)
    result = MultiPoly.zero(ring)
    m2_falling = 1
    for j in range(m2 + 1):
        if j > 0:
            m2_falling *= m2 - j + 1
        scale = Fraction(m2_falling) / (pochhammer(c, j) * pochhammer(1, j))
        coeff = falling_factorial("m3", j, ring).scale(scale)
        result = result + coeff * z**j
    return result


def hyp_value_at_one(m2: int, m3: int, c: RationalLike = HALF) -> Fraction:
    """F(-m2, -m3; c; 1) exactly, via the Chu-Vandermonde closed form
    (c + m3)_{m2} / (c)_{m2}."""
    if m2 < 0 or m3 < 0:
        raise ValueError("hyp_value_at_one requires m2, m3 >= 0")
    c = rational(c)
    return pochhammer(c + m3, m2) / pochhammer(c, m2)
