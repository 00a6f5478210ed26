"""Terminating Gauss hypergeometric polynomials.

``F(-m2, -m3; c; z)`` with nonnegative integers m2, m3 is the finite sum

    sum_{j=0}^{min(m2, m3)}  (-m2)_j (-m3)_j / (c)_j  *  z^j / j!

with exactly positive rational coefficients.  :func:`hyp_poly` is the one
builder of these polynomials.  Its m3 is an int or a polynomial in other
variables (the h family substitutes m3 = b^2 + offset); a polynomial m3 gives
a polynomial in z and those variables that specializes to the numeric F at
every integer m3 >= 0.  The four classical contiguous relations, which the
tests check as polynomial identities over hyp_poly, and the Chu-Vandermonde
value at z = 1 are written out in tests/reference.py.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import RationalLike, rational
from .polyring import MultiPoly

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def hyp_poly(m2: int, m3: int | MultiPoly, c: RationalLike) -> MultiPoly:
    """F(-m2, -m3; c; z) as an exact polynomial in z of degree min(m2, m3).

    A polynomial m3 gives a polynomial over ("z",) + m3.vars of degree m2 in
    z; once j reaches an integer value of m3 the factor (j - m3) is 0, so it
    specializes correctly at every integer m3 >= 0."""
    symbolic = isinstance(m3, MultiPoly)
    if m2 < 0 or (not symbolic and m3 < 0):
        raise ValueError("hyp_poly requires m2, m3 >= 0")
    c = rational(c)
    term = MultiPoly.const(1, m3.vars) if symbolic else Fraction(1)
    coeffs = [term]
    for j in range(m2 if symbolic else min(m2, m3)):
        # t_{j+1} = t_j * (-m2+j)(-m3+j) / ((c+j)(j+1))
        term = term * (j - m3) * ((j - m2) / ((c + j) * (j + 1)))
        coeffs.append(term)
    if not symbolic:
        return MultiPoly(("z",), {(j,): t for j, t in enumerate(coeffs)})
    return MultiPoly(
        ("z",) + m3.vars,
        {(j,) + e: t for j, poly in enumerate(coeffs) for e, t in poly.terms.items()},
    )
