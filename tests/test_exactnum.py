"""Exact scalar and interval arithmetic tests.

Expected values here are either immediate (exact rational identities) or
checked against the defining property of the operation (e.g. a square-root
enclosure must bracket the radicand when squared).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpiverify.exactnum import (
    InputError,
    RationalInterval,
    rational,
    sign_sqrt,
    sqrt_enclosure,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


class TestRational:
    def test_parse_forms(self):
        assert rational("11/4") == Fraction(11, 4)
        assert rational("-3") == -3
        assert rational("2.75") == Fraction(11, 4)
        assert rational("0.1") == Fraction(1, 10)  # exact, not binary float
        assert rational(7) == 7

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rational(0.1)

    def test_zero_denominator_named(self):
        with pytest.raises(InputError, match="^'1/0' has a zero denominator$"):
            rational(" 1/0")
        with pytest.raises(InputError, match="^Invalid literal for Fraction: 'abc'$"):
            rational("abc")

    def test_exact_arithmetic_examples(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
        assert Fraction(11, 4) * Fraction(4, 11) == 1
        assert Fraction(2, 3) ** 3 == Fraction(8, 27)
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    @given(a=rationals, b=rationals, c=rationals)
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


class TestSqrtEnclosure:
    def test_perfect_square(self):
        assert sqrt_enclosure(Fraction(4)) == RationalInterval.point(2)
        assert sqrt_enclosure(Fraction(9, 16)) == RationalInterval.point(Fraction(3, 4))

    def test_zero(self):
        assert sqrt_enclosure(Fraction(0)) == RationalInterval.point(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_enclosure(Fraction(-1))

    def test_sqrt2_width(self):
        e = sqrt_enclosure(Fraction(2), Fraction(1, 1000))
        assert e.lo >= 0
        assert e.lo**2 <= 2 <= e.hi**2
        assert e.hi - e.lo <= Fraction(1, 1000)

    @given(
        q=st.fractions(min_value=Fraction(0), max_value=Fraction(1000), max_denominator=99),
        k=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_bracketing_and_nesting(self, q, k):
        wide = sqrt_enclosure(q, Fraction(1, 10))
        narrow = sqrt_enclosure(q, Fraction(1, 10) / 2**k)
        for e in (wide, narrow):
            assert e.lo >= 0
            assert e.lo**2 <= q <= e.hi**2
        # shrinking the width bound never escapes an earlier enclosure
        assert wide.lo <= narrow.lo and narrow.hi <= wide.hi


class TestSignSqrt:
    def test_root_minus_rational(self):
        # sqrt(d) - a is sign_sqrt(-a, 1, d)
        assert sign_sqrt(Fraction(-1), 1, Fraction(2)) == 1
        assert sign_sqrt(Fraction(-3, 2), 1, Fraction(2)) == -1
        assert sign_sqrt(Fraction(-2), 1, Fraction(4)) == 0
        assert sign_sqrt(Fraction(5), 1, Fraction(1, 4)) == 1

    def test_exact_zeros(self):
        # a + b sqrt(d) = 0 needs d a perfect square (or b = 0, or d = 0)
        assert sign_sqrt(Fraction(-2), Fraction(1), Fraction(4)) == 0
        assert sign_sqrt(Fraction(3), Fraction(-1), Fraction(9)) == 0
        assert sign_sqrt(Fraction(-3, 2), Fraction(1, 2), Fraction(9)) == 0
        assert sign_sqrt(Fraction(1, 3), Fraction(-2, 3), Fraction(1, 4)) == 0
        assert sign_sqrt(Fraction(0), Fraction(0), Fraction(5)) == 0
        assert sign_sqrt(Fraction(0), Fraction(7), Fraction(0)) == 0
        assert sign_sqrt(Fraction(-1), Fraction(7), Fraction(0)) == -1

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            sign_sqrt(Fraction(1), Fraction(1), Fraction(-1))

    @given(a=rationals, b=rationals,
           k=st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=40))
    @settings(max_examples=150, deadline=None)
    def test_perfect_square_radicand(self, a, b, k):
        value = a + b * k
        assert sign_sqrt(a, b, k * k) == (value > 0) - (value < 0)

    @given(a=rationals, b=rationals,
           d=st.fractions(min_value=Fraction(0), max_value=Fraction(1000), max_denominator=99))
    @settings(max_examples=150, deadline=None)
    def test_matches_decided_enclosure(self, a, b, d):
        # narrow the enclosure until its sign is decided: a + b sqrt(d) is
        # irrational, hence nonzero, unless d is a square or b = 0
        width = Fraction(1, 10)
        while (sign := (a + b * sqrt_enclosure(d, width)).sign()) is None:
            width /= 2
        assert sign_sqrt(a, b, d) == sign


intervals = st.builds(
    lambda a, b: RationalInterval(min(a, b), max(a, b)), rationals, rationals
)


class TestInterval:
    def test_examples(self):
        a = RationalInterval(Fraction(1), Fraction(2))
        b = RationalInterval(Fraction(3), Fraction(4))
        assert a + b == RationalInterval(Fraction(4), Fraction(6))
        assert RationalInterval(Fraction(1, 10), Fraction(1, 5)).sign() == 1
        assert RationalInterval(Fraction(-1, 10), Fraction(1, 10)).sign() is None

    def test_boundary_zero_signs(self):
        assert RationalInterval.point(0).sign() == 0
        assert RationalInterval(Fraction(0), Fraction(1)).sign() is None
        assert RationalInterval(Fraction(-1), Fraction(0)).sign() is None
        assert RationalInterval(Fraction(-2), Fraction(-1)).sign() == -1

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            RationalInterval.point(1) / RationalInterval(Fraction(-1), Fraction(1))

    def test_equality_and_hash(self):
        a = RationalInterval(Fraction(1, 2), Fraction(3, 4))
        b = RationalInterval.point(Fraction(1, 2)) + RationalInterval(Fraction(0), Fraction(1, 4))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != RationalInterval(Fraction(1, 2), Fraction(1))
        assert a != (Fraction(1, 2), Fraction(3, 4))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            RationalInterval(Fraction(1), Fraction(0))

    @given(a=intervals, b=intervals, sa=st.fractions(min_value=0, max_value=1, max_denominator=16),
           sb=st.fractions(min_value=0, max_value=1, max_denominator=16))
    @settings(max_examples=100, deadline=None)
    def test_containment(self, a, b, sa, sb):
        # the image of any points of the operands lies in the result
        pa = a.lo + sa * (a.hi - a.lo)
        pb = b.lo + sb * (b.hi - b.lo)
        for iv, q in ((a + b, pa + pb), (a - b, pa - pb), (a * b, pa * pb)):
            assert iv.lo <= q <= iv.hi
        if not (b.lo <= 0 <= b.hi):
            assert (a / b).lo <= pa / pb <= (a / b).hi

    @given(a=intervals, b=intervals, pad=st.fractions(min_value=0, max_value=3, max_denominator=8))
    @settings(max_examples=80, deadline=None)
    def test_containment_monotonicity(self, a, b, pad):
        big_a = RationalInterval(a.lo - pad, a.hi + pad)
        big_b = RationalInterval(b.lo - pad, b.hi + pad)
        for big, small in ((big_a + big_b, a + b), (big_a - big_b, a - b), (big_a * big_b, a * b)):
            assert big.lo <= small.lo and small.hi <= big.hi
