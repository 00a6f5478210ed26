"""Exact scalar and square-root enclosure tests.

Expected values here are either immediate (exact rational identities) or
checked against the defining property of the operation (e.g. a square-root
enclosure must bracket the radicand when squared).
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpiverify.exactnum import (
    InputError,
    RationalInterval,
    rational,
    sign_sqrt,
    sqrt_enclosure,
)
from gpiverify.checks import check_mri
from gpiverify.inequality import DEFAULT_WIDTH, H_value, make_params
from gpiverify.moments import GaussianPair
from reference import h_compare, sign_of

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

    def test_digit_limit(self):
        # a numerator or denominator of more digits than str() converts is
        # refused; the reduced value counts, and 0 has one digit
        limit = sys.get_int_max_str_digits()
        assert rational(f"1e-{limit - 1}").denominator == 10 ** (limit - 1)
        assert rational(f"10e-{limit}") == Fraction(1, 10 ** (limit - 1))
        assert rational(f"0e-{2 * limit}") == 0
        for text in (f"1e-{limit}", f"1e{limit}", "1." + "1" * limit, "1e-99999999"):
            with pytest.raises(InputError, match="digits|exponent"):
                rational(text)

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
        for q, root in ((Fraction(4), 2), (Fraction(9, 16), Fraction(3, 4))):
            e = sqrt_enclosure(q)
            assert (e.lo, e.hi) == (root, root)

    def test_zero(self):
        e = sqrt_enclosure(Fraction(0))
        assert (e.lo, e.hi) == (0, 0)

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
        while True:
            e = sqrt_enclosure(d, width)
            if (sign := sign_of(*sorted((a + b * e.lo, a + b * e.hi)))) is not None:
                break
            width /= 2
        assert sign_sqrt(a, b, d) == sign


class TestInterval:
    def test_examples(self):
        a = RationalInterval(Fraction(1), Fraction(2))
        assert (a.lo, a.hi) == (1, 2)
        assert sign_of(Fraction(1, 10), Fraction(1, 5)) == 1
        assert sign_of(Fraction(-1, 10), Fraction(1, 10)) is None

    def test_boundary_zero_signs(self):
        assert sign_of(Fraction(0), Fraction(0)) == 0
        assert sign_of(Fraction(0), Fraction(1)) is None
        assert sign_of(Fraction(-1), Fraction(0)) is None
        assert sign_of(Fraction(-2), Fraction(-1)) == -1

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            RationalInterval(Fraction(1), Fraction(0))

    @given(m2=st.integers(1, 6), m3=st.integers(1, 6),
           x=st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=40),
           a=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
           b=st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
           neg=st.booleans(), k=st.integers(min_value=0, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_containment(self, m2, m3, x, a, b, neg, k):
        # the ends built from the square-root enclosure bracket H(z), and the
        # MRI bound's ends, both times |cov|, bracket H(corr^2) |cov|
        params = make_params(m2, m3)
        z = x * x
        assume(z > params.t)
        width = Fraction(1, 2**k)
        h = H_value(params, z, width)
        assert h.hi - h.lo <= width
        assert h_compare(params, z, h.lo) >= 0 >= h_compare(params, z, h.hi)
        cov = (-x if neg else x) * a * b
        report = check_mri(params, GaussianPair(a * a, b * b, cov))
        bound = report.witnesses[0]["bound"]
        assert report.witnesses[0]["branch"] == "ratio-bound"
        assert h_compare(params, z, bound.lo / abs(cov)) >= 0
        assert h_compare(params, z, bound.hi / abs(cov)) <= 0

    @given(m2=st.integers(1, 6), m3=st.integers(1, 6),
           x=st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=40),
           c=st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8),
           k=st.integers(min_value=0, max_value=20), j=st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_containment_monotonicity(self, m2, m3, x, c, k, j):
        # a smaller width never leaves an earlier enclosure of H(z), and the
        # MRI bound lies inside |cov| times any wider enclosure
        params = make_params(m2, m3)
        z = x * x
        assume(z > params.t)
        big = H_value(params, z, Fraction(1, 2**k))
        small = H_value(params, z, Fraction(1, 2 ** (k + j)))
        assert big.lo <= small.lo and small.hi <= big.hi
        bound = check_mri(params, GaussianPair(c, c, -c * x)).witnesses[0]["bound"]
        wide = H_value(params, z, DEFAULT_WIDTH * 2**j)
        assert c * x * wide.lo <= bound.lo and bound.hi <= c * x * wide.hi
