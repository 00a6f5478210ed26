"""Gaussian moment tests: closed forms against the pairing-recursion oracle,
scaling laws, and the floating-point real-exponent path against its polar
quadrature."""

import math
import random
from fractions import Fraction

import pytest

from gpiverify.checks import check_gpi
from gpiverify.inequality import make_params
from gpiverify.moments import (
    CORR_CAP,
    GaussianPair,
    MomentExponents,
    double_factorial_odd,
    gauss_hyp_real,
    polar_moment,
    real_moment,
    wick_poly,
)
from gpiverify.polyring import MultiPoly
from reference import even_moment, odd_moment, wick_moment

HALF_CORR = GaussianPair.unit(Fraction(1, 2))


class TestPairValidation:
    def test_degenerate_variance(self):
        with pytest.raises(ValueError):
            GaussianPair(Fraction(0), Fraction(1), Fraction(0))

    def test_covariance_bound(self):
        with pytest.raises(ValueError):
            GaussianPair(Fraction(1), Fraction(1), Fraction(3, 2))
        GaussianPair(Fraction(1), Fraction(1), Fraction(1))  # |corr| = 1 allowed

    def test_values_coerced_to_fractions(self):
        pair = GaussianPair("9/4", 4, "3/2")
        assert (pair.var2, pair.var3, pair.cov) == (Fraction(9, 4), 4, Fraction(3, 2))
        assert all(type(v) is Fraction for v in (pair.var2, pair.var3, pair.cov))
        report = check_gpi(make_params(1, 1), "-1/3", "1/2")
        assert report.name == "gpi:m2=1,m3=1,a=-1/3,x=1/2" and type(report.margin) is Fraction
        with pytest.raises(TypeError):
            GaussianPair(1.0, 1, 0)
        with pytest.raises(TypeError):
            check_gpi(make_params(1, 1), 0.5, "1/2")


class TestWickOracle:
    def test_hand_recursion_values(self):
        # M(2,2) = 1*1*M(0,2) + 2x M(1,1); M(0,2)=1, M(1,1)=x -> 1 + 2x^2 = 3/2
        assert wick_moment(2, 2, HALF_CORR) == Fraction(3, 2)
        # M(3,3) -> 9x + 6x^3 = 9/2 + 3/4 = 21/4 at x = 1/2
        assert wick_moment(3, 3, HALF_CORR) == Fraction(21, 4)
        assert wick_moment(1, 0, HALF_CORR) == 0

    def test_odd_total_degree_vanishes(self):
        pair = GaussianPair.unit(Fraction(1, 3))
        for p, q in [(1, 0), (0, 3), (2, 1), (3, 4)]:
            assert wick_moment(p, q, pair) == 0

    def test_table_entries(self):
        x = MultiPoly.var("x")
        assert wick_poly(2, 2) == 1 + 2 * x**2
        assert wick_poly(3, 3) == 9 * x + 6 * x**3

    def test_high_power_needs_no_deep_recursion(self):
        # a recursive evaluation overflows the interpreter stack near p = 2000
        assert wick_moment(2400, 0, GaussianPair.unit(0)) == double_factorial_odd(1200)

    def test_independent_of_hypergeometric_polynomials(self, monkeypatch):
        import gpiverify.moments as moments

        def forbidden(*args):
            raise AssertionError("the pairing recursion must not use hyp_poly")

        monkeypatch.setattr(moments, "hyp_poly", forbidden)
        assert wick_moment(3, 3, HALF_CORR) == Fraction(21, 4)
        pair = GaussianPair(Fraction(9, 4), Fraction(16, 9), Fraction(-5, 6))
        assert wick_moment(4, 2, pair) == 3 * pair.var2**2 * pair.var3 + 12 * pair.var2 * pair.cov**2


class TestClosedForms:
    def test_examples(self):
        assert even_moment(1, 1, HALF_CORR) == Fraction(3, 2)
        assert even_moment(1, 2, HALF_CORR) == 6
        assert odd_moment(1, 1, HALF_CORR) == Fraction(21, 4)
        assert odd_moment(0, 0, HALF_CORR) == Fraction(1, 2)  # E[X2 X3] = cov

    def test_independence_factorizes(self):
        pair = GaussianPair(Fraction(4, 3), Fraction(5, 2), Fraction(0))
        for m2, m3 in [(0, 0), (2, 3), (4, 1)]:
            expected = (
                double_factorial_odd(m2)
                * double_factorial_odd(m3)
                * pair.var2**m2
                * pair.var3**m3
            )
            assert even_moment(m2, m3, pair) == expected
        assert odd_moment(2, 3, pair) == 0

    def test_odd_moment_sign_follows_cov(self):
        for cov in (Fraction(1, 3), Fraction(-1, 3)):
            pair = GaussianPair.unit(cov)
            for m2, m3 in [(0, 1), (2, 2), (3, 1)]:
                value = odd_moment(m2, m3, pair)
                assert (value > 0) == (cov > 0) and (value < 0) == (cov < 0)

    def test_even_moment_positive(self):
        for num in (-2, 0, 1, 2):
            pair = GaussianPair.unit(Fraction(num, 2))
            assert even_moment(3, 2, pair) > 0

    def test_oracle_equivalence_sample(self):
        for k in (-5, -2, 0, 3, 5):
            pair = GaussianPair.unit(Fraction(k, 5))
            for m2 in range(0, 6):
                for m3 in range(0, 6):
                    assert even_moment(m2, m3, pair) == wick_moment(2 * m2, 2 * m3, pair)
                    assert odd_moment(m2, m3, pair) == wick_moment(
                        2 * m2 + 1, 2 * m3 + 1, pair
                    )

    def test_oracle_equivalence_general_variances(self):
        pair = GaussianPair(Fraction(9, 4), Fraction(16, 9), Fraction(-5, 6))
        for m2 in range(0, 5):
            for m3 in range(0, 5):
                assert even_moment(m2, m3, pair) == wick_moment(2 * m2, 2 * m3, pair)
                assert odd_moment(m2, m3, pair) == wick_moment(2 * m2 + 1, 2 * m3 + 1, pair)

    def test_scaling_covariance(self):
        base = GaussianPair.unit(Fraction(1, 3))
        s, t = Fraction(3, 2), Fraction(5, 7)
        scaled = GaussianPair(s * s, t * t, s * t * base.cov)
        for m2, m3 in [(1, 1), (2, 3), (4, 2)]:
            assert even_moment(m2, m3, scaled) == even_moment(m2, m3, base) * s ** (
                2 * m2
            ) * t ** (2 * m3)

    def test_double_factorial(self):
        assert [double_factorial_odd(m) for m in range(5)] == [1, 1, 3, 15, 105]


class TestTripleMoment:
    """E[X1^2 X2^(2m2) X3^(2m3)] with X1 = X2 + a X3, through check_gpi's
    margin, which subtracts (a^2 + 1 + 2ax)(2m2-1)!!(2m3-1)!!."""

    def test_example(self):
        # a^2 * 6 + 6 + 2a * 21/4 - (1 + 1 - 1) * 1 * 1 at a = -1, x = 1/2
        assert check_gpi(make_params(1, 1), -1, Fraction(1, 2)).margin == Fraction(1, 2)

    def test_independent_closed_form(self):
        # at x = 0: (a^2 (2m3+1) + (2m2+1)) (2m2-1)!! (2m3-1)!!, less (a^2 + 1) times the same
        a = Fraction(3, 7)
        for m2, m3 in [(1, 1), (2, 5), (4, 3)]:
            expected = (a * a * 2 * m3 + 2 * m2) * double_factorial_odd(m2) * double_factorial_odd(m3)
            assert check_gpi(make_params(m2, m3), a, 0).margin == expected

    def test_a_zero_reduces_to_bivariate(self):
        margin = check_gpi(make_params(2, 3), 0, Fraction(1, 2)).margin
        assert margin == even_moment(3, 3, HALF_CORR) - double_factorial_odd(2) * double_factorial_odd(3)


class TestDelicateMomentInequality:
    def test_strict_on_grid(self):
        # (odd - E2 E3 x)^2 < (E[X^(2m2+2) Y^(2m3)] - E2 E3)(E[X^(2m2) Y^(2m3+2)] - E2 E3)
        xs = [Fraction(1, 5), Fraction(-1, 2), Fraction(4, 5), Fraction(-9, 10)]
        for x in xs:
            pair = GaussianPair.unit(x)
            for m2 in range(1, 7):
                for m3 in range(m2, 7):
                    e2e3 = double_factorial_odd(m2) * double_factorial_odd(m3)
                    lhs = (odd_moment(m2, m3, pair) - e2e3 * x) ** 2
                    rhs = (even_moment(m2 + 1, m3, pair) - e2e3) * (
                        even_moment(m2, m3 + 1, pair) - e2e3
                    )
                    assert lhs < rhs, (m2, m3, x)


class TestRealExponentPath:
    def test_abs_moment_trivials(self):
        # E[|X2|^y], the moment (y, 0), at any correlation
        for x in (0.0, 0.5):
            assert abs(real_moment(MomentExponents(2.0, 0.0), x) - 1.0) < 1e-12
            assert abs(real_moment(MomentExponents(1.0, 0.0), x) - math.sqrt(2.0 / math.pi)) < 1e-12
            assert abs(real_moment(MomentExponents(0.0, 0.0), x) - 1.0) < 1e-12

    def test_series_requires_open_disc(self):
        with pytest.raises(ValueError):
            gauss_hyp_real(-1.5, -2.5, 0.5, 1.0)

    def test_series_too_slow_refused_up_front(self):
        # the ratio bound stays >= 1 for ~1.5 * 10^8 terms at this z: refused
        # before summing (the stop inside the sum says "did not converge")
        with pytest.raises(ValueError, match=r"needs about 1\.5e\+08 terms .* more than 10000000"):
            gauss_hyp_real(-1.25, -1.75, 0.5, 0.99999998)
        # large |a|, |b| push the root past the cap at a small z as well
        with pytest.raises(ValueError, match=r"needs about 5e\+07 terms .* more than 10000000"):
            gauss_hyp_real(-50000000.5, -50000000.5, 0.5, 0.25)
        # a terminating series at the same z is summed as before
        from gpiverify.gausshyp import hyp_poly

        exact = hyp_poly(3, 5, Fraction(1, 2)).eval({"z": Fraction(99999998, 10**8)})
        assert abs(gauss_hyp_real(-3.0, -5.0, 0.5, 0.99999998) - float(exact)) < 1e-9

    def test_series_matches_terminating_polynomial(self):
        from gpiverify.gausshyp import hyp_poly

        z = Fraction(9, 25)
        exact = hyp_poly(3, 5, Fraction(1, 2)).eval({"z": z})
        approx = gauss_hyp_real(-3.0, -5.0, 0.5, float(z))
        assert abs(approx - float(exact)) < 1e-12

    @pytest.mark.parametrize("m2, m3", [(0, 0), (1, 1), (2, 5), (4, 1), (3, 0)])
    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-3, 10), Fraction(0), Fraction(9, 10)])
    def test_mixed_matches_integer_moments(self, m2, m3, x):
        pair = GaussianPair.unit(x)
        even = float(even_moment(m2, m3, pair))
        odd = float(odd_moment(m2, m3, pair))
        x = float(x)
        assert real_moment(MomentExponents(2 * m2, 2 * m3), x) == pytest.approx(even, rel=1e-12)
        assert real_moment(MomentExponents(2 * m2 + 1, 2 * m3 + 1, True), x) \
            == pytest.approx(odd, rel=1e-12, abs=1e-300)

    def test_correlation_cap(self):
        for x in (0.9999, -0.9999, math.nan):
            with pytest.raises(ValueError):
                real_moment(MomentExponents(1.0, 1.0), x)


class TestPolarOracle:
    @pytest.mark.parametrize("m2, m3", [(0, 0), (1, 1), (2, 5), (7, 0)])
    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-3, 10), Fraction(0),
                                   Fraction(999, 1000)])
    def test_matches_exact_integer_moments(self, m2, m3, x):
        # the exact polynomials share no formula with the quadrature or the series
        pair = GaussianPair.unit(x)
        even = float(even_moment(m2, m3, pair))
        odd = float(odd_moment(m2, m3, pair))
        x = float(x)
        assert polar_moment(MomentExponents(2 * m2, 2 * m3), x) == pytest.approx(even, rel=1e-9)
        assert polar_moment(MomentExponents(2 * m2 + 1, 2 * m3 + 1, True), x) \
            == pytest.approx(odd, rel=1e-9, abs=1e-300)

    def test_sign_correlation_is_the_arcsine_law(self):
        # E[sign X2 sign X3] = (2/pi) asin(x), the moment (0, 0) with both signs
        for x in (0.5, -0.7, 0.999):
            exps = MomentExponents(0.0, 0.0, signed=True)
            law = 2 / math.pi * math.asin(x)
            assert polar_moment(exps, x) == pytest.approx(law, rel=1e-12)
            assert real_moment(exps, x) == pytest.approx(law, rel=1e-9)

    def test_independent_pair_factorises(self):
        # at x = 0, E|X2|^p |X3|^q is the product of the one-dimensional
        # absolute moments 2^(y/2) Gamma((y+1)/2) / sqrt(pi); the signed
        # moment is 0
        def absolute(y):
            return 2 ** (y / 2) * math.gamma((y + 1) / 2) / math.sqrt(math.pi)

        for p, q in [(0.0, 0.0), (1.0, 0.0), (0.5, 3.7), (6.0, 13.5), (14.0, 14.0)]:
            assert polar_moment(MomentExponents(p, q), 0.0) == pytest.approx(
                absolute(p) * absolute(q), rel=1e-12)
            assert polar_moment(MomentExponents(p, q, signed=True), 0.0) == 0.0

    def test_swap_and_reflection_symmetries(self):
        # (X2, X3) and (X3, X2) have one law, and so do (X2, X3) and
        # (X2, -X3) with x negated: swapping p and q keeps the moment, and
        # negating x keeps the unsigned moment and negates the signed one
        for x in (0.5, -0.3, 0.999):
            for p, q in [(0.0, 2.0), (1.3, 2.7), (4.0, 11.5)]:
                for signed in (False, True):
                    value = polar_moment(MomentExponents(p, q, signed), x)
                    swapped = polar_moment(MomentExponents(q, p, signed), x)
                    reflected = polar_moment(MomentExponents(p, q, signed), -x)
                    assert swapped == pytest.approx(value, rel=1e-12), (p, q, x, signed)
                    assert reflected == pytest.approx(-value if signed else value, rel=1e-12)

    def test_matches_closed_form(self):
        # p, q in [0, 14] in both sign modes, at the correlation cap on either
        # side and in between; both ends of the split at pi/4 are needed at
        # the cap, where one term peaks narrowly at pi/4
        rng = random.Random(31)
        corrs = [CORR_CAP, -CORR_CAP] + [rng.uniform(-CORR_CAP, CORR_CAP) for _ in range(8)]
        exponents = [(0.0, 0.0), (0.0, 14.0), (14.0, 14.0)] + [
            (rng.uniform(0, 14), rng.uniform(0, 14)) for _ in range(7)
        ]
        for x in corrs:
            for p, q in exponents:
                for signed in (False, True):
                    exps = MomentExponents(p, q, signed)
                    closed = real_moment(exps, x)
                    assert polar_moment(exps, x) == pytest.approx(closed, rel=1e-9), (exps, x)

    def test_refuses_what_the_closed_form_refuses(self):
        for exps, x in [
            (MomentExponents(-1.0, 1.0), 0.5),
            (MomentExponents(1.0, -1.0, signed=True), 0.5),
            (MomentExponents(1.0, 1.0), 0.9999),
            (MomentExponents(1.0, 1.0), math.nan),
        ]:
            with pytest.raises(ValueError):
                polar_moment(exps, x)
