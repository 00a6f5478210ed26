"""Hypergeometric polynomial tests.

The independent oracle used throughout is the defining finite sum with
pochhammer factors computed from scratch (plain products), so it shares no
code with the iterative construction in the module.
"""

import math
from fractions import Fraction

import pytest

from gpiverify.gausshyp import hyp_poly
from gpiverify.polyring import MultiPoly
from reference import (
    hyp_value_at_one,
    pochhammer,
    relation_31,
    relation_37,
    relation_38,
    relation_derivative,
    specialize,
)

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)
z = MultiPoly.var("z")


def oracle_coefficient(m2: int, m3: int, c: Fraction, j: int) -> Fraction:
    """(-m2)_j (-m3)_j / ((c)_j j!) by direct products."""

    def poch(x, n):
        out = Fraction(1)
        for i in range(n):
            out *= x + i
        return out

    return poch(Fraction(-m2), j) * poch(Fraction(-m3), j) / (poch(c, j) * math.factorial(j))


class TestHypPoly:
    def test_two_term_series(self):
        # by hand: (-1)_1 (-1)_1 / ((1/2)_1 1!) = 1/(1/2) = 2
        assert hyp_poly(1, 1, HALF) == 1 + 2 * z
        # (-1)_1 (-2)_1 / (1/2) = 2/(1/2) = 4; the j=2 term dies with (-1)_2 = 0
        assert hyp_poly(1, 2, HALF) == 1 + 4 * z

    def test_at_zero(self):
        for m2, m3 in [(0, 0), (3, 7), (12, 12)]:
            assert hyp_poly(m2, m3, HALF).eval({"z": 0}) == 1

    @pytest.mark.parametrize("c", [HALF, THREE_HALVES, Fraction(5, 2)])
    def test_against_series_oracle(self, c):
        for m2, m3 in [(0, 5), (1, 1), (2, 3), (4, 4), (5, 9), (7, 2)]:
            p = hyp_poly(m2, m3, c)
            assert p.degree("z") == min(m2, m3) or (min(m2, m3) == 0 and p == 1)
            for j in range(min(m2, m3) + 1):
                assert p.coeff((j,)) == oracle_coefficient(m2, m3, c, j), (m2, m3, j)

    def test_all_coefficients_positive(self):
        for m2 in range(0, 9):
            for m3 in range(m2, 9):
                for c in (HALF, THREE_HALVES):
                    assert all(co > 0 for co in hyp_poly(m2, m3, c).terms.values())

    def test_symmetry(self):
        for m2, m3 in [(1, 4), (2, 7), (3, 3)]:
            assert hyp_poly(m2, m3, HALF) == hyp_poly(m3, m2, HALF)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            hyp_poly(2, -1, HALF)
        with pytest.raises(ValueError):
            hyp_poly(-1, 2, HALF)
        with pytest.raises(ValueError):
            hyp_poly(-1, MultiPoly.var("m3"), HALF)


class TestSymbolic:
    """hyp_poly with m3 a polynomial (here the variable m3 itself)."""

    m3 = MultiPoly.var("m3")

    def test_examples(self):
        assert hyp_poly(1, self.m3, HALF) == 1 + 2 * self.m3 * z
        assert hyp_poly(1, self.m3, THREE_HALVES) == 1 + Fraction(2, 3) * self.m3 * z
        assert hyp_poly(0, self.m3, HALF) == 1

    @pytest.mark.parametrize("c", [HALF, THREE_HALVES])
    def test_specialization_reproduces_numeric(self, c):
        # the z^j coefficient has degree j <= m2 in m3, so agreement at m2 + 1
        # points proves the identity; the points include m3 < m2
        for m2 in range(0, 9):
            sym = hyp_poly(m2, self.m3, c)
            for n in range(0, m2 + 2):
                assert specialize(sym, "m3", n) == hyp_poly(m2, n, c), (m2, n)

    def test_coefficient_degrees(self):
        sym = hyp_poly(4, self.m3, HALF)
        assert sym.vars == ("z", "m3")
        assert sym.degree("z") == 4
        # the z^j coefficient has degree j in m3
        for exps, _ in sym.iter_terms():
            zj, m3j = exps
            assert m3j <= zj
        assert all(sym.coeff((j, j)) for j in range(5))

    def test_polynomial_index(self):
        # m3 = b^2 + 3 specializes like m3 = n at b^2 = n - 3
        b = MultiPoly.var("b")
        sym = hyp_poly(3, b * b + 3, THREE_HALVES)
        assert sym.vars == ("z", "b")
        assert specialize(sym, "b", 2) == hyp_poly(3, 7, THREE_HALVES)


class TestValueAtOne:
    """F at z = 1 against the Chu-Vandermonde closed form of tests/reference.py."""

    def test_examples(self):
        assert hyp_value_at_one(1, 1, HALF) == 3  # 1 + 2z at z = 1
        assert hyp_value_at_one(1, 1, THREE_HALVES) == Fraction(5, 3)
        assert hyp_value_at_one(0, 9, HALF) == 1

    def test_closed_form_equals_poly_eval(self):
        for m2 in range(0, 13):
            for m3 in range(0, 13):
                for c in (HALF, THREE_HALVES):
                    assert hyp_value_at_one(m2, m3, c) == hyp_poly(m2, m3, c).eval(
                        {"z": 1}
                    ), (m2, m3, c)

    def test_pochhammer(self):
        assert pochhammer(HALF, 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
        assert pochhammer(Fraction(-2), 3) == 0
        assert pochhammer(Fraction(7), 0) == 1


class TestContiguousRelations:
    def test_hand_checked_derivative_case(self):
        # m2 = m3 = 1, c = 1/2: F = 1 + 2z, F' = 2, F(a+1) = 1, a = -1
        # z*F' - a[F(a+1) - F] = 2z - (-1)(1 - 1 - 2z) = 2z - 2z = 0
        assert not relation_derivative(1, 1, HALF)

    def test_rel38_case(self):
        assert not relation_38(2, 3, HALF)

    def test_rel31_trivial_case(self):
        assert not relation_31(0, 0, HALF)

    def test_all_relations_sweep(self):
        for rel in (relation_derivative, relation_31, relation_37, relation_38):
            for m2 in range(0, 8):
                for m3 in range(m2, 8):
                    for c in (HALF, THREE_HALVES):
                        assert not rel(m2, m3, c), (rel.__name__, m2, m3, c)
