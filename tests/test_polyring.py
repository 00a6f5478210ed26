"""Sparse polynomial algebra tests: arithmetic, substitution, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpiverify.polyring import (
    MultiPoly,
    PolyParseError,
    falling_factorial,
    poly_parse,
    poly_serialize,
)

coeffs = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)


@st.composite
def polys(draw, vars=("x", "y")):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in vars)
        terms[exps] = draw(coeffs)
    return MultiPoly(vars, terms)


class TestArithmetic:
    def test_examples(self):
        p = poly_parse("1 + 2*z")
        assert p * p == poly_parse("1 + 4*z + 4*z^2")
        assert poly_parse("1 + c^2") ** 3 == poly_parse("1 + 3*c^2 + 3*c^4 + c^6")
        assert (p - p).is_zero()
        assert (p - p).terms == {}

    def test_no_zero_coefficients_stored(self):
        p = poly_parse("x + y", vars=("x", "y"))
        q = poly_parse("x - y", vars=("x", "y"))
        prod = p * q  # x^2 - y^2; the xy terms cancel
        assert set(prod.terms) == {(2, 0), (0, 2)}
        assert all(c != 0 for c in prod.coefficients())

    def test_variable_alignment(self):
        p = poly_parse("b^2")
        q = poly_parse("c")
        r = p + q
        assert r.vars == ("b", "c")
        assert r.coeff({"b": 2}) == 1 and r.coeff({"c": 1}) == 1

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            poly_parse("x") ** -1

    @given(p=polys(), q=polys(), r=polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert all(c != 0 for c in (p * q).coefficients())


class TestSubstitution:
    def test_examples(self):
        m = poly_parse("m3^2")
        assert m.substitute("m3", poly_parse("b^2 + 5")) == poly_parse("b^4 + 10*b^2 + 25")
        x2 = poly_parse("x2")
        assert x2.substitute("x2", poly_parse("a^2 + 8")) == poly_parse("a^2 + 8")
        z = poly_parse("z")
        assert z.substitute("z", 0).is_zero()

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            poly_parse("z").substitute("w", 1)

    def test_rational_substitution_examples(self):
        c2 = poly_parse("c^2")
        den = poly_parse("1 + c^2")
        assert poly_parse("z").substitute_rational("z", c2, den, 1) == c2
        assert poly_parse("1 - z").substitute_rational("z", c2, den, 1) == MultiPoly.const(1, ("c",))
        assert poly_parse("z^2").substitute_rational("z", c2, den, 3) == poly_parse("c^4 * (1 + c^2)")

    def test_rational_substitution_insufficient_power(self):
        with pytest.raises(ValueError):
            poly_parse("z^2").substitute_rational("z", poly_parse("c^2"), poly_parse("1 + c^2"), 1)

    @given(p=polys(), q=polys(vars=("y",)))
    @settings(max_examples=40, deadline=None)
    def test_substitution_is_ring_homomorphism(self, p, q):
        other = poly_parse("1 + y", vars=("y",))
        lhs = (p * other.in_ring(p.vars)).substitute("x", q)
        rhs = p.substitute("x", q) * other
        assert lhs == rhs, "subst(p*q) == subst(p)*subst(q)"
        lhs2 = (p + other.in_ring(p.vars)).substitute("x", q)
        assert lhs2 == p.substitute("x", q) + other

    @given(p=polys(), q=polys(vars=("y",)),
           px=coeffs, py=coeffs)
    @settings(max_examples=40, deadline=None)
    def test_eval_commutes_with_substitution(self, p, q, px, py):
        point = {"y": py}
        assert p.substitute("x", q).eval(point) == p.eval({"x": q.eval(point), "y": py})


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial("m3", 0) == MultiPoly.const(1, ("m3",))
        assert falling_factorial("m3", 2) == poly_parse("m3^2 - m3")

    def test_shifted_product(self):
        # (x2-1)(x2-2)(x2-3) by shifting the variable before expanding
        shifted = falling_factorial("t", 3).substitute("t", poly_parse("x2 - 1"))
        expected = poly_parse("(x2-1)*(x2-2)*(x2-3)")
        assert shifted == expected

    def test_matches_integer_values(self):
        p = falling_factorial("n", 4)
        for n in range(10):
            brute = n * (n - 1) * (n - 2) * (n - 3)
            assert p.eval({"n": n}) == brute


class TestEvalAndCoeff:
    def test_examples(self):
        assert poly_parse("1 + 2*z").eval({"z": Fraction(1, 2)}) == 2
        p = poly_parse("3/2*b^2*c", vars=("b", "c"))
        assert p.coeff((2, 1)) == Fraction(3, 2)
        assert p.coeff((0, 0)) == 0

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            poly_parse("x + y", vars=("x", "y")).eval({"x": 1})

    @staticmethod
    def reference_eval(p, point):
        """Per-term Fraction sum, the definition the integer kernel must match."""
        total = Fraction(0)
        for exps, coeff in p.terms.items():
            term = coeff
            for v, e in zip(p.vars, exps):
                term *= Fraction(point[v]) ** e
            total += term
        return total

    @given(
        data=st.data(),
        vars=st.sampled_from([("z",), ("x", "y"), ("a", "b", "c"), ()]),
        big=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_eval_matches_per_term_sum(self, data, vars, big):
        # wide coefficients and points: 0, negative values and denominators
        # far beyond machine words all go through the same integer kernel
        denominators = st.integers(1, 10**40 if big else 12)
        values = st.builds(Fraction, st.integers(-(10**30), 10**30) | st.just(0), denominators)
        n_terms = data.draw(st.integers(0, 8))
        max_exp = data.draw(st.sampled_from([1, 2, 12]))
        terms = {
            tuple(data.draw(st.integers(0, max_exp)) for _ in vars): data.draw(values)
            for _ in range(n_terms)
        }
        p = MultiPoly(vars, terms)
        point = {v: data.draw(values) for v in vars}
        value = p.eval(point)
        assert value == self.reference_eval(p, point)
        assert p.eval(point) == value  # second call reuses the integer form

    def test_eval_edge_cases(self):
        assert MultiPoly.zero(("z",)).eval({"z": Fraction(-7, 3)}) == 0
        assert MultiPoly.const(Fraction(5, 4)).eval({}) == Fraction(5, 4)
        p = poly_parse("1/3 - 2/5*z^3 + 7*z^9")
        assert p.eval({"z": 0}) == Fraction(1, 3)
        z = Fraction(-(10**25) - 1, 10**25)
        assert p.eval({"z": z}) == Fraction(1, 3) - Fraction(2, 5) * z**3 + 7 * z**9

    def test_derivative(self):
        p = poly_parse("1 + 2*z + 5*z^3")
        assert p.derivative("z") == poly_parse("2 + 15*z^2")


class TestParseSerialize:
    def test_expression_forms(self):
        assert poly_parse("1 + 2*z") == poly_parse("1+2z", vars=("z",))
        assert poly_parse("48 b^6 c^4", vars=("b", "c")).coeff((6, 4)) == 48
        assert poly_parse("8 b^6 c^6/3", vars=("b", "c")).coeff((6, 6)) == Fraction(8, 3)
        group = poly_parse("4924*(3377/39392*b^2*c^2 + c^2 - 35173/196960)^2", vars=("b", "c"))
        assert group.degree("b") == 4

    def test_json_round_trip(self):
        p = poly_parse("48*b^6*c^4 - 1557*c^2 + 180", vars=("b", "c"))
        assert MultiPoly.from_json_dict(p.to_json_dict()) == p
        data = p.to_json_dict()
        assert data["vars"] == ["b", "c"]
        assert {"c": "180", "e": [0, 0]} in data["terms"]

    def test_expr_round_trip(self):
        cases = [
            "1 + 2*z",
            "-x^3 + 5/7*x*y - 2",
            "0",
            "b^2 - c^2",
        ]
        for text in cases:
            p = poly_parse(text)
            assert poly_parse(poly_serialize(p), vars=p.vars) == p

    def test_deterministic_serialization(self):
        a = poly_parse("x*y + x^2 + y^2 + 1", vars=("x", "y"))
        b = poly_parse("1 + y^2 + x^2 + x*y", vars=("x", "y"))
        assert a.to_json_dict() == b.to_json_dict()
        assert poly_serialize(a) == poly_serialize(b)

    def test_parse_errors(self):
        with pytest.raises(PolyParseError):
            poly_parse("1 +")
        with pytest.raises(PolyParseError):
            poly_parse("q + 1", vars=("z",))
        with pytest.raises(PolyParseError):
            poly_parse("x / y")
        with pytest.raises(PolyParseError):
            poly_parse("x ^ 1.5")

    @given(p=polys())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, p):
        assert poly_parse(poly_serialize(p), vars=p.vars) == p
