"""Sparse polynomial algebra tests: arithmetic, substitution, JSON."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpiverify.polyring import MultiPoly, falling_factorial

var = MultiPoly.var
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
        z, c = var("z"), var("c")
        p = 1 + 2 * z
        assert p * p == 1 + 4 * z + 4 * z**2
        assert (1 + c**2) ** 3 == 1 + 3 * c**2 + 3 * c**4 + c**6
        assert (p - p).is_zero()
        assert (p - p).terms == {}

    def test_no_zero_coefficients_stored(self):
        x, y = var("x"), var("y")
        p, q = x + y, x - y
        prod = p * q  # x^2 - y^2; the xy terms cancel
        assert set(prod.terms) == {(2, 0), (0, 2)}
        assert all(c != 0 for c in prod.coefficients())

    def test_variable_alignment(self):
        r = var("b") ** 2 + var("c")
        assert r.vars == ("b", "c")
        assert r.coeff({"b": 2}) == 1 and r.coeff({"c": 1}) == 1

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            var("x") ** -1

    @given(p=polys(), q=polys(), r=polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert all(c != 0 for c in (p * q).coefficients())

    @staticmethod
    def reference_mul(p, q):
        """Product as one Fraction per pair of terms, over the union ring."""
        ring = MultiPoly.union_ring(p, q)
        a, b = p.in_ring(ring), q.in_ring(ring)
        terms = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                terms[key] = terms.get(key, Fraction(0)) + ca * cb
        return ring, {k: c for k, c in terms.items() if c != 0}

    @given(
        data=st.data(),
        rings=st.sampled_from(
            [(("x", "y"), ("x", "y")), (("x", "y"), ("y", "z")), (("z",), ("x", "y")),
             (("x",), ()), ((), ())]
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_per_pair_fractions(self, data, rings):
        p, q = data.draw(polys(rings[0])), data.draw(polys(rings[1]))
        if data.draw(st.booleans()):
            q = q + p.scale(data.draw(coeffs))  # shared monomials: products can cancel
        saved = copy.deepcopy([p._integer_form(), q._integer_form()])
        prod = p * q
        ring, expected = self.reference_mul(p, q)
        assert prod.vars == ring
        assert prod.terms == expected
        assert all(type(c) is Fraction and c != 0 for c in prod.coefficients())
        assert all(len(e) == len(ring) for e in prod.terms)
        assert [p._int_form, q._int_form] == saved  # operands' caches untouched
        fresh = MultiPoly(p.vars, p.terms)
        fresh * q
        assert fresh._int_form is None  # a product caches nothing on its operands

    def test_mul_cancellation_leaves_no_key(self):
        x = var("x")
        prod = (x + 1) * (x - 1)
        assert prod.terms == {(2,): 1, (0,): -1}
        half = Fraction(1, 2) * x + Fraction(1, 3)
        prod = half * (half - Fraction(2, 3))
        assert prod.terms == {(2,): Fraction(1, 4), (0,): Fraction(-1, 9)}


class TestSubstitution:
    def test_examples(self):
        b, a = var("b"), var("a")
        assert (var("m3") ** 2).substitute("m3", b**2 + 5) == b**4 + 10 * b**2 + 25
        assert var("x2").substitute("x2", a**2 + 8) == a**2 + 8
        assert var("z").substitute("z", 0).is_zero()

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            var("z").substitute("w", 1)

    def test_rational_substitution_examples(self):
        z, c = var("z"), var("c")
        c2, den = c**2, 1 + c**2
        assert z.substitute_rational("z", c2, den, 1) == c2
        assert (1 - z).substitute_rational("z", c2, den, 1) == MultiPoly.const(1, ("c",))
        assert (z**2).substitute_rational("z", c2, den, 3) == c**4 * (1 + c**2)

    def test_rational_substitution_insufficient_power(self):
        c = var("c")
        with pytest.raises(ValueError):
            (var("z") ** 2).substitute_rational("z", c**2, 1 + c**2, 1)

    @given(p=polys(), q=polys(vars=("y",)))
    @settings(max_examples=40, deadline=None)
    def test_substitution_is_ring_homomorphism(self, p, q):
        other = 1 + var("y")
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
        m3 = var("m3")
        assert falling_factorial("m3", 2) == m3**2 - m3

    def test_shifted_product(self):
        # (x2-1)(x2-2)(x2-3) by shifting the variable before expanding
        x2 = var("x2")
        shifted = falling_factorial("t", 3).substitute("t", x2 - 1)
        expected = (x2 - 1) * (x2 - 2) * (x2 - 3)
        assert shifted == expected

    def test_matches_integer_values(self):
        p = falling_factorial("n", 4)
        for n in range(10):
            brute = n * (n - 1) * (n - 2) * (n - 3)
            assert p.eval({"n": n}) == brute


class TestEvalAndCoeff:
    def test_examples(self):
        assert (1 + 2 * var("z")).eval({"z": Fraction(1, 2)}) == 2
        p = Fraction(3, 2) * var("b") ** 2 * var("c")
        assert p.coeff((2, 1)) == Fraction(3, 2)
        assert p.coeff((0, 0)) == 0

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            (var("x") + var("y")).eval({"x": 1})

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
        p = Fraction(1, 3) - Fraction(2, 5) * var("z") ** 3 + 7 * var("z") ** 9
        assert p.eval({"z": 0}) == Fraction(1, 3)
        z = Fraction(-(10**25) - 1, 10**25)
        assert p.eval({"z": z}) == Fraction(1, 3) - Fraction(2, 5) * z**3 + 7 * z**9

    def test_derivative(self):
        z = var("z")
        assert (1 + 2 * z + 5 * z**3).derivative("z") == 2 + 15 * z**2


class TestJson:
    def test_json_round_trip(self):
        b, c = var("b"), var("c")
        p = 48 * b**6 * c**4 - 1557 * c**2 + 180
        assert MultiPoly.from_json_dict(p.to_json_dict()) == p
        data = p.to_json_dict()
        assert data["vars"] == ["b", "c"]
        assert {"c": "180", "e": [0, 0]} in data["terms"]

    def test_deterministic_serialization(self):
        # equality ignores ring order, the JSON form does not: pin the ring
        x, y = var("x"), var("y")
        a = (x * y + x**2 + y**2 + 1).in_ring(("x", "y"))
        b = (1 + y**2 + x**2 + x * y).in_ring(("x", "y"))
        assert a.to_json_dict() == b.to_json_dict()

    def test_duplicate_monomial_rejected(self):
        data = {"vars": ["z"], "terms": [{"c": "1", "e": [2]}, {"c": "3", "e": [2]}]}
        with pytest.raises(ValueError, match="duplicate monomial"):
            MultiPoly.from_json_dict(data)
        # a zero coefficient still claims its monomial
        data["terms"][0]["c"] = "0"
        with pytest.raises(ValueError, match="duplicate monomial"):
            MultiPoly.from_json_dict(data)

    def test_exponent_vector_must_match_ring(self):
        with pytest.raises(ValueError, match="does not match ring"):
            MultiPoly.from_json_dict({"vars": ["b", "c"], "terms": [{"c": "1", "e": [1]}]})

    def test_non_integer_exponent_rejected(self):
        # int() would read 1.5 and true both as z^1
        for e in (1.5, True, 2.0, "1"):
            with pytest.raises(ValueError, match="non-integer"):
                MultiPoly.from_json_dict({"vars": ["z"], "terms": [{"c": "1", "e": [e]}]})
        data = {"vars": ["z"], "terms": [{"c": "1", "e": [1.5]}, {"c": "2", "e": [True]}]}
        with pytest.raises(ValueError, match="non-integer"):
            MultiPoly.from_json_dict(data)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            MultiPoly.from_json_dict({"vars": ["z"], "terms": [{"c": "1", "e": [-1]}]})

    def test_zero_coefficient_dropped(self):
        data = {"vars": ["z"], "terms": [{"c": "0", "e": [3]}, {"c": "5/2", "e": [1]}]}
        p = MultiPoly.from_json_dict(data)
        assert p.terms == {(1,): Fraction(5, 2)}
        assert p.to_json_dict()["terms"] == [{"c": "5/2", "e": [1]}]

    @given(p=polys())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, p):
        data = p.to_json_dict()
        q = MultiPoly.from_json_dict(data)
        assert q == p and q.vars == p.vars
        assert q.to_json_dict() == data
