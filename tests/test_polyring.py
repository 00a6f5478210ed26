"""Sparse polynomial algebra tests: arithmetic, substitution, JSON."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpiverify.polyring import MultiPoly, affine_form, descartes_variations, horner
from reference import derivative, distinct_roots, root_count

var = MultiPoly.var
coeffs = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)
positive_coeffs = coeffs.filter(lambda c: c > 0)


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
        assert not (p - p)
        assert (p - p).terms == {}

    def test_no_zero_coefficients_stored(self):
        x, y = var("x"), var("y")
        p, q = x + y, x - y
        prod = p * q  # x^2 - y^2; the xy terms cancel
        assert set(prod.terms) == {(2, 0), (0, 2)}
        assert all(c != 0 for c in prod.terms.values())

    def test_variable_alignment(self):
        r = var("b") ** 2 + var("c")
        assert r.vars == ("b", "c")
        assert r.coeff((2, 0)) == 1 and r.coeff((0, 1)) == 1

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
        assert all(c != 0 for c in (p * q).terms.values())

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
        prod = p * q
        ring, expected = self.reference_mul(p, q)
        assert prod.vars == ring
        assert prod.terms == expected
        assert all(type(c) is Fraction and c != 0 for c in prod.terms.values())
        assert all(len(e) == len(ring) for e in prod.terms)

    def test_mul_cancellation_leaves_no_key(self):
        x = var("x")
        prod = (x + 1) * (x - 1)
        assert prod.terms == {(2,): 1, (0,): -1}
        half = Fraction(1, 2) * x + Fraction(1, 3)
        prod = half * (half - Fraction(2, 3))
        assert prod.terms == {(2,): Fraction(1, 4), (0,): Fraction(-1, 9)}


MIXED_RINGS = st.sampled_from(
    [(("x", "y"), ("x", "y")), (("x", "y"), ("y", "z")), (("z",), ("x", "y")),
     (("x",), ()), ((), ())]
)


def assert_one_form(p):
    """The one stored form: a positive int denominator in lowest terms with
    the numerators, no zero numerator, and keys of the ring's length."""
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.nums.values()) == 1
    assert all(type(n) is int and n != 0 for n in p.nums.values())
    assert all(len(e) == len(p.vars) for e in p.nums)


def ring_of(*rings):
    """Union of rings, in first-appearance order (the order ops align to)."""
    out = []
    for ring in rings:
        out += [v for v in ring if v not in out]
    return tuple(out)


def fraction_terms(p, ring):
    """p's coefficients over ``ring``, one Fraction per term."""
    out = {}
    for exps, c in p.terms.items():
        key = [0] * len(ring)
        for v, e in zip(p.vars, exps):
            key[ring.index(v)] = e
        out[tuple(key)] = c
    return out


def ref_add(*term_maps):
    """Per-term Fraction sum of coefficient maps over one ring."""
    total = {}
    for terms in term_maps:
        for e, c in terms.items():
            total[e] = total.get(e, Fraction(0)) + c
    return {e: c for e, c in total.items() if c != 0}


def ref_mul(ta, tb):
    """Per-pair Fraction product of coefficient maps over one ring."""
    return ref_add(*({tuple(x + y for x, y in zip(ea, eb)): ca * cb} for ea, ca in ta.items()
                     for eb, cb in tb.items()))


class TestOneFormat:
    """Each operation against a per-term Fraction reference, over mixed rings."""

    @given(data=st.data(), rings=MIXED_RINGS)
    @settings(max_examples=150, deadline=None)
    def test_add_sub_neg_match_per_term_fractions(self, data, rings):
        p, q = data.draw(polys(rings[0])), data.draw(polys(rings[1]))
        if data.draw(st.booleans()):
            q = q - p.scale(data.draw(coeffs))  # shared monomials: sums can cancel
        ring = ring_of(p.vars, q.vars)
        tp, tq = fraction_terms(p, ring), fraction_terms(q, ring)
        for got, expected in (
            (p + q, ref_add(tp, tq)),
            (p - q, ref_add(tp, {e: -c for e, c in tq.items()})),
            (-p, {e: -c for e, c in p.terms.items()}),
            (p - p, {}),
        ):
            assert_one_form(got)
            assert got.terms == expected
        assert (p + q).vars == (p - q).vars == ring

    @given(p=polys(), k=coeffs | st.integers(-(10**20), 10**20))
    @settings(max_examples=100, deadline=None)
    def test_scale_matches_per_term_fractions(self, p, k):
        got = p.scale(k)
        assert_one_form(got)
        assert got.terms == {e: c * k for e, c in p.terms.items() if c * k != 0}
        assert (p * k).terms == (k * p).terms == got.terms

    @given(p=polys(("x", "y", "z")), var=st.sampled_from(["x", "y", "z"]))
    @settings(max_examples=100, deadline=None)
    def test_derivative_matches_per_term_fractions(self, p, var):
        i = p.vars.index(var)
        expected = {}
        for exps, c in p.terms.items():
            if exps[i]:
                expected[exps[:i] + (exps[i] - 1,) + exps[i + 1 :]] = c * exps[i]
        got = derivative(p, var)
        assert_one_form(got)
        assert got.vars == p.vars and got.terms == expected

    @given(p=polys(), ring=st.permutations(["w", "x", "y", "z"]))
    @settings(max_examples=60, deadline=None)
    def test_in_ring_matches_per_term_fractions(self, p, ring):
        got = p.in_ring(ring)
        assert_one_form(got)
        assert got.vars == tuple(ring)
        assert got.terms == fraction_terms(p, tuple(ring))
        assert got == p
        with pytest.raises(ValueError, match="lacks variables"):
            p.in_ring(("x",))

    @given(
        p=polys(),
        var_=st.sampled_from(["x", "y"]),
        a=coeffs,
        b=coeffs,
        c=positive_coeffs,
        extra=st.none() | st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_substitute_matches_per_term_fractions(self, p, var_, a, b, c, extra):
        # var = (a + b w^2)/c; or, with extra given, var = (a + b w^2)/(c (1 + w^2))
        # and the result times (1 + w^2)^clear for clear = deg + extra
        clear = None if extra is None else max(p.degree(var_), 0) + extra
        got = p.substitute(var_, "w", a, b, c, clear)
        ring = ring_of([v for v in p.vars if v != var_], ["w"])
        zero = (0,) * len(ring)
        w2 = zero[:-1] + (2,)
        num = ref_add({zero: a / c}, {w2: b / c})
        den = {zero: Fraction(1), w2: Fraction(1)}
        i = p.vars.index(var_)
        parts = []
        for exps, coeff in p.terms.items():
            term = {exps[:i] + exps[i + 1 :] + (0,): coeff}
            for _ in range(exps[i]):
                term = ref_mul(term, num)
            for _ in range(0 if clear is None else clear - exps[i]):
                term = ref_mul(term, den)
            parts.append(term)
        assert_one_form(got)
        assert got.vars == ring
        assert got.terms == ref_add(*parts)


class TestEqualityAndHash:
    def test_not_hashable(self):
        # equality aligns rings, and no table is keyed by a polynomial
        with pytest.raises(TypeError, match="unhashable"):
            hash(var("x"))

    def test_den_argument_is_reduced(self):
        p = MultiPoly(("x",), {(1,): 2, (0,): 4}, 6)
        q = MultiPoly(("x",), {(1,): Fraction(1, 3), (0,): Fraction(2, 3)})
        assert p == q and p.den == q.den == 3 and p.nums == {(1,): 1, (0,): 2}
        assert_one_form(p)
        assert MultiPoly(("x",), {(1,): 0}, 6).den == 1  # zero: den 1, no terms
        assert MultiPoly(("x",), {(1,): 1}, 2) != MultiPoly(("x",), {(1,): 1})  # same nums

    def test_den_must_be_positive_int(self):
        for den in (0, -1, 1.5, True, Fraction(1, 2)):
            with pytest.raises(ValueError, match="not a positive int"):
                MultiPoly(("x",), {(1,): 1}, den)

    def test_constructor_checks_every_key(self):
        for key, match in (((1, 0), "does not match ring"), ((-1,), "negative exponent"),
                           ((1.0,), "non-integer"), ((True,), "non-integer")):
            with pytest.raises(ValueError, match=match):
                MultiPoly(("x",), {key: 1})


class TestSubstitution:
    """var = (a + b w^2)/c, and (1 + w^2)^clear times var = (a + b w^2)/(c (1 + w^2))."""

    def test_examples(self):
        a, b, c, w = var("a"), var("b"), var("c"), var("w")
        assert (var("m3") ** 2).substitute("m3", "b", 5, 1) == b**4 + 10 * b**2 + 25
        assert var("x2").substitute("x2", "a", 8, 1) == a**2 + 8
        assert not var("z").substitute("z", "w", 0, 0)
        got = (var("x") ** 2 + var("y")).substitute("x", "c", 1, 1, 2)
        assert got.vars == ("y", "c")
        assert got == Fraction(1, 4) * (1 + c**2) ** 2 + var("y")
        # rational constants: (1/2 - w^2/3)/(5/6)
        got = var("x").substitute("x", "w", Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6))
        assert got == Fraction(3, 5) - Fraction(2, 5) * w**2

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            var("z").substitute("w", "c", 1, 0)
        with pytest.raises(ValueError, match="not fresh"):
            (var("x") * var("y")).substitute("x", "y", 0, 1)
        with pytest.raises(ValueError, match="not positive"):
            var("x").substitute("x", "w", 0, 1, 0)

    def test_rational_substitution_examples(self):
        z, c, w = var("z"), var("c"), var("w")
        assert z.substitute("z", "c", 0, 1, clear=1) == c**2
        assert (1 - z).substitute("z", "c", 0, 1, clear=1) == MultiPoly.const(1, ("c",))
        assert (z**2).substitute("z", "c", 0, 1, clear=3) == c**4 * (1 + c**2)
        # g's map u = (11/4) c^2/(1 + c^2): a rational constant, cleared to power 2
        got = (var("u") + 1).substitute("u", "c", 0, Fraction(11, 4), clear=2)
        assert got == (Fraction(11, 4) * c**2 + 1 + c**2) * (1 + c**2)
        # c != 1 and a != 0: z = (1 + 3 w^2)/(2 (1 + w^2))
        assert (z**2).substitute("z", "w", 1, 3, 2, clear=2) == Fraction(1, 4) * (1 + 3 * w**2) ** 2

    def test_rational_substitution_insufficient_power(self):
        with pytest.raises(ValueError, match="smaller than degree"):
            (var("z") ** 2).substitute("z", "c", 0, 1, clear=1)

    @given(p=polys(), q=polys(), a=coeffs, b=coeffs, c=positive_coeffs, moebius=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_substitution_is_ring_homomorphism(self, p, q, a, b, c, moebius):
        def sub(r, clear):
            return r.substitute("x", "w", a, b, c, clear if moebius else None)

        dp, dq = max(p.degree("x"), 0), max(q.degree("x"), 0)
        assert sub(p * q, dp + dq) == sub(p, dp) * sub(q, dq), "subst(p*q) == subst(p)*subst(q)"
        n = max(dp, dq)
        assert sub(p + q, n) == sub(p, n) + sub(q, n)

    @given(p=polys(), a=coeffs, b=coeffs, c=positive_coeffs, pw=coeffs, py=coeffs,
           extra=st.none() | st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_eval_commutes_with_substitution(self, p, a, b, c, pw, py, extra):
        x = (a + b * pw**2) / c
        if extra is None:
            got = p.substitute("x", "w", a, b, c).eval({"y": py, "w": pw})
            assert got == p.eval({"x": x, "y": py})
        else:
            n = max(p.degree("x"), 0) + extra
            got = p.substitute("x", "w", a, b, c, n).eval({"y": py, "w": pw})
            assert got == (1 + pw**2) ** n * p.eval({"x": x / (1 + pw**2), "y": py})


def falling(x: MultiPoly, j: int) -> MultiPoly:
    """x (x-1) ... (x-j+1): the product of linear factors that hyp_poly's
    recurrence builds for a polynomial index."""
    result = MultiPoly.const(1, x.vars)
    for i in range(j):
        result = result * (x - i)
    return result


class TestLinearFactorProducts:
    def test_examples(self):
        m3 = var("m3")
        assert falling(m3, 0) == MultiPoly.const(1, ("m3",))
        assert falling(m3, 2) == m3**2 - m3

    def test_shifted_product(self):
        # (y-1)(y-2)(y-3) at y = w^2 by shifting the variable before expanding
        y = var("w") ** 2
        shifted = falling(var("t"), 3).substitute("t", "w", -1, 1)
        expected = (y - 1) * (y - 2) * (y - 3)
        assert shifted == expected

    def test_matches_integer_values(self):
        p = falling(var("n"), 4)
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

    def test_eval_edge_cases(self):
        assert MultiPoly.zero(("z",)).eval({"z": Fraction(-7, 3)}) == 0
        assert MultiPoly.const(Fraction(5, 4)).eval({}) == Fraction(5, 4)
        p = Fraction(1, 3) - Fraction(2, 5) * var("z") ** 3 + 7 * var("z") ** 9
        assert p.eval({"z": 0}) == Fraction(1, 3)
        z = Fraction(-(10**25) - 1, 10**25)
        assert p.eval({"z": z}) == Fraction(1, 3) - Fraction(2, 5) * z**3 + 7 * z**9

    def test_derivative(self):
        z = var("z")
        assert derivative(1 + 2 * z + 5 * z**3, "z") == 2 + 15 * z**2


class TestAffineForm:
    """affine_form on the grid z = (a + k b)/c, against the MultiPoly routines."""

    @staticmethod
    def int_polys():
        # degree 0..40 once the leading coefficient is nonzero, over a positive den
        coefficients = st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=41)
        return st.builds(
            lambda cs, den: MultiPoly(("z",), {(j,): n for j, n in enumerate(cs)}, den),
            coefficients, st.integers(1, 10**6),
        )

    grids = dict(
        a=st.integers(-(10**12), 10**12) | st.just(0),
        b=st.integers(-(10**12), 10**12) | st.just(0),
        c=st.integers(1, 10**12) | st.just(1),
    )

    @given(data=st.data(), **grids)
    @settings(max_examples=120, deadline=None)
    def test_coefficients_match_horner_expansion(self, data, a, b, c):
        p = data.draw(self.int_polys())
        d = p.degree("z")
        q, scale = affine_form(p, a, b, c)
        if d < 0:
            assert (q, scale) == ([], 1)
            return
        # p((a + k b)/c) as a polynomial in k, expanded by MultiPoly products
        z = (b * var("k") + a).scale(Fraction(1, c))
        expanded = MultiPoly.zero(("k",))
        for j in range(d, -1, -1):
            expanded = expanded * z + p.coeff((j,))
        assert len(q) == d + 1
        assert scale == c**d * p.den
        assert [Fraction(n) for n in q] == [expanded.coeff((i,)) * scale for i in range(d + 1)]

    @given(data=st.data(), k=st.integers(-50, 2000), **grids)
    @settings(max_examples=120, deadline=None)
    def test_horner_matches_eval(self, data, k, a, b, c):
        p = data.draw(self.int_polys())
        q, scale = affine_form(p, a, b, c)
        assert scale > 0
        assert Fraction(horner(q, k), scale) == p.eval({"z": Fraction(a + k * b, c)})

    def test_examples(self):
        z = var("z")
        # 3z^2 - 1/2 at z = (1 + 2k)/3 is (4k^2 + 4k + 1)/3 - 1/2 = (24k^2 + 24k - 3)/18
        assert affine_form(3 * z**2 - Fraction(1, 2), 1, 2, 3) == ([-3, 24, 24], 18)
        assert horner([-3, 24, 24], 2) == 141
        assert horner([], 5) == 0
        # b = 0: one point, the constant p(a/c) c^d den
        assert affine_form(z**3 + 1, 2, 0, 5) == ([133, 0, 0, 0], 125)
        with pytest.raises(ValueError, match="univariate"):
            affine_form(var("x") * var("y"), 0, 1, 1)
        with pytest.raises(ValueError, match="positive int"):
            affine_form(z, 0, 1, 0)


def _times(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@st.composite
def root_polys(draw):
    """Int coefficient lists of degree 0..40: a random cofactor times linear
    factors d x - n, so that rational roots, repeated ones and roots at
    integer endpoints all occur."""
    degree = draw(st.integers(0, 40))
    factors = [
        (d, n)
        for d, n, times in draw(st.lists(st.tuples(st.integers(1, 4), st.integers(-40, 40),
                                                   st.integers(1, 3)), max_size=6))
        for _ in range(times)
    ][:degree]
    size = degree + 1 - len(factors)
    cofactor = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size)
                    .filter(lambda cs: cs[-1]))
    p = cofactor
    for d, n in factors:
        p = _times(p, [-n, d])
    return p


intervals = st.tuples(st.integers(-12, 12), st.integers(1, 12)).map(lambda t: (t[0], t[0] + t[1]))


class TestDescartesVariations:
    """The sign variations of (1 + t)^n p((lo + hi t)/(1 + t)) bound the roots
    of p in (lo, hi), counted with multiplicity, by an even excess."""

    @given(p=root_polys(), interval=intervals)
    @settings(max_examples=150, deadline=None)
    def test_bounds_the_sturm_count(self, p, interval):
        lo, hi = interval
        variations, roots = descartes_variations(p, lo, hi), root_count(p, lo, hi)
        assert variations >= roots and (variations - roots) % 2 == 0
        if variations == 0:
            assert distinct_roots(p, lo, hi) == 0

    @given(p=root_polys(), interval=intervals)
    @settings(max_examples=20, deadline=None)
    def test_sturm_count_matches_sympy(self, p, interval):
        sympy = pytest.importorskip("sympy")
        lo, hi = interval
        x = sympy.Symbol("x")
        # count_roots counts distinct roots in the closed interval [lo, hi]
        closed = sympy.Poly(list(reversed(p)), x).count_roots(lo, hi)
        on_ends = sum(horner(p, end) == 0 for end in (lo, hi))
        assert distinct_roots(p, lo, hi) == closed - on_ends
        assert descartes_variations(p, lo, hi) >= closed - on_ends

    def test_examples(self):
        # x (x - 1) vanishes at both ends of (0, 1), and nowhere inside
        assert descartes_variations([0, -1, 1], 0, 1) == 0
        assert descartes_variations(_times([-2, 1], [-5, 1]), 2, 5) == 0
        # (x - 3)^2 (x + 1) on (-1, 3): a root at each end, none inside
        assert descartes_variations(_times(_times([-3, 1], [-3, 1]), [1, 1]), -1, 3) == 0
        # a double root inside counts twice; so does a pair of roots
        assert descartes_variations([1, -4, 4], 0, 1) == 2
        assert descartes_variations(_times([-1, 3], [-2, 3]), 0, 1) == 2
        assert descartes_variations([1, -4, 4], 1, 3) == 0
        # 2x - 1 has one root in (0, 1); zero top coefficients are ignored
        assert descartes_variations([-1, 2], 0, 1) == 1
        assert descartes_variations([-1, 2, 0, 0], 0, 1) == 1
        assert descartes_variations([-1, 2], 1, 10**6) == 0
        assert descartes_variations([7], -3, 3) == 0
        for zero in ([], [0, 0]):
            with pytest.raises(ValueError, match="zero polynomial"):
                descartes_variations(zero, 0, 1)
        with pytest.raises(ValueError, match="lo < hi"):
            descartes_variations([-1, 2], 1, 1)


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
