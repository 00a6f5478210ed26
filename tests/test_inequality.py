"""Tests for the inequality objects: parameters, H, S, h, f, g, and the
exact/interval predicates."""

import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpiverify.checks import (
    check_gpi,
    check_gpi_real,
    check_mri,
    check_mri_real,
    find_mri_real_violation,
    find_mri_violation,
)
from gpiverify.inequality import (
    SCAN_PREDICATES,
    G_at_one,
    H_at_one,
    H_value,
    S_poly,
    TRUNCATION_BOUND,
    check_domain,
    check_point,
    default_scan_range,
    f_truncated_poly,
    g_poly,
    h_parts,
    h_poly,
    in_coverage_set,
    make_params,
    make_real_params,
    margin_polys,
    scan,
)
from gpiverify.exactnum import sign_sqrt
from gpiverify.gausshyp import HALF, THREE_HALVES, hyp_poly
from gpiverify.inequality import _index_polys, _scan_point
from gpiverify.moments import GaussianPair, double_factorial_odd
from gpiverify.polyring import MultiPoly
from gpiverify.report import jsonable
from reference import (
    G_value,
    coverage_rule,
    deriv_direct_form,
    deriv_reduced_form,
    gpi_margin,
    h_compare,
    hyp_value_at_one,
    mri_ratio,
    neg_g_den_form,
    point_verdict,
    quadratic_form_residuals,
    sign_of,
    specialize,
)

#: the pairs of the margin identities: a full square of small pairs and the
#: interval-scan pairs (30, 30..34)
FORM_PAIRS = [(m2, m3) for m2 in range(1, 13) for m3 in range(1, 13)] + [
    (30, m3) for m3 in range(30, 35)
]

DERIV_PREDICATES = ("h-deriv", "h-deriv-reduced")

_Z = MultiPoly.var("z")


def symbolic_params() -> SimpleNamespace:
    """A stand-in for GpiParams with m2 and m3 the polynomial variables m2
    and m3, and r, m2 + m3 + 1 and (m3 - m2)^2 polynomials in them.  h_parts
    and the radical branches of margin_polys only do arithmetic with these,
    so margin_polys gives each margin as a polynomial in m2, m3 and z: an
    identity there holds for every pair.  margin_polys keeps no memo, so it
    takes this unhashable stand-in directly.  g-negative's f1 and f2 come
    from hyp_poly, whose degree is m2, so a test replaces them by
    variables."""
    m2, m3 = MultiPoly.var("m2"), MultiPoly.var("m3")
    return SimpleNamespace(
        m2=m2, m3=m3, r=(2 * m2 + 1) * (2 * m3 + 1) + 1, msum=m2 + m3 + 1, mdiff_sq=(m3 - m2) ** 2,
    )


class TestParams:
    def test_examples(self):
        p = make_params(1, 1)
        assert p.r == 10 and p.t == Fraction(4, 49) and not p.in_s
        p = make_params(2, 3)
        assert p.r == 36 and p.t == Fraction(24, 899) and p.in_s
        assert make_params(1, 5).in_s

    def test_coverage_set(self):
        assert not in_coverage_set(1, 4)
        assert in_coverage_set(1, 5)
        assert not in_coverage_set(2, 2)
        assert in_coverage_set(2, 3)
        assert in_coverage_set(3, 3)
        assert in_coverage_set(9, 5)  # order-insensitive
        for m2 in range(1, 41):
            for m3 in range(1, 41):
                assert in_coverage_set(m2, m3) == coverage_rule(m2, m3), (m2, m3)

    def test_t_between_inverse_powers(self):
        for m2 in range(1, 13):
            for m3 in range(m2, 13):
                p = make_params(m2, m3)
                assert 1 / (p.r * p.r) < p.t < 1 / p.r

    def test_sum_of_squares_identity(self):
        for m2 in range(1, 13):
            for m3 in range(m2, 13):
                assert (m2 + m3 + 1) ** 2 == (m3 - m2) ** 2 + (2 * m2 + 1) * (2 * m3 + 1)

    def test_requires_positive_indices(self):
        with pytest.raises(ValueError):
            make_params(0, 3)


class TestQuadraticForm:
    def test_identities_hold_for_every_z(self):
        # the discriminant identity, and 1/H as a root of the quadratic, as
        # polynomial identities in z for every pair up to 15
        for m2 in range(1, 16):
            for m3 in range(1, 16):
                residuals = quadratic_form_residuals(make_params(m2, m3))
                assert not any(residuals), (m2, m3)


class TestH:
    def test_closed_form_at_one(self):
        assert H_at_one(make_params(1, 1)) == Fraction(6, 11)
        assert H_at_one(make_params(2, 3)) == Fraction(12, 37)

    def test_interval_collapses_at_one(self):
        # the radicand is a perfect square at z = 1
        for m2, m3 in [(1, 1), (2, 3), (5, 12)]:
            params = make_params(m2, m3)
            iv = H_value(params, Fraction(1), Fraction(1, 10**12))
            assert iv.lo == iv.hi == H_at_one(params)

    def test_interval_width_and_float_agreement(self):
        params = make_params(3, 7)
        z = Fraction(1, 5)
        iv = H_value(params, z, Fraction(1, 10**9))
        assert iv.hi - iv.lo <= Fraction(1, 10**9)
        r = float(params.r)
        d = (3 - 7) ** 2 * (r * 0.2 - 1) ** 2 + (r - 1) ** 3 * 0.2
        h_float = (11 * (r * 0.2 - 1) + math.sqrt(d)) / (r * r * 0.2 - 1)
        assert float(iv.lo) <= h_float <= float(iv.hi) or abs(h_float - float(iv.lo)) < 1e-9

    def test_domain_error(self):
        params = make_params(1, 1)
        with pytest.raises(ValueError):
            H_value(params, Fraction(1, 200))  # below 1/r^2 = 1/100

    def test_h_compare_consistency(self):
        params = make_params(4, 6)
        z = Fraction(1, 7)
        iv = H_value(params, z, Fraction(1, 10**12))
        for theta in (Fraction(1, 7), Fraction(1, 2), Fraction(2, 3), Fraction(5)):
            sign = h_compare(params, z, theta)
            if sign > 0:
                assert iv.hi > theta
            elif sign < 0:
                assert iv.lo < theta


class TestLemmaBounds:
    def test_exact_checks(self):
        # at the closed upper ends, which are also the scans' last points
        params = make_params(8, 8)
        for predicate, z in (("h-half", 1 / params.r), ("h-seventh", TRUNCATION_BOUND / 64)):
            rep = check_point(predicate, params, z)
            last = scan(predicate, params, grid_n=3).metadata["points"][-1]
            assert last["z"] == z
            assert (rep.status, rep.margin) == ("holds", last["value"]) == ("holds", 1)

    def test_small_params_hold_too(self):
        params = make_params(1, 1)
        z = Fraction(1, 100) + Fraction(1, 1000)  # slightly above 1/r^2
        rep = check_point("h-half", params, z)
        assert rep.status == "holds"
        assert rep.margin == point_verdict("h-half", params, z)[1] == 1

    def test_domain_enforced(self):
        params = make_params(8, 8)
        with pytest.raises(ValueError, match="outside the h-half domain"):
            check_point("h-half", params, Fraction(1, 2))
        with pytest.raises(ValueError, match="outside the h-seventh domain"):
            check_point("h-seventh", params, 1 / (params.r * 2))
        with pytest.raises(ValueError, match="unknown predicate"):
            check_point("h-third", params, Fraction(1, 2))


class TestSPoly:
    def test_value_at_zero(self):
        # (2m2+1)(2m3+1) - 2(m2+m3+1) + 1
        assert S_poly(1, 5).eval({"z": 0}) == 20
        assert S_poly(2, 3).eval({"z": 0}) == 24

    def test_degree(self):
        for m2, m3 in [(1, 5), (2, 3), (4, 9)]:
            assert S_poly(m2, m3).degree("z") == 2 * m2 + 1

    def test_positive_inside_for_covered_pair(self):
        assert S_poly(2, 3).eval({"z": Fraction(1, 2)}) > 0

    def test_sign_at_one_tracks_mri_boundary(self):
        # (1,1) violates the ratio inequality near z = 1; its S(1) is negative
        assert S_poly(1, 1).eval({"z": 1}) < 0
        assert S_poly(1, 5).eval({"z": 1}) > 0

    def test_symbolic_specialization(self):
        # S built with a polynomial m3, specialized at every m3 (below m2 too)
        m3v = MultiPoly.var("m3")
        for m2 in (1, 2, 3):
            sym = S_poly(m2, m3v)
            for m3 in range(1, 10):
                assert specialize(sym, "m3", m3) == S_poly(m2, m3), (m2, m3)


class TestHPoly:
    def test_printed_spot_values(self):
        h1 = h_poly(1)
        assert h1.eval({"b": 0, "c": 0}) == 20  # 180/9
        assert h1.vars == ("b", "c")
        assert h1.coeff((6, 6)) == Fraction(8, 3)
        assert h_poly(2).coeff((10, 10)) == Fraction(32, 15)

    def test_even_exponents_only(self):
        for m2 in range(1, 10):
            assert all(
                all(e % 2 == 0 for e in exps) for exps in h_poly(m2).terms
            ), m2

    def test_range_enforced(self):
        # any m2 >= 1: only the bundled files stop at 7
        with pytest.raises(ValueError):
            h_poly(0)
        assert len(h_poly(8).nums) == 188

    def test_h_encodes_s_at_rational_points(self):
        # h_{m2}(b, c) = (1+c^2)^(2m2+1) S(c^2/(1+c^2)) with m3 = b^2 + offset
        for m2, b in [(1, 0), (2, 1), (3, 2), (8, 1), (9, 3)]:
            offset = {1: 5, 2: 3}.get(m2, m2)
            m3 = b * b + offset
            for c in (Fraction(1, 2), Fraction(2)):
                z = c * c / (1 + c * c)
                lhs = h_poly(m2).eval({"b": b, "c": c})
                rhs = (1 + c * c) ** (2 * m2 + 1) * S_poly(m2, m3).eval({"z": z})
                assert lhs == rhs, (m2, b, c)


class TestFAndG:
    def test_f_at_origin_slice(self):
        f = f_truncated_poly()
        assert f.eval({"x2": 8, "x3": 8, "u": 0}) == 2**50 * math.factorial(17) ** 2

    def test_g_equals_f_at_c_zero(self):
        g = g_poly()
        f = f_truncated_poly()
        assert g.eval({"a": 0, "b": 0, "c": 0}) == f.eval({"x2": 8, "x3": 8, "u": 0})

    def test_g_structure(self):
        g = g_poly()
        assert g.degree("a") == 16 and g.degree("b") == 16 and g.degree("c") == 18
        assert all(all(e % 2 == 0 for e in exps) for exps in g.terms)
        assert all(coeff >= 0 for coeff in g.terms.values())

    def test_g_symmetric_in_a_b(self):
        g = g_poly()
        for (ea, eb, ec), coeff in g.terms.items():
            assert g.coeff((eb, ea, ec)) == coeff


class TestEquivalenceChain:
    """The cleared-denominator polynomial S and the product-form inequality

        z [(r-1) f2 - 1]^2  <  [(2m2+1) F(-m2-1,-m3;1/2;z) - 1]
                               * [(2m3+1) F(-m2,-m3-1;1/2;z) - 1]

    certify the same ratio inequality; their margins must agree in sign.
    """

    COVERED = [(1, 5), (2, 3), (3, 3), (5, 9)]

    @staticmethod
    def _product_form_margin(m2, m3, z):
        from gpiverify.gausshyp import HALF, THREE_HALVES, hyp_poly

        rm1 = (2 * m2 + 1) * (2 * m3 + 1)
        f2 = hyp_poly(m2, m3, THREE_HALVES).eval({"z": z})
        left = z * (rm1 * f2 - 1) ** 2
        right = ((2 * m2 + 1) * hyp_poly(m2 + 1, m3, HALF).eval({"z": z}) - 1) * (
            (2 * m3 + 1) * hyp_poly(m2, m3 + 1, HALF).eval({"z": z}) - 1
        )
        return right - left

    def test_sign_agreement_at_random_points(self):
        rng = random.Random(333)
        for m2, m3 in self.COVERED:
            params = make_params(m2, m3)
            s = S_poly(m2, m3)
            lo = 1 / (params.r * params.r)
            for _ in range(50):
                z = lo + Fraction(rng.randint(1, 9999), 10000) * (1 - lo)
                s_val = s.eval({"z": z})
                chain_val = self._product_form_margin(m2, m3, z)
                assert s_val > 0 and chain_val > 0, (m2, m3, z)

    def test_s_is_sufficient_not_necessary(self):
        # S comes from a squaring step, so it is a one-way certificate: for
        # the uncovered pair (1,1) near z = 1, S is negative while the exact
        # product-form margin stays nonnegative (zero only at z = 1)
        z = Fraction(97, 100)
        assert S_poly(1, 1).eval({"z": z}) < 0
        assert self._product_form_margin(1, 1, z) > 0
        assert self._product_form_margin(1, 1, Fraction(1)) == 0


class TestMriGpiBridge:
    def test_strict_mri_implies_gpi_on_grid(self):
        # wherever the ratio bound holds strictly, the product inequality
        # holds for every sampled coefficient a at the same correlation
        params = make_params(2, 3)
        for kx in range(-10, 11):
            x = Fraction(kx, 10)
            mri = check_mri(params, GaussianPair.unit(x))
            assert mri.status == "holds"
            if not mri.metadata["equality"]:
                for ka in range(-8, 9):
                    a = Fraction(ka, 4)
                    gpi = check_gpi(params, a, x)
                    assert gpi.status == "holds", (a, x)


class TestCheckGpi:
    def test_known_margin(self):
        rep = check_gpi(make_params(1, 1), Fraction(-1), Fraction(1, 2))
        assert rep.status == "holds" and rep.margin == Fraction(1, 2)

    def test_degenerate_equality(self):
        rep = check_gpi(make_params(1, 1), Fraction(-1), Fraction(1))
        assert rep.status == "holds" and rep.margin == 0 and rep.metadata["equality"]

    def test_covered_pair_point(self):
        rep = check_gpi(make_params(2, 5), Fraction(3, 2), Fraction(-3, 4))
        assert rep.status == "holds" and rep.margin > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            check_gpi(make_params(1, 1), Fraction(0), Fraction(3, 2))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6),
           st.fractions(min_value=-8, max_value=8, max_denominator=60),
           st.fractions(min_value=-1, max_value=1, max_denominator=60))
    def test_margin_is_the_closed_form_moment_margin(self, m2, m3, a, x):
        assert check_gpi(make_params(m2, m3), a, x).margin == gpi_margin(m2, m3, a, x)


class TestCheckMri:
    def test_known_violation_at_full_correlation(self):
        params = make_params(1, 1)
        pair = GaussianPair.unit(Fraction(1))
        assert mri_ratio(params, pair) == Fraction(5, 9)
        assert H_at_one(params) == Fraction(6, 11)
        rep = check_mri(params, pair)
        assert rep.status == "fails"
        assert rep.margin == S_poly(params.m2, params.m3).eval({"z": 1}) == -5
        bound = rep.witnesses[0]["bound"]
        assert bound.lo == bound.hi == Fraction(6, 11)

    def test_independence_equality(self):
        rep = check_mri(make_params(1, 5), GaussianPair.unit(0))
        assert rep.status == "holds" and rep.metadata["equality"] and rep.margin == 0

    def test_branch_selection_exact(self):
        rep = check_mri(make_params(2, 3), GaussianPair.unit(Fraction(1, 4)))
        assert rep.status == "holds"
        assert rep.witnesses[0]["branch"] == "ratio-bound"  # 1/16 > 24/899
        rep2 = check_mri(make_params(2, 3), GaussianPair.unit(Fraction(1, 8)))
        assert rep2.witnesses[0]["branch"] == "covariance"  # 1/64 < 24/899
        witness = rep2.witnesses[0]
        assert witness["bound"] == Fraction(1, 8)
        assert rep2.margin == witness["bound"] - witness["lhs"] == Fraction(27, 2030)

    def test_non_unit_variances(self):
        pair = GaussianPair(Fraction(9, 4), Fraction(4), Fraction(3, 2))
        rep = check_mri(make_params(3, 3), pair)
        assert rep.status == "holds"

    def test_violation_searches(self):
        assert find_mri_violation(make_params(1, 1)).metadata["found"]
        assert find_mri_violation(make_params(2, 2)).metadata["found"]
        assert not find_mri_violation(make_params(3, 3), steps=40).metadata["found"]

    def test_violation_search_builds_one_bound(self, monkeypatch):
        # each correlation is decided from its margin; only the returned
        # witness's bound is enclosed
        import gpiverify.inequality as inequality

        calls = []
        enclose = inequality.sqrt_enclosure
        monkeypatch.setattr(inequality, "sqrt_enclosure",
                            lambda *a: calls.append(a) or enclose(*a))
        params = make_params(2, 2)
        report = find_mri_violation(params)
        assert len(calls) == 1
        # the witness is the first failing check_mri walking down from x = 1
        x = next(Fraction(k, 100) for k in range(100, 0, -1)
                 if check_mri(params, GaussianPair.unit(Fraction(k, 100))).status == "fails")
        detail = check_mri(params, GaussianPair.unit(x)).witnesses
        assert jsonable(report.witnesses) == jsonable([{"x": x, "detail": detail}])
        assert detail[0]["branch"] == "ratio-bound"
        calls.clear()
        assert not find_mri_violation(make_params(3, 3), steps=40).metadata["found"]
        assert not calls

    def test_exact_verdict_agrees_with_interval_route(self):
        # the squared-radical decision must match a high-precision enclosure
        # of bound - lhs whenever the enclosure resolves the sign
        rng = random.Random(909)
        width = Fraction(1, 10**30)
        for _ in range(40):
            m2 = rng.randint(1, 6)
            m3 = rng.randint(m2, 9)
            x = Fraction(rng.randint(1, 99), 100)
            params = make_params(m2, m3)
            pair = GaussianPair.unit(x)
            report = check_mri(params, pair)
            lhs = mri_ratio(params, pair)
            if x * x <= params.t:
                lo = hi = abs(pair.cov)
            else:
                h = H_value(params, x * x, width)
                lo, hi = h.lo * abs(pair.cov), h.hi * abs(pair.cov)
            sign = sign_of(lo - lhs, hi - lhs)
            if sign == 1:
                assert report.status == "holds"
            elif sign == -1:
                assert report.status == "fails"

    def test_sign_of_s_agrees_with_the_radical_decision(self):
        # the ratio bound holds iff S(corr^2) >= 0, with equality together;
        # lhs = |cov| f2/f1 is the moment ratio at every pair
        rng = random.Random(2121)
        pairs = [GaussianPair.unit(Fraction(k, 50)) for k in range(-50, 51)]
        for u, w in [(Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(1, 5))]:
            pairs += [GaussianPair(u * u, w * w, u * w), GaussianPair(u * u, w * w, -u * w)]
        pairs.append(GaussianPair(2, 8, 4))  # corr^2 = 1 with non-square variances
        pairs.append(GaussianPair(4, 3, 3))  # corr^2 = 3/4
        for _ in range(30):
            var2 = Fraction(rng.randint(1, 40), rng.randint(1, 9))
            var3 = Fraction(rng.randint(1, 40), rng.randint(1, 9))
            root = Fraction(math.isqrt(int(var2 * var3 * 10**6)), 1000)  # <= sqrt(var2 var3)
            pairs.append(GaussianPair(var2, var3, root * Fraction(rng.randint(-20, 20), 20)))
        seen = dict.fromkeys(["ratio-bound", "covariance", "fails", "equality",
                              "scaled, (t, 1)", "scaled, 1"], 0)
        for m2 in range(1, 9):
            for m3 in range(1, 9):
                params = make_params(m2, m3)
                # built once per pair of indices, as find_mri_violation does
                fs = (hyp_poly(m2, m3, HALF), hyp_poly(m2, m3, THREE_HALVES))
                s_poly = S_poly(m2, m3)
                for pair in pairs:
                    report = check_mri(params, pair, fs)
                    (witness,) = report.witnesses
                    # the radical decision: lhs against |cov| when corr^2 <= t,
                    # otherwise the sign of H(corr^2) - lhs/|cov|
                    lhs, z, abs_cov = mri_ratio(params, pair), pair.corr_sq, abs(pair.cov)
                    diff = abs_cov - lhs if z <= params.t else h_compare(params, z, lhs / abs_cov)
                    status, equality = ("holds" if diff >= 0 else "fails"), diff == 0
                    where = (m2, m3, pair.var2, pair.var3, pair.cov)
                    assert (report.status, report.metadata["equality"]) == (status, equality), where
                    assert witness["lhs"] == lhs, where
                    if witness["branch"] == "ratio-bound":
                        assert report.margin == s_poly.eval({"z": z}), where
                    seen[witness["branch"]] += 1
                    seen["fails"] += status == "fails"
                    seen["equality"] += equality
                    if pair.var2 != 1:
                        # the ratio branch at corr^2 = 1 and at corr^2 in (t, 1)
                        key = "scaled, 1" if pair.corr_sq == 1 else "scaled, (t, 1)"
                        seen[key] += witness["branch"] == "ratio-bound"
        assert min(seen.values()) > 0, seen

    def test_scans_hold_for_other_large_pairs(self):
        for pair in [(8, 12), (10, 10), (12, 12)]:
            params = make_params(*pair)
            for predicate in ("g-negative", "h-deriv", "h-deriv-reduced"):
                assert scan(predicate, params, grid_n=11).status == "holds", (pair, predicate)


class TestHfri:
    def test_examples(self):
        assert check_point("hfri", make_params(1, 5), Fraction(1, 2)).status == "holds"
        assert check_point("hfri", make_params(3, 3), Fraction(999, 1000)).status == "holds"

    def test_boundary_excluded(self):
        with pytest.raises(ValueError):
            check_point("hfri", make_params(1, 1), Fraction(1))

    def test_exact_zero_fails(self):
        # S_{1,2}(3/4) = 0 exactly: the inequality is strict
        rep = check_point("hfri", make_params(1, 2), Fraction(3, 4))
        assert (rep.status, rep.margin) == ("fails", 0)
        assert rep.name == "hfri:m2=1,m3=2,z=3/4"
        assert rep.metadata == {"method": "exact rational"}


class TestG:
    def test_exact_values_at_one(self):
        assert G_at_one(make_params(1, 1)) == Fraction(1, 11)
        assert G_at_one(make_params(8, 8)) < 0

    def test_exact_values_at_one_match_the_f_big_form(self):
        # G(1) = F(-m2-1, -m3; 1/2; 1) - (2m3+1) H(1) F(-m2, -m3; 1/2; 1),
        # with F(., .; 1/2; 1) by Chu-Vandermonde
        for m2, m3 in [(1, 1), (8, 8), (1, 2), (2, 2), (3, 5), (8, 12)]:
            params = make_params(m2, m3)
            f_big, f1 = (hyp_value_at_one(m, m3, HALF) for m in (m2 + 1, m2))
            assert G_at_one(params) == f_big - (2 * m3 + 1) * H_at_one(params) * f1, (m2, m3)

    def test_margin_is_minus_g_den_over_the_slope(self):
        # (2m3+1) z (alpha + beta s) is -G den built from F(-m2-1, -m3; 1/2; z)
        for m2, m3 in FORM_PAIRS:
            params = make_params(m2, m3)
            alpha, beta, _ = margin_polys("g-negative", params)
            slope = (2 * m3 + 1) * _Z
            assert (slope * alpha, slope * beta) == neg_g_den_form(params), (m2, m3)

    def test_certificate_polynomial_is_minus_den_times_s(self):
        # certifying G < 0 is the root-freeness question of S
        for m2 in range(1, 9):
            for m3 in range(1, 9):
                params = make_params(m2, m3)
                alpha, beta, d = margin_polys("g-negative", params)
                den = h_parts(params, _Z)[2]
                assert alpha * alpha - beta * beta * d == -den * S_poly(m2, m3), (m2, m3)

    def test_sign_matches_closed_form_factor(self):
        # G(1) < 0 iff (2m2-1)(2m3-1) > 2
        for m2, m3 in [(1, 1), (1, 2), (2, 2), (3, 5), (8, 12)]:
            sign_factor = (2 * m2 - 1) * (2 * m3 - 1) - 2
            value = G_at_one(make_params(m2, m3))
            assert (value < 0) == (sign_factor > 0), (m2, m3)

    def test_interval_negative_in_tail_regime(self):
        params = make_params(8, 10)
        z = TRUNCATION_BOUND / 80 + Fraction(1, 50)
        assert sign_of(*G_value(params, z, Fraction(1, 10**6))) == -1

    def test_interval_consistent_at_one(self):
        params = make_params(8, 8)
        lo, hi = G_value(params, Fraction(1), Fraction(1, 10**9))
        assert lo <= G_at_one(params) <= hi

    def test_exact_sign_matches_enclosure_on_scan(self):
        # the g-negative value is the exact sign of -G; G_value's enclosure,
        # narrowed until its sign is decided, is the independent reference
        params = make_params(8, 8)
        points = scan("g-negative", params, grid_n=101).metadata["points"]
        for point in points:
            width = Fraction(1, 10**6)
            while (sign := sign_of(*G_value(params, point["z"], width))) is None:
                width /= 2
            assert point["value"] == -sign, point["z"]


class TestDerivForms:
    """h-deriv and h-deriv-reduced share one margin; the paper's direct form
    (rhs - lhs) den^2 D and its hand-expanded radical-isolated form, in
    tests/reference.py, are checked against it."""

    def test_direct_form_is_sqrt_d_times_the_margin(self):
        # (rhs - lhs) den^2 D = alpha_direct + beta_direct s with s = sqrt(D)
        # is s (alpha + beta s): alpha_direct = beta D, beta_direct = alpha
        for pair in FORM_PAIRS:
            params = make_params(*pair)
            for predicate in DERIV_PREDICATES:
                alpha, beta, d = margin_polys(predicate, params)
                assert deriv_direct_form(params) == (beta * d, alpha), (predicate, pair)

    def test_hand_expanded_form_is_the_margin(self):
        for pair in FORM_PAIRS:
            params = make_params(*pair)
            for predicate in DERIV_PREDICATES:
                alpha, beta, _ = margin_polys(predicate, params)
                assert deriv_reduced_form(params) == (alpha, beta), (predicate, pair)

    def test_forms_agree_for_symbolic_m2_m3(self):
        alpha, beta, d = margin_polys("h-deriv", symbolic_params())
        assert set(alpha.vars) == set(beta.vars) == {"m2", "m3", "z"}
        assert deriv_direct_form(symbolic_params()) == (beta * d, alpha)
        assert deriv_reduced_form(symbolic_params()) == (alpha, beta)

    @pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 3), (8, 8), (12, 9)])
    def test_direct_and_reduced_forms_agree(self, pair):
        # the scanned margin against both reference forms: equal signs on a
        # grid over all of H's domain (1/r^2, 1], which spans both
        # predicates' domains; the condition fails near 1/r^2 for the small
        # pairs
        params = make_params(*pair)
        # z_k = 1/r^2 + (1 - 1/r^2) k/80 = (80 + k (r^2 - 1))/(80 r^2)
        r2 = int(params.r) ** 2
        polys = _index_polys(margin_polys("h-deriv", params), 80, r2 - 1, 80 * r2)
        forms = (deriv_direct_form(params), deriv_reduced_form(params))
        fails = 0
        for k in range(1, 81):
            z = Fraction(80 + k * (r2 - 1), 80 * r2)
            verdict = _scan_point(polys, k)
            d = h_parts(params, z)[1]
            for alpha, beta in forms:
                assert verdict[1] == sign_sqrt(alpha.eval({"z": z}), beta.eval({"z": z}), d), k
            assert verdict == point_verdict("h-deriv-reduced", params, z)
            fails += verdict[0] == "fails"
        assert (fails > 0) == (pair[0] < 8)


class TestSymbolicForms:
    """Both margin identities as polynomials in symbolic m2, m3 and z, with
    H = (M + s)/den written out from its definition in sympy, independently
    of h_parts, and s = sqrt(D) a symbol with s^2 = D and s' = D'/(2 s)."""

    @staticmethod
    def definitions(sympy):
        s, m2, m3, z = sympy.symbols("s m2 m3 z")
        r = (2 * m2 + 1) * (2 * m3 + 1) + 1
        m = sympy.expand((m2 + m3 + 1) * (r * z - 1))
        d = sympy.expand(((m3 - m2) * (r * z - 1)) ** 2 + (r - 1) ** 3 * z)
        den = sympy.expand(r * r * z - 1)
        return (s, m2, m3, z), r, d, den, (m + s) / den

    @staticmethod
    def as_sympy(sympy, p: MultiPoly):
        symbols = sympy.symbols(p.vars)
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**e for x, e in zip(symbols, exps)))
            for exps, c in p.terms.items()
        ))

    def test_deriv_margin_from_the_definition_of_h(self):
        sympy = pytest.importorskip("sympy")
        gens, r, d, den, h = self.definitions(sympy)
        s, m2, m3, z = gens
        h_z = sympy.diff(h, z) + sympy.diff(h, s) * sympy.diff(d, z) / (2 * s)
        c = 2 * (m2 + m3 + 1) * z - 1
        # (rhs - lhs) den^2 D of (1-z) + c H < (r-1) z H^2 + 2 z (1-z) H'
        direct = ((r - 1) * z * h**2 + 2 * z * (1 - z) * h_z - (1 - z) - c * h) * den**2 * d
        # direct = s (alpha + beta s), so direct s = alpha D + beta D s mod s^2 - D,
        # a remainder in s, the first generator
        num, denom = sympy.fraction(sympy.together(direct * s))
        assert denom == 1
        reduced = sympy.Poly(num, *gens).rem(sympy.Poly(s**2 - d, *gens))
        alpha, beta, _ = (self.as_sympy(sympy, q)
                          for q in margin_polys("h-deriv", symbolic_params()))
        assert reduced == sympy.Poly(alpha + beta * s, *gens) * sympy.Poly(d, *gens)

    def test_g_margin_from_the_definition_of_g(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        gens, _, _, den, h = self.definitions(sympy)
        s, _, m3, z = gens
        f1, f2 = sympy.symbols("f1 f2")
        # F(-m2-1, -m3; 1/2; z) by relation_38 at c = 1/2
        f_big = (1 - z) * f1 + (2 * m3 + 1) * z * f2
        g = f_big - ((1 - z) + (2 * m3 + 1) * z * h) * f1
        # the package's margin with F(-m2, -m3; 1/2; z) and F(-m2, -m3; 3/2; z)
        # as the variables f1 and f2
        import gpiverify.inequality as inequality

        monkeypatch.setattr(inequality, "hyp_poly",
                            lambda m2, m3, c: MultiPoly.var("f1" if c == HALF else "f2"))
        alpha, beta, _ = (self.as_sympy(sympy, q)
                          for q in margin_polys("g-negative", symbolic_params()))
        assert sympy.cancel(-g * den - (2 * m3 + 1) * z * (alpha + beta * s)) == 0


class TestScan:
    def test_default_ranges(self):
        params = make_params(8, 8)
        lo, hi, lo_open, hi_open = default_scan_range("h-seventh", params)
        assert lo == 1 / params.r and hi == TRUNCATION_BOUND / 64
        assert lo_open and not hi_open
        # 11/(4 m2 m3) > 1 here; H, and so the domain, ends at z = 1
        assert default_scan_range("h-seventh", make_params(1, 1)) == (Fraction(1, 10), 1, True, False)

    def test_exact_scans_hold(self):
        assert scan("hfri", make_params(2, 3), grid_n=31).status == "holds"
        assert scan("h-half", make_params(8, 8), grid_n=21).status == "holds"
        assert scan("h-seventh", make_params(8, 8), grid_n=21).status == "holds"

    def test_interval_scans_hold(self):
        assert scan("g-negative", make_params(8, 8), grid_n=11).status == "holds"
        assert scan("h-deriv", make_params(8, 8), grid_n=11).status == "holds"
        assert scan("h-deriv-reduced", make_params(8, 8), grid_n=11).status == "holds"

    def test_failure_witness(self):
        # S_{1,1} goes negative near z = 1, so the scan must report it
        rep = scan("hfri", make_params(1, 1), grid_n=41)
        assert rep.status == "fails"
        assert rep.witnesses and rep.witnesses[0]["verdict"] == "fails"

    def test_open_endpoints_nudged(self):
        rep = scan("hfri", make_params(2, 3), grid_n=11)
        params = make_params(2, 3)
        assert rep.metadata["z_lo"] > 1 / (params.r * params.r)
        assert rep.metadata["z_hi"] < 1

    def test_override_at_an_end_of_the_domain(self):
        # an override equal to an open end is nudged like the default; one at
        # a closed end is scanned as given
        params = make_params(8, 8)
        lo, hi, lo_open, hi_open = default_scan_range("h-deriv", params)
        assert (lo_open, hi_open) == (False, True)
        meta = scan("h-deriv", params, lo, hi, grid_n=11).metadata
        assert meta["z_lo"] == lo and meta["z_hi"] == hi - meta["nudge"]
        assert meta["nudge"] == (hi - lo) / 110

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            scan("nope", make_params(2, 3))


#: a scan endpoint override: None, an absolute z, or (True, t) for the point
#: a fraction t of the way across the predicate's domain
overrides = st.none() | st.tuples(
    st.booleans(), st.fractions(min_value=-1, max_value=2, max_denominator=50)
)


class TestDomainTable:
    def test_open_and_closed_ends(self):
        params = make_params(8, 8)
        r = params.r
        assert check_domain("h-half", params, 1 / r) == 1 / r
        with pytest.raises(ValueError, match="outside the h-half domain"):
            check_domain("h-half", params, 1 / (r * r))
        split = Fraction(21, 10) / 17
        assert check_domain("h-deriv", params, split) == split
        with pytest.raises(ValueError, match="outside the h-deriv domain"):
            check_domain("h-deriv", params, 1)
        with pytest.raises(ValueError, match="unknown predicate"):
            check_domain("nope", params, Fraction(1, 2))

    @given(
        predicate=st.sampled_from(SCAN_PREDICATES),
        pair=st.sampled_from([(1, 1), (2, 1), (2, 3), (8, 8)]),
        lo=overrides,
        hi=overrides,
        # on up to 5 points a radical scan decides each point by itself, but
        # for h-half and h-seventh (deg Q = 2); on larger grids most points
        # are certified
        grid_n=st.integers(min_value=2, max_value=5) | st.integers(min_value=6, max_value=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_scan_points_stay_in_domain(self, predicate, pair, lo, hi, grid_n):
        params = make_params(*pair)
        d_lo, d_hi, _, _ = default_scan_range(predicate, params)

        def resolve(override):
            if override is None:
                return None
            relative, t = override
            return d_lo + t * (d_hi - d_lo) if relative else t

        z_lo, z_hi = resolve(lo), resolve(hi)
        # refused iff an override leaves the closure [d_lo, d_hi] or the range
        # is empty, whatever the grid
        refused = not d_lo <= (d_lo if z_lo is None else z_lo) \
            < (d_hi if z_hi is None else z_hi) <= d_hi
        try:
            rep = scan(predicate, params, z_lo, z_hi, grid_n=grid_n)
        except ValueError as exc:
            # rejected at the endpoints, never while evaluating a point
            assert re.search(r"outside the \S+ domain|need z_lo < z_hi", str(exc)), exc
            assert refused, exc
            return
        assert not refused
        assert len(rep.metadata["points"]) == grid_n
        for point in rep.metadata["points"]:
            check_domain(predicate, params, point["z"])
            # the verdict and value of evaluating alpha, beta and D at z
            assert (point["verdict"], point["value"]) == point_verdict(
                predicate, params, point["z"]), point["z"]

    @pytest.mark.parametrize("pair", [(1, 1), (2, 3)])
    def test_hfri_check_agrees_with_scan(self, pair):
        params = make_params(*pair)
        verdicts = set()
        for point in scan("hfri", params, grid_n=9).metadata["points"]:
            rep = check_point("hfri", params, point["z"])
            assert (rep.status, rep.margin) == (point["verdict"], point["value"])
            verdicts.add(rep.status)
        # S_{1,1} < 0 near z = 1, so both verdicts are compared
        assert verdicts == ({"holds", "fails"} if pair == (1, 1) else {"holds"})


def _domain_is_nonempty(predicate, pair):
    lo, hi, _, _ = default_scan_range(predicate, make_params(*pair))
    return lo < hi


RADICAL_PREDICATES = [p for p in SCAN_PREDICATES if p != "hfri"]


class TestScanOracle:
    """Scan points against point_verdict, which evaluates alpha, beta and D
    at z with MultiPoly.eval, and against check_point."""

    @pytest.mark.parametrize("predicate, pair, fails", [
        (predicate, pair, 0)
        for predicate in RADICAL_PREDICATES for pair in [(8, 8)] + [(30, m3) for m3 in range(30, 35)]
    ] + [("h-deriv", (2, 1), 429), ("h-deriv", (3, 1), 59)])
    def test_radical_predicates(self, predicate, pair, fails):
        # most points are certified, not evaluated; h-deriv changes sign
        # at (2, 1) and (3, 1), so there the certified ranges are bisected
        params = make_params(*pair)
        rep = scan(predicate, params, grid_n=1001)
        assert rep.metadata["counts"]["fails"] == fails
        points = rep.metadata["points"]
        assert len(points) == 1001
        for point in points:
            assert (point["verdict"], point["value"]) == point_verdict(
                predicate, params, point["z"]), point["z"]

    @pytest.mark.parametrize("predicate", ["g-negative", "h-deriv", "h-deriv-reduced"])
    def test_certified_scan_evaluates_few_points(self, monkeypatch, predicate):
        # a certificate that never fired would pass every oracle test
        import gpiverify.inequality as inequality

        calls = []
        point = inequality._scan_point

        def counted(polys, k):
            calls.append(k)
            return point(polys, k)

        monkeypatch.setattr(inequality, "_scan_point", counted)
        rep = scan(predicate, make_params(30, 30), grid_n=1001)
        assert rep.metadata["counts"] == {"holds": 1001, "fails": 0, "indeterminate": 0}
        assert len(calls) <= 4

    @pytest.mark.parametrize("predicate", RADICAL_PREDICATES)
    def test_scan_builds_its_margin_once(self, monkeypatch, predicate):
        # _index_polys and _certified_points take the margin the scan built
        import gpiverify.inequality as inequality

        calls = []
        build = inequality.margin_polys
        monkeypatch.setattr(inequality, "margin_polys",
                            lambda *args: calls.append(args) or build(*args))
        params = make_params(8, 8)
        rep = scan(predicate, params, grid_n=1001)
        assert rep.status == "holds" and calls == [(predicate, params)]
        z = rep.metadata["points"][500]["z"]
        assert check_point(predicate, params, z).status == "holds" and len(calls) == 2

    @pytest.mark.parametrize("zeros", [{0}, {1000}, {0, 1000}])
    def test_zero_endpoint_decides_no_run(self, monkeypatch, zeros):
        # a margin that vanishes at an end of a root-free run says nothing of
        # its sign inside; no grid tried hits an exact zero of a radical
        # margin, so the endpoint values are faked here
        import gpiverify.inequality as inequality

        point = inequality._scan_point

        def zero_at_ends(polys, k):
            return ("fails", 0) if k in zeros else point(polys, k)

        monkeypatch.setattr(inequality, "_scan_point", zero_at_ends)
        points = scan("h-deriv", make_params(8, 8), grid_n=1001).metadata["points"]
        assert [p["value"] for p in points] == [0 if k in zeros else 1 for k in range(1001)]

    @pytest.mark.parametrize("predicate, pair", [
        (predicate, pair) for predicate in SCAN_PREDICATES for pair in [(2, 3), (8, 8)]
        if _domain_is_nonempty(predicate, pair)
    ])
    def test_check_point_matches_scan_entries(self, predicate, pair):
        # every point, the first and last effective endpoints included
        params = make_params(*pair)
        for point in scan(predicate, params, grid_n=7).metadata["points"]:
            rep = check_point(predicate, params, point["z"])
            assert (rep.status, rep.margin) == (point["verdict"], point["value"]), point["z"]


class TestRealPath:
    def test_margin_positive_in_proposition_regime(self):
        rp = make_real_params(13.0, 13.0)
        rep = check_gpi_real(rp, -1.0, 0.5)
        assert rep.status == "holds" and rep.margin > 1.0

    def test_domain(self):
        rp = make_real_params(13.0, 13.0)
        with pytest.raises(ValueError):
            check_gpi_real(rp, 0.0, 1.0)

    def test_a_zero_matches_direct_series(self):
        from gpiverify.moments import gauss_hyp_real

        rp = make_real_params(5.0, 7.0)
        x = 0.4
        rep = check_gpi_real(rp, 0.0, x)
        direct = (rp.y2 + 1.0) * gauss_hyp_real(-rp.y3 / 2, -rp.y2 / 2 - 1, 0.5, x * x) - 1.0
        assert abs(rep.margin - direct) < 1e-12

    @pytest.mark.parametrize("m2, m3", [(2, 5), (4, 1)])
    @pytest.mark.parametrize("a", [Fraction(-1), Fraction(1, 3), Fraction(5, 2)])
    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-3, 10), Fraction(9, 10)])
    def test_gpi_real_matches_exact_margin_at_even_exponents(self, m2, m3, a, x):
        # y = 2m: the real margin is the exact one over (2m2-1)!! (2m3-1)!!
        exact = check_gpi(make_params(m2, m3), a, x).margin
        scale = double_factorial_odd(m2) * double_factorial_odd(m3)
        real = check_gpi_real(make_real_params(2.0 * m2, 2.0 * m3), float(a), float(x)).margin
        assert real == pytest.approx(float(exact / scale), rel=1e-12)

    @pytest.mark.parametrize("m2, m3", [(1, 5), (2, 3), (4, 1), (30, 34)])
    def test_real_ratio_bound_is_h_at_even_exponents(self, m2, m3):
        # y = 2m: the float bound over |x| is H(x^2), which H_value encloses;
        # these x have an exact square in binary
        params, rp = make_params(m2, m3), make_real_params(2.0 * m2, 2.0 * m3)
        for x in (0.5, -0.75, 0.875):
            (witness,) = check_mri_real(rp, x).witnesses
            h = H_value(params, Fraction(x * x), Fraction(1, 10**30))
            assert witness["branch"] == "ratio-bound"
            assert witness["bound"] / abs(x) == pytest.approx(float(h.lo), rel=1e-13)

    def test_real_params_match_integer_case(self):
        rp = make_real_params(4.0, 6.0)
        p = make_params(2, 3)
        assert rp.r == float(p.r)
        assert abs(rp.t - float(p.t)) < 1e-15
        assert (rp.msum, rp.mdiff_sq) == (float(p.msum), float(p.mdiff_sq))

    def test_real_mri_matches_exact_verdicts(self):
        # float path agrees with the exact integer path away from the margin
        rp = make_real_params(2.0, 10.0)  # (m2, m3) = (1, 5)
        exact_params = make_params(1, 5)
        for x in (0.3, 0.6, 0.9):
            float_rep = check_mri_real(rp, x)
            exact_rep = check_mri(
                exact_params, GaussianPair.unit(Fraction(x).limit_denominator(10))
            )
            assert float_rep.status == "holds" == exact_rep.status

    def test_violation_found_for_known_gap(self):
        rep = find_mri_real_violation(make_real_params(4.0, 4.3))
        assert rep.metadata["found"]
        assert 0 < rep.witnesses[0]["x"] < 1

    def test_violation_witness_has_the_exact_paths_format(self):
        # both searches report {"x", "detail": the failing check's witnesses}
        real = find_mri_real_violation(make_real_params(4.0, 4.3))
        exact = find_mri_violation(make_params(2, 2))
        for rep in (real, exact):
            (witness,) = rep.witnesses
            assert set(witness) == {"x", "detail"}
        (detail,) = real.witnesses[0]["detail"]
        assert detail["x"] == real.witnesses[0]["x"] == 0.5
        assert detail["branch"] == "ratio-bound" and detail["lhs"] > detail["bound"]

    def test_no_violation_in_proposition_regime(self):
        rep = find_mri_real_violation(make_real_params(12.0, 12.0), steps=25)
        assert not rep.metadata["found"]
