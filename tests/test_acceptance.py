"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is either an exact-arithmetic reproduction of a published
value or a property checked at its stated tolerance; nothing is calibrated
after the fact.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from fractions import Fraction

from gpiverify.bundled import load_certificate, load_g_appendix, load_h_expansion
from gpiverify.checks import (
    check_gpi,
    check_gpi_real,
    check_mri,
    find_mri_real_violation,
    find_mri_violation,
)
from gpiverify.gausshyp import HALF, THREE_HALVES, hyp_poly
from gpiverify.inequality import (
    G_at_one,
    H_at_one,
    H_value,
    f_truncated_poly,
    g_poly,
    h_poly,
    make_params,
    make_real_params,
    scan,
)
from gpiverify.moments import (
    GaussianPair,
    MomentExponents,
    closed_form_poly,
    polar_moment,
    real_moment,
    wick_poly,
)
from gpiverify.soscert import verify_bracket_positivity, verify_sos
from reference import (
    Mutation,
    even_moment,
    hyp_value_at_one,
    mri_ratio,
    mutate_certificate,
    odd_moment,
    quadratic_form_residuals,
    relation_31,
    relation_37,
    relation_38,
    relation_derivative,
    sign_of,
    wick_moment,
)

A_GRID = [Fraction(k, 4) for k in range(-12, 13)]
X_GRID = [Fraction(k, 10) for k in range(-10, 11)]
GPI_PAIRS = [(1, 1), (1, 5), (2, 3), (3, 3), (7, 7), (8, 8), (8, 12)]
COVERED_PAIRS = [(1, 5), (2, 3), (3, 3), (5, 9)]


def test_criterion_01_sos_certificates():
    for m2 in range(1, 8):
        start = time.monotonic()
        report = verify_sos(load_certificate(m2))
        elapsed = time.monotonic() - start
        assert report.status == "verified", (m2, report.status)
        assert report.residual is None
        assert elapsed < 5.0, (m2, elapsed)
    rng = random.Random(5150)
    for _ in range(50):
        cert = load_certificate(rng.randint(1, 7))
        kind = rng.choice(["lambda", "square", "target"])
        if kind == "lambda":
            mutation = Mutation("lambda", rng.randrange(len(cert.squares)))
        elif kind == "square":
            idx = rng.randrange(len(cert.squares))
            mutation = Mutation("square", idx, rng.choice(list(cert.squares[idx][1].terms)))
        else:
            mutation = Mutation("target", 0, rng.choice(list(cert.target.terms)))
        mutated = verify_sos(mutate_certificate(cert, mutation))
        assert mutated.status == "residual_nonzero", mutation
    print("[criterion 1] PASS: 7 certificates verify exactly (< 5 s each); "
          "50/50 single-coefficient mutations flip the verdict")


def test_criterion_02_h_regeneration():
    for m2 in range(1, 8):
        regen = h_poly(m2)
        assert regen == load_h_expansion(m2), f"h{m2} differs from bundled expansion"
        bracket = verify_bracket_positivity(m2)
        assert bracket.status == "verified", (m2, bracket.metadata)
    assert h_poly(1).eval({"b": 0, "c": 0}) == 20
    assert h_poly(1).coeff((6, 6)) == Fraction(8, 3)  # over the ring ("b", "c")
    print("[criterion 2] PASS: h_1..h_7 regenerate the bundled expansions exactly; "
          "all bracket decompositions (scale*bracket + nonnegative rest) verified")


def test_criterion_03_g_structure_and_proportionality():
    assert f_truncated_poly().eval({"x2": 8, "x3": 8, "u": 0}) == 2**50 * math.factorial(17) ** 2
    g = g_poly()
    assert all(all(e % 2 == 0 for e in exps) for exps in g.terms)
    assert g.degree("a") <= 16 and g.degree("b") <= 16 and g.degree("c") <= 18
    assert all(coeff >= 0 for coeff in g.terms.values())
    bundled = load_g_appendix()
    assert bundled.constant_term() == 148260632637820250986905600
    assert len(bundled.terms) == len(g.terms)
    scalar = None
    for exps, coeff in g.iter_terms():
        ratio = coeff / bundled.coeff(exps)
        scalar = ratio if scalar is None else scalar
        assert ratio == scalar, exps
    assert scalar > 0
    print(f"[criterion 3] PASS: g has even exponents, degrees <= (16,16,18), "
          f"nonnegative coefficients, and equals {scalar} * bundled expansion; "
          f"f(8,8,0) = 2^50*(17!)^2")


def test_criterion_04_moment_oracle_equivalence():
    start = time.monotonic()
    correlations = [Fraction(k, 12) for k in range(-12, 13)]  # 25 incl. +-1
    comparisons = 0
    for x in correlations:
        pair = GaussianPair.unit(x)
        for m2 in range(9):
            for m3 in range(9):
                assert even_moment(m2, m3, pair) == wick_moment(2 * m2, 2 * m3, pair)
                assert odd_moment(m2, m3, pair) == wick_moment(2 * m2 + 1, 2 * m3 + 1, pair)
                comparisons += 2
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, elapsed
    print(f"[criterion 4] PASS: closed forms equal the pairing recursion exactly "
          f"({comparisons} comparisons, 25 correlations, {elapsed:.1f} s)")


def test_criterion_04_moment_oracle_identity_at_scale():
    # as polynomials in the correlation, up to degree 33: 25 sampled
    # correlations could decide an identity only up to degree 24
    for m2 in range(17):
        for m3 in range(17):
            for odd in (False, True):
                wick = wick_poly(2 * m2 + odd, 2 * m3 + odd)
                assert closed_form_poly(m2, m3, odd) == wick, (m2, m3, odd)
    assert wick_poly(33, 33).degree("x") == 33


def test_criterion_05_hypergeometric_identities():
    checked = 0
    for relation in (relation_derivative, relation_31, relation_37, relation_38):
        for m2 in range(11):
            for m3 in range(11):
                for c in (HALF, THREE_HALVES):
                    assert not relation(m2, m3, c), (relation.__name__, m2, m3, c)
                    checked += 1
    for m2 in range(13):
        for m3 in range(13):
            for c in (HALF, THREE_HALVES):
                assert hyp_value_at_one(m2, m3, c) == hyp_poly(m2, m3, c).eval({"z": 1})
    print(f"[criterion 5] PASS: all four contiguous relations vanish identically "
          f"({checked} instances, both parameters); closed form at z=1 matches "
          f"polynomial evaluation for indices <= 12")


def test_criterion_06_h_closed_form_and_discriminant_identity():
    for m2 in range(1, 13):
        for m3 in range(1, 13):
            params = make_params(m2, m3)
            iv = H_value(params, Fraction(1), Fraction(1, 10**12))
            assert iv.lo == iv.hi == H_at_one(params), (m2, m3)
    for m2 in range(1, 16):
        for m3 in range(1, 16):
            residuals = quadratic_form_residuals(make_params(m2, m3))
            assert not any(residuals), (m2, m3)
    print("[criterion 6] PASS: H(1) closed form matches the direct formula exactly "
          "(all index pairs <= 12); the discriminant identity and 1/H as a root of "
          "the quadratic hold as polynomial identities in z (all 225 pairs <= 15)")


def test_criterion_07_gpi_grids():
    known = check_gpi(make_params(1, 1), Fraction(-1), Fraction(1, 2))
    assert known.margin == Fraction(1, 2)
    points = 0
    for m2, m3 in GPI_PAIRS:
        params = make_params(m2, m3)
        for a in A_GRID:
            for x in X_GRID:
                report = check_gpi(params, a, x)
                assert report.status == "holds", (m2, m3, a, x, report.margin)
                degenerate = a * a + 1 + 2 * a * x == 0  # X1 identically zero
                if report.margin == 0:
                    assert degenerate, (m2, m3, a, x)
                else:
                    assert report.margin > 0
                points += 1
    print(f"[criterion 7] PASS: product-inequality margin >= 0 at {points} exact "
          f"grid points over {len(GPI_PAIRS)} index pairs (strict except degenerate "
          f"configurations); margin at (1,1,a=-1,x=1/2) is exactly 1/2")


def test_criterion_08_mri_grid_and_violations():
    for m2, m3 in COVERED_PAIRS:
        params = make_params(m2, m3)
        for x in X_GRID:
            report = check_mri(params, GaussianPair.unit(x))
            assert report.status == "holds", (m2, m3, x)
    # (1,1) fails at x = 1: ratio 5/9 exceeds H(1) = 6/11, exactly
    p11 = make_params(1, 1)
    assert mri_ratio(p11, GaussianPair.unit(Fraction(1))) == Fraction(5, 9)
    assert H_at_one(p11) == Fraction(6, 11)
    assert Fraction(5, 9) > Fraction(6, 11)
    assert check_mri(p11, GaussianPair.unit(Fraction(1))).status == "fails"
    assert find_mri_violation(p11).metadata["found"]
    assert find_mri_violation(make_params(2, 2)).metadata["found"]
    print("[criterion 8] PASS: ratio bound holds at all 21 grid correlations for "
          "(1,5),(2,3),(3,3),(5,9); violations reproduced for (1,1) "
          "(5/9 > 6/11 at x=1, exact) and (2,2)")


def test_criterion_09_hfri_grid_with_interval_agreement():
    for m2, m3 in COVERED_PAIRS:
        params = make_params(m2, m3)
        report = scan("hfri", params, grid_n=101)
        assert report.status == "holds", (m2, m3, report.metadata["counts"])
        f1 = hyp_poly(m2, m3, HALF)
        f2 = hyp_poly(m2, m3, THREE_HALVES)
        for entry in report.metadata["points"]:
            z = entry["z"]
            assert entry["value"] > 0  # exact S(z) > 0
            ratio = f1.eval({"z": z}) / f2.eval({"z": z})
            width = Fraction(1, 10**6)
            for _ in range(21):
                h = H_value(params, z, width)  # H > 0, so 1/H lies in [1/hi, 1/lo]
                sign = sign_of(ratio - 1 / h.lo, ratio - 1 / h.hi)
                if sign is not None:
                    break
                width /= 2
            assert sign == 1, (m2, m3, z)
    print("[criterion 9] PASS: S(z) > 0 at 101 exact points on (1/r^2, 1) for all "
          "four covered pairs, and the interval route f1/f2 - 1/H agrees in sign "
          "at every point")


def test_criterion_10_case_analysis():
    for m2, m3 in [(8, 8), (8, 12), (10, 10)]:
        params = make_params(m2, m3)
        for predicate in ("h-half", "h-seventh"):
            report = scan(predicate, params, grid_n=51)
            assert report.status == "holds", (m2, m3, predicate)
    for m2 in range(8, 13):
        for m3 in range(m2, 13):
            assert G_at_one(make_params(m2, m3)) < 0, (m2, m3)
    p88 = make_params(8, 8)
    g_scan = scan("g-negative", p88, grid_n=101)
    assert g_scan.status == "holds"
    assert g_scan.metadata["counts"]["indeterminate"] == 0
    assert scan("h-deriv", p88, grid_n=51).status == "holds"
    assert scan("h-deriv-reduced", p88, grid_n=51).status == "holds"
    print("[criterion 10] PASS: exact H lower bounds on both sub-intervals for "
          "(8,8),(8,12),(10,10); G(1) < 0 exactly for all 8 <= m2 <= m3 <= 12; "
          "G < 0 on the 101-point scan with no indeterminate points; both "
          "derivative-condition predicates hold on their sub-intervals")


def test_criterion_11_real_exponent_path():
    tol = 1e-9
    rp = make_real_params(13.0, 13.0)
    for a in A_GRID:
        for x in X_GRID:
            if abs(x) == 1:
                continue  # series path requires |x| < 1
            report = check_gpi_real(rp, float(a), float(x))
            assert report.status == "holds" and report.margin > tol, (a, x)
    violation = find_mri_real_violation(make_real_params(4.0, 4.3))
    assert violation.metadata["found"]

    configs = [
        (MomentExponents(1.0, 0.0), 0.5),
        (MomentExponents(2.5, 0.0), 0.5),
        (MomentExponents(4.0, 0.0), 0.5),
        (MomentExponents(1.3, 2.7), 0.5),
        (MomentExponents(2.0, 3.0), -0.3),
        (MomentExponents(1.5, 4.0), 0.5),
        (MomentExponents(3.0, 3.0), -0.3),
        (MomentExponents(2.0, 3.0, signed=True), 0.5),
        (MomentExponents(3.4, 2.6, signed=True), -0.3),
        (MomentExponents(5.0, 1.0), 0.5),
    ]
    for i, (exps, x) in enumerate(configs):
        closed = real_moment(exps, x)
        quadrature = polar_moment(exps, x)
        assert math.isclose(closed, quadrature, rel_tol=tol), (i, closed, quadrature)
    print("[criterion 11] PASS: real-exponent margins positive (tolerance 1e-9) on "
          "the grid for y2 = y3 = 13; ratio-bound violation found at y2=4, y3=4.3; "
          "10/10 closed forms within 1e-9 relative of the polar quadrature")
