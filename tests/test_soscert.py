"""Certificate verification tests: exactness, soundness under mutation, and
the bundled data."""

import random
from fractions import Fraction

from gpiverify.bundled import Certificate, load_certificate, load_g_appendix, load_h_expansion
from gpiverify.inequality import g_poly, h_poly
from gpiverify.polyring import MultiPoly
from gpiverify.soscert import (
    proportionality_scalar,
    verify_bracket_positivity,
    verify_nonneg_coeffs,
    verify_sos,
)
from reference import Mutation, mutate_certificate

a, b, c = (MultiPoly.var(v) for v in "abc")


class TestVerifySos:
    def test_single_square(self):
        cert = Certificate("demo", Fraction(1), b**2, ((Fraction(1), b),))
        rep = verify_sos(cert)
        assert rep.status == "verified"
        assert "strictness" not in rep.metadata  # no constant square

    def test_deliberate_mismatch(self):
        cert = Certificate("demo", Fraction(1), b**2 + 1, ((Fraction(1), b),))
        rep = verify_sos(cert)
        assert rep.status == "residual_nonzero"
        assert rep.residual == MultiPoly.const(1, ("b",))

    def test_reordering_invariance(self):
        cert = load_certificate(1)
        shuffled = cert._replace(squares=tuple(reversed(cert.squares)))
        assert verify_sos(cert).status == verify_sos(shuffled).status == "verified"


class TestBundledCertificates:
    def test_all_seven_verify(self):
        for m2 in range(1, 8):
            rep = verify_sos(load_certificate(m2))
            assert rep.status == "verified", (m2, rep.status)

    def test_bracket_positivity(self):
        for m2 in range(1, 8):
            rep = verify_bracket_positivity(m2)
            assert rep.status == "verified", (m2, rep.metadata)
            assert rep.metadata["strictness"]  # constant square present

    def test_known_scales(self):
        scales = {1: "1/9", 2: "1/45", 3: "1/35", 4: "1/315", 5: "1/63", 6: "1/7", 7: "1/45"}
        for m2, scale in scales.items():
            assert load_certificate(m2).scale == Fraction(scale)

    def test_bracket_spot_coefficient(self):
        target = load_certificate(1).target
        assert target.vars == ("b", "c") and target.coeff((6, 4)) == 48

    def test_ten_squares_each(self):
        for m2 in range(1, 8):
            assert len(load_certificate(m2).squares) == 10

    def test_even_exponents_only(self):
        # so the nonnegative rest of each host is nonnegative on all of R^2
        for m2 in range(1, 8):
            for poly in (load_h_expansion(m2), load_certificate(m2).target):
                assert all(e % 2 == 0 for exps in poly.nums for e in exps), m2

    def test_bundled_h_matches_regeneration(self):
        for m2 in range(1, 8):
            assert load_h_expansion(m2) == h_poly(m2), m2

    def test_strict_positivity_at_random_points(self):
        rng = random.Random(7)
        for m2 in range(1, 8):
            cert = load_certificate(m2)
            floor = next(lam * p.constant_term() ** 2 for lam, p in cert.squares
                         if p.degree("b") == p.degree("c") == 0)
            assert floor > 0
            for _ in range(20):
                point = {
                    "b": Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    "c": Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                }
                assert cert.target.eval(point) >= floor, (m2, point)


class TestMutationSoundness:
    def test_every_mutation_kind_flips(self):
        cert = load_certificate(2)
        assert verify_sos(mutate_certificate(cert, Mutation("lambda", 4))).status == "residual_nonzero"
        mono = next(iter(cert.squares[1][1].terms))
        assert (
            verify_sos(mutate_certificate(cert, Mutation("square", 1, mono))).status
            == "residual_nonzero"
        )
        assert (
            verify_sos(mutate_certificate(cert, Mutation("target", 0, (2, 2)))).status
            == "residual_nonzero"
        )

    def test_random_fuzz(self):
        rng = random.Random(12345)
        for _ in range(50):
            m2 = rng.randint(1, 7)
            cert = load_certificate(m2)
            kind = rng.choice(["lambda", "square", "target"])
            if kind == "lambda":
                mutation = Mutation("lambda", rng.randrange(len(cert.squares)))
            elif kind == "square":
                idx = rng.randrange(len(cert.squares))
                mono = rng.choice(list(cert.squares[idx][1].terms))
                mutation = Mutation("square", idx, mono)
            else:
                mono = rng.choice(list(cert.target.terms))
                mutation = Mutation("target", 0, mono)
            rep = verify_sos(mutate_certificate(cert, mutation))
            assert rep.status == "residual_nonzero", (m2, mutation)
            assert rep.residual


class TestNonnegCoeffs:
    def test_regenerated_and_bundled_g(self):
        assert verify_nonneg_coeffs(g_poly(), "g").status == "verified"
        assert verify_nonneg_coeffs(load_g_appendix(), "g-appendix").status == "verified"

    def test_negative_witnessed(self):
        rep = verify_nonneg_coeffs(b**2 - c**2, "demo")
        assert rep.status == "coefficient_negative"
        assert rep.witnesses[0]["monomial"] == [0, 2]


class TestAppendixData:
    def test_constant_term(self):
        assert load_g_appendix().constant_term() == 148260632637820250986905600

    def test_proportional_to_regeneration(self):
        bundled = load_g_appendix()
        regen = g_poly()
        assert len(bundled.terms) == len(regen.terms)
        ratios = {
            regen.coeff(exps) / coeff for exps, coeff in bundled.iter_terms()
        }
        assert len(ratios) == 1
        scalar = ratios.pop()
        assert scalar > 0


class TestProportionalityScalar:
    def test_proportional_pair(self):
        q = 2 * a**2 * b + Fraction(3, 5) * c - 7
        assert proportionality_scalar(q.scale(Fraction(9, 4)), q) == Fraction(9, 4)
        assert proportionality_scalar(g_poly(), load_g_appendix()) == 960751264112640000

    def test_one_coefficient_off(self):
        q = 2 * a**2 * b + Fraction(3, 5) * c - 7
        p = q.scale(3) + MultiPoly(q.vars, {(0, 0, 1): Fraction(1)})
        assert proportionality_scalar(p, q) is None

    def test_negative_scalar(self):
        q = 2 * a**2 * b + Fraction(3, 5) * c - 7
        assert proportionality_scalar(-q, q) is None
