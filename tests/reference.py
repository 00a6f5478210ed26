"""Independent references that the tests compare the package against.

No command runs these, so they live beside the tests: the interval enclosure
of G, a predicate's verdict at one point from rational evaluation, the derivative of a polynomial, the four contiguous relations of F and
its Chu-Vandermonde value at z = 1, the moments of the pairing recursion at a
pair, and single-coefficient certificate mutations.  Import them with ``from reference import ...``
(pytest puts ``tests/`` on the path).
"""

from fractions import Fraction
from typing import NamedTuple

from gpiverify.exactnum import RationalInterval, RationalLike, rational, sign_sqrt
from gpiverify.gausshyp import HALF, hyp_poly
from gpiverify.inequality import DEFAULT_WIDTH, GpiParams, H_value, h_radicand, margin_polys
from gpiverify.moments import GaussianPair, _moment_at, wick_poly
from gpiverify.polyring import MultiPoly
from gpiverify.soscert import SosCertificate

# ----------------------------------------------------------------------
# the difference function G and the quadratic form of the ratio bound
# ----------------------------------------------------------------------


def G_value(
    params: GpiParams, z: RationalLike, width: RationalLike = DEFAULT_WIDTH
) -> RationalInterval:
    """Enclosure of G(z) = F(-m2-1, -m3; 1/2; z)
    - [(1-z) + (2 m3 + 1) z H(z)] F(-m2, -m3; 1/2; z), for 1/r^2 < z <= 1."""
    z = rational(z)
    m2, m3 = params.m2, params.m3
    f_big = hyp_poly(m2 + 1, m3, HALF).eval({"z": z})
    f1 = hyp_poly(m2, m3, HALF).eval({"z": z})
    h_iv = H_value(params, z, rational(width) / ((2 * m3 + 1) * z * f1))
    bracket = RationalInterval.point(1 - z) + h_iv * ((2 * m3 + 1) * z)
    return RationalInterval.point(f_big) - bracket * f1


def point_verdict(predicate: str, params: GpiParams, z: RationalLike) -> tuple[str, object]:
    """(verdict, value) of a scan predicate at z, from alpha, beta and D each
    evaluated at z with MultiPoly.eval: alpha(z) when beta = 0, otherwise the
    sign of alpha(z) + beta(z) sqrt(D(z)) by sign_sqrt."""
    alpha, beta, d = margin_polys(predicate, params)
    point = {"z": rational(z)}
    if not beta:
        value = alpha.eval(point)
    else:
        value = sign_sqrt(alpha.eval(point), beta.eval(point), d.eval(point))
    return ("holds" if value > 0 else "fails"), value


def quadratic_form_residuals(params: GpiParams) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Three polynomials in z that vanish identically, for the quadratic
    (1-z) y^2 + 2 beta y + gamma whose positivity at the hypergeometric ratio
    restates the target inequality.  Here beta = M/(r-1), gamma = -den/(r-1),
    M = (m2+m3+1)(rz-1), den = r^2 z - 1 and H = (M + sqrt(D))/den:

    * beta^2 - (1-z) gamma - [((m3-m2)(1-rz)/(r-1))^2 + (r-1) z], the
      discriminant identity;
    * the rational and the sqrt(D) parts of
      (M + sqrt(D))^2 [(1-z) y^2 + 2 beta y + gamma] at y = den/(M + sqrt(D)),
      namely (1-z) den^2 + 2 beta den M + gamma (M^2 + D) and
      2 beta den + 2 gamma M; so 1/H is a root of the quadratic at every z.
    """
    z = MultiPoly.var("z")
    r = params.r
    m = params.msum * (r * z - 1)
    den = r * r * z - 1
    beta = m * (1 / (r - 1))
    gamma = den * (-1 / (r - 1))
    d = h_radicand(params, z)
    discriminant = beta * beta - (1 - z) * gamma - (
        ((params.m3 - params.m2) * (1 - r * z) * (1 / (r - 1))) ** 2 + (r - 1) * z
    )
    rational_part = (1 - z) * den * den + 2 * beta * den * m + gamma * (m * m + d)
    radical_part = 2 * beta * den + 2 * gamma * m
    return discriminant, rational_part, radical_part


# ----------------------------------------------------------------------
# contiguous relations of F = F(a, b; c; z), a = -m2, b = -m3
# ----------------------------------------------------------------------
#
# Each returns LHS - RHS, which must be the zero polynomial.  The shifted
# instances are F(a-1) = F(-m2-1, -m3; c), F(b-1) = F(-m2, -m3-1; c),
# F(c+1) = F(-m2, -m3; c+1) and F(a+1) = F(-m2+1, -m3; c); the last one does
# not terminate when a = 0, where its coefficient a vanishes, so it is
# taken as 0 there.

_Z = MultiPoly.var("z")


def derivative(p: MultiPoly, var: str) -> MultiPoly:
    """dp/d(var), over the ring of p."""
    if var not in p.vars:
        raise ValueError(f"unknown variable {var!r}")
    i = p.vars.index(var)
    nums = {e[:i] + (e[i] - 1,) + e[i + 1 :]: n * e[i] for e, n in p.nums.items() if e[i]}
    return MultiPoly(p.vars, nums, p.den)


def _f_raised_a(m2: int, m3: int, c: Fraction) -> MultiPoly:
    return hyp_poly(m2 - 1, m3, c) if m2 else MultiPoly.zero(("z",))


def relation_derivative(m2: int, m3: int, c: Fraction) -> MultiPoly:
    """z F' - a [F(a+1) - F]."""
    f = hyp_poly(m2, m3, c)
    return _Z * derivative(f, "z") + m2 * (_f_raised_a(m2, m3, c) - f)


def relation_31(m2: int, m3: int, c: Fraction) -> MultiPoly:
    """[c - 2a - (b - a) z] F + a (1 - z) F(a+1) - (c - a) F(a-1)."""
    a, b = -m2, -m3
    return (
        (c - 2 * a - (b - a) * _Z) * hyp_poly(m2, m3, c)
        + a * (1 - _Z) * _f_raised_a(m2, m3, c)
        - (c - a) * hyp_poly(m2 + 1, m3, c)
    )


def relation_37(m2: int, m3: int, c: Fraction) -> MultiPoly:
    """(b - a)(1 - z) F - (c - a) F(a-1) + (c - b) F(b-1)."""
    a, b = -m2, -m3
    return (
        (b - a) * (1 - _Z) * hyp_poly(m2, m3, c)
        - (c - a) * hyp_poly(m2 + 1, m3, c)
        + (c - b) * hyp_poly(m2, m3 + 1, c)
    )


def relation_38(m2: int, m3: int, c: Fraction) -> MultiPoly:
    """c (1 - z) F - c F(a-1) + (c - b) z F(c+1)."""
    b = -m3
    return (
        c * (1 - _Z) * hyp_poly(m2, m3, c)
        - c * hyp_poly(m2 + 1, m3, c)
        + (c - b) * _Z * hyp_poly(m2, m3, c + 1)
    )


def pochhammer(x: RationalLike, j: int) -> Fraction:
    """Rising factorial x (x+1) ... (x+j-1), exact; j = 0 gives 1."""
    x = rational(x)
    result = Fraction(1)
    for i in range(j):
        result *= x + i
    return result


def hyp_value_at_one(m2: int, m3: int, c: RationalLike) -> Fraction:
    """F(-m2, -m3; c; 1) by the Chu-Vandermonde closed form
    (c + m3)_{m2} / (c)_{m2}; independent of hyp_poly."""
    c = rational(c)
    return pochhammer(c + m3, m2) / pochhammer(c, m2)


# ----------------------------------------------------------------------
# moments and certificates
# ----------------------------------------------------------------------


def wick_moment(p: int, q: int, pair: GaussianPair) -> Fraction:
    """E[X2^p X3^q] by the pairing recursion; independent of hyp_poly."""
    return _moment_at(wick_poly(p, q), p, q, pair)


class Mutation(NamedTuple):
    """A single certificate perturbation."""

    kind: str  # "lambda" | "square" | "target"
    index: int = 0
    monomial: tuple[int, ...] = ()


def mutate_certificate(cert: SosCertificate, mutation: Mutation) -> SosCertificate:
    """A copy with one coefficient bumped by +1; must flip verify_sos."""
    if mutation.kind == "lambda":
        lam, p = cert.squares[mutation.index]
        squares = list(cert.squares)
        squares[mutation.index] = (lam + 1, p)
        return SosCertificate(cert.target, tuple(squares), cert.context_scale, cert.host, cert.name)
    if mutation.kind == "square":
        lam, p = cert.squares[mutation.index]
        bumped = p + MultiPoly(p.vars, {tuple(mutation.monomial): Fraction(1)})
        squares = list(cert.squares)
        squares[mutation.index] = (lam, bumped)
        return SosCertificate(cert.target, tuple(squares), cert.context_scale, cert.host, cert.name)
    if mutation.kind == "target":
        bumped = cert.target + MultiPoly(
            cert.target.vars, {tuple(mutation.monomial): Fraction(1)}
        )
        return SosCertificate(bumped, cert.squares, cert.context_scale, cert.host, cert.name)
    raise ValueError(f"unknown mutation kind {mutation.kind!r}")
