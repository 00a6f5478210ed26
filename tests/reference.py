"""Independent references that the tests compare the package against.

No command runs these, so they live beside the tests: the sign of an
enclosure given by its ends, the enclosure of G from the ends of H's, the
MRI's moment ratio from two moments and the sign of H(z) minus a rational by
isolating the radical (the radical decision that check_mri's sign of S is
tested against), a predicate's verdict at one point from rational evaluation,
the paper's direct and hand-expanded radical-isolated forms of the
derivative-side condition and -G den from F(-m2-1, -m3; 1/2; z), which
margin_polys's one margin per inequality is tested against, the
derivative of a polynomial, the four contiguous relations of F and its
Chu-Vandermonde value at z = 1, the moments at any pair by homogenizing a
unit-variance polynomial (the closed forms and the pairing recursion), the
GPI margin from three closed-form moments, the covered set case by case,
single-coefficient certificate mutations, root counts on an open interval by
Sturm's theorem, and a polynomial with one variable fixed at a constant.
Import them with ``from reference import ...`` (pytest puts ``tests/`` on the
path).
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from gpiverify.bundled import Certificate
from gpiverify.exactnum import RationalLike, rational, sign_sqrt
from gpiverify.gausshyp import HALF, hyp_poly
from gpiverify.inequality import (
    DEFAULT_WIDTH,
    GpiParams,
    H_value,
    _check_h_domain,
    h_parts,
    margin_polys,
)
from gpiverify.moments import GaussianPair, closed_form_poly, double_factorial_odd, wick_poly
from gpiverify.polyring import MultiPoly

# the package keeps no memo; the tests ask for one pair's margin and one
# moment's closed form at many points, so these two lookups keep theirs
_margin_polys = lru_cache(maxsize=None)(margin_polys)
_closed_form_poly = lru_cache(maxsize=None)(closed_form_poly)

# ----------------------------------------------------------------------
# the difference function G and the quadratic form of the ratio bound
# ----------------------------------------------------------------------


def sign_of(lo: Fraction, hi: Fraction) -> int | None:
    """Sign of every point of the enclosure [lo, hi], 1, -1 or 0 like
    sign_sqrt; None when it straddles or touches zero without being exactly
    the point 0."""
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if lo == 0 and hi == 0:
        return 0
    return None


def G_value(
    params: GpiParams, z: RationalLike, width: RationalLike = DEFAULT_WIDTH
) -> tuple[Fraction, Fraction]:
    """Ends (lo, hi) of an enclosure of G(z) = F(-m2-1, -m3; 1/2; z)
    - [(1-z) + (2 m3 + 1) z H(z)] F(-m2, -m3; 1/2; z), for 1/r^2 < z <= 1.
    G decreases as H grows, since f1 = F(-m2, -m3; 1/2; z) > 0 and
    (2 m3 + 1) z > 0, so H's upper end gives G's lower end."""
    z = rational(z)
    m2, m3 = params.m2, params.m3
    f_big = hyp_poly(m2 + 1, m3, HALF).eval({"z": z})
    f1 = hyp_poly(m2, m3, HALF).eval({"z": z})
    slope = (2 * m3 + 1) * z
    h = H_value(params, z, rational(width) / (slope * f1))
    return f_big - (1 - z + slope * h.hi) * f1, f_big - (1 - z + slope * h.lo) * f1


def mri_ratio(params: GpiParams, pair: GaussianPair) -> Fraction:
    """|E[X2^(2m2+1) X3^(2m3+1)]| / ((2m2+1)(2m3+1) E[X2^(2m2) X3^(2m3)]),
    from the two moments at the pair."""
    return abs(odd_moment(params.m2, params.m3, pair)) / (
        (params.r - 1) * even_moment(params.m2, params.m3, pair)
    )


def h_compare(params: GpiParams, z: RationalLike, threshold: RationalLike) -> int:
    """Exact sign of H(z) - threshold, by isolating the radical: with M, D
    and den > 0 from h_parts, H(z) > c iff M - c den + sqrt(D) > 0."""
    z = rational(z)
    _check_h_domain(params, z)
    m, d, den = h_parts(params, z)
    return sign_sqrt(m - rational(threshold) * den, 1, d)


def point_verdict(predicate: str, params: GpiParams, z: RationalLike) -> tuple[str, object]:
    """(verdict, value) of a scan predicate at z, from alpha, beta and D each
    evaluated at z with MultiPoly.eval: alpha(z) when beta = 0, otherwise the
    sign of alpha(z) + beta(z) sqrt(D(z)) by sign_sqrt."""
    alpha, beta, d = _margin_polys(predicate, params)
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
    and H = (M + sqrt(D))/den with M, D and den from h_parts:

    * beta^2 - (1-z) gamma - [((m3-m2)(1-rz)/(r-1))^2 + (r-1) z], the
      discriminant identity;
    * the rational and the sqrt(D) parts of
      (M + sqrt(D))^2 [(1-z) y^2 + 2 beta y + gamma] at y = den/(M + sqrt(D)),
      namely (1-z) den^2 + 2 beta den M + gamma (M^2 + D) and
      2 beta den + 2 gamma M; so 1/H is a root of the quadratic at every z.
    """
    z = MultiPoly.var("z")
    r = params.r
    m, d, den = h_parts(params, z)
    beta = m * (1 / (r - 1))
    gamma = den * (-1 / (r - 1))
    discriminant = beta * beta - (1 - z) * gamma - (
        ((params.m3 - params.m2) * (1 - r * z) * (1 / (r - 1))) ** 2 + (r - 1) * z
    )
    rational_part = (1 - z) * den * den + 2 * beta * den * m + gamma * (m * m + d)
    radical_part = 2 * beta * den + 2 * gamma * m
    return discriminant, rational_part, radical_part


def deriv_direct_form(params: GpiParams) -> tuple[MultiPoly, MultiPoly]:
    """(alpha, beta) with alpha + beta sqrt(D) = (rhs - lhs) den^2 D for the
    derivative-side condition (1-z) + c H < (r-1) z H^2 + 2 z (1-z) H', with
    c = 2(m2+m3+1) z - 1 and M, D and den from h_parts.  H' comes from the
    quotient rule on their derivatives in z, with (sqrt(D))' = D'/(2 sqrt(D)):
    H' den^2 D = (M' den - M den') D + sqrt(D) (D' den/2 - D den')."""
    z = MultiPoly.var("z")
    r = params.r
    m, d, den = h_parts(params, z)
    m_z, d_z, den_z = (derivative(q, "z") for q in (m, d, den))
    c = 2 * params.msum * z - 1
    alpha = (
        (r - 1) * z * (m * m + d) * d + 2 * z * (1 - z) * (m_z * den - m * den_z) * d
        - (1 - z) * den * den * d - c * den * d * m
    )
    beta = 2 * (r - 1) * z * m * d + z * (1 - z) * (d_z * den - 2 * d * den_z) - c * den * d
    return alpha, beta


def deriv_reduced_form(params: GpiParams) -> tuple[MultiPoly, MultiPoly]:
    """(alpha, beta) of the radical-isolated derivative-side condition
    lhs sqrt(D) - rhs_num > 0, expanded by hand in z, r, m2+m3+1 and
    (m3-m2)^2; D from h_parts.  The expansion uses
    (m2+m3+1)^2 - (m3-m2)^2 = r - 1, which the direct form does not."""
    z = MultiPoly.var("z")
    r, msum, dd = params.r, params.msum, params.mdiff_sq
    rm1 = r - 1
    _, d, den = h_parts(params, z)
    alpha = -(rm1 * z * (1 - z) * (rm1**2 * (1 + r * r * z) - 2 * dd * r * (r * z - 1))
              + (2 * msum * z * (r + r * z - 2) - den) * d)
    beta = (
        (-1 + 4 * z - 4 * r * z + 3 * r * r * z + z * z - 8 * r * z * z
         + 8 * r * r * z * z - 4 * r**3 * z * z + r * r * z**3)
        + msum * (1 - 3 * r * z + r * r * z + 2 * r * z * z - 2 * r * r * z * z + r**3 * z * z)
        - 2 * dd * (2 * z - r * z - 3 * r * z * z + r * r * z * z + r * r * z**3)
    )
    return alpha, beta


def neg_g_den_form(params: GpiParams) -> tuple[MultiPoly, MultiPoly]:
    """(alpha, beta) with alpha + beta sqrt(D) = -G den, where
    G = F(-m2-1, -m3; 1/2; z) - [(1-z) + (2 m3 + 1) z H] F(-m2, -m3; 1/2; z),
    with M, D and den from h_parts."""
    z = MultiPoly.var("z")
    m, _, den = h_parts(params, z)
    f1 = hyp_poly(params.m2, params.m3, HALF)
    beta = (2 * params.m3 + 1) * z * f1
    return ((1 - z) * f1 - hyp_poly(params.m2 + 1, params.m3, HALF)) * den + beta * m, beta


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


def specialize(p: MultiPoly, var: str, value: RationalLike) -> MultiPoly:
    """p with ``var`` fixed at a rational value: MultiPoly.substitute with
    b = 0, so its fresh variable (``var`` again) occurs in no term."""
    return p.substitute(var, var, value, 0)


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


def moment_at(poly: MultiPoly, p: int, q: int, pair: GaussianPair) -> Fraction:
    """E[X2^p X3^q] at ``pair`` from its unit-variance polynomial in x: by
    homogeneity x^k becomes Cov^k Var2^((p-k)/2) Var3^((q-k)/2), and pairing
    parity makes p - k and q - k even in every nonzero term.  The homogenized
    polynomial is evaluated at (Cov, Var2, Var3) as one integer sum, reduced
    once."""
    terms = {(k, (p - k) // 2, (q - k) // 2): n for (k,), n in poly.nums.items()}
    homogenized = MultiPoly(("x", "v2", "v3"), terms, poly.den)
    return homogenized.eval({"x": pair.cov, "v2": pair.var2, "v3": pair.var3})


def even_moment(m2: int, m3: int, pair: GaussianPair) -> Fraction:
    """E[X2^(2 m2) X3^(2 m3)] from the closed form, exact."""
    return moment_at(_closed_form_poly(m2, m3, False), 2 * m2, 2 * m3, pair)


def odd_moment(m2: int, m3: int, pair: GaussianPair) -> Fraction:
    """E[X2^(2 m2 + 1) X3^(2 m3 + 1)] from the closed form, exact; its sign
    is the sign of Cov."""
    return moment_at(_closed_form_poly(m2, m3, True), 2 * m2 + 1, 2 * m3 + 1, pair)


def wick_moment(p: int, q: int, pair: GaussianPair) -> Fraction:
    """E[X2^p X3^q] by the pairing recursion; independent of hyp_poly."""
    return moment_at(wick_poly(p, q), p, q, pair)


def gpi_margin(m2: int, m3: int, a: Fraction, x: Fraction) -> Fraction:
    """The product-inequality margin for X1 = X2 + a X3 over the
    unit-variance pair with correlation x, from three closed-form moments:
    a^2 E[X2^(2m2) X3^(2m3+2)] + E[X2^(2m2+2) X3^(2m3)]
    + 2a E[X2^(2m2+1) X3^(2m3+1)] - (a^2 + 1 + 2ax)(2m2-1)!! (2m3-1)!!."""
    pair = GaussianPair.unit(x)
    return (
        a * a * even_moment(m2, m3 + 1, pair)
        + even_moment(m2 + 1, m3, pair)
        + 2 * a * odd_moment(m2, m3, pair)
        - (a * a + 1 + 2 * a * x) * double_factorial_odd(m2) * double_factorial_odd(m3)
    )


def coverage_rule(m2: int, m3: int) -> bool:
    """The covered parameter set case by case, in either order: (1, >= 5),
    (2, >= 3) and every pair with both indices >= 3."""
    lo, hi = min(m2, m3), max(m2, m3)
    if lo == 1:
        return hi >= 5
    if lo == 2:
        return hi >= 3
    return lo >= 3


class Mutation(NamedTuple):
    """A single certificate perturbation."""

    kind: str  # "lambda" | "square" | "target"
    index: int = 0
    monomial: tuple[int, ...] = ()


def mutate_certificate(cert: Certificate, mutation: Mutation) -> Certificate:
    """A copy with one coefficient bumped by +1; must flip verify_sos."""
    if mutation.kind == "lambda":
        lam, p = cert.squares[mutation.index]
        squares = list(cert.squares)
        squares[mutation.index] = (lam + 1, p)
        return cert._replace(squares=tuple(squares))
    if mutation.kind == "square":
        lam, p = cert.squares[mutation.index]
        bumped = p + MultiPoly(p.vars, {tuple(mutation.monomial): Fraction(1)})
        squares = list(cert.squares)
        squares[mutation.index] = (lam, bumped)
        return cert._replace(squares=tuple(squares))
    if mutation.kind == "target":
        bumped = cert.target + MultiPoly(
            cert.target.vars, {tuple(mutation.monomial): Fraction(1)}
        )
        return cert._replace(target=bumped)
    raise ValueError(f"unknown mutation kind {mutation.kind!r}")


# ----------------------------------------------------------------------
# real roots of a univariate polynomial on an open interval
# ----------------------------------------------------------------------
#
# Dense int coefficient lists, lowest degree first, and int endpoints.  A
# Sturm chain needs each remainder only up to a positive factor, so it stays
# in the integers, each entry divided by its content.


def _trimmed(coeffs) -> list[int]:
    p = list(coeffs)
    while p and not p[-1]:
        p.pop()
    if not p:
        raise ValueError("the zero polynomial has a root at every point")
    return p


def _at(p: list[int], x: int) -> int:
    value = 0
    for c in reversed(p):
        value = value * x + c
    return value


def _remainder(p: list[int], q: list[int]) -> list[int]:
    """A positive multiple of p mod q, for a nonzero q, divided by its content."""
    lead = abs(q[-1])
    sign = 1 if q[-1] > 0 else -1
    while p and len(p) >= len(q):
        top, shift = p[-1] * sign, len(p) - len(q)
        p = [c * lead for c in p]
        for i, c in enumerate(q):
            p[shift + i] -= top * c
        while p and not p[-1]:
            p.pop()
    content = gcd(*p)
    return [c // content for c in p]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', and then minus each remainder, up to the last nonzero one,
    which is gcd(p, p') up to a constant factor."""
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while chain[-1]:
        chain.append([-c for c in _remainder(chain[-2], chain[-1])])
    return chain[:-1]


def _sign_changes(chain: list[list[int]], x: int) -> int:
    signs = [v > 0 for v in (_at(q, x) for q in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def distinct_roots(coeffs, lo: int, hi: int) -> int:
    """Distinct real roots of sum(coeffs[i] x^i), a nonzero int polynomial, in
    the open interval (lo, hi), by Sturm's theorem.  Factors x - lo and x - hi
    are divided out first, since the theorem needs endpoints that are not
    roots."""
    p = _trimmed(coeffs)
    for end in (lo, hi):
        while _at(p, end) == 0:
            quotient, acc = [], 0  # synthetic division by x - end
            for c in reversed(p[1:]):
                acc = acc * end + c
                quotient.append(acc)
            p = quotient[::-1]
    chain = _sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def root_count(coeffs, lo: int, hi: int) -> int:
    """Real roots of sum(coeffs[i] x^i) in (lo, hi), counted with multiplicity:
    a root of multiplicity m is a root of each of g_0 = p,
    g_1 = gcd(g_0, g_0'), ..., g_(m-1), and of no later one."""
    g = _trimmed(coeffs)
    total = 0
    while len(g) > 1:
        total += distinct_roots(g, lo, hi)
        g = _sturm_chain(g)[-1]
    return total
