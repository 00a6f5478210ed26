"""Exact checks of positivity certificates, on the values that
:mod:`gpiverify.bundled` parses; this module reads no file itself.

A sums-of-squares certificate asserts ``target = sum_i lambda_i * p_i^2``
with every weight positive (the loader refuses any other).  The certificate
is data and is never trusted: a nonzero residual is reported verbatim so a
transcription or source defect can be localized, never silently repaired.

With ``host = scale * target + rest``, scale > 0 and every coefficient of
``rest`` nonnegative, a verified certificate whose squares include a nonzero
constant certifies host > 0 wherever each monomial of ``rest`` is
nonnegative: on b, c >= 0, which is all the hypergeometric ratio inequality
uses (b^2 = m3 - offset and c^2 = z/(1 - z)).  Every bundled host and target
has even exponents only, so for them it holds on all of R^2.
"""

from __future__ import annotations

from fractions import Fraction
from .bundled import Certificate, load_certificate, load_h_expansion
from .polyring import MultiPoly
from .report import (
    COEFFICIENT_NEGATIVE,
    RESIDUAL_NONZERO,
    VERIFIED,
    CheckReport,
)


def verify_sos(cert: Certificate) -> CheckReport:
    """Exact check that target equals the weighted sum of squares.  The first
    nonzero constant square bounds the target below by its weighted value."""
    squares = MultiPoly.zero(cert.target.vars)
    for lam, p in cert.squares:
        squares = squares + (p * p).scale(lam)
    residual = cert.target - squares
    if not residual:
        metadata = {"squares": len(cert.squares)}
        const_w = next((lam * p.constant_term() ** 2 for lam, p in cert.squares
                        if list(p.nums) == [(0,) * len(p.vars)]), None)
        if const_w is not None:
            metadata["strictness"] = (
                f"nonnegative certified; strict positivity via constant square >= {const_w}"
            )
        return CheckReport(name=f"sos:{cert.name}", status=VERIFIED, metadata=metadata)
    return CheckReport(
        name=f"sos:{cert.name}",
        status=RESIDUAL_NONZERO,
        residual=residual,
        witnesses=[
            {"monomial": list(exps), "value": coeff}
            for exps, coeff in list(residual.iter_terms())[:16]
        ],
        metadata={"residual_terms": len(residual.nums)},
    )


def verify_nonneg_coeffs(p: MultiPoly, name: str = "polynomial") -> CheckReport:
    """Verified iff every stored coefficient is >= 0."""
    offending = [(exps, coeff) for exps, coeff in p.iter_terms() if coeff < 0]
    if not offending:
        return CheckReport(
            name=f"nonneg:{name}",
            status=VERIFIED,
            metadata={"terms": len(p.nums), "min_coeff": min(p.terms.values(), default=Fraction(0))},
        )
    return CheckReport(
        name=f"nonneg:{name}",
        status=COEFFICIENT_NEGATIVE,
        witnesses=[{"monomial": list(exps), "value": coeff} for exps, coeff in offending[:16]],
        metadata={"negative_terms": len(offending)},
    )


def proportionality_scalar(p: MultiPoly, q: MultiPoly) -> Fraction | None:
    """The positive rational c with p = c q, or None if there is none."""
    ring = MultiPoly.union_ring(p, q)
    p, q = p.in_ring(ring), q.in_ring(ring)
    if not p or len(p.nums) != len(q.nums):
        return None
    exps = next(iter(p.nums))
    ref = q.coeff(exps)
    if ref == 0:
        return None
    scalar = p.coeff(exps) / ref
    return scalar if scalar > 0 and p == q.scale(scalar) else None


def verify_bracket_positivity(m2: int) -> CheckReport:
    """Full positivity certification of the bundled h_{m2}:

    1. host - scale * target must have only nonnegative coefficients;
    2. the bracket certificate must verify exactly.

    Together (with the constant square providing strictness) these certify
    h_{m2} > 0 on b, c >= 0, and on all of R^2 since h_{m2} and its target
    have even exponents only.
    """
    cert = load_certificate(m2)
    rest = load_h_expansion(m2) - cert.target.scale(cert.scale)
    rest_report = verify_nonneg_coeffs(rest, name=f"h{m2}-rest")
    sos_report = verify_sos(cert)
    ok = rest_report.status == VERIFIED and sos_report.status == VERIFIED
    status = VERIFIED if ok else (
        sos_report.status if sos_report.status != VERIFIED else rest_report.status
    )
    return CheckReport(
        name=f"bracket-positivity:h{m2}",
        status=status,
        residual=sos_report.residual,
        witnesses=sos_report.witnesses + rest_report.witnesses,
        metadata={
            "scale": cert.scale,
            "decomposition": rest_report.status,
            "sos": sos_report.status,
            "strictness": sos_report.metadata.get("strictness"),
        },
    )
