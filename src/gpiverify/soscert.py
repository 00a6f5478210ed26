"""Exact verification of weighted sums-of-squares certificates.

A certificate asserts ``target = sum_i lambda_i * p_i^2`` with all weights
positive.  Verification is exact polynomial arithmetic: the certificate is
data and is never trusted; a nonzero residual is reported verbatim so a
transcription or source defect can be localized, never silently repaired.

Combined with the coefficientwise decomposition ``host = scale * target +
rest`` with ``rest`` having only nonnegative coefficients, a verified
certificate whose squares include a constant certifies strict positivity of
the host polynomial on all of R^2.
"""

from __future__ import annotations

from fractions import Fraction
from .bundled import load_certificate_dict, load_h_expansion, reading
from .exactnum import rational
from .polyring import MultiPoly
from .report import (
    COEFFICIENT_NEGATIVE,
    RESIDUAL_NONZERO,
    VERIFIED,
    CheckReport,
)


class SosCertificate:
    """Target polynomial with its weighted list of squares.

    ``context_scale`` is the factor in front of the bracket inside the host
    expansion (e.g. 1/9 for h_1); ``host`` is the full polynomial whose
    bracket the target is, when bundled alongside.
    """

    __slots__ = ("target", "squares", "context_scale", "host", "name")

    def __init__(
        self,
        target: MultiPoly,
        squares: tuple[tuple[Fraction, MultiPoly], ...],
        context_scale: Fraction = Fraction(1),
        host: MultiPoly | None = None,
        name: str = "certificate",
    ):
        for lam, _ in squares:
            if lam <= 0:
                raise ValueError(f"malformed certificate: weight {lam} is not positive")
        self.target = target
        self.squares = squares
        self.context_scale = context_scale
        self.host = host
        self.name = name

    def reconstruction(self) -> MultiPoly:
        total = MultiPoly.zero(self.target.vars)
        for lam, p in self.squares:
            total = total + (p * p).scale(lam)
        return total

    def constant_square_weight(self) -> Fraction | None:
        """Weight of a constant square, if any: witnesses strict positivity."""
        for lam, p in self.squares:
            if p.total_degree() == 0 and not p.is_zero():
                return lam * p.constant_term() ** 2
        return None


def load_certificate(m2: int) -> SosCertificate:
    """Bundled certificate for the h_{m2} bracket, with its host attached."""
    raw = load_certificate_dict(m2)
    with reading("certs", f"h{m2}_sos.json"):
        target = MultiPoly.from_json_dict(raw["target"])
        if tuple(raw["ring"]) != target.vars:
            raise ValueError(f"certificate ring {raw['ring']} does not match target {target.vars}")
        squares = tuple(
            (rational(item["lambda"]), MultiPoly.from_json_dict(item["poly"]))
            for item in raw["squares"]
        )
        return SosCertificate(
            target=target,
            squares=squares,
            context_scale=rational(raw["scale"]),
            host=load_h_expansion(m2),
            name=raw.get("host", f"h{m2}"),
        )


def verify_sos(cert: SosCertificate) -> CheckReport:
    """Exact check that target equals the weighted sum of squares."""
    residual = cert.target - cert.reconstruction()
    if residual.is_zero():
        metadata = {"squares": len(cert.squares)}
        const_w = cert.constant_square_weight()
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
            metadata={"terms": len(p.nums), "min_coeff": min(p.coefficients(), default=Fraction(0))},
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
    if p.is_zero() or len(p.nums) != len(q.nums):
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
    h_{m2} > 0 everywhere.
    """
    cert = load_certificate(m2)
    assert cert.host is not None
    rest = cert.host - cert.target.scale(cert.context_scale)
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
            "scale": cert.context_scale,
            "decomposition": rest_report.status,
            "sos": sos_report.status,
            "strictness": sos_report.metadata.get("strictness"),
        },
    )
