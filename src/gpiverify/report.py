"""Machine-readable check reports shared by all verification modules."""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .exactnum import RationalInterval

# verdicts for inequality checks
HOLDS = "holds"
FAILS = "fails"
INDETERMINATE = "indeterminate"

# statuses for certificate checks
VERIFIED = "verified"
RESIDUAL_NONZERO = "residual_nonzero"
COEFFICIENT_NEGATIVE = "coefficient_negative"

PASS_STATUSES = frozenset({HOLDS, VERIFIED})
FAIL_STATUSES = frozenset({FAILS, RESIDUAL_NONZERO, COEFFICIENT_NEGATIVE})


def jsonable(value: Any) -> Any:
    """Render exact values losslessly: rationals as "p/q" strings, intervals
    as {"lo", "hi"} pairs; containers recursively.

    The plain leaves and the containers are tested first: Fraction derives
    from numbers.Rational, so an isinstance test against it goes through
    ABCMeta and costs more on every other value."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, RationalInterval):
        return {"lo": str(value.lo), "hi": str(value.hi)}
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    return value


class CheckReport:
    """Verdict of one check, with enough detail to audit it.

    ``status`` is one of the verdict/status constants above.  ``witnesses``
    carries the concrete points, monomials or margins that justify the
    verdict; ``residual`` (certificate checks only) is the exact nonzero
    difference when verification fails.
    """

    __slots__ = ("name", "status", "margin", "witnesses", "residual", "metadata")

    def __init__(
        self,
        name: str,
        status: str,
        margin: Any = None,
        witnesses: list | None = None,
        residual: Any = None,
        metadata: dict | None = None,
    ):
        self.name = name
        self.status = status
        self.margin = margin
        self.witnesses = [] if witnesses is None else witnesses
        self.residual = residual
        self.metadata = {} if metadata is None else metadata

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"name": self.name, "status": self.status}
        if self.margin is not None:
            out["margin"] = jsonable(self.margin)
        if self.witnesses:
            out["witnesses"] = jsonable(self.witnesses)
        if self.residual is not None:
            out["residual"] = jsonable(self.residual)
        if self.metadata:
            out["metadata"] = jsonable(self.metadata)
        return out
