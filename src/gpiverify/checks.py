"""Point checks of the product inequality (GPI) and the moment-ratio
inequality (MRI), exact and real-exponent.

These are the checks that evaluate moments, so they live apart from the
objects of the proof in ``inequality`` and only the commands that run them
load this module and ``moments``:

* GPI: one margin in three values of F (_gpi_margin), exact from hyp_poly
  (check_gpi) and float from gauss_hyp_real (check_gpi_real);
* MRI, from f1 and f2 at z = Corr^2, with the margin |Cov| - lhs for z <= t
  and S(z) above t (check_mri), or the float H above t (check_mri_real);
* one search down a grid of correlations that finds an MRI violation on
  either path (_first_violation).

An exact margin holds iff it is >= 0.  A float margin within
REAL_MARGIN_GUARD of zero is not trusted and reads indeterminate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable

from .exactnum import InputError, RationalInterval, RationalLike, rational
from .gausshyp import HALF, THREE_HALVES, hyp_poly
from .inequality import GpiParams, H_value, RealGpiParams, _f1_f2, _s_combination, h_parts
from .moments import SERIES_TOL, GaussianPair, double_factorial_odd, gauss_hyp_real
from .report import FAILS, HOLDS, INDETERMINATE, CheckReport

#: float-path guard: series results within this of zero are indeterminate
REAL_MARGIN_GUARD = 1e-9


# ----------------------------------------------------------------------
# exact checks: GPI and MRI
# ----------------------------------------------------------------------


def _exact_status(margin: Fraction) -> str:
    """Verdict of an exact margin: the check holds iff margin >= 0."""
    return HOLDS if margin >= 0 else FAILS


def _gpi_margin(f: Callable, y2, y3, a, x):
    """The product-inequality margin for X1 = X2 + a X3 over a unit-variance
    pair with correlation x, divided by (y2 - 1)!! (y3 - 1)!!:

        a^2 (y3+1) f(0, 1, 1/2) + (y2+1) f(1, 0, 1/2)
        + 2 a x (y3+1)(y2+1) f(0, 0, 3/2) - (a^2 + 1 + 2 a x)

    with f(i, j, c) = F(-y3/2 - j, -y2/2 - i; c; x^2).  The exact check
    passes rationals and y = 2m, the float check floats."""
    return (
        a * a * (y3 + 1) * f(0, 1, HALF)
        + (y2 + 1) * f(1, 0, HALF)
        + 2 * a * x * (y3 + 1) * (y2 + 1) * f(0, 0, THREE_HALVES)
        - (a * a + 1 + 2 * a * x)
    )


def check_gpi(params: GpiParams, a: RationalLike, x: RationalLike) -> CheckReport:
    """Exact margin of the product inequality for X1 = X2 + a X3 over a
    unit-variance pair with correlation x,

        E[X1^2 X2^(2m2) X3^(2m3)] - E[X1^2] E[X2^(2m2)] E[X3^(2m3)],

    which is (2m2-1)!! (2m3-1)!! times _gpi_margin at y = 2m, with its three
    F from hyp_poly at z = x^2.  Holds iff margin >= 0; equality (margin
    exactly 0) is reported in the metadata and occurs only in
    independent/degenerate configurations.
    """
    a, x = rational(a), rational(x)
    if abs(x) > 1:
        raise InputError("correlation x must satisfy |x| <= 1")
    m2, m3, point = params.m2, params.m3, {"z": x * x}
    margin = double_factorial_odd(m2) * double_factorial_odd(m3) * _gpi_margin(
        lambda i, j, c: hyp_poly(m2 + i, m3 + j, c).eval(point), 2 * m2, 2 * m3, a, x
    )
    return CheckReport(
        name=f"gpi:m2={params.m2},m3={params.m3},a={a},x={x}",
        status=_exact_status(margin),
        margin=margin,
        metadata={"equality": margin == 0, "method": "exact rational"},
    )


def _mri_margin(params: GpiParams, pair: GaussianPair, fs: tuple) -> tuple[Fraction, Fraction]:
    """(margin, lhs) of the moment-ratio inequality at ``pair``, as check_mri
    defines them, from ``fs`` = _f1_f2(params); no bound is built."""
    z = pair.corr_sq
    f1, f2 = (f.eval({"z": z}) for f in fs)
    abs_cov = abs(pair.cov)
    lhs = abs_cov * f2 / f1
    if z <= params.t:
        return abs_cov - lhs, lhs
    return _s_combination(f1, f2, z, params.r, params.msum), lhs


def check_mri(params: GpiParams, pair: GaussianPair, fs: tuple | None = None) -> CheckReport:
    """Moment-ratio inequality check, decided exactly from f1 and f2 at z = Corr^2.

    With f1 = F(-m2, -m3; 1/2; z) and f2 = F(-m2, -m3; 3/2; z), the ratio
    |E[X2^(2m2+1) X3^(2m3+1)]| / ((r-1) E[X2^(2m2) X3^(2m3)]) is
    lhs = |Cov| f2/f1.  When z <= t the bound is |Cov| and the margin is
    |Cov| - lhs.  Otherwise the bound is H(z) |Cov| and the margin is S(z):
    f1 > 0, and on (1/r^2, 1] S(z) >= 0 iff f2/f1 <= H(z), with equality
    together.  The check holds iff the margin >= 0, and equality means a
    margin of 0.  The witness shows lhs beside the bound; on the ratio branch
    that is H_value's enclosure, to DEFAULT_WIDTH, with both ends times
    |Cov| >= 0.  ``fs`` is _f1_f2(params), built here when not given.
    """
    margin, lhs = _mri_margin(params, pair, fs or _f1_f2(params))
    z, abs_cov = pair.corr_sq, abs(pair.cov)
    if z <= params.t:
        bound, branch, quantity = abs_cov, "covariance", "|cov| - lhs"
    else:
        h = H_value(params, z)
        bound = RationalInterval(h.lo * abs_cov, h.hi * abs_cov)
        branch, quantity = "ratio-bound", "S(corr_sq)"
    return CheckReport(
        name=f"mri:m2={params.m2},m3={params.m3}",
        status=_exact_status(margin),
        margin=margin,
        witnesses=[{"corr_sq": z, "lhs": lhs, "branch": branch, "bound": bound}],
        metadata={"equality": margin == 0, "method": f"exact rational {quantity}"},
    )


def _first_violation(
    name: str, steps: int, xs: Iterable, fails: Callable[..., bool],
    check: Callable[..., CheckReport],
) -> CheckReport:
    """The first x of ``xs`` at which ``fails(x)``: a report that holds with
    the witness {"x", "detail": check(x)'s witnesses}, or one that fails when
    no x does.  Only the returned x's check report is built."""
    for x in xs:
        if fails(x):
            return CheckReport(
                name=name,
                status=HOLDS,
                witnesses=[{"x": x, "detail": check(x).witnesses}],
                metadata={"found": True, "grid_steps": steps},
            )
    return CheckReport(name=name, status=FAILS, metadata={"found": False, "grid_steps": steps})


def find_mri_violation(params: GpiParams, steps: int = 100) -> CheckReport:
    """Search correlations x = k/steps, scanning down from x = 1, for an
    exact MRI violation; the report carries the first witness found (or none).

    Scanning downward surfaces the full-correlation witness first where it
    exists (as for small index pairs).  f1 and f2 are built once; each
    correlation is decided from its exact margin, and the witness bound is
    built only for the one returned."""
    fs = _f1_f2(params)
    return _first_violation(
        f"mri-violation:m2={params.m2},m3={params.m3}", steps,
        (Fraction(k, steps) for k in range(steps, 0, -1)),
        lambda x: _exact_status(_mri_margin(params, GaussianPair.unit(x), fs)[0]) == FAILS,
        lambda x: check_mri(params, GaussianPair.unit(x), fs),
    )


# ----------------------------------------------------------------------
# real-exponent path
# ----------------------------------------------------------------------


def _real_margin_status(margin: float) -> str:
    """Verdict of a float margin: within REAL_MARGIN_GUARD of zero it is not
    trusted and reads indeterminate; a non-finite margin raises InputError."""
    if not math.isfinite(margin):
        raise InputError(f"the float margin is {margin}: the inputs overflow the float range")
    if margin > REAL_MARGIN_GUARD:
        return HOLDS
    if margin < -REAL_MARGIN_GUARD:
        return FAILS
    return INDETERMINATE


def check_gpi_real(rp: RealGpiParams, a: float, x: float) -> CheckReport:
    """Float margin of the real-exponent product inequality: _gpi_margin,
    its three F summed by gauss_hyp_real.

    Requires |x| < 1 (series convergence); margins within REAL_MARGIN_GUARD of
    zero are reported indeterminate rather than trusted.
    """
    if not abs(x) < 1:
        raise InputError("check_gpi_real requires |x| < 1")
    if not math.isfinite(a):
        raise InputError("check_gpi_real requires a finite a")
    y2, y3 = rp.y2, rp.y3
    margin = _gpi_margin(
        lambda i, j, c: gauss_hyp_real(-y3 / 2.0 - j, -y2 / 2.0 - i, float(c), x * x),
        y2, y3, a, x,
    )
    return CheckReport(
        name=f"gpi-real:y2={rp.y2},y3={rp.y3},a={a},x={x}",
        status=_real_margin_status(margin),
        margin=margin,
        metadata={"series_tol": SERIES_TOL, "guard": REAL_MARGIN_GUARD},
    )


def check_mri_real(rp: RealGpiParams, x: float) -> CheckReport:
    """Real-exponent moment-ratio inequality at correlation x (unit variances):

        |x| F(-y2/2, -y3/2; 3/2; x^2) / F(-y2/2, -y3/2; 1/2; x^2)
        <=  |x|                 if x^2 <= t
        <=  H(x^2) |x|          otherwise

    with H(z) = (M + sqrt(D))/den from h_parts at the float parameters.  An
    x^2 in (t, 1/r^2], where den <= 0 and H is undefined (small y2, y3),
    raises InputError.
    """
    if not abs(x) < 1:
        raise InputError("check_mri_real requires |x| < 1")
    z = x * x
    bound, branch = abs(x), "covariance"
    if z > rp.t:
        try:
            m, d, den = h_parts(rp, z)
        except OverflowError:  # a float power in H past the float range
            raise InputError(f"the ratio bound H({z!r}) overflows the float range") from None
        if not den > 0.0:
            raise InputError(f"x^2 = {z!r} is above t = {rp.t!r} but outside the ratio bound's "
                             f"domain x^2 > 1/r^2 = {1.0 / (rp.r * rp.r)!r}")
        bound, branch = (m + math.sqrt(d)) / den * abs(x), "ratio-bound"
    f1 = gauss_hyp_real(-rp.y2 / 2.0, -rp.y3 / 2.0, 0.5, z)
    f2 = gauss_hyp_real(-rp.y2 / 2.0, -rp.y3 / 2.0, 1.5, z)
    lhs = abs(x) * f2 / f1
    margin = bound - lhs
    return CheckReport(
        name=f"mri-real:y2={rp.y2},y3={rp.y3},x={x}",
        status=_real_margin_status(margin),
        margin=margin,
        witnesses=[{"x": x, "branch": branch, "lhs": lhs, "bound": bound}],
        metadata={"series_tol": SERIES_TOL, "guard": REAL_MARGIN_GUARD},
    )


def find_mri_real_violation(rp: RealGpiParams, steps: int = 100) -> CheckReport:
    """Search x = k/steps (k = steps-1..1, descending) for a real-exponent
    ratio-bound violation, as find_mri_violation does on the exact path."""
    check = partial(check_mri_real, rp)
    return _first_violation(
        f"mri-real-violation:y2={rp.y2},y3={rp.y3}", steps,
        (k / steps for k in range(steps - 1, 0, -1)),
        lambda x: check(x).status == FAILS, check,
    )
