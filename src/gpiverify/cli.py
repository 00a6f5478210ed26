"""Batch command-line front end emitting machine-readable JSON reports.

Commands (see README for examples):

    sos verify [--all | --m2 K]
    expand {h,g,s} [--m2 K --m3 K] [--compare-bundled | --compare-appendix]
    check {gpi,mri,hfri,gpi-real} ...
    scan {hfri,g-negative,h-half,h-seventh,h-deriv,h-deriv-reduced} ... [--grid N]
    oracle compare [--max-m N | --real]
    params show --m2 K --m3 K

Every command also takes --out and --timing.  scan also accepts --jobs N and
echoes it in the report; a scan runs in one process whatever N is.  The
parser is the one definition of the commands, their handlers and their
options' defaults and ranges.

Exit codes: 0 all checks passed; 1 any check failed; 2 a float margin of the
real-exponent path too close to zero to trust (and nothing failed); 64 bad
input; 74 report I/O error; 70 anything else, which is a defect of the
program.  The JSON report is written to --out (stdout by default) on exits
0..2; its ``run`` block holds the command and the resolved value of each of
its options.  Wall-clock timing is recorded only with --timing so that
exact-arithmetic reports are byte-identical across runs.

--config FILE supplies option defaults as a JSON object keyed by option
name; each value is converted like the same value on the command line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .exactnum import InputError, rational
from .inequality import (
    SCAN_PREDICATES,
    TRUNCATION_BOUND,
    G_at_one,
    H_at_one,
    S_poly,
    check_point,
    g_poly,
    h_poly,
    make_params,
    make_real_params,
    scan,
)
from .report import (
    FAIL_STATUSES,
    FAILS,
    HOLDS,
    INDETERMINATE,
    PASS_STATUSES,
    RESIDUAL_NONZERO,
    VERIFIED,
    CheckReport,
    jsonable,
)

ORACLE_MAX_M = 8  # the default --max-m of oracle compare

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_IO = 74


class _UsageError(InputError):
    """An InputError and the parser whose usage ``main`` prints after it: the
    command's own once a command is parsed, else the top-level one."""

    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError (exit 64) on usage errors.  The top-level parser
    lists the parser of each command ("gpiverify sos verify", ...) in
    ``commands``."""

    def error(self, message):
        raise _UsageError(message, self)


def _at_least(low: int):
    """Option type: an integer >= low."""

    def integer(text: str) -> int:  # argparse names the type in its error message
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}; got {value}")
        return value

    return integer


def _float(text: str) -> float:
    """``float(text)``; an invalid text is an InputError with float's message."""
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpiverify", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = []

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def common(p, handler, *, jobs=False):
        p.add_argument("--out", help="report path (default: stdout)")
        if jobs:
            p.add_argument("--jobs", type=_at_least(1), default=1,
                           help="accepted and echoed in the report; a scan runs in one "
                                "process (default %(default)s)")
        p.add_argument("--timing", action="store_true", help="record wall time in the report")
        p.set_defaults(handler=handler, parser=p)
        parser.commands.append(p)

    sos = group("sos", "certificate verification")
    p = sos.add_parser("verify", help="verify bundled weighted-square certificates")
    p.add_argument("--all", action="store_true", help="verify all seven certificates")
    p.add_argument("--m2", type=int, help="verify the certificate for one index")
    common(p, _cmd_sos_verify)

    expand = group("expand", "regenerate symbolic objects")
    p = expand.add_parser("h", help="bivariate positivity polynomial h_{m2}")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--compare-bundled", action="store_true")
    p.add_argument("--poly-out", help="write the polynomial JSON here")
    common(p, _cmd_expand_h)
    p = expand.add_parser("g", help="three-variable positivity polynomial g")
    p.add_argument("--compare-appendix", action="store_true")
    p.add_argument("--poly-out", help="write the polynomial JSON here")
    common(p, _cmd_expand_g)
    p = expand.add_parser("s", help="ratio-inequality polynomial S for one (m2, m3)")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    p.add_argument("--poly-out", help="write the polynomial JSON here")
    common(p, _cmd_expand_s)

    check = group("check", "single-point inequality checks")
    p = check.add_parser("gpi", help="exact product-inequality margin")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    p.add_argument("--a", required=True, help="coefficient in X1 = X2 + a X3 (rational)")
    p.add_argument("--x", required=True, help="correlation in [-1, 1] (rational)")
    common(p, _cmd_check_gpi)
    p = check.add_parser("mri", help="moment-ratio inequality (exact or real-exponent)")
    p.add_argument("--m2", type=int)
    p.add_argument("--m3", type=int)
    p.add_argument("--y2", type=float)
    p.add_argument("--y3", type=float)
    p.add_argument("--x", help="correlation (rational for integer path, float for real)")
    p.add_argument("--var2", help="variance of X2 (rational, default 1)")
    p.add_argument("--var3", help="variance of X3 (rational, default 1)")
    p.add_argument("--cov", help="covariance (rational; alternative to --x)")
    p.add_argument("--find-violation", action="store_true")
    common(p, _cmd_check_mri)
    p = check.add_parser("hfri", help="hypergeometric ratio inequality via S(z) > 0")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    p.add_argument("--z", required=True, help="point in (1/r^2, 1) (rational)")
    common(p, _cmd_check_hfri)
    p = check.add_parser("gpi-real", help="real-exponent product-inequality margin")
    p.add_argument("--y2", type=float, required=True)
    p.add_argument("--y3", type=float, required=True)
    p.add_argument("--a", required=True, help="float coefficient")
    p.add_argument("--x", required=True, help="float correlation, |x| < 1")
    common(p, _cmd_check_gpi_real)

    p = sub.add_parser("scan", help="grid scans of inequality predicates")
    p.add_argument("predicate", choices=SCAN_PREDICATES)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    p.add_argument("--z-lo", help="override scan lower endpoint (rational)")
    p.add_argument("--z-hi", help="override scan upper endpoint (rational)")
    p.add_argument("--grid", type=_at_least(2), default=101,
                   help="grid points (default %(default)s)")
    common(p, _cmd_scan, jobs=True)

    oracle = group("oracle", "independent-oracle comparisons")
    p = oracle.add_parser("compare", help="closed-form moments vs pairing recursion")
    p.add_argument("--max-m", type=_at_least(0),
                   help=f"exponent indices range 0..max-m (default {ORACLE_MAX_M}; "
                        "not with --real)")
    p.add_argument("--real", action="store_true",
                   help="compare real-exponent closed forms against polar quadrature")
    common(p, _cmd_oracle_compare)

    params = group("params", "parameter inspection")
    p = params.add_parser("show", help="derived parameters for one (m2, m3)")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    common(p, _cmd_params_show)

    return parser


# ----------------------------------------------------------------------
# command implementations (each returns a list of CheckReport)
# ----------------------------------------------------------------------


def _cmd_sos_verify(args: argparse.Namespace) -> list[CheckReport]:
    from .bundled import H_INDICES
    from .soscert import verify_bracket_positivity

    if args.all and args.m2 is not None:
        raise InputError("sos verify --all does not use --m2")
    # --all and the bare form verify every bundled certificate
    indices = H_INDICES if args.m2 is None else [args.m2]
    return [verify_bracket_positivity(m2) for m2 in indices]


def _cmd_expand_h(args: argparse.Namespace) -> list[CheckReport]:
    bundled = None
    if args.compare_bundled:  # an m2 with no bundled file is refused before h is built
        from .bundled import load_h_expansion

        bundled = load_h_expansion(args.m2)
    poly = h_poly(args.m2)
    _maybe_write_poly(args, poly)
    out = [CheckReport(
        name=f"expand:h{args.m2}",
        status=VERIFIED,
        metadata={"terms": len(poly.nums), "degree_b": poly.degree("b"),
                  "degree_c": poly.degree("c"), "polynomial": poly.to_json_dict()},
    )]
    if bundled is not None:
        same = poly == bundled
        out.append(CheckReport(
            name=f"expand:h{args.m2}:compare-bundled",
            status=VERIFIED if same else RESIDUAL_NONZERO,
            residual=None if same else poly - bundled,
        ))
    return out


def _cmd_expand_g(args: argparse.Namespace) -> list[CheckReport]:
    from .bundled import load_g_appendix
    from .soscert import proportionality_scalar, verify_nonneg_coeffs

    poly = g_poly()
    _maybe_write_poly(args, poly)
    checks = [verify_nonneg_coeffs(poly, "g")]
    meta = {
        "terms": len(poly.nums),
        "degrees": {v: poly.degree(v) for v in poly.vars},
        "even_exponents_only": all(
            all(e % 2 == 0 for e in exps) for exps in poly.nums
        ),
    }
    if args.compare_appendix:
        bundled = load_g_appendix()
        scalar = proportionality_scalar(poly, bundled)
        meta["proportionality_scalar"] = scalar
        meta["bundled_constant"] = bundled.constant_term()
        meta["bundled_min_coeff"] = min(bundled.terms.values())
        checks.append(CheckReport(
            name="expand:g:compare-appendix",
            status=VERIFIED if scalar is not None else RESIDUAL_NONZERO,
            metadata=meta,
        ))
    else:
        checks.append(CheckReport(name="expand:g", status=VERIFIED, metadata=meta))
    return checks


def _cmd_expand_s(args: argparse.Namespace) -> list[CheckReport]:
    params = make_params(args.m2, args.m3)
    poly = S_poly(params.m2, params.m3)
    _maybe_write_poly(args, poly)
    return [
        CheckReport(
            name=f"expand:s:m2={args.m2},m3={args.m3}",
            status=VERIFIED,
            metadata={
                "degree": poly.degree("z"),
                "value_at_0": poly.eval({"z": 0}),
                "polynomial": poly.to_json_dict(),
            },
        )
    ]


def _cmd_check_gpi(args: argparse.Namespace) -> list[CheckReport]:
    from .checks import check_gpi

    params = make_params(args.m2, args.m3)
    return [check_gpi(params, rational(args.a), rational(args.x))]


def _cmd_check_mri(args: argparse.Namespace) -> list[CheckReport]:
    """--m2/--m3 or --y2/--y3 (real exponents), then --find-violation or a
    point: --x, or --cov with --var2/--var3 for integers.  An option that
    the chosen form ignores is a usage error."""
    from .checks import check_mri, check_mri_real, find_mri_real_violation, find_mri_violation
    from .moments import GaussianPair

    real = args.y2 is not None or args.y3 is not None
    indices = ("y2", "y3") if real else ("m2", "m3")
    if any(getattr(args, opt) is None for opt in indices):
        raise InputError(f"check mri needs both --{indices[0]} and --{indices[1]}")
    if args.find_violation:
        point = ()
    elif args.x is not None:
        point = ("x",)
    elif args.cov is not None and not real:
        point = ("cov", "var2", "var3")
    else:
        raise InputError("check mri needs --x, --cov (with --m2/--m3), or --find-violation")
    ignored = [f"--{opt}" for opt in ("m2", "m3", "y2", "y3", "x", "cov", "var2", "var3")
               if getattr(args, opt) is not None and opt not in indices + point]
    if ignored:
        raise InputError(f"this form of check mri does not use {', '.join(ignored)}")
    if real:
        rp = make_real_params(args.y2, args.y3)
        if args.find_violation:
            return [find_mri_real_violation(rp)]
        return [check_mri_real(rp, _float(args.x))]
    params = make_params(args.m2, args.m3)
    if args.find_violation:
        return [find_mri_violation(params)]
    if args.x is not None:
        pair = GaussianPair.unit(rational(args.x))
    else:
        var2, var3 = (rational(1 if v is None else v) for v in (args.var2, args.var3))
        pair = GaussianPair(var2, var3, rational(args.cov))
    return [check_mri(params, pair)]


def _cmd_check_hfri(args: argparse.Namespace) -> list[CheckReport]:
    params = make_params(args.m2, args.m3)
    return [check_point("hfri", params, rational(args.z))]


def _cmd_check_gpi_real(args: argparse.Namespace) -> list[CheckReport]:
    from .checks import check_gpi_real

    rp = make_real_params(args.y2, args.y3)
    return [check_gpi_real(rp, _float(args.a), _float(args.x))]


def _cmd_scan(args: argparse.Namespace) -> list[CheckReport]:
    params = make_params(args.m2, args.m3)
    return [scan(args.predicate, params, args.z_lo, args.z_hi, args.grid)]


def _cmd_oracle_compare(args: argparse.Namespace) -> list[CheckReport]:
    if args.real:
        if args.max_m is not None:
            raise InputError("oracle compare --real does not use --max-m")
        return _cmd_oracle_compare_real()
    from .moments import closed_form_poly, wick_poly

    if args.max_m is None:  # resolved here, so the report echoes it
        args.max_m = ORACLE_MAX_M
    # each side is a polynomial in the correlation, so equality holds for every x
    indices = range(args.max_m + 1)
    cases = [(m2, m3, odd) for m2 in indices for m3 in indices for odd in (False, True)]
    mismatches = [
        {"kind": "odd" if odd else "even", "m2": m2, "m3": m3}
        for m2, m3, odd in cases
        if closed_form_poly(m2, m3, odd) != wick_poly(2 * m2 + odd, 2 * m3 + odd)
    ]
    return [
        CheckReport(
            name=f"oracle:moments:max_m={args.max_m}",
            status=HOLDS if not mismatches else FAILS,
            witnesses=mismatches[:16],
            metadata={"comparisons": len(cases)},
        )
    ]


def _cmd_oracle_compare_real() -> list[CheckReport]:
    from .moments import MomentExponents, polar_moment, real_moment

    # the two sides are floats that agree to about 1e-12 relative, so a gap
    # past rel_tol is a defect in one of them, not rounding
    rel_tol = 1e-9
    configs = [
        (MomentExponents(1.0, 0.0), 0.5),
        (MomentExponents(2.5, 0.0), 0.5),
        (MomentExponents(1.3, 2.7), 0.5),
        (MomentExponents(1.5, 4.0), 0.5),
        (MomentExponents(2.0, 3.0, signed=True), 0.5),
        (MomentExponents(2.0, 3.0), -0.3),
    ]
    checks = []
    for exps, x in configs:
        closed = real_moment(exps, x)
        quadrature = polar_moment(exps, x)
        checks.append(CheckReport(
            name=f"oracle:real:p={exps.p},q={exps.q},signed={exps.signed},x={x}",
            status=HOLDS if math.isclose(closed, quadrature, rel_tol=rel_tol) else FAILS,
            witnesses=[exps._asdict() | {"closed_form": closed, "quadrature": quadrature}],
            metadata={"relative_tolerance": rel_tol},
        ))
    return checks


def _cmd_params_show(args: argparse.Namespace) -> list[CheckReport]:
    params = make_params(args.m2, args.m3)
    meta = {
        "m2": params.m2,
        "m3": params.m3,
        "r": params.r,
        "t": params.t,
        "one_over_r": 1 / params.r,
        "one_over_r_sq": 1 / (params.r * params.r),
        "truncation_split": TRUNCATION_BOUND / (params.m2 * params.m3),
        "in_covered_set": params.in_s,
        "H_at_1": H_at_one(params),
        "G_at_1": G_at_one(params),
        "S_at_0": S_poly(params.m2, params.m3).eval({"z": 0}),
    }
    return [CheckReport(name=f"params:m2={args.m2},m3={args.m3}", status=HOLDS,
                        metadata=meta)]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


def _maybe_write_poly(args: argparse.Namespace, poly) -> None:
    if args.poly_out:
        _write(args.poly_out, json.dumps(poly.to_json_dict(), indent=1) + "\n")


class _IOFailure(Exception):
    pass


def _write(path: str | None, text: str) -> None:
    """``text`` to the file at ``path``, or to stdout without one; OSError is _IOFailure."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


def _resolve_config(argv: list[str]) -> argparse.Namespace:
    """The parsed command line.  With --config, the file's values become the
    chosen command's defaults and the command line is parsed again, so the
    precedence is option default < --config file < command line."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        known = {dest for p in parser.commands for dest in _options(p)}
        try:
            defaults = _read_config(args.config, _options(args.parser), known)
        except InputError as exc:
            args.parser.error(str(exc))
        args.parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


def _options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The options of one command (not its positionals or --help), by dest."""
    return {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}


def _read_config(path: str, options: dict[str, argparse.Action], known: set[str]) -> dict:
    """The values of a --config file for this command's options, each
    converted like the same value given on the command line.  A key that
    names no option of any command is a usage error; one that names an
    option of another command is skipped, so one file can serve every
    command."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    converted = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise InputError(f"config file {path}: unknown option {key!r}")
        action = options.get(dest)
        if action is None:
            continue
        flag = action.nargs == 0  # takes true or false; the others a string or a number
        invalid = f"config file {path}: invalid value {value!r} for {key!r}"
        if isinstance(value, bool) != flag or not isinstance(value, (str, int, float)):
            raise InputError(invalid)
        try:
            converted[dest] = value if flag else (action.type or str)(str(value))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InputError(f"{invalid}: argument {action.option_strings[0]}: {exc}") from exc
    return converted


def run(argv: list[str]) -> tuple[int, dict]:
    """Execute one CLI invocation; returns (exit_code, report_dict), with each
    check rendered as a dict."""
    args = _resolve_config(argv)
    start = time.monotonic()
    try:
        reports = args.handler(args)
    except InputError as exc:  # a value the handler rejected: name the command's usage
        args.parser.error(str(exc))
    summary = {
        "pass": sum(1 for c in reports if c.status in PASS_STATUSES),
        "fail": sum(1 for c in reports if c.status in FAIL_STATUSES),
        "indeterminate": sum(1 for c in reports if c.status == INDETERMINATE),
    }
    try:
        checks = [c.to_json_dict() for c in reports]
    except ValueError:  # str() of an int past the interpreter's digit limit
        args.parser.error(f"the exact report would hold a number of more than "
                          f"{sys.get_int_max_str_digits()} digits")
    command = args.parser.prog.split(" ", 1)[1]  # prog is "gpiverify <command>"
    actions = [a for a in args.parser._actions if a.dest != "help"]
    report = {
        "schema": 1,
        "tool": {"name": "gpiverify", "version": __version__},
        "run": jsonable({"command": command} | {a.dest: getattr(args, a.dest) for a in actions}),
        "checks": checks,
        "summary": summary,
        "timing": round(time.monotonic() - start, 6) if args.timing else None,
    }
    if summary["fail"]:
        code = EXIT_FAIL
    elif summary["indeterminate"]:
        code = EXIT_INDETERMINATE
    else:
        code = EXIT_OK
    return code, report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, report = run(argv)
        _write(report["run"]["out"], json.dumps(report, indent=2) + "\n")
    except InputError as exc:
        print(f"gpiverify: error: {exc}", file=sys.stderr)
        parser = exc.parser if isinstance(exc, _UsageError) else _build_parser()
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except _IOFailure as exc:
        print(f"gpiverify: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # no input causes it: a defect of the program
        print(f"gpiverify: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
