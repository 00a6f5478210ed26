"""Batch command-line front end emitting machine-readable JSON reports.

Commands (see README for examples):

    sos verify [--all | --m2 K]
    expand {h,g,s} [--m2 K --m3 K] [--compare-bundled | --compare-appendix]
    check {gpi,mri,hfri,gpi-real} ...
    scan {hfri,g-negative,h-half,h-seventh,h-deriv,h-deriv-reduced} ... [--grid N --jobs N]
    oracle compare [--max-m N] [--real --mc-n N --seed N]
    params show --m2 K --m3 K

Every command also takes --out and --timing.  The parser is the one
definition of the commands, their handlers and their options' defaults and ranges.

Exit codes: 0 all checks passed; 1 any check failed; 2 a float margin of the
real-exponent path too close to zero to trust (and nothing failed); 64 usage
error; 70 internal error (a bundled data file cannot be read or parsed, an
internal identity check failed, a KeyError, which no input can cause, or a
scan pool worker died); 74 report I/O error.  The JSON report is written to
--out (stdout by default) on exits 0..2; its ``run`` block holds the command
and the resolved value of each of its options.  Wall-clock timing is
recorded only with --timing so that exact-arithmetic reports are
byte-identical across runs and parallelism degrees.

--config FILE supplies option defaults as a JSON object keyed by option
name; each value is converted like the same value on the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import partial

from . import __version__
from .bundled import BundledDataError, load_g_appendix, load_h_expansion
from .exactnum import rational
from .inequality import (
    SCAN_PREDICATES,
    TRUNCATION_BOUND,
    G_at_one,
    H_at_one,
    S_poly,
    check_gpi,
    check_gpi_real,
    check_mri,
    check_mri_real,
    check_point,
    find_mri_real_violation,
    find_mri_violation,
    g_poly,
    h_poly,
    make_params,
    make_real_params,
    scan,
)
from .moments import GaussianPair, closed_form_poly, wick_poly
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
from .soscert import proportionality_scalar, verify_bracket_positivity, verify_nonneg_coeffs

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_IO = 74


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError (exit 64) on usage errors.  The top-level parser
    lists the parser of each command ("gpiverify sos verify", ...) in
    ``commands``."""

    def error(self, message):
        raise _UsageError(message)


def _at_least(low: int):
    """Option type: an integer >= low."""

    def integer(text: str) -> int:  # argparse names the type in its error message
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}; got {value}")
        return value

    return integer


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpiverify", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = []

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    def common(p, handler, *, jobs=False, seed=False):
        p.add_argument("--out", help="report path (default: stdout)")
        if jobs:
            p.add_argument("--jobs", type=_at_least(1), default=1,
                           help="worker processes (default %(default)s)")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for sampled checks (default %(default)s)")
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
    p.add_argument("--max-m", type=_at_least(0), default=8,
                   help="exponent indices range 0..max-m (default %(default)s)")
    p.add_argument("--real", action="store_true",
                   help="compare real-exponent closed forms against Monte Carlo")
    p.add_argument("--mc-n", type=_at_least(1), default=10**6,
                   help="Monte Carlo sample size (default %(default)s)")
    common(p, _cmd_oracle_compare, seed=True)

    params = group("params", "parameter inspection")
    p = params.add_parser("show", help="derived parameters for one (m2, m3)")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    common(p, _cmd_params_show)

    return parser


# ----------------------------------------------------------------------
# process pool
# ----------------------------------------------------------------------


class PoolWorkerError(Exception):
    """A pool worker ended without returning its share's results."""


def _run_share(fn, share: list) -> tuple:
    """``(results, None)`` for ``[fn(item) for item in share]``, or ``(i, exc)``
    when item i is the first whose call raises exc."""
    results = []
    for item in share:
        try:
            results.append(fn(item))
        except Exception as exc:  # re-raised by _pool_map, in the parent
            return len(results), exc
    return results, None


def _pool_map(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, over up to ``jobs`` processes, this one
    included, but never more than items or CPUs.

    Share k is ``items[k::workers]``, so a cost gradient along the items is
    spread evenly.  Forked children compute shares 1.. and send back their
    results pickled, one pipe each, while this process computes share 0;
    ``fn`` and the items are inherited through the fork, never pickled (the
    CLI starts no threads, so forking is safe; a spawned worker would
    re-import the package, which costs more than a scan's points).  When
    calls raise, the exception of the lowest-index failing item is raised, as
    serial ``map`` would.  A child that ends without a complete result raises
    PoolWorkerError.  Every child is reaped on every path."""
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import pickle  # only a pool needs it

    children = []  # (pid, read end of its pipe) for shares 1..
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # never unwind into the caller's frames: their cleanup, and the
                # stdio buffers inherited from the parent, belong to the parent
                status = 1
                try:
                    # an inherited read end would keep a sibling's pipe open
                    # after the parent closed it on a failure path
                    for fd in [read_end] + [r for _, r in children]:
                        os.close(fd)
                    data = pickle.dumps(_run_share(fn, items[k::workers]), pickle.HIGHEST_PROTOCOL)
                    with open(write_end, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, read_end))
            os.close(write_end)
        outcomes = [_run_share(fn, items[0::workers])]
        payloads = []
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        # read ends first: a child blocked on a full pipe then gets EPIPE and exits
        for _, read_end in children:
            os.close(read_end)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for (pid, _), status, payload in zip(children, statuses, payloads):
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise PoolWorkerError(f"pool worker {pid} {how} before returning its results")
        try:
            outcomes.append(pickle.loads(payload))
        except Exception as exc:  # EOF or a truncated pickle: whatever loads raises
            raise PoolWorkerError(f"pool worker {pid} returned an incomplete result "
                                  f"({len(payload)} bytes): {exc!r}") from exc
    results = [None] * len(items)
    failures = []
    for k, (value, exc) in enumerate(outcomes):
        if exc is None:
            results[k::workers] = value
        else:
            failures.append((k + value * workers, exc))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


# ----------------------------------------------------------------------
# command implementations (each returns a list of CheckReport or raw dicts)
# ----------------------------------------------------------------------


def _cmd_sos_verify(args: argparse.Namespace) -> list[dict]:
    if args.all and args.m2 is not None:
        raise _UsageError("sos verify --all does not use --m2")
    if args.m2 is not None:
        indices = [args.m2]
    else:
        indices = list(range(1, 8))  # --all and the bare form verify everything
    return [verify_bracket_positivity(m2).to_json_dict() for m2 in indices]


def _cmd_expand_h(args: argparse.Namespace) -> list[dict]:
    poly = h_poly(args.m2)
    _maybe_write_poly(args, poly)
    report = CheckReport(
        name=f"expand:h{args.m2}",
        status=VERIFIED,
        metadata={"terms": len(poly.nums), "degree_b": poly.degree("b"),
                  "degree_c": poly.degree("c"), "polynomial": poly.to_json_dict()},
    )
    out = [report.to_json_dict()]
    if args.compare_bundled:
        bundled = load_h_expansion(args.m2)
        same = poly == bundled
        out.append(
            CheckReport(
                name=f"expand:h{args.m2}:compare-bundled",
                status=VERIFIED if same else RESIDUAL_NONZERO,
                residual=None if same else poly - bundled,
            ).to_json_dict()
        )
    return out


def _cmd_expand_g(args: argparse.Namespace) -> list[dict]:
    poly = g_poly()
    _maybe_write_poly(args, poly)
    checks = [verify_nonneg_coeffs(poly, "g").to_json_dict()]
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
        meta["bundled_min_coeff"] = min(bundled.coefficients())
        checks.append(
            CheckReport(
                name="expand:g:compare-appendix",
                status=VERIFIED if scalar is not None else RESIDUAL_NONZERO,
                metadata=meta,
            ).to_json_dict()
        )
    else:
        checks.append(
            CheckReport(name="expand:g", status=VERIFIED, metadata=meta).to_json_dict()
        )
    return checks


def _cmd_expand_s(args: argparse.Namespace) -> list[dict]:
    params = make_params(args.m2, args.m3)
    poly = S_poly(params)
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
        ).to_json_dict()
    ]


def _cmd_check_gpi(args: argparse.Namespace) -> list[dict]:
    params = make_params(args.m2, args.m3)
    return [check_gpi(params, rational(args.a), rational(args.x)).to_json_dict()]


def _cmd_check_mri(args: argparse.Namespace) -> list[dict]:
    """--m2/--m3 or --y2/--y3 (real exponents), then --find-violation or a
    point: --x, or --cov with --var2/--var3 for integers.  An option that
    the chosen form ignores is a usage error."""
    real = args.y2 is not None or args.y3 is not None
    indices = ("y2", "y3") if real else ("m2", "m3")
    if any(getattr(args, opt) is None for opt in indices):
        raise _UsageError(f"check mri needs both --{indices[0]} and --{indices[1]}")
    if args.find_violation:
        point = ()
    elif args.x is not None:
        point = ("x",)
    elif args.cov is not None and not real:
        point = ("cov", "var2", "var3")
    else:
        raise _UsageError("check mri needs --x, --cov (with --m2/--m3), or --find-violation")
    ignored = [f"--{opt}" for opt in ("m2", "m3", "y2", "y3", "x", "cov", "var2", "var3")
               if getattr(args, opt) is not None and opt not in indices + point]
    if ignored:
        raise _UsageError(f"this form of check mri does not use {', '.join(ignored)}")
    if real:
        rp = make_real_params(args.y2, args.y3)
        if args.find_violation:
            return [find_mri_real_violation(rp).to_json_dict()]
        return [check_mri_real(rp, float(args.x)).to_json_dict()]
    params = make_params(args.m2, args.m3)
    if args.find_violation:
        return [find_mri_violation(params).to_json_dict()]
    if args.x is not None:
        pair = GaussianPair.unit(rational(args.x))
    else:
        pair = GaussianPair(rational(args.var2 or 1), rational(args.var3 or 1), rational(args.cov))
    return [check_mri(params, pair).to_json_dict()]


def _cmd_check_hfri(args: argparse.Namespace) -> list[dict]:
    params = make_params(args.m2, args.m3)
    return [check_point("hfri", params, rational(args.z)).to_json_dict()]


def _cmd_check_gpi_real(args: argparse.Namespace) -> list[dict]:
    rp = make_real_params(args.y2, args.y3)
    return [check_gpi_real(rp, float(args.a), float(args.x)).to_json_dict()]


def _cmd_scan(args: argparse.Namespace) -> list[dict]:
    params = make_params(args.m2, args.m3)
    return [scan(args.predicate, params, args.z_lo or None, args.z_hi or None, args.grid,
                 map_fn=partial(_pool_map, jobs=args.jobs)).to_json_dict()]


def _cmd_oracle_compare(args: argparse.Namespace) -> list[dict]:
    if args.real:
        return _cmd_oracle_compare_real(args)
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
        ).to_json_dict()
    ]


def _cmd_oracle_compare_real(args: argparse.Namespace) -> list[dict]:
    from .moments import MC_METHOD, MomentExponents, abs_moment_real, mc_moment, mixed_abs_moment_real

    half = GaussianPair.unit(Fraction(1, 2))
    neg = GaussianPair.unit(Fraction(-3, 10))
    configs = [
        ("abs:y=1", abs_moment_real(1.0), MomentExponents(1.0, 0.0), half),
        ("abs:y=2.5", abs_moment_real(2.5), MomentExponents(2.5, 0.0), half),
        ("plain:1.3,2.7:x=1/2", mixed_abs_moment_real("plain", 1.3, 2.7, half),
         MomentExponents(1.3, 2.7), half),
        ("even_shift2:1.5,2.0:x=1/2", mixed_abs_moment_real("even_shift2", 1.5, 2.0, half),
         MomentExponents(1.5, 4.0), half),
        ("odd_signed:1.0,2.0:x=1/2", mixed_abs_moment_real("odd_signed", 1.0, 2.0, half),
         MomentExponents(2.0, 3.0, True, True), half),
        ("plain:2.0,3.0:x=-3/10", mixed_abs_moment_real("plain", 2.0, 3.0, neg),
         MomentExponents(2.0, 3.0), neg),
    ]
    checks = []
    for i, (label, closed, exps, pair) in enumerate(configs):
        mean, stderr = mc_moment(exps, pair, args.mc_n, args.seed + i)
        ok = abs(closed - mean) <= 4 * stderr
        checks.append(
            CheckReport(
                name=f"oracle:real:{label}",
                status=HOLDS if ok else FAILS,
                margin=closed - mean,
                witnesses=[{"closed_form": closed, "mc_mean": mean, "mc_stderr": stderr}],
                metadata={"method": MC_METHOD, "seed": args.seed + i, "n": args.mc_n,
                          "tolerance": "4 standard errors"},
            ).to_json_dict()
        )
    return checks


def _cmd_params_show(args: argparse.Namespace) -> list[dict]:
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
        "S_at_0": S_poly(params).eval({"z": 0}),
    }
    return [CheckReport(name=f"params:m2={args.m2},m3={args.m3}", status=HOLDS,
                        metadata=meta).to_json_dict()]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


def _maybe_write_poly(args: argparse.Namespace, poly) -> None:
    if args.poly_out:
        try:
            with open(args.poly_out, "w", encoding="utf-8") as fh:
                json.dump(poly.to_json_dict(), fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc


class _IOFailure(Exception):
    pass


def _resolve_config(argv: list[str]) -> argparse.Namespace:
    """The parsed command line.  With --config, the file's values become the
    chosen command's defaults and the command line is parsed again, so the
    precedence is option default < --config file < command line."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        known = {dest for p in parser.commands for dest in _options(p)}
        args.parser.set_defaults(**_read_config(args.config, _options(args.parser), known))
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
        raise _UsageError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    converted = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise _UsageError(f"config file {path}: unknown option {key!r}")
        action = options.get(dest)
        if action is None:
            continue
        flag = action.nargs == 0  # takes true or false; the others a string or a number
        invalid = f"config file {path}: invalid value {value!r} for {key!r}"
        if isinstance(value, bool) != flag or not isinstance(value, (str, int, float)):
            raise _UsageError(invalid)
        try:
            converted[dest] = value if flag else (action.type or str)(str(value))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"{invalid}: argument {action.option_strings[0]}: {exc}") from exc
    return converted


def run(argv: list[str]) -> tuple[int, dict]:
    """Execute one CLI invocation; returns (exit_code, report_dict)."""
    args = _resolve_config(argv)
    start = time.monotonic()
    try:
        checks = args.handler(args)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(str(exc)) from exc
    statuses = [c["status"] for c in checks]
    summary = {
        "pass": sum(1 for s in statuses if s in PASS_STATUSES),
        "fail": sum(1 for s in statuses if s in FAIL_STATUSES),
        "indeterminate": sum(1 for s in statuses if s == INDETERMINATE),
    }
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
    except _UsageError as exc:
        print(f"gpiverify: error: {exc}", file=sys.stderr)
        _build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    except (BundledDataError, AssertionError, KeyError, PoolWorkerError) as exc:
        # a damaged data file, a failed internal identity, a missing key or a
        # pool worker that died: never a fault of the caller's input.  A
        # BundledDataError names its file; the others are named by their type
        detail = exc if isinstance(exc, BundledDataError) else f"{type(exc).__name__}: {exc}"
        print(f"gpiverify: internal error: {detail}", file=sys.stderr)
        return EXIT_SOFTWARE
    except _IOFailure as exc:
        print(f"gpiverify: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    text = json.dumps(report, indent=2) + "\n"
    out = report["run"]["out"]
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"gpiverify: i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
