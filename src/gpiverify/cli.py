"""Batch command-line front end emitting machine-readable JSON reports.

Commands (see README for examples):

    sos verify [--all | --m2 K]
    expand {h,g,s} [--m2 K --m3 K] [--compare-bundled | --compare-appendix]
    check {gpi,mri,hfri,gpi-real} ...
    scan {hfri,g-negative,h-half,h-seventh,h-deriv,h-deriv-reduced} ...
    oracle compare [--max-m N --corr-steps N]
    params show --m2 K --m3 K

Exit codes: 0 all checks passed; 1 any check failed; 2 a float margin of the
real-exponent path too close to zero to trust (and nothing failed); 64 usage
error; 74 report I/O error.  The JSON report is written to --out (stdout by
default) on exits 0..2; it embeds the fully resolved run configuration.
Wall-clock timing is recorded only with --timing so that exact-arithmetic
reports are byte-identical across runs and parallelism degrees.

--config FILE supplies option defaults as a JSON object keyed by option
name; each value is converted like the same value on the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import __version__
from .bundled import load_g_appendix, load_h_expansion
from .exactnum import rational
from .inequality import (
    DEFAULT_WIDTH,
    SCAN_PREDICATES,
    TRUNCATION_BOUND,
    G_at_one,
    H_at_one,
    S_poly,
    check_gpi,
    check_gpi_real,
    check_mri,
    check_mri_real,
    find_mri_real_violation,
    find_mri_violation,
    g_poly,
    h_poly,
    hfri_check,
    make_params,
    make_real_params,
    scan,
)
from .moments import GaussianPair, even_moment, odd_moment, wick_moment
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
EXIT_IO = 74


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 on usage errors, synopsis to stderr
        raise _UsageError(message)


@dataclass
class RunConfig:
    """Fully resolved configuration, embedded verbatim in every report."""

    command: str
    m2: int | None = None
    m3: int | None = None
    y2: float | None = None
    y3: float | None = None
    a: str | None = None
    x: str | None = None
    z: str | None = None
    z_lo: str | None = None
    z_hi: str | None = None
    grid: int = 101
    width: str = str(DEFAULT_WIDTH)
    seed: int = 0
    jobs: int = 1
    out: str | None = None
    poly_out: str | None = None
    var2: str | None = None
    var3: str | None = None
    cov: str | None = None
    find_violation: bool = False
    compare_bundled: bool = False
    compare_appendix: bool = False
    all: bool = False
    max_m: int = 8
    corr_steps: int = 12
    real: bool = False
    mc_n: int = 10**6
    timing: bool = False

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def _build_parser() -> _Parser:
    parser = _Parser(prog="gpiverify", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    # numeric options default to None here so that precedence is
    # RunConfig default < --config file < explicit command line
    def common(p, *, grid=False):
        p.add_argument("--out", help="report path (default: stdout)")
        p.add_argument("--jobs", type=int, help="worker processes (default 1)")
        p.add_argument("--seed", type=int, help="seed for sampled checks (default 0)")
        p.add_argument("--timing", action="store_true", help="record wall time in the report")
        if grid:
            p.add_argument("--grid", type=int, help="grid points (default 101)")
        # the options of this command, for converting --config values
        p.set_defaults(options={a.dest: a for a in p._actions})

    sos = sub.add_parser("sos", help="certificate verification").add_subparsers(
        dest="subcommand", required=True
    )
    p = sos.add_parser("verify", help="verify bundled weighted-square certificates")
    p.add_argument("--all", action="store_true", help="verify all seven certificates")
    p.add_argument("--m2", type=int, help="verify the certificate for one index")
    common(p)

    expand = sub.add_parser("expand", help="regenerate symbolic objects").add_subparsers(
        dest="subcommand", required=True
    )
    p = expand.add_parser("h", help="bivariate positivity polynomial h_{m2}")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--compare-bundled", action="store_true")
    p.add_argument("--poly-out", help="write the polynomial JSON here")
    common(p)
    p = expand.add_parser("g", help="three-variable positivity polynomial g")
    p.add_argument("--compare-appendix", action="store_true")
    p.add_argument("--poly-out", help="write the polynomial JSON here")
    common(p)
    p = expand.add_parser("s", help="ratio-inequality polynomial S for one (m2, m3)")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    p.add_argument("--poly-out", help="write the polynomial JSON here")
    common(p)

    check = sub.add_parser("check", help="single-point inequality checks").add_subparsers(
        dest="subcommand", required=True
    )
    p = check.add_parser("gpi", help="exact product-inequality margin")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    p.add_argument("--a", required=True, help="coefficient in X1 = X2 + a X3 (rational)")
    p.add_argument("--x", required=True, help="correlation in [-1, 1] (rational)")
    common(p)
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
    common(p)
    p = check.add_parser("hfri", help="hypergeometric ratio inequality via S(z) > 0")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    p.add_argument("--z", required=True, help="point in (1/r^2, 1) (rational)")
    common(p)
    p = check.add_parser("gpi-real", help="real-exponent product-inequality margin")
    p.add_argument("--y2", type=float, required=True)
    p.add_argument("--y3", type=float, required=True)
    p.add_argument("--a", required=True, help="float coefficient")
    p.add_argument("--x", required=True, help="float correlation, |x| < 1")
    common(p)

    p = sub.add_parser("scan", help="grid scans of inequality predicates")
    p.add_argument("predicate", choices=SCAN_PREDICATES)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    p.add_argument("--z-lo", help="override scan lower endpoint (rational)")
    p.add_argument("--z-hi", help="override scan upper endpoint (rational)")
    common(p, grid=True)

    oracle = sub.add_parser("oracle", help="independent-oracle comparisons").add_subparsers(
        dest="subcommand", required=True
    )
    p = oracle.add_parser("compare", help="closed-form moments vs pairing recursion")
    p.add_argument("--max-m", type=int, help="exponent indices range 0..max-m (default 8)")
    p.add_argument("--corr-steps", type=int,
                   help="correlations k/corr-steps, k = -corr-steps..corr-steps (default 12)")
    p.add_argument("--real", action="store_true",
                   help="compare real-exponent closed forms against Monte Carlo")
    p.add_argument("--mc-n", type=int, help="Monte Carlo sample size (default 10^6)")
    common(p)

    params = sub.add_parser("params", help="parameter inspection").add_subparsers(
        dest="subcommand", required=True
    )
    p = params.add_parser("show", help="derived parameters for one (m2, m3)")
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--m3", type=int, required=True)
    common(p)

    return parser


# ----------------------------------------------------------------------
# workers (top level for process pools)
# ----------------------------------------------------------------------


def _cert_worker(m2: int) -> dict:
    return verify_bracket_positivity(m2).to_json_dict()


def _pool_map(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, over ``jobs`` worker processes when
    jobs > 1, but never more workers than items or CPUs.  Workers take
    contiguous chunks of about n / (4 workers) items, which keeps pickling and
    dispatch cheap while leaving a few chunks per worker to even out the load;
    results come back in item order."""
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    chunksize = -(-len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# ----------------------------------------------------------------------
# command implementations (each returns a list of CheckReport or raw dicts)
# ----------------------------------------------------------------------


def _cmd_sos_verify(cfg: RunConfig) -> list[dict]:
    if cfg.m2 is not None:
        indices = [cfg.m2]
    else:
        indices = list(range(1, 8))  # --all and the bare form verify everything
    return _pool_map(_cert_worker, indices, cfg.jobs)


def _cmd_expand_h(cfg: RunConfig) -> list[dict]:
    poly = h_poly(cfg.m2)
    _maybe_write_poly(cfg, poly)
    report = CheckReport(
        name=f"expand:h{cfg.m2}",
        status=VERIFIED,
        metadata={"terms": len(poly.terms), "degree_b": poly.degree("b"),
                  "degree_c": poly.degree("c"), "polynomial": poly.to_json_dict()},
    )
    out = [report.to_json_dict()]
    if cfg.compare_bundled:
        bundled = load_h_expansion(cfg.m2)
        same = poly == bundled
        out.append(
            CheckReport(
                name=f"expand:h{cfg.m2}:compare-bundled",
                status=VERIFIED if same else RESIDUAL_NONZERO,
                residual=None if same else poly - bundled,
            ).to_json_dict()
        )
    return out


def _cmd_expand_g(cfg: RunConfig) -> list[dict]:
    poly = g_poly()
    _maybe_write_poly(cfg, poly)
    checks = [verify_nonneg_coeffs(poly, "g").to_json_dict()]
    meta = {
        "terms": len(poly.terms),
        "degrees": {v: poly.degree(v) for v in poly.vars},
        "even_exponents_only": all(
            all(e % 2 == 0 for e in exps) for exps in poly.terms
        ),
    }
    if cfg.compare_appendix:
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


def _cmd_expand_s(cfg: RunConfig) -> list[dict]:
    params = make_params(cfg.m2, cfg.m3)
    poly = S_poly(params)
    _maybe_write_poly(cfg, poly)
    return [
        CheckReport(
            name=f"expand:s:m2={cfg.m2},m3={cfg.m3}",
            status=VERIFIED,
            metadata={
                "degree": poly.degree("z"),
                "value_at_0": poly.eval({"z": 0}),
                "polynomial": poly.to_json_dict(),
            },
        ).to_json_dict()
    ]


def _cmd_check_gpi(cfg: RunConfig) -> list[dict]:
    params = make_params(cfg.m2, cfg.m3)
    return [check_gpi(params, rational(cfg.a), rational(cfg.x)).to_json_dict()]


def _cmd_check_mri(cfg: RunConfig) -> list[dict]:
    real = cfg.y2 is not None or cfg.y3 is not None
    if real:
        if cfg.y2 is None or cfg.y3 is None:
            raise _UsageError("real-exponent mri needs both --y2 and --y3")
        rp = make_real_params(cfg.y2, cfg.y3)
        if cfg.find_violation:
            return [find_mri_real_violation(rp).to_json_dict()]
        if cfg.x is None:
            raise _UsageError("check mri needs --x or --find-violation")
        return [check_mri_real(rp, float(cfg.x)).to_json_dict()]
    if cfg.m2 is None or cfg.m3 is None:
        raise _UsageError("check mri needs --m2/--m3 (or --y2/--y3)")
    params = make_params(cfg.m2, cfg.m3)
    if cfg.find_violation:
        return [find_mri_violation(params).to_json_dict()]
    if cfg.cov is not None:
        var2 = rational(cfg.var2) if cfg.var2 else Fraction(1)
        var3 = rational(cfg.var3) if cfg.var3 else Fraction(1)
        pair = GaussianPair(var2, var3, rational(cfg.cov))
    elif cfg.x is not None:
        if cfg.var2 or cfg.var3:
            raise _UsageError("--x means a unit-variance pair; use --cov with --var2/--var3")
        pair = GaussianPair.unit(rational(cfg.x))
    else:
        raise _UsageError("check mri needs --x, --cov, or --find-violation")
    return [check_mri(params, pair, rational(cfg.width)).to_json_dict()]


def _cmd_check_hfri(cfg: RunConfig) -> list[dict]:
    params = make_params(cfg.m2, cfg.m3)
    return [hfri_check(params, rational(cfg.z)).to_json_dict()]


def _cmd_check_gpi_real(cfg: RunConfig) -> list[dict]:
    rp = make_real_params(cfg.y2, cfg.y3)
    return [check_gpi_real(rp, float(cfg.a), float(cfg.x)).to_json_dict()]


def _cmd_oracle_compare(cfg: RunConfig) -> list[dict]:
    if cfg.real:
        return _cmd_oracle_compare_real(cfg)
    mismatches = []
    comparisons = 0
    steps = cfg.corr_steps
    for k in range(-steps, steps + 1):
        x = Fraction(k, steps)
        pair = GaussianPair.unit(x)
        for m2 in range(cfg.max_m + 1):
            for m3 in range(cfg.max_m + 1):
                comparisons += 2
                if even_moment(m2, m3, pair) != wick_moment(2 * m2, 2 * m3, pair):
                    mismatches.append({"kind": "even", "m2": m2, "m3": m3, "x": x})
                if odd_moment(m2, m3, pair) != wick_moment(2 * m2 + 1, 2 * m3 + 1, pair):
                    mismatches.append({"kind": "odd", "m2": m2, "m3": m3, "x": x})
    return [
        CheckReport(
            name=f"oracle:moments:max_m={cfg.max_m}",
            status=HOLDS if not mismatches else FAILS,
            witnesses=mismatches[:16],
            metadata={"comparisons": comparisons, "correlations": 2 * steps + 1},
        ).to_json_dict()
    ]


def _cmd_oracle_compare_real(cfg: RunConfig) -> list[dict]:
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
        mean, stderr = mc_moment(exps, pair, cfg.mc_n, cfg.seed + i)
        ok = abs(closed - mean) <= 4 * stderr
        checks.append(
            CheckReport(
                name=f"oracle:real:{label}",
                status=HOLDS if ok else FAILS,
                margin=closed - mean,
                witnesses=[{"closed_form": closed, "mc_mean": mean, "mc_stderr": stderr}],
                metadata={"method": MC_METHOD, "seed": cfg.seed + i, "n": cfg.mc_n,
                          "tolerance": "4 standard errors"},
            ).to_json_dict()
        )
    return checks


def _cmd_params_show(cfg: RunConfig) -> list[dict]:
    params = make_params(cfg.m2, cfg.m3)
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
    return [CheckReport(name=f"params:m2={cfg.m2},m3={cfg.m3}", status=HOLDS,
                        metadata=meta).to_json_dict()]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


def _maybe_write_poly(cfg: RunConfig, poly) -> None:
    if cfg.poly_out:
        try:
            with open(cfg.poly_out, "w", encoding="utf-8") as fh:
                json.dump(poly.to_json_dict(), fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise _IOFailure(str(exc)) from exc


class _IOFailure(Exception):
    pass


def _resolve_config(argv: list[str]) -> tuple[RunConfig, str]:
    values = vars(_build_parser().parse_args(argv))
    options = values.pop("options")
    path = values.pop("config")
    if path:
        for dest, value in _read_config(path, options).items():
            if values[dest] in (None, False):
                values[dest] = value
    command = values.pop("command")
    sub = values.pop("subcommand", None)
    if sub:
        command = f"{command} {sub}"
    predicate = values.pop("predicate", None)
    kwargs = {
        k: v
        for k, v in values.items()
        if k in RunConfig.__dataclass_fields__ and v is not None
    }
    cfg = RunConfig(command=command, **kwargs)
    if cfg.jobs < 1:
        raise _UsageError(f"--jobs must be an integer >= 1; got {cfg.jobs!r}")
    return cfg, (predicate or "")


def _read_config(path: str, options: dict[str, argparse.Action]) -> dict:
    """The values of a --config file for this command's options, each
    converted like the same value given on the command line.  A key that
    names no RunConfig field is a usage error; one that names a field but no
    option of this command is skipped, so one file can serve every command."""
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
        if dest not in RunConfig.__dataclass_fields__:
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
        except ValueError as exc:
            raise _UsageError(invalid) from exc
    return converted


def run(argv: list[str]) -> tuple[int, dict]:
    """Execute one CLI invocation; returns (exit_code, report_dict)."""
    cfg, predicate = _resolve_config(argv)
    start = time.monotonic()
    dispatch = {
        "sos verify": lambda: _cmd_sos_verify(cfg),
        "expand h": lambda: _cmd_expand_h(cfg),
        "expand g": lambda: _cmd_expand_g(cfg),
        "expand s": lambda: _cmd_expand_s(cfg),
        "check gpi": lambda: _cmd_check_gpi(cfg),
        "check mri": lambda: _cmd_check_mri(cfg),
        "check hfri": lambda: _cmd_check_hfri(cfg),
        "check gpi-real": lambda: _cmd_check_gpi_real(cfg),
        "scan": lambda: [
            scan(
                predicate, make_params(cfg.m2, cfg.m3), cfg.z_lo or None, cfg.z_hi or None,
                cfg.grid, map_fn=partial(_pool_map, jobs=cfg.jobs),
            ).to_json_dict()
        ],
        "oracle compare": lambda: _cmd_oracle_compare(cfg),
        "params show": lambda: _cmd_params_show(cfg),
    }
    try:
        checks = dispatch[cfg.command]()
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise _UsageError(str(exc)) from exc
    statuses = [c["status"] for c in checks]
    summary = {
        "pass": sum(1 for s in statuses if s in PASS_STATUSES),
        "fail": sum(1 for s in statuses if s in FAIL_STATUSES),
        "indeterminate": sum(1 for s in statuses if s == INDETERMINATE),
    }
    report = {
        "schema": 1,
        "tool": {"name": "gpiverify", "version": __version__},
        "run": jsonable(cfg.to_json_dict() | ({"predicate": predicate} if predicate else {})),
        "checks": checks,
        "summary": summary,
        "timing": round(time.monotonic() - start, 6) if cfg.timing else None,
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
    except _IOFailure as exc:
        print(f"gpiverify: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    text = json.dumps(jsonable(report), indent=2) + "\n"
    cfg_out = report["run"].get("out")
    if cfg_out:
        try:
            with open(cfg_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"gpiverify: i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
