"""CLI contract tests: exit codes, report schema, determinism."""

import json
import os
import pickle
import re
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpiverify.cli import _build_parser, _resolve_config, _UsageError, main, run
from gpiverify.polyring import MultiPoly

REQUIRED_REPORT_KEYS = {"schema", "tool", "run", "checks", "summary", "timing"}


def invoke(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked during the test (os.fork is wrapped)."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return started


@pytest.fixture
def reaped():
    """Fails the test if it leaves a child process running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# "1e5" and "1e200" reach the float overflow of the real-exponent path; a
# bare large integer would not do, as --max-m would accept it and hang the test
ARGV_VALUES = ["-1", "0", "1", "2", "1/2", "0.5", "1e5", "1e200", "1/0", "abc", "nan", "inf",
               ""]
# starting values that keep an example cheap; a drawn value may override them
CHEAP_OPTIONS = {"scan": ["--grid", "5"], "oracle compare": ["--max-m", "2", "--mc-n", "1000"]}


@st.composite
def cli_argvs(draw):
    """A command, its required options, then options mostly of that command,
    each with a value from ARGV_VALUES (--jobs only 1 or 2).  Reports go to
    os.devnull."""
    commands = _build_parser().commands
    parser = draw(st.sampled_from(commands))
    command = parser.prog.split()[1:]
    argv = command + CHEAP_OPTIONS.get(" ".join(command), [])
    argv += [draw(st.sampled_from(a.choices)) for a in parser._actions if not a.option_strings]

    def drawable(p):
        return {a.option_strings[0]: a for a in p._actions
                if a.option_strings and a.dest not in ("help", "out", "poly_out")}

    own = drawable(parser)
    foreign = {flag: a for p in commands for flag, a in drawable(p).items() if flag not in own}
    flags = st.sampled_from(sorted(own) * 4 + sorted(foreign))
    values = st.sampled_from(ARGV_VALUES)
    # half the values of required options are plausible, so more examples
    # get past the parser
    for flag in [flag for flag, a in own.items() if a.required]:
        argv += [flag, draw(st.sampled_from(["1", "2", "1/2"]) | values)]
    for flag in draw(st.lists(flags, max_size=6)):
        action = own.get(flag) or foreign[flag]
        argv.append(flag)
        if action.nargs != 0:
            argv.append(draw(st.sampled_from(["1", "2"]) if flag == "--jobs" else values))
    return argv + ["--out", os.devnull]


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, report = invoke(["params", "show", "--m2", "2", "--m3", "3"], tmp_path)
        assert code == 0
        assert report["summary"] == {"pass": 1, "fail": 0, "indeterminate": 0}

    def test_fail_is_one(self, tmp_path):
        code, report = invoke(
            ["check", "mri", "--m2", "1", "--m3", "1", "--x", "1"], tmp_path
        )
        assert code == 1
        assert report["summary"]["fail"] == 1

    def test_indeterminate_is_two(self, tmp_path, monkeypatch):
        # only a float margin near zero is indeterminate, and no cheap argv
        # lands there, so force one through a command handler to pin the
        # status -> summary -> exit-code plumbing
        import gpiverify.cli as cli_mod

        monkeypatch.setitem(
            cli_mod.__dict__,
            "_cmd_params_show",
            lambda cfg: [{"name": "forced", "status": "indeterminate"}],
        )
        code, report = invoke(["params", "show", "--m2", "1", "--m3", "1"], tmp_path)
        assert code == 2
        assert report["summary"]["indeterminate"] == 1

    def test_usage_is_64(self, capsys):
        assert main(["bogus"]) == 64
        assert main(["check", "gpi", "--m2", "1"]) == 64
        assert main(["check", "mri", "--m2", "1", "--m3", "1"]) == 64  # no --x
        err = capsys.readouterr().err
        assert "usage" in err

    @settings(max_examples=100, deadline=None)
    @given(cli_argvs())
    def test_any_argv_exits_with_a_documented_code(self, argv):
        assert main(argv) in {0, 1, 2, 64, 74}

    @pytest.mark.parametrize("argv", [
        "check mri --y2 1e100 --y3 1 --x 0.5",
        "check mri --y2 1e6 --y3 1 --x 0.5",
        "check mri --y2 3000 --y3 3000 --find-violation",
        "check gpi-real --y2 1e5 --y3 1e5 --a 1 --x 0.9",
        "check gpi-real --y2 1 --y3 1 --a 1e200 --x 0.5",
    ])
    def test_float_overflow_is_usage(self, argv, capsys):
        # a series partial sum or a margin past the float range
        assert main(argv.split() + ["--out", os.devnull]) == 64
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "check mri --y2 2.5 --y3 3.5 --x 0.99999999",
        "check gpi-real --y2 2.5 --y3 3.5 --a 1 --x 0.99999999",
    ])
    def test_series_too_slow_is_usage(self, argv):
        # x^2 this close to 1 needs ~10^8 series terms: refused before the
        # sum starts, not after 10^7 terms with a traceback
        proc = subprocess.run([sys.executable, "-m", "gpiverify.cli", *argv.split()],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 64 and proc.stdout == ""
        assert proc.stderr.startswith("gpiverify: error: the series F(")
        assert "terms before its tail bound applies, more than 10000000" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", ["check mri --y2 2.5 --y3 3.5 --x 0.9999",
                                      "check gpi-real --y2 2.5 --y3 3.5 --a 1 --x 0.9999"])
    def test_series_near_one_still_sums(self, argv):
        assert main(argv.split() + ["--out", os.devnull]) == 0

    def test_domain_violation_is_usage(self, tmp_path):
        code = main(
            ["check", "hfri", "--m2", "1", "--m3", "1", "--z", "1",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 64

    @pytest.mark.parametrize("error", [AssertionError, KeyError])
    @pytest.mark.parametrize("argv", ["params show --m2 1 --m3 1",
                                      "scan hfri --m2 2 --m3 3 --grid 5"])
    def test_failed_identity_is_internal_error(self, argv, error, monkeypatch, capsys):
        # a failed internal identity, or a KeyError (no input reaches one),
        # is a defect of the program: exit 70 with one line on stderr, never
        # a usage error or a traceback
        import gpiverify.cli as cli_mod

        raised = []

        def broken_params(m2, m3):
            raised.append(error(f"parameter identity 1/r^2 < t < 1/r failed for ({m2},{m3})"))
            raise raised[-1]

        monkeypatch.setattr(cli_mod, "make_params", broken_params)
        assert main(argv.split()) == 70
        out, err = capsys.readouterr()
        assert out == ""
        # one line, no traceback, and the exception named by its type
        assert err == f"gpiverify: internal error: {error.__name__}: {raised[0]}\n"

    def test_io_error_is_74(self):
        code = main(
            ["params", "show", "--m2", "1", "--m3", "1",
             "--out", "/nonexistent-dir/report.json"]
        )
        assert code == 74


class TestReportSchema:
    def test_keys_and_config_echo(self, tmp_path):
        code, report = invoke(
            ["check", "gpi", "--m2", "1", "--m3", "1", "--a", "-1", "--x", "1/2"],
            tmp_path,
        )
        assert code == 0
        assert REQUIRED_REPORT_KEYS <= set(report)
        assert report["schema"] == 1
        assert report["run"]["command"] == "check gpi"
        assert list(report["run"]) == ["command", "m2", "m3", "a", "x", "out", "timing"]
        assert report["checks"][0]["margin"] == "1/2"
        assert report["timing"] is None

    def test_timing_opt_in(self, tmp_path):
        _, report = invoke(
            ["params", "show", "--m2", "1", "--m3", "1", "--timing"], tmp_path
        )
        assert isinstance(report["timing"], float)

    def test_reports_do_not_share_containers(self):
        from gpiverify.report import CheckReport

        first, second = CheckReport("a", "holds"), CheckReport("b", "holds")
        first.witnesses.append({"z": 1})
        first.metadata["k"] = 1
        assert second.witnesses == [] and second.metadata == {}
        assert second.to_json_dict() == {"name": "b", "status": "holds"}

    def test_empty_failures_summary(self, tmp_path):
        _, report = invoke(["sos", "verify", "--all"], tmp_path)
        assert report["summary"] == {"pass": 7, "fail": 0, "indeterminate": 0}
        assert [c["status"] for c in report["checks"]] == ["verified"] * 7


class TestCommands:
    def test_sos_verify_single(self, tmp_path):
        code, report = invoke(["sos", "verify", "--m2", "4"], tmp_path)
        assert code == 0 and len(report["checks"]) == 1

    def test_mri_general_pair(self, tmp_path):
        code, report = invoke(
            ["check", "mri", "--m2", "3", "--m3", "3",
             "--cov", "3/2", "--var2", "9/4", "--var3", "4"],
            tmp_path,
        )
        assert code == 0
        assert report["checks"][0]["witnesses"][0]["corr_sq"] == "1/4"

    def test_mri_x_conflicts_with_variances(self):
        assert main(["check", "mri", "--m2", "3", "--m3", "3",
                     "--x", "1/2", "--var2", "2"]) == 64

    def test_mri_find_violation(self, tmp_path):
        code, report = invoke(
            ["check", "mri", "--m2", "1", "--m3", "1", "--find-violation"], tmp_path
        )
        assert code == 0
        assert report["checks"][0]["metadata"]["found"] is True
        assert report["checks"][0]["witnesses"][0]["x"] == "1"  # full correlation

    def test_expand_g_compare_appendix(self, tmp_path):
        code, report = invoke(["expand", "g", "--compare-appendix"], tmp_path)
        assert code == 0
        meta = report["checks"][1]["metadata"]
        assert meta["proportionality_scalar"] == "960751264112640000"
        assert meta["bundled_constant"] == "148260632637820250986905600"
        assert meta["bundled_min_coeff"] == "33866423320"

    def test_expand_h_compare_bundled(self, tmp_path):
        code, report = invoke(["expand", "h", "--m2", "5", "--compare-bundled"], tmp_path)
        assert code == 0
        assert [c["status"] for c in report["checks"]] == ["verified", "verified"]

    def test_expand_s_poly_out(self, tmp_path):
        poly_path = tmp_path / "s.json"
        code, _ = invoke(
            ["expand", "s", "--m2", "1", "--m3", "5", "--poly-out", str(poly_path)],
            tmp_path,
        )
        assert code == 0
        data = json.loads(poly_path.read_text())
        assert data["vars"] == ["z"]

    def test_oracle_compare(self, tmp_path):
        code, report = invoke(["oracle", "compare", "--max-m", "3"], tmp_path)
        assert code == 0
        meta = report["checks"][0]["metadata"]
        assert meta["comparisons"] == 2 * 16
        assert "correlations" not in meta

    def test_oracle_compare_reports_a_wrong_closed_form(self, tmp_path, monkeypatch):
        import gpiverify.cli as cli

        right = cli.closed_form_poly

        def perturbed(m2, m3, odd):
            poly = right(m2, m3, odd)
            return poly + MultiPoly.var("x") ** 3 if (m2, m3, odd) == (2, 1, True) else poly

        monkeypatch.setattr(cli, "closed_form_poly", perturbed)
        code, report = invoke(["oracle", "compare", "--max-m", "3"], tmp_path)
        assert code == 1
        check = report["checks"][0]
        assert check["status"] == "fails"
        assert check["witnesses"] == [{"kind": "odd", "m2": 2, "m3": 1}]

    @pytest.mark.parametrize("argv", [
        "check mri --m2 2 --m3 3 --x 1/4 --cov 1/2",
        "check mri --m2 2 --m3 3 --y2 2 --y3 2 --x 0.5",
        "check mri --y2 2 --y3 2 --x 0.5 --cov 1/2",
        "check mri --y2 2 --y3 2 --x 0.5 --var2 2",
        "check mri --y2 2 --y3 2 --x 0.5 --var3 2",
        "check mri --y2 4 --y3 4.3 --find-violation --x 0.5",
        "check mri --m2 2 --m3 2 --find-violation --x 1/2",
        "check mri --m2 2 --m3 2 --find-violation --cov 1/2",
        "check mri --m2 2 --m3 2 --find-violation --var2 2",
        "sos verify --all --m2 3",
    ])
    def test_option_the_chosen_form_ignores_is_usage_error(self, argv, capsys):
        assert main(argv.split()) == 64
        assert "does not use" in capsys.readouterr().err

    def test_mri_ignored_config_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"var2": "2"}))
        with pytest.raises(_UsageError, match="--var2"):
            run(["--config", str(cfg), "check", "mri", "--m2", "2", "--m3", "3", "--x", "1/4"])

    def test_oracle_compare_real_records_rng_method(self, tmp_path):
        code, report = invoke(
            ["oracle", "compare", "--real", "--mc-n", "100000", "--seed", "4"], tmp_path
        )
        assert code == 0
        meta = report["checks"][0]["metadata"]
        assert "PCG64" in meta["method"]
        assert meta["seed"] == 4 and meta["n"] == 100000

    def test_scan_domain_override(self, tmp_path):
        code, report = invoke(
            ["scan", "hfri", "--m2", "2", "--m3", "3", "--grid", "11",
             "--z-lo", "1/10", "--z-hi", "9/10"],
            tmp_path,
        )
        assert code == 0
        meta = report["checks"][0]["metadata"]
        assert meta["counts"]["holds"] == 11
        assert meta["grid_n"] == 11

    @pytest.mark.parametrize("argv", [
        "scan hfri --m2 2 --m3 3 --z-lo 0 --z-hi 3/2",
        "scan h-half --m2 8 --m3 8 --z-hi 1",
        "scan h-deriv --m2 8 --m3 8 --z-hi 2",
        "check hfri --m2 2 --m3 3 --z 3/2",
        # 11/(4 m2 m3) >= 1, and 11/(4 m2 m3) >= 2.1/(2 m2 + 1): empty domains
        "scan g-negative --m2 1 --m3 1",
        "scan h-deriv-reduced --m2 2 --m3 3",
    ])
    def test_outside_predicate_domain_is_usage_error(self, argv, capsys):
        # --z-lo/--z-hi may only narrow a predicate's domain
        assert main(argv.split()) == 64
        err = capsys.readouterr().err
        assert "outside the" in err
        assert ("which is empty" in err) == ("--z" not in argv)

    def test_h_seventh_small_pair_scans_up_to_one(self, tmp_path):
        # 11/(4 m2 m3) exceeds 1 here, and H is defined only up to z = 1
        code, report = invoke(["scan", "h-seventh", "--m2", "1", "--m3", "1", "--grid", "11"],
                              tmp_path)
        assert code == 0
        meta = report["checks"][0]["metadata"]
        assert meta["z_hi"] == "1" and meta["counts"]["holds"] == 11

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "from_config.json")}))
        code = main(["--config", str(cfg), "params", "show", "--m2", "1", "--m3", "2"])
        assert code == 0
        assert (tmp_path / "from_config.json").exists()

    def test_config_precedence(self, tmp_path):
        # option default < config file < explicit command line; scan has no
        # --seed, so the file's seed is skipped
        cfg = tmp_path / "cfg.json"
        base = ["scan", "hfri", "--m2", "2", "--m3", "3"]
        _, report = invoke(base, tmp_path, "c0.json")
        assert report["run"]["grid"] == 101
        cfg.write_text(json.dumps({"grid": 7, "seed": 99}))
        base = ["--config", str(cfg)] + base
        _, report = invoke(base, tmp_path, "c1.json")
        assert report["run"]["grid"] == 7 and "seed" not in report["run"]
        _, report = invoke(base + ["--grid", "11"], tmp_path, "c2.json")
        assert report["run"]["grid"] == 11

    @pytest.mark.parametrize("argv", [
        "scan g-negative --m2 8 --m3 8 --jobs 0",
        "scan g-negative --m2 8 --m3 8 --jobs -2",
        "scan g-negative --m2 8 --m3 8 --refine-max -1",
        "scan hfri --m2 2 --m3 3 --grid 1",
        "oracle compare --max-m -1",
        "oracle compare --corr-steps -1",
        "oracle compare --corr-steps 0",
        "oracle compare --real --mc-n 0",
    ], ids=lambda argv: "-".join(argv.split()[-2:]))
    def test_out_of_range_option_is_usage_error(self, argv):
        argv = argv.split()
        flag = argv[-2]
        with pytest.raises(_UsageError, match=flag):
            _resolve_config(argv)
        assert main(argv) == 64

    def test_out_of_range_config_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        with pytest.raises(_UsageError, match="--jobs"):
            _resolve_config(["--config", str(cfg), "scan", "hfri", "--m2", "2", "--m3", "3"])

    @pytest.mark.parametrize("text, argv, match", [
        ("[1]", "scan hfri --m2 2 --m3 3", "must hold a JSON object"),
        ("{bad", "scan hfri --m2 2 --m3 3", "not valid JSON"),
        ('{"grid": "x"}', "scan hfri --m2 2 --m3 3", "'grid'"),
        ('{"grid": 7.5}', "scan hfri --m2 2 --m3 3", "'grid'"),
        ('{"timing": 1}', "scan hfri --m2 2 --m3 3", "'timing'"),
        ('{"seed": "x"}', "oracle compare --real", "'seed'"),
        ('{"gird": 7}', "scan hfri --m2 2 --m3 3", "unknown option 'gird'"),
        ('{"refine_max": 3}', "scan hfri --m2 2 --m3 3", "unknown option 'refine_max'"),
    ])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text, argv, match):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = ["--config", str(cfg)] + argv.split()
        with pytest.raises(_UsageError, match=match):
            _resolve_config(argv)
        assert main(argv) == 64
        assert "Traceback" not in capsys.readouterr().err

    def test_config_values_converted_like_options(self, tmp_path):
        # a value is read as its option reads it; an option of another
        # command is skipped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "7", "z-lo": 0.25, "timing": True, "max_m": 3}))
        args = _resolve_config(["--config", str(cfg), "scan", "hfri", "--m2", "2",
                                "--m3", "3"])
        assert (args.grid, args.z_lo, args.timing) == (7, "0.25", True)
        assert not hasattr(args, "max_m")

    @pytest.mark.parametrize("config, argv", [
        (None, "check gpi --m2 1 --m3 1 --a 1 --x 1/2 --seed 1"),
        (None, "params show --m2 1 --m3 1 --jobs 2"),
        # no command has a width option
        ({"width": "1/10"}, "check mri --m2 2 --m3 3 --x 1/4"),
        (None, "oracle compare --corr-steps 12"),
        (None, "sos verify --all --jobs 2"),
    ])
    def test_option_the_command_lacks_is_usage_error(self, tmp_path, config, argv):
        argv = argv.split()
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path)] + argv
        assert main(argv) == 64

    @pytest.mark.parametrize("argv", [
        "check gpi-real --y2 inf --y3 1 --a 1 --x 0.5",
        "check gpi-real --y2 nan --y3 1 --a 1 --x 0.5",
        "check gpi-real --y2 1e308 --y3 1 --a 1 --x 0.5",
        "check gpi-real --y2 1 --y3 1 --a nan --x 0.5",
        "check gpi-real --y2 1 --y3 1 --a inf --x 0.5",
        "check mri --y2 nan --y3 4 --x 0.5",
    ])
    def test_non_finite_real_input_is_usage_error(self, argv, capsys):
        assert main(argv.split()) == 64
        assert "Traceback" not in capsys.readouterr().err

    def test_run_echoes_only_the_commands_own_options(self):
        # one cheap argv per command; a command missing here fails the lookup
        tails = {
            "sos verify": "--m2 2",
            "expand h": "--m2 1",
            "expand g": "",
            "expand s": "--m2 1 --m3 2",
            "check gpi": "--m2 1 --m3 1 --a 1 --x 1/2",
            "check mri": "--m2 2 --m3 3 --x 1/4",
            "check hfri": "--m2 1 --m3 5 --z 1/2",
            "check gpi-real": "--y2 2 --y3 2 --a 1 --x 0.5",
            "scan": "hfri --m2 2 --m3 3 --grid 5",
            "oracle compare": "--max-m 1",
            "params show": "--m2 1 --m3 1",
        }
        for parser in _build_parser().commands:
            command = parser.prog.split(" ", 1)[1]
            code, report = run(command.split() + tails[command].split())
            assert code == 0
            assert report["run"]["command"] == command
            assert set(report["run"]) - {"command"} <= {a.dest for a in parser._actions}

    @pytest.mark.parametrize("argv, damaged, damage", [
        ("sos verify --m2 1", "h1_expansion.json",
         lambda data: data | {"terms": data["terms"] + data["terms"][:1]}),
        ("expand h --m2 2 --compare-bundled", "h2_expansion.json", None),
        ("sos verify --m2 3", "h3_sos.json",
         lambda data: {k: v for k, v in data.items() if k != "scale"}),
        # int() would truncate e + 1/2 to e, so the polynomial would not change
        ("expand h --m2 4 --compare-bundled", "h4_expansion.json",
         lambda data: data | {"terms": [{"c": data["terms"][0]["c"],
                                         "e": [e + 0.5 for e in data["terms"][0]["e"]]}]
                              + data["terms"][1:]}),
    ], ids=["duplicate-monomial", "missing-file", "certificate-field", "fractional-exponent"])
    def test_damaged_bundled_file_is_internal_error(self, monkeypatch, capsys, argv,
                                                    damaged, damage):
        # a defect of the installed data is not the user's: exit 70, not 64
        import gpiverify.bundled as bundled

        read = bundled._read

        def damaged_read(package_dir, name):
            if name != damaged:
                return read(package_dir, name)
            if damage is None:
                raise FileNotFoundError(2, "No such file or directory", name)
            return damage(read(package_dir, name))

        # the damaged file must be read afresh, and must not outlive the test
        loaders = (bundled.load_h_expansion, bundled.load_certificate_dict)
        for loader in loaders:
            loader.cache_clear()
        monkeypatch.setattr(bundled, "_read", damaged_read)
        try:
            assert main(argv.split() + ["--out", os.devnull]) == 70
        finally:
            for loader in loaders:
                loader.cache_clear()
        err = capsys.readouterr().err
        assert f"certs/{damaged}" in err and "Traceback" not in err

    def test_missing_config_is_usage_error(self):
        assert main(["--config", "/no/such/file.json", "params", "show",
                     "--m2", "1", "--m3", "1"]) == 64


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        # the same argv (same --out) must reproduce the report exactly
        args = ["check", "gpi", "--m2", "2", "--m3", "3", "--a", "1/4", "--x=-3/10",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 0
        first = (tmp_path / "r.json").read_bytes()
        assert main(args) == 0
        second = (tmp_path / "r.json").read_bytes()
        assert first == second

    def test_checks_identical_across_jobs(self, tmp_path, reaped):
        base = ["scan", "hfri", "--m2", "1", "--m3", "5", "--grid", "15"]
        _, serial = invoke(base + ["--jobs", "1"], tmp_path, "serial.json")
        _, parallel = invoke(base + ["--jobs", "3"], tmp_path, "parallel.json")
        assert serial["checks"] == parallel["checks"]
        assert serial["summary"] == parallel["summary"]

    @pytest.mark.parametrize("predicate", ["g-negative", "hfri", "h-half", "h-seventh",
                                           "h-deriv", "h-deriv-reduced"])
    def test_interval_scan_identical_across_jobs(self, tmp_path, predicate, reaped):
        m2, m3 = ("2", "3") if predicate == "hfri" else ("8", "8")
        base = ["scan", predicate, "--m2", m2, "--m3", m3, "--grid", "21"]
        _, serial = invoke(base + ["--jobs", "1"], tmp_path, "serial.json")
        _, parallel = invoke(base + ["--jobs", "2"], tmp_path, "parallel.json")
        assert serial["checks"] == parallel["checks"]
        assert serial["summary"] == parallel["summary"] == {"pass": 1, "fail": 0,
                                                            "indeterminate": 0}

    def test_pool_capped_at_cpu_count(self, monkeypatch, forks, reaped):
        import gpiverify.cli as cli_mod

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        items = list(range(-50, 51))
        assert cli_mod._pool_map(abs, items, 5000) == [abs(i) for i in items]
        assert len(forks) == 2  # this process computes the third share
        assert cli_mod._pool_map(abs, items[:2], 5000) == [50, 49]
        assert len(forks) == 3
        # one CPU: no pool at all
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert cli_mod._pool_map(abs, items, 8) == [abs(i) for i in items]
        assert len(forks) == 3
        # the report echoes the --jobs asked for, not the workers started
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        code, report = cli_mod.run(["scan", "hfri", "--m2", "1", "--m3", "5", "--grid", "5",
                                    "--jobs", "64"])
        assert code == 0 and report["run"]["jobs"] == 64
        assert len(forks) == 5

    def test_import_loads_only_what_every_command_needs(self):
        # numpy serves only the Monte Carlo oracle and pickle only the pool of
        # scan --jobs N; each is imported where it is used.  dataclasses (and
        # the inspect it pulls in) is not used at all, nor is the standard
        # library's process pool, even by a scan that starts a pool
        unwanted = ("numpy", "pickle", "concurrent.futures", "multiprocessing", "dataclasses",
                    "inspect")
        code = f"import sys, gpiverify.cli; print([m for m in {unwanted!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        pools = ("concurrent.futures", "multiprocessing")
        code = ("import os, sys\n"
                "from gpiverify import cli\n"
                "os.cpu_count = lambda: 2\n"
                "code, _ = cli.run('scan h-deriv --m2 8 --m3 8 --grid 21 --jobs 2'.split())\n"
                "print(code, 'pickle' in sys.modules,"
                f" [m for m in {pools!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 True []"  # a pool ran, and needed neither

    def test_stdout_report(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gpiverify.cli", "params", "show", "--m2", "1", "--m3", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["schema"] == 1


def _raising_at(*bad):
    """i -> i * i, except that each item in ``bad`` raises: ValueError when
    even, KeyError when odd."""

    def fn(i):
        if i in bad:
            raise (ValueError, KeyError)[i % 2](f"item {i}")
        return i * i

    return fn


def _in_child(action):
    """i -> i, except that in a forked child each call first runs ``action``."""
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            action()
        return i

    return fn


class TestPool:
    """_pool_map over 3 processes: share k of range(10) is items k, k + 3, ...;
    this process computes share 0 and two forked children the others."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)

    # failing items: in a child's share, in two children's shares, in this
    # process's share after a lower one in a child's, and the reverse
    @pytest.mark.parametrize("bad", [(4,), (5, 7), (1, 3), (2, 6), (0, 1)])
    def test_failure_is_the_serial_one(self, bad, forks, reaped):
        from gpiverify.cli import _pool_map

        fn = _raising_at(*bad)
        with pytest.raises(Exception) as serial:
            [fn(i) for i in range(10)]
        with pytest.raises(Exception) as pooled:
            _pool_map(fn, range(10), 3)
        assert type(pooled.value) is type(serial.value)
        assert str(pooled.value) == str(serial.value)
        assert f"item {min(bad)}" in str(pooled.value)
        assert len(forks) == 2

    @pytest.mark.parametrize("action, message", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         f"was killed by signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(0), "returned an incomplete result (0 bytes)"),
    ], ids=["exit-3", "sigkill", "exit-0"])
    def test_dead_child_is_pool_worker_error(self, action, message, reaped):
        from gpiverify.cli import PoolWorkerError, _pool_map

        with pytest.raises(PoolWorkerError, match=f"pool worker [0-9]+ {re.escape(message)}"):
            _pool_map(_in_child(action), range(10), 3)

    def test_truncated_result_is_pool_worker_error(self, monkeypatch, reaped):
        from gpiverify.cli import PoolWorkerError, _pool_map

        dumps = pickle.dumps
        monkeypatch.setattr(pickle, "dumps", lambda obj, protocol: dumps(obj, protocol)[:-2])
        with pytest.raises(PoolWorkerError, match="returned an incomplete result"):
            _pool_map(abs, range(10), 3)

    def test_dead_worker_exits_70(self, monkeypatch, capsys, reaped):
        # a scan whose pool worker dies is an internal error, not a failed check
        import gpiverify.inequality as inequality

        point = inequality._scan_point
        die = _in_child(lambda: os._exit(9))

        def dying_point(predicate, params, z):
            return point(predicate, params, die(z))

        monkeypatch.setattr(inequality, "_scan_point", dying_point)
        assert main("scan h-deriv --m2 8 --m3 8 --grid 21 --jobs 2".split()) == 70
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch("gpiverify: internal error: PoolWorkerError: pool worker [0-9]+ "
                            "exited with status 9 before returning its results\n", err)

    @pytest.mark.parametrize("error", ["ValueError", "KeyboardInterrupt"])
    def test_no_deadlock_when_this_share_raises(self, error):
        # each child's result (about 300 KB) overfills its pipe while this
        # process's share raises; a KeyboardInterrupt abandons the results
        code = ("import os\n"
                "from gpiverify import cli\n"
                "os.cpu_count = lambda: 3\n"
                "parent = os.getpid()\n"
                "def fn(i):\n"
                "    if os.getpid() == parent and i == 3:\n"
                f"        raise {error}('share 0')\n"
                "    return 'x' * 100_000\n"
                "try:\n"
                "    cli._pool_map(fn, range(10), 3)\n"
                f"except {error} as exc:\n"
                "    print('raised', exc)\n"
                "try:\n"
                "    os.waitpid(-1, os.WNOHANG)\n"
                "except ChildProcessError:\n"
                "    print('reaped')\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised share 0\nreaped\n"

    def test_unflushed_stdout_written_once(self):
        # stdout to a pipe is block-buffered (unless PYTHONUNBUFFERED is set),
        # so "before" is still in the buffer that each child inherits
        code = ("import os\n"
                "from gpiverify import cli\n"
                "os.cpu_count = lambda: 3\n"
                "print('before')\n"
                "print(cli._pool_map(abs, range(-5, 5), 3))\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"before\n{[abs(i) for i in range(-5, 5)]}\n"
