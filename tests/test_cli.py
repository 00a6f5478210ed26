"""CLI contract tests: exit codes, report schema, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpiverify.cli import _build_parser, _resolve_config, main, run
from gpiverify.exactnum import InputError
from gpiverify.gausshyp import HALF
from gpiverify.moments import MomentExponents, real_moment
from gpiverify.polyring import MultiPoly
from reference import hyp_value_at_one

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
# bare large integer would not do, as --max-m would accept it and hang the
# test.  As real exponents, "0.01" and "1e-320" put t below 1/r^2, so that
# x^2 can fall where the ratio bound is undefined.
ARGV_VALUES = ["-1", "0", "1", "2", "1/2", "0.5", "1e5", "1e200", "1/0", "abc", "nan", "inf",
               "", "0.01", "1e-320"]
# values that every option of a type accepts at small indices ("0.5" and
# "0.25" read as rationals and as floats, inside every z domain and |x| < 1)
PLAUSIBLE = {int: ["1", "2"], float: ["0.5", "1", "2"], None: ["0.5", "0.25"]}
# starting options, one list drawn per example, that keep an example cheap or
# give check mri a complete form; a drawn value may override them
START_OPTIONS = {
    "scan": [["--grid", "5"]],
    "oracle compare": [["--max-m", "2"]],
    "check mri": [["--m2", "2", "--m3", "3", "--x", "1/4"], ["--y2", "1", "--y3", "1", "--x", "0.5"],
                  ["--m2", "2", "--m3", "2", "--find-violation"],
                  ["--y2", "0.5", "--y3", "1", "--find-violation"]],
}


@st.composite
def cli_argvs(draw):
    """A command, its starting and required options, then options mostly of
    that command, each with a plausible value seven times in eight and
    otherwise one from ARGV_VALUES, so that many examples reach a command
    handler.  Reports go to os.devnull."""
    commands = _build_parser().commands
    parser = draw(st.sampled_from(commands))
    command = parser.prog.split()[1:]
    argv = command + draw(st.sampled_from(START_OPTIONS.get(" ".join(command), [[]])))
    argv += [draw(st.sampled_from(a.choices)) for a in parser._actions if not a.option_strings]

    def drawable(p):
        return {a.option_strings[0]: a for a in p._actions
                if a.option_strings and a.dest not in ("help", "out", "poly_out")}

    own = drawable(parser)
    foreign = {flag: a for p in commands for flag, a in drawable(p).items() if flag not in own}
    flags = st.sampled_from(sorted(own) * 8 + sorted(foreign))

    def value(action):
        # a weighted draw: one_of over repeated equal strategies is not weighted
        if draw(st.integers(0, 7)):
            return draw(st.sampled_from(PLAUSIBLE.get(action.type, ["1", "2"])))
        return draw(st.sampled_from(ARGV_VALUES))

    for flag, action in own.items():
        if action.required:
            argv += [flag, value(action)]
    for flag in draw(st.lists(flags, max_size=3)):
        action = own.get(flag) or foreign[flag]
        argv.append(flag)
        if action.nargs != 0:
            argv.append(value(action))
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
        from gpiverify.report import CheckReport

        monkeypatch.setitem(
            cli_mod.__dict__,
            "_cmd_params_show",
            lambda cfg: [CheckReport("forced", "indeterminate")],
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
        # the series terminate; (r - 1)^3 in H overflows
        "check mri --y2 1e200 --y3 2 --x 0.5",
        "check mri --y2 1e200 --y3 2 --find-violation",
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

    def test_gpi_real_past_the_gamma_range_still_runs(self):
        # the Gamma factors of the moments cancel in the margin, which sums
        # its own series; the moments themselves overflow math.gamma here
        with pytest.raises(OverflowError):
            real_moment(MomentExponents(400.0, 402.0), 0.5)
        argv = "check gpi-real --y2 400 --y3 400 --a 1 --x 0.5 --out".split() + [os.devnull]
        assert main(argv) == 0

    @pytest.mark.parametrize("argv, usage", [
        # raised by the command's handler, after parsing
        ("check hfri --m2 1 --m3 1 --z 1", "usage: gpiverify check hfri [-h] --m2 M2"),
        # raised by an option's range check, while parsing
        ("scan hfri --m2 1 --m3 1 --grid 1", "usage: gpiverify scan [-h] --m2 M2"),
        # no command parsed
        ("bogus", "usage: gpiverify [-h] [--config CONFIG]"),
    ], ids=["handler", "range-check", "no-command"])
    def test_usage_error_prints_the_usage_of_its_command(self, argv, usage, capsys):
        assert main(argv.split()) == 64
        out, err = capsys.readouterr()
        assert out == ""
        error, rest = err.split("\n", 1)
        assert error.startswith("gpiverify: error: ") and rest.startswith(usage)

    def test_domain_violation_is_usage(self, tmp_path):
        code = main(
            ["check", "hfri", "--m2", "1", "--m3", "1", "--z", "1",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 64

    @pytest.mark.parametrize("argv", [
        "check hfri --m2 1 --m3 5 --z 1/0",
        "scan hfri --m2 1 --m3 5 --z-lo 1/0",
        "check gpi --m2 1 --m3 1 --a 1/0 --x 1/2",
    ])
    def test_zero_denominator_is_usage(self, argv, capsys):
        assert main(argv.split() + ["--out", os.devnull]) == 64
        err = capsys.readouterr().err
        assert err.startswith("gpiverify: error: '1/0' has a zero denominator\n")
        assert "Fraction(1, 0)" not in err

    @pytest.mark.parametrize("argv", [
        "check hfri --m2 1 --m3 5 --z abc",
        "check gpi-real --y2 1 --y3 1 --a abc --x 0.5",
    ])
    def test_invalid_number_is_usage(self, argv, capsys):
        assert main(argv.split() + ["--out", os.devnull]) == 64
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("gpiverify: error: ") and "'abc'" in err.splitlines()[0]

    @pytest.mark.parametrize("config, argv", [
        (None, ["scan", "hfri", "--m2", "1", "--m3", "5", "--z-lo", "", "--grid", "3"]),
        (None, ["scan", "hfri", "--m2", "1", "--m3", "5", "--z-hi", "", "--grid", "3"]),
        (None, ["check", "mri", "--m2", "1", "--m3", "1", "--cov", "1/2", "--var2", ""]),
        (None, ["check", "mri", "--m2", "1", "--m3", "1", "--cov", "1/2", "--var3", ""]),
        ({"z-lo": ""}, ["scan", "hfri", "--m2", "1", "--m3", "5", "--grid", "3"]),
    ], ids=["z-lo", "z-hi", "var2", "var3", "config-z-lo"])
    def test_empty_rational_is_usage(self, tmp_path, config, argv, capsys):
        # an empty value is refused, as for --x, not taken as the default
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path)] + argv
        assert main(argv + ["--out", os.devnull]) == 64
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("gpiverify:")]
        assert errors == ["gpiverify: error: Invalid literal for Fraction: ''"]

    @pytest.mark.parametrize("argv", [
        "check mri --m2 8 --m3 8 --x 1e-320",
        "check gpi --m2 8 --m3 8 --a 3 --x 1e-320",
    ])
    def test_report_past_the_digit_limit_is_usage(self, argv, capsys):
        # the verdict is exact, but printing it would take numbers longer
        # than the interpreter converts; the limit stays, as it bounds the time
        assert main(argv.split()) == 64
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        limit = sys.get_int_max_str_digits()
        assert err.splitlines()[0] == (f"gpiverify: error: the exact report would hold "
                                       f"a number of more than {limit} digits")
        assert sum(line.startswith("gpiverify:") for line in err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        "check gpi --m2 200 --m3 200 --a 3 --x 1e-320",
        "check mri --m2 200 --m3 200 --x 1e-320",
    ])
    def test_oversized_exact_report_is_refused_within_seconds(self, argv):
        # moments with 128,000-digit denominators: one integer sum and one
        # reduction each, then the digit limit refuses the report
        proc = subprocess.run([sys.executable, "-m", "gpiverify.cli", *argv.split()],
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 64 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("gpiverify:")]
        assert len(errors) == 1 and "number of more than" in errors[0]

    @pytest.mark.parametrize("argv", [
        "check gpi --m2 1 --m3 1 --a 1 --x 1e-5000",
        "check gpi --m2 1 --m3 1 --a 1e5000 --x 1/2",
        "check hfri --m2 1 --m3 5 --z 1e-5000",
        "scan hfri --m2 1 --m3 5 --z-lo 1e-5000",
        "scan hfri --m2 1 --m3 5 --z-hi 1e-5000",
        "check gpi --m2 1 --m3 1 --a 1 --x 1e-99999999",
    ])
    def test_input_past_the_digit_limit_is_usage_within_seconds(self, argv):
        # the text itself is refused, before a report names it or 10^k is built
        proc = subprocess.run([sys.executable, "-m", "gpiverify.cli", *argv.split()],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 64 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("gpiverify:")]
        assert len(errors) == 1 and "usage: gpiverify " in proc.stderr

    def test_large_exact_input_with_a_short_x_still_runs(self):
        assert main("check gpi --m2 200 --m3 200 --a 3 --x 1/3 --out".split() + [os.devnull]) == 0

    @pytest.mark.parametrize("argv, t, bound", [
        ("check mri --y2 0.01 --y3 0.01 --x 0.1", "9.801019602029404e-05", "0.24504974939975122"),
        ("check mri --y2 0.5 --y3 0.5 --x 0.3", "0.08163265306122448", "0.09467455621301775"),
    ])
    def test_real_ratio_bound_gap_is_usage(self, argv, t, bound, capsys):
        # for small exponents t < 1/r^2, and H is undefined on (t, 1/r^2]
        assert main(argv.split()) == 64
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert f"is above t = {t} but outside the ratio bound's domain x^2 > 1/r^2 = {bound}" \
            in err.splitlines()[0]

    @pytest.mark.parametrize("error", [AssertionError, KeyError, ZeroDivisionError, ValueError,
                                       TypeError])
    @pytest.mark.parametrize("argv", ["params show --m2 1 --m3 1",
                                      "scan hfri --m2 2 --m3 3 --grid 5"])
    def test_failed_identity_is_internal_error(self, argv, error, monkeypatch, capsys):
        # any exception but InputError that no input causes (here a failed
        # internal identity) is a defect of the program: exit 70 with one
        # line on stderr, never a usage error or a traceback
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

    # failing grid indices: one, two apart, the lowest first or last in a
    # pair, and both ends of the first step
    @pytest.mark.parametrize("bad", [(4,), (5, 7), (1, 3), (6, 2), (0, 1)])
    def test_failing_point_reported_is_the_lowest_index(self, bad, monkeypatch, capsys):
        # hfri leaves every point to _scan_point, in index order; the scan
        # stops at the first failure, which main reports as exit 70
        import gpiverify.inequality as inequality

        point = inequality._scan_point
        called = []

        def failing_point(polys, k):
            called.append(k)
            if k in bad:
                raise (ValueError, KeyError)[k % 2](f"item {k}")
            return point(polys, k)

        monkeypatch.setattr(inequality, "_scan_point", failing_point)
        assert main("scan hfri --m2 8 --m3 8 --grid 21 --jobs 2".split()) == 70
        out, err = capsys.readouterr()
        first = min(bad)
        error = (ValueError, KeyError)[first % 2](f"item {first}")
        assert out == ""
        assert err == f"gpiverify: internal error: {type(error).__name__}: {error}\n"
        assert called == list(range(first + 1))

    @pytest.mark.parametrize("predicate", ["g-negative", "hfri", "h-half", "h-seventh",
                                           "h-deriv", "h-deriv-reduced"])
    def test_failed_scan_point_is_internal_error(self, predicate, monkeypatch, capsys):
        # a certified scan decides the ends of its runs with _scan_point, so
        # every predicate reaches it, and its failure is a defect (exit 70)
        import gpiverify.inequality as inequality

        def failing_point(polys, k):
            raise ArithmeticError(f"point {k}")

        monkeypatch.setattr(inequality, "_scan_point", failing_point)
        m2, m3 = ("2", "3") if predicate == "hfri" else ("8", "8")
        argv = ["scan", predicate, "--m2", m2, "--m3", m3, "--grid", "1001", "--jobs", "2"]
        assert main(argv) == 70
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gpiverify: internal error: ArithmeticError: point ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "params show --m2 1 --m3 1 --out /nonexistent-dir/report.json",
        "expand s --m2 1 --m3 5 --poly-out /nonexistent-dir/s.json",
    ])
    def test_io_error_is_74(self, argv, capsys):
        assert main(argv.split()) == 74
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gpiverify: i/o error: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("argv, bound", [
        ("check mri --m2 2 --m3 3 --x 1/4", {"lo": "121407/655360", "hi": "971257/5242880"}),
        # a negative cov with |cov| != 1 scales both ends by |cov|
        ("check mri --m2 2 --m3 3 --cov=-3/2 --var2 2 --var3 3",
         {"lo": "77727/124160", "hi": "2487267/3973120"}),
    ])
    def test_mri_rendered_bound(self, tmp_path, argv, bound):
        code, report = invoke(argv.split(), tmp_path)
        (witness,) = report["checks"][0]["witnesses"]
        assert code == 0 and witness["branch"] == "ratio-bound"
        assert witness["bound"] == bound

    def test_mri_equality_at_a_zero_of_s(self, tmp_path):
        # S_{1,2}(3/4) = 0: the ratio bound holds with equality at corr^2 = 3/4,
        # and the HFRI, which is strict, fails there
        code, report = invoke(["check", "mri", "--m2", "1", "--m3", "2",
                               "--cov", "3", "--var2", "4", "--var3", "3"], tmp_path)
        (check,) = report["checks"]
        assert code == 0 and check["status"] == "holds"
        assert check["margin"] == "0" and check["metadata"]["equality"] is True
        assert check["witnesses"][0]["corr_sq"] == "3/4"
        code, report = invoke(["check", "hfri", "--m2", "1", "--m3", "2", "--z", "3/4"], tmp_path)
        (check,) = report["checks"]
        assert code == 1 and check["status"] == "fails" and check["margin"] == "0"

    @pytest.mark.parametrize("m2,m3", [(1, 1), (2, 3), (30, 31)])
    def test_params_show_g_at_one_matches_closed_form(self, tmp_path, m2, m3):
        # G(1) = F(-m2-1, -m3; 1/2; 1) - (2 m3 + 1) H(1) F(-m2, -m3; 1/2; 1)
        # with H(1) = 2 (m2 + m3 + 1)/(r + 1), F(1) by Chu-Vandermonde
        code, report = invoke(["params", "show", "--m2", str(m2), "--m3", str(m3)], tmp_path)
        assert code == 0
        r = (2 * m2 + 1) * (2 * m3 + 1) + 1
        h_at_one = Fraction(2 * (m2 + m3 + 1), r + 1)
        expected = hyp_value_at_one(m2 + 1, m3, HALF) - (
            (2 * m3 + 1) * h_at_one * hyp_value_at_one(m2, m3, HALF)
        )
        assert Fraction(report["checks"][0]["metadata"]["G_at_1"]) == expected

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

    def test_expand_h_past_the_bundled_range(self, tmp_path, capsys, monkeypatch):
        # h_poly takes any m2 >= 1; only the bundled files stop at 7
        import gpiverify.cli as cli

        code, report = invoke(["expand", "h", "--m2", "8"], tmp_path)
        assert code == 0 and report["checks"][0]["metadata"]["terms"] == 188
        monkeypatch.setattr(cli, "h_poly", None)  # the range is checked before h is built
        assert main("expand h --m2 8 --compare-bundled".split()) == 64
        assert "bundled h files exist for m2 in 1..7" in capsys.readouterr().err

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
        import gpiverify.moments as moments

        right = moments.closed_form_poly

        def perturbed(m2, m3, odd):
            poly = right(m2, m3, odd)
            return poly + MultiPoly.var("x") ** 3 if (m2, m3, odd) == (2, 1, True) else poly

        monkeypatch.setattr(moments, "closed_form_poly", perturbed)
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
        "oracle compare --real --max-m 3",
        "oracle compare --real --max-m 8",
    ])
    def test_option_the_chosen_form_ignores_is_usage_error(self, argv, capsys):
        assert main(argv.split()) == 64
        assert "does not use" in capsys.readouterr().err

    def test_mri_ignored_config_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"var2": "2"}))
        with pytest.raises(InputError, match="--var2"):
            run(["--config", str(cfg), "check", "mri", "--m2", "2", "--m3", "3", "--x", "1/4"])

    def test_default_oracle_compare_real_holds(self, tmp_path):
        # the paper's run: six closed forms, each within 1e-9 relative of its
        # quadrature
        code, report = invoke(["oracle", "compare", "--real"], tmp_path)
        assert code == 0
        assert report["run"]["max_m"] is None  # --real uses no --max-m
        checks = report["checks"]
        assert [c["status"] for c in checks] == ["holds"] * 6
        for check in checks:
            assert check["metadata"] == {"relative_tolerance": 1e-9}
            [witness] = check["witnesses"]
            assert witness["closed_form"] == pytest.approx(witness["quadrature"], rel=1e-9)
            # the name is the request that the witness computes
            request = MomentExponents(witness["p"], witness["q"], witness["signed"])
            x = float(check["name"].rsplit(",x=", 1)[1])
            assert check["name"] == (f"oracle:real:p={request.p},q={request.q},"
                                     f"signed={request.signed},x={x}")
            assert witness["closed_form"] == real_moment(request, x)
        assert len({c["name"] for c in checks}) == 6

    def test_oracle_compare_echoes_and_documents_its_default(self, tmp_path, capsys):
        _, report = invoke(["oracle", "compare"], tmp_path)
        assert report["run"]["max_m"] == 8
        assert report["checks"][0]["name"] == "oracle:moments:max_m=8"
        with pytest.raises(SystemExit):
            main(["oracle", "compare", "--help"])
        assert "(default 8;" in capsys.readouterr().out

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

    @pytest.mark.parametrize("grid", ["2", "1001"])
    def test_override_outside_the_closure_is_refused_at_every_grid(self, grid, capsys):
        # hfri's domain at (1, 1) is (1/100, 1): z_lo = 0 lies outside it
        # whatever nudge the grid would give the open end
        argv = f"scan hfri --m2 1 --m3 1 --z-lo 0 --z-hi 1 --grid {grid} --out {os.devnull}"
        assert main(argv.split()) == 64
        err = capsys.readouterr().err
        assert err.startswith("gpiverify: error: z_lo=0 is outside the hfri domain (1/100, 1)\n")

    def test_refused_override_is_named_as_given(self, capsys):
        assert main("scan hfri --m2 1 --m3 1 --z-lo -5".split()) == 64
        assert "error: z_lo=-5 is outside the hfri domain" in capsys.readouterr().err
        assert main("scan hfri --m2 1 --m3 1 --z-hi 3/2".split()) == 64
        assert "error: z_hi=3/2 is outside the hfri domain" in capsys.readouterr().err

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
        # --max-m, so the file's max_m is skipped
        cfg = tmp_path / "cfg.json"
        base = ["scan", "hfri", "--m2", "2", "--m3", "3"]
        _, report = invoke(base, tmp_path, "c0.json")
        assert report["run"]["grid"] == 101
        cfg.write_text(json.dumps({"grid": 7, "max_m": 99}))
        base = ["--config", str(cfg)] + base
        _, report = invoke(base, tmp_path, "c1.json")
        assert report["run"]["grid"] == 7 and "max_m" not in report["run"]
        _, report = invoke(base + ["--grid", "11"], tmp_path, "c2.json")
        assert report["run"]["grid"] == 11

    @pytest.mark.parametrize("argv", [
        "scan g-negative --m2 8 --m3 8 --jobs 0",
        "scan g-negative --m2 8 --m3 8 --jobs -2",
        "scan hfri --m2 2 --m3 3 --grid 1",
        "oracle compare --max-m -1",
    ], ids=lambda argv: "-".join(argv.split()[-2:]))
    def test_out_of_range_option_is_usage_error(self, argv):
        argv = argv.split()
        flag = argv[-2]
        with pytest.raises(InputError, match=flag):
            _resolve_config(argv)
        assert main(argv) == 64

    @pytest.mark.parametrize("value", ["abc", "1.5", "", "2/1"])
    def test_jobs_not_an_integer_is_usage_error(self, value, capsys):
        argv = ["scan", "g-negative", "--m2", "8", "--m3", "8", "--jobs", value]
        with pytest.raises(InputError, match="--jobs"):
            _resolve_config(argv)
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err

    def test_out_of_range_config_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        with pytest.raises(InputError, match="--jobs"):
            _resolve_config(["--config", str(cfg), "scan", "hfri", "--m2", "2", "--m3", "3"])

    @pytest.mark.parametrize("text, argv, match", [
        ("[1]", "scan hfri --m2 2 --m3 3", "must hold a JSON object"),
        ("{bad", "scan hfri --m2 2 --m3 3", "not valid JSON"),
        ('{"grid": "x"}', "scan hfri --m2 2 --m3 3", "'grid'"),
        ('{"grid": 7.5}', "scan hfri --m2 2 --m3 3", "'grid'"),
        ('{"timing": 1}', "scan hfri --m2 2 --m3 3", "'timing'"),
        ('{"max_m": "x"}', "oracle compare --real", "'max_m'"),
        ('{"gird": 7}', "scan hfri --m2 2 --m3 3", "unknown option 'gird'"),
        ('{"refine_max": 3}', "scan hfri --m2 2 --m3 3", "unknown option 'refine_max'"),
    ])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text, argv, match):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = ["--config", str(cfg)] + argv.split()
        with pytest.raises(InputError, match=match):
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
        (None, "check gpi --m2 1 --m3 1 --a 1 --x 1/2 --grid 5"),
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
        ("sos verify --m2 5", "h5_sos.json",
         lambda data: data | {"squares": [data["squares"][0] | {"lambda": "0"}]
                              + data["squares"][1:]}),
        ("sos verify --m2 5", "h5_sos.json",
         lambda data: data | {"squares": data["squares"][:-1]
                              + [data["squares"][-1] | {"lambda": "-1"}]}),
        ("sos verify --m2 6", "h6_sos.json",
         lambda data: data | {"ring": data["ring"][::-1]}),
        # h7 = scale * target + rest fails with the scale negated: some
        # coefficient of rest turns negative
        ("sos verify --m2 7", "h7_sos.json",
         lambda data: data | {"scale": "-" + data["scale"]}),
    ], ids=["duplicate-monomial", "missing-file", "certificate-field", "fractional-exponent",
            "zero-weight", "negative-weight", "reversed-ring", "negative-scale"])
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

        # each command reads the file afresh: no loader keeps a copy
        monkeypatch.setattr(bundled, "_read", damaged_read)
        assert main(argv.split() + ["--out", os.devnull]) == 70
        err = capsys.readouterr().err
        assert err.startswith("gpiverify: internal error: BundledDataError: bundled file ")
        assert f"certs/{damaged}" in err and err.count("\n") == 1

    def test_nonpositive_scale_is_internal_error(self, monkeypatch, capsys):
        # host = scale * target + rest proves host > 0 only when scale > 0: with
        # target 1 = 1 * 1^2 and scale -2, the host -1 + b^2 has rest 1 + b^2,
        # whose coefficients are nonnegative, yet the host is -1 at the origin
        import gpiverify.bundled as bundled

        def poly(*terms):
            return {"vars": ["b", "c"], "terms": [{"c": c, "e": e} for c, e in terms]}

        one = poly(("1", [0, 0]))
        files = {
            "h1_expansion.json": poly(("-1", [0, 0]), ("1", [2, 0])),
            "h1_sos.json": {"ring": ["b", "c"], "target": one, "scale": "-2",
                            "squares": [{"lambda": "1", "poly": one}], "host": "h1"},
        }
        monkeypatch.setattr(bundled, "_read", lambda package_dir, name: files[name])
        assert main(["sos", "verify", "--m2", "1", "--out", os.devnull]) == 70
        err = capsys.readouterr().err
        assert "BundledDataError: bundled file certs/h1_sos.json: " in err
        assert "scale -2 is not positive" in err

    def test_missing_config_is_usage_error(self):
        assert main(["--config", "/no/such/file.json", "params", "show",
                     "--m2", "1", "--m3", "1"]) == 64


class TestNoMemo:
    def test_each_bundled_file_is_read_once(self, monkeypatch):
        # no loader keeps a copy, and no command reads a file it does not use
        import gpiverify.bundled as bundled

        opened = []
        read = bundled._read
        monkeypatch.setattr(bundled, "_read",
                            lambda package_dir, name: opened.append(name) or read(package_dir, name))
        assert main("sos verify --all --out".split() + [os.devnull]) == 0
        assert sorted(opened) == sorted(f"h{k}_{kind}.json" for k in range(1, 8)
                                        for kind in ("expansion", "sos"))
        for k in range(1, 8):
            opened.clear()
            assert main(f"expand h --m2 {k} --compare-bundled --out".split() + [os.devnull]) == 0
            assert opened == [f"h{k}_expansion.json"]

    def test_violation_search_builds_f1_and_f2_once(self, monkeypatch, capsys):
        # every correlation of the search evaluates the same two polynomials
        import gpiverify.inequality as inequality

        calls = []
        build = inequality.hyp_poly
        monkeypatch.setattr(inequality, "hyp_poly",
                            lambda *args: calls.append(args) or build(*args))
        assert main("check mri --m2 2 --m3 2 --find-violation".split()) == 0
        assert '"found": true' in capsys.readouterr().out
        assert len(calls) == 2


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

    def test_real_oracle_report_identical_across_processes(self):
        # the float report has no seed and no sample: two fresh interpreters
        # print the same bytes
        argv = [sys.executable, "-m", "gpiverify.cli", "oracle", "compare", "--real"]
        first, second = (subprocess.run(argv, capture_output=True) for _ in range(2))
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout and b'"quadrature"' in first.stdout

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

    def test_scan_forks_no_worker(self, monkeypatch, forks, reaped):
        # every point is decided in this process, whatever --jobs and the CPUs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for argv, jobs in [("scan hfri --m2 8 --m3 8 --grid 21", 2),
                           ("scan g-negative --m2 30 --m3 30 --grid 1001", 64)]:
            code, report = run(argv.split() + ["--jobs", str(jobs)])
            assert code == 0 and report["run"]["jobs"] == jobs
        assert forks == []

    @pytest.mark.parametrize("jobs", [2, 64, 10**6])
    def test_jobs_changes_only_its_echo(self, jobs, forks, reaped):
        # --jobs starts no process, however large, and a report differs from
        # the --jobs 1 report only in run.jobs
        base = "scan h-deriv --m2 8 --m3 8 --grid 101 --jobs".split()
        code, serial = run(base + ["1"])
        assert run(base + [str(jobs)]) == (code, serial | {"run": serial["run"] | {"jobs": jobs}})
        assert code == 0 and forks == []

    def test_import_loads_only_what_every_command_needs(self):
        # dataclasses (and the inspect it pulls in) is not used at all, nor
        # are pickle and the standard library's process pools, even by a scan
        # given --jobs 2
        unwanted = ("pickle", "concurrent.futures", "multiprocessing", "dataclasses", "inspect")
        code = f"import sys, gpiverify.cli; print([m for m in {unwanted!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        pools = ("concurrent.futures", "multiprocessing")
        code = ("import os, sys\n"
                "from gpiverify import cli\n"
                "os.cpu_count = lambda: 2\n"
                "code, _ = cli.run('scan hfri --m2 8 --m3 8 --grid 21 --jobs 2'.split())\n"
                "print(code, 'pickle' in sys.modules,"
                f" [m for m in {pools!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False []"
        # a scan loads neither the point checks nor the moments, the bundled
        # files nor the certificate checks; a point check loads what it runs
        lazy = ("gpiverify.checks", "gpiverify.moments", "gpiverify.bundled",
                "gpiverify.soscert")
        code = ("import sys\n"
                "from gpiverify import cli\n"
                f"loaded = lambda: [m for m in {lazy!r} if m in sys.modules]\n"
                "print(loaded())\n"
                "code, _ = cli.run('scan g-negative --m2 8 --m3 8 --grid 3'.split())\n"
                "print(code, loaded())\n"
                "code, _ = cli.run('check gpi --m2 1 --m3 1 --a=-1 --x 1/2'.split())\n"
                "print(code, loaded())")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[]", "0 []", "0 ['gpiverify.checks', 'gpiverify.moments']"]

    def test_stdout_report(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gpiverify.cli", "params", "show", "--m2", "1", "--m3", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["schema"] == 1
