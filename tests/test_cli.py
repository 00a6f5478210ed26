"""CLI contract tests: exit codes, report schema, determinism."""

import json
import subprocess
import sys

import pytest

from gpiverify.cli import _resolve_config, _UsageError, main

REQUIRED_REPORT_KEYS = {"schema", "tool", "run", "checks", "summary", "timing"}


def invoke(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


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
        # genuine indeterminacy is unreachable with the bundled predicates
        # (enclosures resolve every sign), so force one through the dispatcher
        # to pin the status -> summary -> exit-code plumbing
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

    def test_domain_violation_is_usage(self, tmp_path):
        code = main(
            ["check", "hfri", "--m2", "1", "--m3", "1", "--z", "1",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 64

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
        assert report["run"]["width"] == "1/1000000"  # documented default
        assert report["checks"][0]["margin"] == "1/2"
        assert report["timing"] is None

    def test_timing_opt_in(self, tmp_path):
        _, report = invoke(
            ["params", "show", "--m2", "1", "--m3", "1", "--timing"], tmp_path
        )
        assert isinstance(report["timing"], float)

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
        code, report = invoke(
            ["oracle", "compare", "--max-m", "3", "--corr-steps", "3"], tmp_path
        )
        assert code == 0
        assert report["checks"][0]["metadata"]["comparisons"] == 2 * 7 * 16

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
        # dataclass default < config file < explicit command line
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 7, "seed": 99}))
        base = ["--config", str(cfg), "scan", "hfri", "--m2", "2", "--m3", "3"]
        _, report = invoke(base, tmp_path, "c1.json")
        assert report["run"]["grid"] == 7 and report["run"]["seed"] == 99
        _, report = invoke(base + ["--grid", "11"], tmp_path, "c2.json")
        assert report["run"]["grid"] == 11

    @pytest.mark.parametrize("flag, value", [("--jobs", "0"), ("--jobs", "-2"),
                                             ("--refine-max", "-1")])
    def test_out_of_range_option_is_usage_error(self, flag, value):
        argv = ["scan", "g-negative", "--m2", "8", "--m3", "8", flag, value]
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
        cfg_obj, _ = _resolve_config(["--config", str(cfg), "scan", "hfri", "--m2", "2",
                                      "--m3", "3"])
        assert (cfg_obj.grid, cfg_obj.z_lo, cfg_obj.timing, cfg_obj.max_m) == (7, "0.25", True, 8)

    def test_missing_config_is_usage_error(self):
        assert main(["--config", "/no/such/file.json", "params", "show",
                     "--m2", "1", "--m3", "1"]) == 64


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        # identical RunConfig (same --out) must reproduce the report exactly
        args = ["check", "gpi", "--m2", "2", "--m3", "3", "--a", "1/4", "--x=-3/10",
                "--out", str(tmp_path / "r.json")]
        assert main(args) == 0
        first = (tmp_path / "r.json").read_bytes()
        assert main(args) == 0
        second = (tmp_path / "r.json").read_bytes()
        assert first == second

    def test_checks_identical_across_jobs(self, tmp_path):
        base = ["scan", "hfri", "--m2", "1", "--m3", "5", "--grid", "15"]
        _, serial = invoke(base + ["--jobs", "1"], tmp_path, "serial.json")
        _, parallel = invoke(base + ["--jobs", "3"], tmp_path, "parallel.json")
        assert serial["checks"] == parallel["checks"]
        assert serial["summary"] == parallel["summary"]

    def test_interval_scan_identical_across_jobs(self, tmp_path):
        base = ["scan", "g-negative", "--m2", "8", "--m3", "8", "--grid", "21"]
        _, serial = invoke(base + ["--jobs", "1"], tmp_path, "serial.json")
        _, parallel = invoke(base + ["--jobs", "2"], tmp_path, "parallel.json")
        assert serial["checks"] == parallel["checks"]
        assert serial["summary"] == parallel["summary"] == {"pass": 1, "fail": 0,
                                                            "indeterminate": 0}

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        import gpiverify.cli as cli_mod

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 3)
        items = list(range(-50, 51))
        assert cli_mod._pool_map(abs, items, 5000) == [abs(i) for i in items]
        assert cli_mod._pool_map(abs, items[:2], 5000) == [50, 49]
        assert started == [3, 2]
        # one CPU: no pool at all
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 1)
        assert cli_mod._pool_map(abs, items, 8) == [abs(i) for i in items]
        assert started == [3, 2]
        # the report echoes the --jobs asked for, not the workers started
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 3)
        code, report = cli_mod.run(["scan", "hfri", "--m2", "1", "--m3", "5", "--grid", "5",
                                    "--jobs", "64"])
        assert code == 0 and report["run"]["jobs"] == 64
        assert started == [3, 2, 3]

    def test_import_leaves_numpy_unloaded(self):
        # numpy serves only the Monte Carlo oracle and is imported there
        code = "import sys, gpiverify.cli; sys.exit('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_stdout_report(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gpiverify.cli", "params", "show", "--m2", "1", "--m3", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["schema"] == 1
