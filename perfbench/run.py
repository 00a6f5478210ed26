"""Benchmark of the gpiverify command-line tool.

Usage (from the root of a gpiverify checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): paper-suite, interval-scan.
Every invocation is a real CLI subprocess in a fresh interpreter
(``python3 -m gpiverify.cli`` with ``src`` on PYTHONPATH), run one after the
other by a single waiting client (closed loop).  Every outcome is checked
against its known verdicts and every report against the bytes of the same argv
in other passes.

--trace 0 measures end-to-end metrics.  One pass runs every invocation of the
workload once.  A first, untimed pass warms the file cache and the bytecode
cache and checks the verdict oracle; timed passes then repeat until at least
two have run and S seconds have passed since the warm-up began, and each metric
is the median over the timed passes:

    wall_s       summed wall time of the invocations of one pass
    cpu_s        their user + sys CPU time, pool workers included
    peak_rss_mb  the largest max-RSS of any of their processes
    setup_s      median of 7 fresh-interpreter ``import gpiverify.cli`` runs

--trace 1 makes one untraced pass and one traced pass (traced_cli.py; plus a
--jobs 1 pass for interval-scan, which attributes the per-point layers while
the --jobs 2 pass gives the pool boundary) and reports per-layer metrics:
self times and exact counts per module, the import breakdown from
``-X importtime``, and the tracing overhead.

The last line of stdout is the result as JSON; a table with units, sample
counts and the fail ratio goes to stderr.  Exits 2 without a result when the
checkout has no gpiverify sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads
from workloads import Invocation, Workload

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# per-layer metrics: "<span>_s" is the span's summed self time, "<span>_calls"
# its number of spans; the other names are counters (see traced_cli.py)
SELF_TIMES = (
    "cli.run", "cli.pool", "report.render",
    "polyring.eval", "polyring.mul", "polyring.substitute", "polyring.from_json",
    "exactnum.sqrt_enclosure", "exactnum.interval",
    "inequality.scan_point", "inequality.G_value", "inequality.S_poly",
    "inequality.g_poly", "inequality.h_poly",
    "gausshyp.hyp_poly",
    "moments.wick", "moments.closed_form", "moments.mc",
    "soscert.verify", "soscert.nonneg", "bundled.load",
)
CALLS = ("polyring.eval", "polyring.mul", "exactnum.sqrt_enclosure", "gausshyp.hyp_poly",
         "moments.wick")
COUNTERS = {
    "cli.pool_tasks": "count", "cli.pool_bytes": "B", "report.bytes": "B",
    "polyring.eval_terms": "count", "polyring.max_coeff_bits": "bit",
    "inequality.scan_points": "count", "inequality.indeterminate_points": "count",
    "bundled.bytes_read": "B",
}
# taken from the --jobs 2 pass of a pooled workload; the rest from the --jobs 1 pass
POOL_METRICS = {"cli.pool_s", "cli.pool_tasks", "cli.pool_bytes"}


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    spans: dict | None = None  # traced invocations: spans and counters


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)

    @property
    def rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


@dataclass
class Spawned:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    rss_mb: float


class Bench:
    def __init__(self, root: Path, deadline: float) -> None:
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.work = root / ".perfbench_work"
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def spawn(self, args: list[str]) -> Spawned:
        """Run ``python3 ARGS`` to completion; wall time, and CPU and max-RSS of
        the process and of every child it waited for, from wait4."""
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Spawned(proc.returncode, out, err[0], wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> list[float]:
        """Fresh-interpreter imports of gpiverify.cli: one warm-up that checks
        the package comes from this checkout, then SETUP_REPEATS timed ones."""
        probe = "import gpiverify.cli, gpiverify; print(gpiverify.__file__)"
        first = self.spawn(["-c", probe])
        where = Path(first.stdout.decode().strip()).resolve()
        if first.code != 0 or self.root / "src" not in where.parents:
            raise SystemExit(f"perfbench: gpiverify does not import from {self.root / 'src'}: "
                             f"{first.stderr.decode()[-400:]}")
        times = []
        for _ in range(SETUP_REPEATS):
            got = self.spawn(["-c", "import gpiverify.cli"])
            if got.code != 0:
                raise SystemExit("perfbench: import gpiverify.cli failed")
            times.append(got.wall)
        return times

    # -- invocations ----------------------------------------------------

    def invoke(self, inv: Invocation, traced: bool, selfcheck: bool) -> Outcome:
        self.attempted += 1
        spans = None
        if traced:
            self.work.mkdir(exist_ok=True)
            spans_path = self.work / f"spans-{os.getpid()}.json"
            got = self.spawn([str(HERE / "traced_cli.py"), str(spans_path), *inv.argv])
            try:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
            except (OSError, ValueError):
                spans = None
        else:
            got = self.spawn(["-m", "gpiverify.cli", *inv.argv])
        problems = oracle.check(inv, got.code, got.stdout, got.stderr)
        if traced and spans is None:
            problems.append("traced run wrote no spans")
        digest = hashlib.sha256(got.stdout).hexdigest()
        if self.digests.setdefault(inv.argv, digest) != digest:
            problems.append("report bytes differ from an earlier run of the same argv")
        if selfcheck and not problems and not oracle.check_report(inv, oracle.flipped(inv, got.stdout)):
            problems.append("verdict oracle accepted a report with a flipped verdict")
        if problems:
            self.failed += 1
            self.notes.append(f"{' '.join(inv.argv)}: {'; '.join(problems)}")
        return Outcome(got.wall, got.cpu, got.rss_mb, spans)

    def run_pass(self, wl: Workload, traced: bool = False, selfcheck: bool = False) -> Pass:
        done = Pass()
        for inv in wl.invocations:
            if time.monotonic() > self.deadline:
                raise SystemExit("perfbench: run deadline passed")
            done.outcomes.append(self.invoke(inv, traced, selfcheck))
        return done

    def import_breakdown(self) -> tuple[float, float]:
        """(gpiverify import, numpy import) cumulative seconds from
        ``-X importtime``, medians over fresh interpreters."""
        totals, numpys = [], []
        for _ in range(IMPORTTIME_REPEATS):
            got = self.spawn(["-X", "importtime", "-c", "import gpiverify.cli"])
            total = numpy = 0
            for line in got.stderr.decode().splitlines():
                parts = line.split("|")
                if len(parts) != 3 or not line.startswith("import time:"):
                    continue
                try:
                    cumulative = int(parts[1])
                except ValueError:  # the header line
                    continue
                raw = parts[2]
                name = raw.strip()
                top_level = len(raw) - len(raw.lstrip()) == 1
                if top_level and (name == "gpiverify" or name.startswith("gpiverify.")):
                    total += cumulative
                if name == "numpy" and not numpy:
                    numpy = cumulative
            totals.append(total / 1e6)
            numpys.append(numpy / 1e6)
        return statistics.median(totals), statistics.median(numpys)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(bench: Bench, wl: Workload, seconds: float) -> tuple[dict, dict, dict]:
    setup = bench.setup()
    start = time.monotonic()
    bench.run_pass(wl, selfcheck=True)
    passes: list[Pass] = []
    while len(passes) < 2 or time.monotonic() - start < seconds:
        passes.append(bench.run_pass(wl))
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "setup_s": statistics.median(setup),
    }
    samples = {"wall_s": len(passes), "cpu_s": len(passes), "peak_rss_mb": len(passes),
               "setup_s": len(setup)}
    runs = {"pass_wall_s": [p.wall for p in passes], "pass_cpu_s": [p.cpu for p in passes],
            "setup_runs_s": setup}
    return values, samples, runs


def layer_times(done: Pass) -> tuple[dict, dict, dict, float, list[str]]:
    """Self time and span count per span name, counters, and the wall time not
    covered by any span, summed over a traced pass; plus consistency problems."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    remainder = 0.0
    problems = []
    for outcome in done.outcomes:
        spans = outcome.spans["spans"]
        child = [0.0] * len(spans)
        root = 0.0
        for name, start, end, parent in spans:
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                if not p_start <= start <= end <= p_end:
                    problems.append(f"span {name} lies outside its parent")
                child[parent] += end - start
            else:
                root += end - start
        for (name, start, end, _), covered in zip(spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            calls[name] = calls.get(name, 0) + 1
        for key, value in outcome.spans["counters"].items():
            if key == "polyring.max_coeff_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        remainder += outcome.wall - root
        if outcome.wall < root:
            problems.append("spans cover more than the invocation's wall time")
    total = sum(self_s.values()) + remainder
    if abs(total - done.wall) > 1e-6 * max(1.0, done.wall):
        problems.append(f"layer self times + remainder = {total:.6f} s, traced wall = {done.wall:.6f} s")
    return self_s, calls, counters, remainder, problems


def layer_metrics(self_s: dict, calls: dict, counters: dict) -> dict[str, tuple[float, str]]:
    out = {f"{name}_s": (self_s.get(name, 0.0), "s") for name in SELF_TIMES}
    out.update({f"{name}_calls": (calls.get(name, 0), "count") for name in CALLS})
    out.update({key: (counters.get(key, 0), unit) for key, unit in COUNTERS.items()})
    evals = counters.get("inequality.enclosure_evals", 0)
    out["inequality.refine_yield"] = (counters.get("inequality.decided", 0) / evals if evals else 0.0, "1")
    lookups = counters.get("gausshyp.hyp_poly_hits", 0) + counters.get("gausshyp.hyp_poly_misses", 0)
    out["gausshyp.hyp_poly_hit_ratio"] = (
        counters.get("gausshyp.hyp_poly_hits", 0) / lookups if lookups else 0.0, "1")
    return out


def serial(wl: Workload) -> Workload:
    """The workload with --jobs removed, so every layer runs in the traced process."""
    def drop_jobs(argv):
        out = list(argv)
        i = out.index("--jobs")
        del out[i:i + 2]
        return tuple(out)

    return Workload(wl.name + ":jobs1",
                    tuple(Invocation(drop_jobs(i.argv), i.statuses, i.grid) for i in wl.invocations))


def per_layer(bench: Bench, wl: Workload) -> tuple[dict, dict, list[str]]:
    bench.setup()
    untraced = bench.run_pass(wl, selfcheck=True)
    primary = bench.run_pass(wl, traced=True)
    self_s, calls, counters, remainder, problems = layer_times(primary)
    values = layer_metrics(self_s, calls, counters)
    if wl.pooled:
        attribution = bench.run_pass(serial(wl), traced=True)
        s2, c2, k2, _, p2 = layer_times(attribution)
        problems += p2
        values.update({k: v for k, v in layer_metrics(s2, c2, k2).items() if k not in POOL_METRICS})
    import_s, numpy_s = bench.import_breakdown()
    values["cli.import_s"] = (import_s, "s")
    values["cli.import_numpy_s"] = (numpy_s, "s")
    values["trace.wall_s"] = (primary.wall, "s")
    values["trace.overhead_s"] = (primary.wall - untraced.wall, "s")
    values["trace.remainder_s"] = (remainder, "s")
    return values, {"untraced_wall_s": untraced.wall}, problems


# ----------------------------------------------------------------------
# environment record and output
# ----------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    cpu = None
    try:
        match = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = match.group(1).strip() if match else None
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(root)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "gpiverify" / "cli.py").is_file():
        print(f"perfbench: no gpiverify sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    bench = Bench(root, time.monotonic() + RUN_DEADLINE_S)
    try:
        if args.trace:
            values, extra, problems = per_layer(bench, wl)
            samples = {}
        else:
            raw, samples, extra = end_to_end(bench, wl, args.seconds)
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in raw.items()}
            problems = []
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    for note in bench.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: TRACE INCONSISTENT {problem}", file=sys.stderr)
    print(f"perfbench: {wl.name} seed={args.seed} trace={args.trace}", file=sys.stderr)
    for name, (value, unit) in values.items():
        n = f"  (median of {samples[name]})" if name in samples else ""
        print(f"  {name:36s} {value:14.6f} {unit}{n}", file=sys.stderr)
    fail_ratio = bench.failed / max(bench.attempted, 1)
    print(f"  {'fail_ratio':36s} {fail_ratio:14.6f} 1  ({bench.failed}/{bench.attempted})",
          file=sys.stderr)
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "argv": [list(i.argv) for i in wl.invocations],
                      "env": environment(root), "samples": samples, **extra}))
    print(json.dumps({
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
