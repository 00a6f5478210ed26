"""Verdict oracle: checks one CLI invocation against its known answer.

Only verdict fields are read (exit code, summary, per-check statuses, per-point
verdicts and their counts), so report fields added later for observability do
not count as failures.  Determinism is checked separately, on the exact report
bytes of repeated runs of the same argv.
"""

from __future__ import annotations

import json

from workloads import Invocation

PASS = frozenset({"holds", "verified"})
FAIL = frozenset({"fails", "residual_nonzero", "coefficient_negative"})


def expected_summary(inv: Invocation) -> dict:
    return {
        "pass": sum(s in PASS for s in inv.statuses),
        "fail": sum(s in FAIL for s in inv.statuses),
        "indeterminate": sum(s == "indeterminate" for s in inv.statuses),
    }


def expected_exit(inv: Invocation) -> int:
    summary = expected_summary(inv)
    if summary["fail"]:
        return 1
    return 2 if summary["indeterminate"] else 0


def check(inv: Invocation, code: int, stdout: bytes, stderr: bytes) -> list[str]:
    """Reasons the invocation's outcome is wrong; empty when it is right."""
    problems = []
    if b"Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if code != expected_exit(inv):
        problems.append(f"exit code {code}, expected {expected_exit(inv)}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["report is not JSON"]
    return problems + check_report(inv, report)


def check_report(inv: Invocation, report: dict) -> list[str]:
    problems = []
    summary = report.get("summary", {})
    want = expected_summary(inv)
    got = {k: summary.get(k) for k in want}
    if got != want:
        problems.append(f"summary {got}, expected {want}")
    checks = report.get("checks", [])
    statuses = tuple(c.get("status") for c in checks)
    if statuses != inv.statuses:
        problems.append(f"statuses {statuses}, expected {inv.statuses}")
    if inv.grid is not None:
        meta = checks[0].get("metadata", {}) if checks else {}
        want_counts = {"holds": inv.grid, "fails": 0, "indeterminate": 0}
        counts = meta.get("counts", {})
        if {k: counts.get(k) for k in want_counts} != want_counts:
            problems.append(f"point counts {counts}, expected {want_counts}")
        tally = dict.fromkeys(want_counts, 0)
        for point in meta.get("points", []):
            verdict = point.get("verdict")
            tally[verdict] = tally.get(verdict, 0) + 1
        if tally != want_counts:
            problems.append(f"point verdicts {tally}, expected {want_counts}")
    return problems


def flipped(inv: Invocation, stdout: bytes) -> dict:
    """The report with one verdict flipped: a scan's first point, otherwise the
    first check's status.  The oracle must reject it."""
    report = json.loads(stdout)
    first = report["checks"][0]
    if inv.grid is not None:
        point = first["metadata"]["points"][0]
        point["verdict"] = "fails" if point["verdict"] == "holds" else "holds"
    else:
        first["status"] = "fails" if first["status"] in PASS else "holds"
    return report
