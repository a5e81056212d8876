"""Check records, and report assembly and emission shared by the CLI subcommands.

Every check record is built here, by `record` or `skip`: a dict with a name,
a status of pass, fail or skip, and details when there are any.  `record`
takes the check's answer as a bool, so nothing passes on a truthy non-answer;
`skip` marks a case the check does not cover and gives the reason in its
details, which the text report prints on the check's line.  A report
carries its checks separately from timings so that the check payload is
byte-identical across runs with identical flags; a report with any failing
check maps to a nonzero exit code.
"""

from __future__ import annotations

import json

SCHEMA = "groupoid-reps/2"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def record(name: str, ok: bool, details=None) -> dict:
    """The check `name`: pass when ok, else fail; details only when given."""
    if not isinstance(ok, bool):
        raise TypeError(f"check {name!r}: ok must be a bool, got {type(ok).__name__}")
    check = {"name": name, "status": "pass" if ok else "fail"}
    if details is not None:
        check["details"] = details
    return check


def skip(name: str, reason: str) -> dict:
    """The check `name` skipped, with the reason it does not apply."""
    if not reason:
        raise ValueError(f"check {name!r}: a skip needs a reason")
    return {"name": name, "status": "skip", "details": {"reason": reason}}


def make_report(command: str, parameters: dict, checks: list[dict], timings: dict | None = None) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "parameters": parameters,
        "checks": checks,
        "timings": timings or {},
    }


def all_ok(checks: list[dict]) -> bool:
    """No check failed; a skipped check does not count as a failure."""
    return all(c["status"] != "fail" for c in checks)


def suite_result(checks: list[dict], **fields) -> dict:
    """What a suite returns: its fields, its checks, and ok when no check failed."""
    return {**fields, "checks": checks, "ok": all_ok(checks)}


def report_ok(report: dict) -> bool:
    return all_ok(report["checks"])


def checks_payload(report: dict) -> str:
    """The deterministic part of a report (everything except timings)."""
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":"))


def emit(report: dict, out: str) -> None:
    if out == "json":
        print(json.dumps(report, sort_keys=True))
        return
    print(f"# {report['command']} {report['parameters']}")
    for c in report["checks"]:
        line = f"[{c['status'].upper():4}] {c['name']}"
        if c["status"] == "skip":
            line += f" ({c['details']['reason']})"
        print(line)
    counts = {s: sum(1 for c in report["checks"] if c["status"] == s) for s in ("pass", "skip", "fail")}
    print(f"-- {len(report['checks'])} checks: {counts['pass']} passed, {counts['skip']} skipped, {counts['fail']} failed")


def exit_code(report: dict) -> int:
    return EXIT_OK if report_ok(report) else EXIT_CHECK_FAILED
