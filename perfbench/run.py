"""Benchmark of the groupoid-reps verification library.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload iso|reps|duality|library|all \\
        --seed N --seconds S --trace 0|1

Closed loop, one client.  A run is a sequence of passes; each pass is one
fresh child process (``worker.py``) that sets up and then makes the
workload's calls one after another, so every pass pays for cold caches as a
CLI user does.  Passes repeat while at least half of the next one is
expected to fit in ``--seconds``; at least one pass runs.

``--trace 0`` reports the end-to-end metrics, medians over the passes:

* ``wall_s``: the timed phase of a pass (all CLI calls, or all ``library``
  queries);
* ``setup_s``: child spawn until every layer module is imported (for
  ``library`` also the cache fill), median over at least SETUP_SAMPLES
  children;
* ``peak_rss_mb``: ``ru_maxrss`` of the child.

The summary lines before the result also give ``fail_ratio``, the payload
digest and the median latency of one operation (a ``cli.main`` call, or a
``library`` query) pooled over the passes.

``--trace 1`` alternates untraced and traced passes in the same way and
reports the per-layer metrics of ``tracer.py`` from the traced pass of median
wall time, plus ``trace.overhead`` (median traced over median untraced
``wall_s``).  The spans of the last traced pass go to
``.perfbench/spans-<workload>.json``.

Every answer is checked; the last line on standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

WORKLOADS = ("iso", "reps", "duality", "library")
LIBRARY_QUERIES = 9  # queries per library pass, three per size
SETUP_SAMPLES = 9
MAX_PASSES = 15
DEADLINE_S = 170.0  # a run never starts work it cannot finish within this


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one child to completion and return its result line."""
    # A fixed hash seed makes every pass iterate its sets and dicts alike.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cfg = dict(cfg, spawn_t=_now())
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - _now()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "groupoidreps").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def digest_agrees(workload: str, digest: str) -> bool:
    """Record the payload digest of this code; False if an earlier run disagrees."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{code_fingerprint()}:{workload}"
    if known.setdefault(key, digest) != digest:
        return False
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return True


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the passes of one workload; returns the result object plus a summary."""
    deadline = _now() + DEADLINE_S
    base = {"workload": workload, "seed": seed, "queries": LIBRARY_QUERIES, "trace": False}
    STATE.mkdir(exist_ok=True)
    spawn(dict(base, mode="setup"), deadline)  # fills bytecode caches; not counted
    spans_path = str(STATE / f"spans-{workload}.json")
    plain, traced, durations = [], [], []
    start = _now()
    while len(plain) < MAX_PASSES:
        t0 = _now()
        plain.append(spawn(dict(base, mode="pass"), deadline))
        if trace:
            traced.append(spawn(dict(base, mode="pass", trace=True, spans_path=spans_path), deadline))
        durations.append(_now() - t0)
        # Start another pass only if at least half of it fits in `seconds`.
        typical = statistics.median(durations)
        if _now() + typical / 2 - start > seconds or _now() + typical > deadline:
            break
    passes = plain + traced
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES and _now() < deadline:
        setups.append(spawn(dict(base, mode="setup"), deadline)["setup_s"])

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    digest = digests.pop() if len(digests) == 1 else None
    consistent = digest is not None and (workload == "library" or digest_agrees(workload, digest))
    if trace:
        median_pass = sorted(traced, key=lambda p: p["wall_s"])[len(traced) // 2]
        metrics = dict(median_pass["layers"])
        metrics["trace.overhead"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in plain))
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
    return {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": len(passes),
        "op_p50_ms": statistics.median(ms for p in plain for ms in p["latencies_ms"]),
        "digest": digest or "differs between passes",
    }


def summary_lines(workload: str, res: dict, units: dict) -> list[str]:
    lines = [
        f"# {workload}: {res['passes']} pass(es), {res['attempted']} operations, "
        f"fail_ratio {res['failed'] / res['attempted']:.4g}, op_p50_ms {res['op_p50_ms']:.4g}, "
        f"payload sha256 {res['digest']}"
    ]
    lines += [f"  {name:42} {value:.6g} {units[name]}" for name, value in res["metrics"].items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groupoidreps" / "cli.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(summary_lines(name, results[name], units)), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, value in res["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
