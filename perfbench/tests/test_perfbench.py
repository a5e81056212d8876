"""Tests of the benchmark itself: names, tracer hygiene, smoke passes, checks.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import tracer
import worker
from groupoidreps.cyclo import Cyc

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMOKE_CALLS = {
    "iso": [["verify-iso", "--ell", "1", "--d", "2"], ["verify-iso", "--ell", "2", "--d", "2"]],
    "reps": [
        ["simples", "--ell", "2", "--d", "2"],
        ["branching", "--ell", "2", "--d", "2"],
        ["gelfand", "--ell", "2", "--d", "2"],
        ["gkd", "--ell", "2", "--d", "2", "--k", "2"],
    ],
    "duality": [
        ["schur-weyl", "--ell", "2", "--d", "2", "--kvec", "1,1"],
        ["rook-check", "--d", "2"],
        ["schur-weyl", "--shift-duality", "--ell", "2", "--d", "1", "--kk", "2", "--m", "1"],
    ],
}


def _pass(workload, ops, trace=None):
    """(failed, digest, wall_s) of the given operations, run as a pass of `workload` runs them."""
    _ops, run_op, check_op = worker.workload_ops(workload, seed=0, queries=0)
    answers, _latencies, wall = worker.timed_phase(ops, run_op, trace)
    failed, digest = worker.check_answers(ops, answers, check_op)
    return failed, digest, wall


def _bindings():
    """Identity of every attribute of every library module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("groupoidreps"):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = id(member)
    return out


def test_benchmark_json_names_match_the_emitted_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == tracer.layer_metric_names()
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"]] + per_layer
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]


def test_traced_smoke_pass_emits_every_layer_metric():
    t = tracer.Tracer()
    t.install()
    try:
        failed, _digest, wall = _pass("duality", SMOKE_CALLS["duality"], t)
    finally:
        t.uninstall()
    assert failed == 0
    emitted = {**t.layer_metrics(wall), **tracer.cache_hit_ratios(), "trace.overhead": 1.0}
    assert sorted(emitted) == sorted(tracer.layer_metric_names())
    assert all(NAME.fullmatch(n) for n in emitted)
    assert emitted["cli.main.self_s"] > 0 and emitted["cyclo.cyc_mul.calls"] > 0
    assert t.spans and all(s["end"] >= s["start"] for s in t.span_records())


def test_tracer_patches_every_binding_and_restores_them():
    from groupoidreps import algebra, cyclo, gkd, perms, simples

    before = _bindings()
    originals = (cyclo.Cyc.__mul__, gkd.phi, simples.wreath_mul, simples.canonical_morphism,
                 perms.compose_perms, gkd.LinSolver.__init__)
    t = tracer.Tracer()
    t.install()
    try:
        assert cyclo.Cyc.__mul__ is not originals[0]
        assert gkd.phi is algebra.phi is not originals[1]
        assert simples.wreath_mul is not originals[2]
        assert simples.canonical_morphism is not originals[3]
        assert perms.compose_perms is not originals[4]
        assert gkd.LinSolver.__init__ is not originals[5]
        _pass("iso", SMOKE_CALLS["iso"][:1], t)
    finally:
        t.uninstall()
    assert _bindings() == before
    assert (cyclo.Cyc.__mul__, gkd.phi, simples.wreath_mul, simples.canonical_morphism,
            perms.compose_perms, gkd.LinSolver.__init__) == originals


def test_grid_smoke_passes_have_no_failures():
    for workload, calls in SMOKE_CALLS.items():
        assert all(call in worker.grid_calls(workload) for call in calls)
        failed, digest, _wall = _pass(workload, calls)
        assert failed == 0, workload
        assert _pass(workload, calls)[1] == digest


def test_library_smoke_pass_has_no_failures():
    queries = worker.library_queries(seed=7, count=3)
    assert [(q.ell, q.d) for q in queries] == worker.LIBRARY_SIZES
    assert all(len(q.expected) == 4 for q in queries)
    assert worker.library_queries(seed=7, count=3) == queries
    assert _pass("library", queries)[0] == 0


def test_wrong_expected_convolution_is_a_failure():
    def wrong(a, b):
        out = worker.convolve(a, b)
        first = next(iter(out))
        out[first] = out[first] + Cyc.one(first.ell)
        return out

    queries = worker.library_queries(seed=7, count=3, expect=wrong)
    assert _pass("library", queries)[0] == 3


def test_failing_check_or_exit_code_is_a_failure():
    report = {"schema": "s", "command": "c", "parameters": {}, "timings": {},
              "checks": [{"name": "a", "status": "pass"}, {"name": "b", "status": "fail"}]}
    assert not worker.check_call(0, json.dumps(report))[0]
    report["checks"][1]["status"] = "pass"
    assert worker.check_call(0, json.dumps(report))[0]
    assert not worker.check_call(1, json.dumps(report))[0]
    assert not worker.check_call(None, "")[0]


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iso", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
