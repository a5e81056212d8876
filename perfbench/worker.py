"""One pass of a benchmark workload, run in a fresh process by ``run.py``.

Usage: ``python worker.py '<json config>'`` with ``src`` on ``PYTHONPATH``.
The config names the workload, the seed, the mode (``setup`` stops after
set-up, ``pass`` also runs the timed phase), whether to trace, and the
CLOCK_MONOTONIC time at which the parent spawned this process.  The last
line on standard output is one JSON object with the pass's measurements.

The library is driven only through ``groupoidreps.cli.main(argv)`` and the
public functions of ``algebra``, ``wreath`` and ``simples``.  Every report and
every ``library`` answer is checked after the timed phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from math import factorial
from pathlib import Path
from typing import NamedTuple

# Every layer module is imported here: set-up ends when this import ends.
from groupoidreps import (  # noqa: F401
    algebra, cli, cyclo, gelfand, gkd, groupoid, perms, reporting, rook, schurweyl, simples,
    tableaux, wreath,
)
from groupoidreps.algebra import AlgElem
from groupoidreps.cyclo import Cyc, root_of_unity
from groupoidreps.wreath import enum_group, wreath_identity, wreath_mul
from tracer import Tracer, cache_hit_ratios

# The default `all` grid, fixed here so that the workloads stay the same
# inputs when the CLI's own grids or task registry change.
ISO_GRID = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]
SIMPLES_GRID = ISO_GRID + [(2, 4)]
BRANCHING_GRID = [(2, 2), (2, 3), (3, 2)]
GELFAND_GRID = [(ell, d) for ell in (1, 2, 3, 4) for d in range(0, 5) if ell**d * factorial(d) <= 10**4]
GKD_GRID = [
    (ell, k, d)
    for (ell, dmax) in ((1, 3), (2, 3), (3, 3), (4, 2))
    for d in range(1, dmax + 1)
    for k in range(1, ell + 1)
    if ell % k == 0
]
TENSOR_GRID = [(1, "2", 2), (1, "2", 3), (2, "1,1", 2), (2, "1,1", 3), (2, "2,1", 2), (2, "2,2", 2)]
ROOK_GRID = [1, 2, 3, 4]
SHIFT_DUALITY_GRID = [(2, 2, 1, 1), (2, 2, 2, 2), (4, 2, 1, 2)]

LIBRARY_SIZES = [(3, 3), (4, 2), (5, 2)]


def _ld(ell: int, d: int) -> list[str]:
    return ["--ell", str(ell), "--d", str(d)]


def grid_calls(workload: str) -> list[list[str]]:
    """The CLI invocations of a grid workload, in the order `all` runs them."""
    if workload == "iso":
        return [["verify-iso", *_ld(ell, d)] for ell, d in ISO_GRID + [(2, 4)]]
    if workload == "reps":
        return (
            [["simples", *_ld(ell, d)] for ell, d in SIMPLES_GRID]
            + [["branching", *_ld(ell, d)] for ell, d in BRANCHING_GRID]
            + [["gelfand", *_ld(ell, d)] for ell, d in GELFAND_GRID]
            + [["gkd", *_ld(ell, d), "--k", str(k)] for ell, k, d in GKD_GRID]
        )
    if workload == "duality":
        return (
            [["schur-weyl", *_ld(ell, d), "--kvec", kvec] for ell, kvec, d in TENSOR_GRID]
            + [["rook-check", "--d", str(d)] for d in ROOK_GRID]
            + [
                ["schur-weyl", "--shift-duality", *_ld(ell, d), "--kk", str(k), "--m", str(m)]
                for ell, k, m, d in SHIFT_DUALITY_GRID
            ]
        )
    raise ValueError(f"unknown grid workload {workload!r}")


# ---------------------------------------------------------------------------
# grid workloads: cli.main calls
# ---------------------------------------------------------------------------


def call_cli(argv: list[str]) -> tuple[int | None, str]:
    """(exit code, captured JSON report); the code is None if main raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main([*argv, "--out", "json"])
    except Exception as exc:  # a crashing call is a failed operation
        print(f"error: {' '.join(argv)} raised {exc!r}", file=sys.stderr)
        return None, ""
    return rc, buf.getvalue()


def check_call(rc: int | None, text: str) -> tuple[bool, str]:
    """(every check passed with exit code 0, SHA-256 of the check payload)."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return False, ""
    payload = reporting.checks_payload(report)
    ok = rc == 0 and bool(report["checks"]) and all(c.get("status") == "pass" for c in report["checks"])
    return ok, hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# library workload: Phi round trips and characters
# ---------------------------------------------------------------------------


class Query(NamedTuple):
    ell: int
    d: int
    a: dict
    b: dict
    expected: dict


def fill_caches() -> None:
    for ell, d in LIBRARY_SIZES:
        enum_group(ell, d)
        simples.all_simples(ell, d)
        simples.conjugacy_classes(ell, d)


def convolve(a: dict, b: dict) -> dict:
    """The product a*b in C[S(l,d)], computed with wreath_mul alone."""
    out: dict = {}
    for x, c in a.items():
        for y, e in b.items():
            z = wreath_mul(x, y)
            out[z] = out[z] + c * e if z in out else c * e
    return {z: c for z, c in out.items() if not c.is_zero()}


def library_queries(seed: int, count: int, expect=convolve) -> list[Query]:
    """`count` queries cycling through LIBRARY_SIZES, drawn from `seed`.

    a has two terms on different permutations and b two terms on one
    permutation, so a*b always has four terms on two permutations.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        ell, d = LIBRARY_SIZES[i % len(LIBRARY_SIZES)]
        group = enum_group(ell, d)

        def coeff():
            return root_of_unity(ell, rng.randrange(ell)).scale(rng.randint(1, 3))

        x1 = rng.choice(group)
        x2 = rng.choice([g for g in group if g.perm != x1.perm])
        y1 = rng.choice(group)
        y2 = rng.choice([g for g in group if g.perm == y1.perm and g != y1])
        a, b = {x1: coeff(), x2: coeff()}, {y1: coeff(), y2: coeff()}
        out.append(Query(ell, d, a, b, expect(a, b)))
    return out


# The timed calls go through the module attributes, which the tracer patches.


def _phi_of(ell: int, d: int, a: dict) -> AlgElem:
    out = AlgElem.zero(ell, d)
    for x, c in a.items():
        out = out + algebra.phi(x).scale(c)
    return out


def run_query(q: Query):
    """Phi(a)*Phi(b), recovered with phi_inverse; every simple character at one element."""
    got = algebra.phi_inverse(_phi_of(q.ell, q.d, q.a) * _phi_of(q.ell, q.d, q.b))
    x = got[0][0] if got else wreath_identity(q.ell, q.d)
    chars = [(m.total_dim, m.char_wreath(x)) for m in simples.all_simples(q.ell, q.d)]
    return got, x, chars


def check_query(q: Query, answer) -> tuple[bool, str]:
    """The round trip equals the convolution and sum_chi chi(1) chi(x) = |G| [x = 1]."""
    got, x, chars = answer
    regular = Cyc.zero(q.ell)
    for dim, value in chars:
        regular = regular + value.scale(dim)
    order = q.ell**q.d * factorial(q.d)
    expected_regular = Cyc.rational(q.ell, order if x == wreath_identity(q.ell, q.d) else 0)
    ok = dict(got) == q.expected and regular == expected_regular
    text = json.dumps([[z.to_json(), c.to_json()] for z, c in got], sort_keys=True)
    return ok, hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def workload_ops(workload: str, seed: int, queries: int):
    """(operations, run one, check one answer) for a workload."""
    if workload == "library":
        return library_queries(seed, queries), run_query, check_query
    return grid_calls(workload), call_cli, lambda _argv, answer: check_call(*answer)


def timed_phase(ops: list, run_op, tracer: Tracer | None = None) -> tuple[list, list[float], float]:
    """(answers, latency of each operation in ms, wall seconds), one after another."""
    answers, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        if tracer is not None:
            tracer.begin_request()
        t0 = clock()
        answers.append(run_op(op))
        latencies.append((clock() - t0) * 1000.0)
    return answers, latencies, clock() - start


def check_answers(ops: list, answers: list, check_op) -> tuple[int, str]:
    """(number of failed operations, SHA-256 over the answers' digests)."""
    failed, digests = 0, []
    for op, answer in zip(ops, answers):
        ok, digest = check_op(op, answer)
        failed += not ok
        digests.append(digest)
    return failed, hashlib.sha256("\n".join(digests).encode()).hexdigest()


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    workload = cfg["workload"]
    if workload == "library":
        fill_caches()
    result: dict = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - cfg["spawn_t"]}
    if cfg["mode"] == "pass":
        ops, run_op, check_op = workload_ops(workload, cfg["seed"], cfg["queries"])
        tracer = Tracer() if cfg["trace"] else None
        if tracer is not None:
            tracer.install()
        try:
            answers, latencies, wall = timed_phase(ops, run_op, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failed, digest = check_answers(ops, answers, check_op)
        result.update(wall_s=wall, latencies_ms=latencies, attempted=len(ops), failed=failed, digest=digest)
        if tracer is not None:
            result["layers"] = {**tracer.layer_metrics(wall), **cache_hit_ratios()}
            Path(cfg["spans_path"]).write_text(json.dumps(tracer.span_records()))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
