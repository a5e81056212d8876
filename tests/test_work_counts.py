"""Work counts per layer as a deterministic guard.

`all --max-ell 3 --max-d 3` runs under perfbench's Tracer in a fresh
process, so no lru cache filled by another test moves a count.  Every
nonzero `.calls` metric is pinned, plus the rows that reach
`SpanBasis._insert`, which the tracer does not wrap.  A change that alters
the work of a layer updates these pins and lists old -> new per layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
import tracer
from groupoidreps import cli
from groupoidreps.cyclo import SpanBasis

inserted = [0]
real = SpanBasis._insert

def counted(self, v, width):
    inserted[0] += 1
    return real(self, v, width)

SpanBasis._insert = counted
t = tracer.Tracer()
t.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["all", "--max-ell", "3", "--max-d", "3", "--out", "json"])
t.uninstall()
counts = {k: v for k, v in t.layer_metrics(1.0).items() if k.endswith(".calls") and v}
counts["cyclo.spanbasis_insert.rows"] = inserted[0]
print(json.dumps({"code": code, "counts": counts}))
"""

PINNED_COUNTS = {
    "cyclo.cyc_mul.calls": 4208,
    "cyclo.cyc_addsub.calls": 5315,
    "cyclo.cyc_scale.calls": 2624,
    "cyclo.cyc_inverse.calls": 47,
    "cyclo.spanbasis_add.calls": 588,
    "algebra.phi.calls": 8,
    "algebra.verify_iso.calls": 8,
    "wreath.wreath_mul.calls": 637,
    "wreath.enum_group.calls": 23,
    "perms.compose_perms.calls": 3515,
    "groupoid.canonical_morphism.calls": 485,
    "groupoid.hom.calls": 3764,
    "tableaux.specht_build.calls": 7,
    "tableaux.outer_matrix.calls": 1114,
    "simples.action_block.calls": 1721,
    "simples.conjugacy_classes.calls": 29,
    "simples.commutant.calls": 116,
    "simples.verify_complete.calls": 8,
    "simples.branching.calls": 3,
    "gelfand.char_wreath.calls": 60,
    "gelfand.verify.calls": 12,
    "gkd.structure.calls": 15,
    "gkd.span.calls": 15,
    "gkd.quotient_simples.calls": 15,
    "gkd.restriction.calls": 15,
    "gkd.rotation.calls": 15,
    "gkd.conjugacy_classes.calls": 45,
    "schurweyl.commuting.calls": 6,
    "schurweyl.double_centralizer.calls": 6,
    "schurweyl.kernel.calls": 6,
    "schurweyl.shift_duality.calls": 2,
    "rook.epimorphism.calls": 3,
    "reporting.emit.calls": 1,
    "cli.main.calls": 1,
    "cyclo.spanbasis_insert.rows": 856,
}


def test_work_counts_per_layer_are_pinned():
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    assert out["counts"] == PINNED_COUNTS
