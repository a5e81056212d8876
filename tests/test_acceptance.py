"""Acceptance suite: one test per criterion, at the stated tolerances.

Every check is an exact computation (no floats, no tolerances other than
exact equality); each criterion also carries a wall-clock budget from the
project contract, asserted here.  One PASS/FAIL line is printed per
criterion (run with `pytest -s` to see them live).
"""

import json
import subprocess
import sys
import time
from math import factorial

GRID_LD = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]
GKD_GRID = (
    [(2, k, d) for d in (1, 2, 3) for k in (1, 2)]
    + [(3, k, d) for d in (1, 2) for k in (1, 3)]
    + [(4, k, d) for d in (1, 2) for k in (1, 2, 4)]
)
TENSOR_GRID = [
    (1, (2,), 2),
    (1, (2,), 3),
    (2, (1, 1), 2),
    (2, (1, 1), 3),
    (2, (2, 1), 2),
    (2, (2, 2), 2),
]


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name} ({elapsed:.1f}s / budget {budget}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_groupoid_cardinalities():
    from groupoidreps.groupoid import hom, objects, type_of

    t0 = time.perf_counter()
    ok = True
    for ell in (1, 2, 3, 4):
        for d in (0, 1, 2, 3):
            if ell**d * factorial(d) > 10**5:
                continue
            objs = objects(ell, d)
            total = 0
            for f in objs:
                lam = type_of(f, ell)
                lam_fact = 1
                for li in lam:
                    lam_fact *= factorial(li)
                for g in objs:
                    hs = len(hom(f, g, ell))
                    total += hs
                    expected = lam_fact if type_of(g, ell) == lam else 0
                    ok = ok and hs == expected
            ok = ok and total == ell**d * factorial(d)
    # the two-color, two-dot groupoid: four objects, the exact hom table
    objs = objects(2, 2)
    ok = ok and len(objs) == 4
    table = {
        ((1, 1), (1, 1)): [(1, 2), (2, 1)],
        ((1, 2), (1, 2)): [(1, 2)],
        ((1, 2), (2, 1)): [(2, 1)],
        ((2, 1), (1, 2)): [(2, 1)],
        ((2, 1), (2, 1)): [(1, 2)],
        ((2, 2), (2, 2)): [(1, 2), (2, 1)],
    }
    for f in objs:
        for g in objs:
            perms = [m.perm for m in hom(f, g, 2)]
            ok = ok and perms == table.get((f, g), [])
    _report(1, "groupoid cardinalities and the two-dot hom table", ok, time.perf_counter() - t0, 5)


def test_criterion_2_phi_isomorphism():
    from groupoidreps.algebra import phi, phi_inverse, verify_iso
    from groupoidreps.cyclo import Cyc
    from groupoidreps.wreath import enum_group

    t0 = time.perf_counter()
    ok = True
    for ell, d in GRID_LD:
        rep = verify_iso(ell, d)  # every element times every generator
        ok = ok and rep["ok"]
        ok = ok and rep["checks"][0]["details"]["mode"] == "exhaustive"
        for x in enum_group(ell, d):
            ok = ok and phi_inverse(phi(x)) == [(x, Cyc.one(ell))]
    _report(2, "the group algebra embeds isomorphically", ok, time.perf_counter() - t0, 60)


def test_criterion_3_simple_modules():
    from groupoidreps.groupoid import compose, hom
    from groupoidreps.simples import all_simples, total_dim_check, verify_complete
    from reference import dense, mat_mul

    t0 = time.perf_counter()
    ok = True
    for ell, d in GRID_LD:
        rep = verify_complete(ell, d)
        ok = ok and rep["ok"]
        for mod in all_simples(ell, d):
            ok = ok and total_dim_check(mod)

            def act(q, mod=mod):
                return dense(mod.ell, mod.block_dim, mod.action_block(q))

            for f in mod.objects:
                for g in mod.objects:
                    for m1 in hom(f, g, ell):
                        a1 = act(m1)
                        for h in mod.objects:
                            for m2 in hom(g, h, ell):
                                if act(compose(m2, m1)) != mat_mul(act(m2), a1):
                                    ok = False
    _report(3, "simple modules: dims, commutants, characters", ok, time.perf_counter() - t0, 60)


def test_criterion_4_branching():
    from groupoidreps.simples import branching_report

    t0 = time.perf_counter()
    ok = all(branching_report(ell, d)["ok"] for ell, d in [(2, 2), (2, 3), (3, 2)])
    _report(4, "branching = removable-node rule", ok, time.perf_counter() - t0, 30)


def test_criterion_5_gelfand_model():
    from groupoidreps.gelfand import verify_gelfand

    t0 = time.perf_counter()
    ok = True
    for ell in (1, 2, 3, 4):
        for d in range(0, 6):
            if ell**d * factorial(d) > 10**4:
                continue
            ok = ok and verify_gelfand(ell, d)["ok"]
    _report(5, "involutive Gelfand model multiplicity-free", ok, time.perf_counter() - t0, 30)


def test_criterion_6_gkd():
    from groupoidreps.gkd import (
        restriction_check,
        endo_structure,
        rotation_eigenspace_check,
        quotient_groupoid,
        quotient_structure_report,
        reflection_span_check,
        quotient_simples_check,
    )
    from groupoidreps.groupoid import type_of

    t0 = time.perf_counter()
    ok = True
    # the two-object quotient of the two-color, two-dot groupoid
    Q = quotient_groupoid(2, 2, 2)
    ok = ok and len(Q.orbits) == 2
    infos = {tuple(i["type"]): i for i in (endo_structure(Q, oi) for oi in range(2))}
    ok = ok and infos[(2, 0)]["endo_count"] == 2 and infos[(2, 0)]["stabilizer_order"] == 1
    ok = ok and infos[(1, 1)]["endo_count"] == 2 and infos[(1, 1)]["stabilizer_order"] == 2
    ok = ok and all(len(Q.hom(i, j)) == 0 for i in range(2) for j in range(2) if i != j)
    for ell, k, d in GKD_GRID:
        ok = ok and quotient_structure_report(ell, k, d)["ok"]
        ok = ok and reflection_span_check(ell, k, d)["ok"]
        ok = ok and quotient_simples_check(ell, k, d)["ok"]
        ok = ok and restriction_check(ell, k, d)["ok"]
        ok = ok and rotation_eigenspace_check(ell, k, d)["ok"]
    _report(6, "G(l,k,d): span, simples, restriction, eigenspaces", ok, time.perf_counter() - t0, 90)


def test_criterion_7_schur_weyl():
    from groupoidreps.schurweyl import (
        TensorSpace,
        kernel_check,
        verify_commuting,
        verify_double_centralizer,
    )

    t0 = time.perf_counter()
    ok = True
    for ell, kvec, d in TENSOR_GRID:
        T = TensorSpace(ell, kvec, d)
        ok = ok and verify_commuting(T)["ok"]
        ok = ok and verify_double_centralizer(T)["ok"]
        ok = ok and kernel_check(T)["ok"]
    # faithfulness when all k_i >= d
    ok = ok and kernel_check(TensorSpace(2, (2, 2), 2))["kernel_dim"] == 0
    _report(7, "tensor dualities: commuting, centralizers, kernel", ok, time.perf_counter() - t0, 120)


def test_criterion_8_rook():
    from groupoidreps.rook import rook_epimorphism_check, rook_monoid_order

    t0 = time.perf_counter()
    ok = True
    for d in (1, 2, 3, 4):
        rep = rook_epimorphism_check(d)
        ok = ok and rep["ok"] and rep["dim"] == rook_monoid_order(d)
    _report(8, "rook-monoid epimorphism and span growth", ok, time.perf_counter() - t0, 30)


def test_criterion_9_shift_duality():
    from groupoidreps.schurweyl import shift_duality_check

    t0 = time.perf_counter()
    ok = all(
        shift_duality_check(ell, k, m, d)["ok"]
        for ell, k, m, d in [(2, 2, 1, 1), (2, 2, 2, 2), (4, 2, 1, 2)]
    )
    _report(9, "shift duality for the reflection groups", ok, time.perf_counter() - t0, 120)


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    argv = [
        sys.executable,
        "-m",
        "groupoidreps",
        "all",
        "--max-ell",
        "2",
        "--max-d",
        "2",
        "--out",
        "json",
    ]
    outs = []
    for _ in range(2):
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        rep.pop("timings")
        outs.append(json.dumps(rep, sort_keys=True, separators=(",", ":")))
    ok = outs[0] == outs[1]
    _report(10, "byte-identical check payloads across runs", ok, time.perf_counter() - t0, 60)
