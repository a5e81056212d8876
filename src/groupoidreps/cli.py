"""Command-line surface: enumeration, construction and verification suites.

Every subcommand prints a report (text or a single JSON document) and exits
0 on success, 1 when a check fails, 2 on usage errors and 3 when a resource
cap is exceeded.  Reports are deterministic for identical flags: timings are
kept outside the checks payload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from math import factorial

from . import reporting
from .reporting import EXIT_RESOURCE, EXIT_USAGE, emit, exit_code, make_report
from .wreath import check_group_order

DEFAULT_CAP = 10**6

ISO_GRID = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)]
SIMPLES_GRID = ISO_GRID + [(2, 4)]
BRANCHING_GRID = [(2, 2), (2, 3), (3, 2)]
GELFAND_WINDOW = [
    (ell, d)
    for ell in (1, 2, 3, 4)
    for d in range(0, 6)
    if ell**d * factorial(d) <= 10**4
]
GKD_GRID = [
    (ell, k, d)
    for (ell, dmax) in ((1, 3), (2, 3), (3, 3), (4, 2))
    for d in range(1, dmax + 1)
    for k in range(1, ell + 1)
    if ell % k == 0
]
TENSOR_GRID = [
    (1, (2,), 2),
    (1, (2,), 3),
    (2, (1, 1), 2),
    (2, (1, 1), 3),
    (2, (2, 1), 2),
    (2, (2, 2), 2),
]
SHIFT_DUALITY_GRID = [(2, 2, 1, 1), (2, 2, 2, 2), (4, 2, 1, 2)]


class UsageError(ValueError):
    """An invalid flag value; reported as a usage error (exit 2)."""


def _validate(args) -> None:
    """Reject invalid parameters before any work starts."""
    cmd = args.command
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if hasattr(args, "ell") and args.ell < 1:
        raise UsageError("--ell must be >= 1")
    if hasattr(args, "d"):
        needs_d1 = cmd in ("branching", "gkd", "rook-check") or (
            cmd == "schur-weyl" and not args.shift_duality
        )
        min_d = 1 if needs_d1 else 0
        if args.d < min_d:
            raise UsageError(f"--d must be >= {min_d} for {cmd}")
    if cmd == "gkd" and (args.k < 1 or args.ell % args.k):
        raise UsageError(f"--k must be a positive divisor of --ell ({args.ell})")
    if cmd == "schur-weyl":
        if args.shift_duality:
            if args.kk < 1 or args.ell % args.kk:
                raise UsageError(f"--kk must be a positive divisor of --ell ({args.ell})")
            if args.m < 1:
                raise UsageError("--m must be >= 1")
        else:
            try:
                kvec = [int(v) for v in args.kvec.split(",")]
            except ValueError:
                raise UsageError(f"--kvec must be comma-separated integers, got {args.kvec!r}") from None
            if len(kvec) != args.ell or min(kvec) < 1:
                raise UsageError(f"--kvec must have --ell ({args.ell}) parts, each >= 1")


def _check_rook_order(d: int, cap: int) -> None:
    from .rook import rook_monoid_order

    order = rook_monoid_order(d)
    if order > cap:
        raise ResourceWarning(f"rook monoid order {order} exceeds cap {cap}")


def _flatten(name: str, rep: dict) -> list[dict]:
    return [
        {**c, "name": f"{name}: {c['name']}"}
        for c in rep["checks"]
    ]


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _run_objects(args) -> dict:
    from .groupoid import hom, objects, type_of

    objs = objects(args.ell, args.d, args.cap)
    per_type: dict = {}
    for f in objs:
        per_type.setdefault(type_of(f, args.ell), []).append(f)
    total = sum(len(hom(f, g, args.ell)) for f in objs for g in objs)
    expected = args.ell**args.d * factorial(args.d)
    checks = [
        {
            "name": "total morphism count = l^d d!",
            "status": "pass" if total == expected else "fail",
            "details": {"total": total, "expected": expected},
        }
    ]
    details = {
        "objects": len(objs),
        "types": [
            {"type": list(t), "objects": len(fs), "hom_size": len(hom(fs[0], fs[0], args.ell))}
            for t, fs in sorted(per_type.items())
        ],
    }
    checks.append({"name": "object table", "status": "pass", "details": details})
    return make_report("objects", {"ell": args.ell, "d": args.d}, checks)


def _run_verify_iso(args) -> dict:
    from .algebra import verify_iso

    rep = verify_iso(args.ell, args.d, cap=args.cap)
    return make_report("verify-iso", {"ell": args.ell, "d": args.d}, rep["checks"])


def _run_simples(args) -> dict:
    from .simples import all_simples, verify_complete

    check_group_order(args.ell, args.d, args.cap)
    rep = verify_complete(args.ell, args.d)
    checks = list(rep["checks"])
    mods = all_simples(args.ell, args.d)
    checks.append(
        {
            "name": "simple modules",
            "status": "pass",
            "details": [
                {"label": m.label_json(), "block_dim": m.block_dim, "total_dim": m.total_dim}
                for m in mods
            ],
        }
    )
    return make_report("simples", {"ell": args.ell, "d": args.d}, checks)


def _run_gelfand(args) -> dict:
    from .gelfand import build_gelfand, verify_gelfand

    check_group_order(args.ell, args.d, args.cap)
    rep = verify_gelfand(args.ell, args.d)
    model = build_gelfand(args.ell, args.d)
    checks = list(rep["checks"])
    checks.append(
        {
            "name": "involution counts per object",
            "status": "pass",
            "details": {
                "total_dim": model.total_dim,
                "objects": [
                    {"object": list(f), "involutions": len(ws)}
                    for f, ws in sorted(model.basis.items())
                ],
            },
        }
    )
    return make_report("gelfand", {"ell": args.ell, "d": args.d}, checks)


def _run_branching(args) -> dict:
    from .simples import branching_report

    check_group_order(args.ell, args.d, args.cap)
    rep = branching_report(args.ell, args.d)
    return make_report("branching", {"ell": args.ell, "d": args.d}, rep["checks"])


def _run_gkd(args) -> dict:
    from .gkd import (
        restriction_check,
        rotation_eigenspace_check,
        quotient_structure_report,
        reflection_span_check,
        quotient_simples_check,
    )

    check_group_order(args.ell, args.d, args.cap)
    params = {"ell": args.ell, "k": args.k, "d": args.d}
    checks = []
    checks += _flatten("structure", quotient_structure_report(args.ell, args.k, args.d))
    checks += _flatten("span-equality", reflection_span_check(args.ell, args.k, args.d))
    qs = quotient_simples_check(args.ell, args.k, args.d)
    checks += _flatten("quotient-simples", qs)
    checks.append({"name": "simple labels", "status": "pass", "details": qs["labels"]})
    checks += _flatten("restriction", restriction_check(args.ell, args.k, args.d))
    checks += _flatten("rotation-eigenspaces", rotation_eigenspace_check(args.ell, args.k, args.d))
    return make_report("gkd", params, checks)


def _run_schur_weyl(args) -> dict:
    from .schurweyl import (
        TensorSpace,
        kernel_check,
        shift_duality_check,
        verify_commuting,
        verify_double_centralizer,
    )

    kvec = tuple(int(v) for v in args.kvec.split(","))
    params = {"ell": args.ell, "d": args.d, "kvec": list(kvec)}
    if args.shift_duality:
        params.update({"kk": args.kk, "m": args.m})
        rep = shift_duality_check(args.ell, args.kk, args.m, args.d, cap=args.cap)
        return make_report("schur-weyl", params, rep["checks"])
    T = TensorSpace(args.ell, kvec, args.d, cap=args.cap)
    checks = []
    checks += _flatten("commuting", verify_commuting(T))
    dc = verify_double_centralizer(T)
    checks += _flatten("double-centralizer", dc)
    ker = kernel_check(T)
    checks += _flatten("action-kernel", ker)
    checks.append(
        {
            "name": "dimensions",
            "status": "pass",
            "details": {
                "tensor_dim": T.dim(),
                "image_dim": dc["image_dim"],
                "commutant_dim": dc["commutant_dim"],
                "kernel_dim": ker["kernel_dim"],
            },
        }
    )
    return make_report("schur-weyl", params, checks)


def _run_rook(args) -> dict:
    from .rook import rook_epimorphism_check

    _check_rook_order(args.d, args.cap)
    rep = rook_epimorphism_check(args.d)
    return make_report("rook-check", {"d": args.d}, rep["checks"])


# ---------------------------------------------------------------------------
# the `all` suite
# ---------------------------------------------------------------------------


def run_task(task: tuple, cap: int = DEFAULT_CAP) -> tuple[str, list[dict]]:
    """Execute one named task of the `all` suite (safe for process pools).

    Every task bounds its enumeration by cap, as the matching subcommand does.
    """
    kind, params = task
    if kind in ("simples", "branching", "gelfand", "gkd"):
        check_group_order(params["ell"], params["d"], cap)
    if kind == "cardinalities":
        from .groupoid import hom, objects, type_of

        ell, d = params["ell"], params["d"]
        objs = objects(ell, d, cap)
        total = 0
        sizes_ok = True
        for f in objs:
            lam = type_of(f, ell)
            lam_fact = 1
            for li in lam:
                lam_fact *= factorial(li)
            for g in objs:
                hs = len(hom(f, g, ell))
                total += hs
                expected = lam_fact if type_of(g, ell) == lam else 0
                if hs != expected:
                    sizes_ok = False
        ok = sizes_ok and total == ell**d * factorial(d)
        name = f"cardinalities ({ell},{d})"
        return name, [{"name": name, "status": "pass" if ok else "fail", "details": {"total": total}}]
    if kind == "verify-iso":
        from .algebra import verify_iso

        rep = verify_iso(params["ell"], params["d"], cap=cap)
        name = f"verify-iso ({params['ell']},{params['d']})"
        return name, _flatten(name, rep)
    if kind == "simples":
        from .simples import verify_complete

        rep = verify_complete(params["ell"], params["d"])
        name = f"simples ({params['ell']},{params['d']})"
        return name, _flatten(name, rep)
    if kind == "branching":
        from .simples import branching_report

        rep = branching_report(params["ell"], params["d"])
        name = f"branching ({params['ell']},{params['d']})"
        return name, _flatten(name, rep)
    if kind == "gelfand":
        from .gelfand import verify_gelfand

        rep = verify_gelfand(params["ell"], params["d"])
        name = f"gelfand ({params['ell']},{params['d']})"
        return name, _flatten(name, rep)
    if kind == "gkd":
        from .gkd import (
            restriction_check,
            rotation_eigenspace_check,
            quotient_structure_report,
            reflection_span_check,
            quotient_simples_check,
        )

        ell, k, d = params["ell"], params["k"], params["d"]
        name = f"gkd ({ell},{k},{d})"
        checks = []
        checks += _flatten(f"{name} structure", quotient_structure_report(ell, k, d))
        checks += _flatten(f"{name} span-equality", reflection_span_check(ell, k, d))
        checks += _flatten(f"{name} quotient-simples", quotient_simples_check(ell, k, d))
        checks += _flatten(f"{name} restriction", restriction_check(ell, k, d))
        checks += _flatten(f"{name} rotation-eigenspaces", rotation_eigenspace_check(ell, k, d))
        return name, checks
    if kind == "schur-weyl":
        from .schurweyl import TensorSpace, kernel_check, verify_commuting, verify_double_centralizer

        ell, kvec, d = params["ell"], tuple(params["kvec"]), params["d"]
        name = f"schur-weyl ({ell},{kvec},{d})"
        T = TensorSpace(ell, kvec, d, cap)
        checks = []
        checks += _flatten(f"{name} commuting", verify_commuting(T))
        checks += _flatten(f"{name} double-centralizer", verify_double_centralizer(T))
        checks += _flatten(f"{name} action-kernel", kernel_check(T))
        return name, checks
    if kind == "rook":
        from .rook import rook_epimorphism_check

        _check_rook_order(params["d"], cap)
        rep = rook_epimorphism_check(params["d"])
        name = f"rook d={params['d']}"
        return name, _flatten(name, rep)
    if kind == "shift-duality":
        from .schurweyl import shift_duality_check

        ell, k, m, d = params["ell"], params["k"], params["m"], params["d"]
        rep = shift_duality_check(ell, k, m, d, cap=cap)
        name = f"shift-duality ({ell},{k},{m},{d})"
        return name, _flatten(name, rep)
    raise ValueError(f"unknown task kind {kind}")


def _all_tasks(args) -> list[tuple]:
    max_ell = args.max_ell
    max_d = args.max_d
    tasks: list[tuple] = []
    for ell in range(1, min(4, max_ell) + 1):
        for d in range(0, min(3, max_d) + 1):
            tasks.append(("cardinalities", {"ell": ell, "d": d}))
    for ell, d in ISO_GRID:
        if ell <= max_ell and d <= max_d:
            tasks.append(("verify-iso", {"ell": ell, "d": d}))
    if max_ell >= 2 and max_d >= 4:
        tasks.append(("verify-iso", {"ell": 2, "d": 4}))
    for ell, d in SIMPLES_GRID:
        if ell <= max_ell and d <= max_d:
            tasks.append(("simples", {"ell": ell, "d": d}))
    for ell, d in BRANCHING_GRID:
        if ell <= max_ell and d <= max_d:
            tasks.append(("branching", {"ell": ell, "d": d}))
    for ell, d in GELFAND_WINDOW:
        if ell <= max_ell and d <= max_d:
            tasks.append(("gelfand", {"ell": ell, "d": d}))
    for ell, k, d in GKD_GRID:
        if ell <= max_ell and d <= max_d:
            tasks.append(("gkd", {"ell": ell, "k": k, "d": d}))
    for ell, kvec, d in TENSOR_GRID:
        if ell <= max_ell and d <= max_d:
            tasks.append(("schur-weyl", {"ell": ell, "kvec": list(kvec), "d": d}))
    for d in range(1, min(4, max_d) + 1):
        tasks.append(("rook", {"d": d}))
    for ell, k, m, d in SHIFT_DUALITY_GRID:
        if ell <= max_ell and d <= max_d:
            tasks.append(("shift-duality", {"ell": ell, "k": k, "m": m, "d": d}))
    return tasks


def _run_all(args) -> dict:
    tasks = _all_tasks(args)
    timings: dict[str, float] = {}
    results: list[tuple[str, list[dict]]] = []
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results.extend(pool.map(partial(run_task, cap=args.cap), tasks))
    else:
        for task in tasks:
            t0 = time.perf_counter()
            name, checks = run_task(task, args.cap)
            timings[name] = round(time.perf_counter() - t0, 3)
            results.append((name, checks))
    results.sort(key=lambda r: r[0])
    checks = [c for _name, cs in results for c in cs]
    params = {"max_ell": args.max_ell, "max_d": args.max_d, "jobs": args.jobs}
    return make_report("all", params, checks, timings)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoid-reps",
        description="Exact verification suite for colored-permutation groupoid representation theory.",
    )
    parser.add_argument("--config", help="JSON file with flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ell=True, d=True):
        if ell:
            p.add_argument("--ell", type=int, default=None)
        if d:
            p.add_argument("--d", type=int, default=None)
        p.add_argument("--out", choices=("json", "text"), default=None)
        p.add_argument("--cap", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None)

    common(sub.add_parser("objects", help="enumerate objects and hom sets"))
    common(sub.add_parser("simples", help="build all simple modules and verify completeness"))
    common(sub.add_parser("verify-iso", help="verify the groupoid-algebra isomorphism"))
    common(sub.add_parser("gelfand", help="verify the involutive Gelfand model"))
    common(sub.add_parser("branching", help="verify the removable-node branching rule"))
    p = sub.add_parser("gkd", help="quotient groupoid and G(l,k,d) checks")
    common(p)
    p.add_argument("--k", type=int, default=None)
    p = sub.add_parser("schur-weyl", help="tensor-space duality checks")
    common(p)
    p.add_argument("--kvec", default=None, help="comma-separated block dimensions")
    p.add_argument("--shift-duality", dest="shift_duality", action="store_true",
                   help="check the duality with the cyclic shift adjoined")
    p.add_argument("--kk", type=int, default=None, help="the k of G(l,k,d) for the shift duality")
    p.add_argument("--m", type=int, default=None, help="block size for the shift duality (n = l*m)")
    p = sub.add_parser("rook-check", help="rook-monoid epimorphism checks")
    common(p, ell=False)
    p = sub.add_parser("all", help="run the full verification suite")
    common(p, ell=False, d=False)
    p.add_argument("--max-ell", type=int, default=None)
    p.add_argument("--max-d", type=int, default=None)
    return parser


_DEFAULTS = {
    "ell": 2,
    "d": 2,
    "k": 1,
    "kvec": None,
    "kk": 2,
    "m": 1,
    "out": "text",
    "cap": DEFAULT_CAP,
    "jobs": 1,
    "max_ell": 4,
    "max_d": 4,
}


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
    for key, hard_default in _DEFAULTS.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            value = config.get(key.replace("_", "-"), config.get(key, hard_default))
            setattr(args, key, value)
    if getattr(args, "kvec", None) is None and hasattr(args, "kvec"):
        args.kvec = ",".join(["1"] * getattr(args, "ell", 2))
    return args


_RUNNERS = {
    "objects": _run_objects,
    "simples": _run_simples,
    "verify-iso": _run_verify_iso,
    "gelfand": _run_gelfand,
    "branching": _run_branching,
    "gkd": _run_gkd,
    "schur-weyl": _run_schur_weyl,
    "rook-check": _run_rook,
    "all": _run_all,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        args = _apply_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        report = _RUNNERS[args.command](args)
    except ResourceWarning as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    report["timings"].setdefault("total", round(time.perf_counter() - t0, 3))
    emit(report, args.out)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
