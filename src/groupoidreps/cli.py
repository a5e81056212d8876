"""Command-line surface: enumeration, construction and verification suites.

Every subcommand prints a report (text or a single JSON document) and exits
0 on success, 1 when a check fails, 2 on usage errors and 3 when a resource
cap is exceeded.  Reports are deterministic for identical flags: timings are
kept outside the checks payload.

Each suite is one entry of SUITES, run as a task by `run_task`.  A
subcommand runs the one task of `all` at its parameters and reports the same
checks under the same names, with the task's time under its timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from functools import cache, partial
from itertools import product
from math import factorial, prod
from typing import Callable, NamedTuple

from .reporting import EXIT_RESOURCE, EXIT_USAGE, emit, exit_code, make_report, record

DEFAULT_CAP = 10**6

# verify-iso and simples
ISO_GRID = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (2, 4)]
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
    """Reject invalid parameters before any work starts; parse --kvec into a tuple."""
    cmd = args.command
    # the integer flags with a fixed least value; a subcommand without one skips it
    for key, low in {"jobs": 1, "cap": 1, "ell": 1, "max_ell": 1, "max_d": 0}.items():
        if getattr(args, key, low) < low:
            raise UsageError(f"--{key.replace('_', '-')} must be >= {low}")
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
        try:
            args.kvec = tuple(int(v) for v in args.kvec.split(","))
        except ValueError:
            raise UsageError(f"--kvec must be comma-separated integers, got {args.kvec!r}") from None
        if args.shift_duality:
            if args.kk < 1 or args.ell % args.kk:
                raise UsageError(f"--kk must be a positive divisor of --ell ({args.ell})")
            if args.m < 1:
                raise UsageError("--m must be >= 1")
        elif len(args.kvec) != args.ell or min(args.kvec) < 1:
            raise UsageError(f"--kvec must have --ell ({args.ell}) parts, each >= 1")


def _name(prefix: str, section: str | None, check: str) -> str:
    """`[prefix ][section: ]check`; a nameless check takes the prefix alone."""
    head = " ".join(filter(None, (prefix, section)))
    return ": ".join(filter(None, (head, check)))


# ---------------------------------------------------------------------------
# the suites: each runs from a params dict and returns (section, checks) pairs
# ---------------------------------------------------------------------------

Sections = list[tuple[str | None, list[dict]]]


def _objects(p: dict, cap: int) -> Sections:
    from .groupoid import hom, objects, type_of

    ell, d = p["ell"], p["d"]
    objs = objects(ell, d, cap)
    types = {f: type_of(f, ell) for f in objs}
    total = 0
    sizes_ok = True
    for f in objs:
        aut = prod(factorial(li) for li in types[f])
        for g in objs:
            n = len(hom(f, g, ell))
            total += n
            sizes_ok = sizes_ok and n == (aut if types[g] == types[f] else 0)
    ok = sizes_ok and total == ell**d * factorial(d)
    # the one check is named after its task
    return [(None, [record("", ok, {"total": total})])]


def _verify_iso(p: dict, cap: int) -> Sections:
    from .algebra import verify_iso

    return [(None, verify_iso(p["ell"], p["d"], cap=cap)["checks"])]


def _simples(p: dict, cap: int) -> Sections:
    from .simples import verify_complete

    return [(None, verify_complete(p["ell"], p["d"])["checks"])]


def _branching(p: dict, cap: int) -> Sections:
    from .simples import branching_report

    return [(None, branching_report(p["ell"], p["d"])["checks"])]


def _gelfand(p: dict, cap: int) -> Sections:
    from .gelfand import verify_gelfand

    return [(None, verify_gelfand(p["ell"], p["d"])["checks"])]


def _gkd(p: dict, cap: int) -> Sections:
    from .gkd import (
        quotient_simples_check,
        quotient_structure_report,
        reflection_span_check,
        restriction_check,
        rotation_eigenspace_check,
    )

    ell, k, d = p["ell"], p["k"], p["d"]
    return [
        ("structure", quotient_structure_report(ell, k, d)["checks"]),
        ("span-equality", reflection_span_check(ell, k, d)["checks"]),
        ("quotient-simples", quotient_simples_check(ell, k, d)["checks"]),
        ("restriction", restriction_check(ell, k, d)["checks"]),
        ("rotation-eigenspaces", rotation_eigenspace_check(ell, k, d)["checks"]),
    ]


def _schur_weyl(p: dict, cap: int) -> Sections:
    from .schurweyl import TensorSpace, kernel_check, verify_commuting, verify_double_centralizer

    T = TensorSpace(p["ell"], p["kvec"], p["d"], cap)
    return [
        ("commuting", verify_commuting(T)["checks"]),
        ("double-centralizer", verify_double_centralizer(T)["checks"]),
        ("action-kernel", kernel_check(T)["checks"]),
    ]


def _shift_duality(p: dict, cap: int) -> Sections:
    from .schurweyl import shift_duality_check

    return [(None, shift_duality_check(p["ell"], p["kk"], p["m"], p["d"], cap=cap)["checks"])]


def _rook(p: dict, cap: int) -> Sections:
    from .rook import rook_epimorphism_check

    return [(None, rook_epimorphism_check(p["d"])["checks"])]


def _group_order(p: dict) -> tuple[str, int]:
    return "group order", p["ell"] ** p["d"] * factorial(p["d"])


def _hom_enumeration(p: dict) -> tuple[str, int]:
    # l^2d hom calls over object pairs, listing l^d d! morphisms
    ell, d = p["ell"], p["d"]
    return "hom-set enumeration", max(ell ** (2 * d), ell**d * factorial(d))


def _rook_order(p: dict) -> tuple[str, int]:
    from .rook import rook_monoid_order

    return "rook monoid order", rook_monoid_order(p["d"])


class Suite(NamedTuple):
    """One verification suite, run by its subcommand and by the tasks of `all`."""

    flags: tuple[str, ...]  # its parameters, as its subcommand reports them
    task: str  # format of its task name, which prefixes its check names
    size: Callable[[dict], tuple[str, int]]  # what it enumerates, checked against --cap
    run: Callable[[dict, int], Sections]


SUITES = {
    "objects": Suite(("ell", "d"), "cardinalities ({ell},{d})", _hom_enumeration, _objects),
    "verify-iso": Suite(("ell", "d"), "verify-iso ({ell},{d})", _group_order, _verify_iso),
    "simples": Suite(("ell", "d"), "simples ({ell},{d})", _group_order, _simples),
    "branching": Suite(("ell", "d"), "branching ({ell},{d})", _group_order, _branching),
    "gelfand": Suite(("ell", "d"), "gelfand ({ell},{d})", _group_order, _gelfand),
    "gkd": Suite(("ell", "k", "d"), "gkd ({ell},{k},{d})", _group_order, _gkd),
    "schur-weyl": Suite(
        ("ell", "d", "kvec"),
        "schur-weyl ({ell},{kvec},{d})",
        lambda p: ("GL generator cells", sum(k * k for k in p["kvec"]) ** (p["d"] + 1)),
        _schur_weyl,
    ),
    "shift-duality": Suite(
        ("ell", "d", "kk", "m"),
        "shift-duality ({ell},{kk},{m},{d})",
        lambda p: ("GL generator cells", p["ell"] * p["m"] ** 2 * (p["ell"] * p["m"]) ** (2 * p["d"])),
        _shift_duality,
    ),
    "rook-check": Suite(("d",), "rook d={d}", _rook_order, _rook),
}


# ---------------------------------------------------------------------------
# tasks: a subcommand runs one, `all` runs its grid
# ---------------------------------------------------------------------------


def run_task(task: tuple[str, dict], cap: int = DEFAULT_CAP) -> tuple[str, list[dict], float]:
    """Run one task (safe for process pools): (name, checks, seconds).

    The suite's enumeration is checked against cap first; each check is
    named `<task>[ <section>]: <check>`.
    """
    t0 = time.perf_counter()
    key, params = task
    suite = SUITES[key]
    what, size = suite.size(params)
    if size > cap:
        raise ResourceWarning(f"{what} {size} exceeds cap {cap}")
    name = suite.task.format(**params)
    checks = [
        {**c, "name": _name(name, section, c["name"])}
        for section, checks in suite.run(params, cap)
        for c in checks
    ]
    return name, checks, round(time.perf_counter() - t0, 3)


def _run_subcommand(args) -> dict:
    key = "shift-duality" if getattr(args, "shift_duality", False) else args.command
    params = {flag: getattr(args, flag) for flag in SUITES[key].flags}
    name, checks, seconds = run_task((key, params), args.cap)
    return make_report(args.command, params, checks, {name: seconds})


def _all_tasks(args) -> list[tuple[str, dict]]:
    """The (suite, params) tasks of `all`: every grid cut to --max-ell and --max-d."""
    grids = [
        ("objects", ("ell", "d"), product(range(1, 5), range(0, 4))),
        ("verify-iso", ("ell", "d"), ISO_GRID),
        ("simples", ("ell", "d"), ISO_GRID),
        ("branching", ("ell", "d"), BRANCHING_GRID),
        ("gelfand", ("ell", "d"), GELFAND_WINDOW),
        ("gkd", ("ell", "k", "d"), GKD_GRID),
        ("schur-weyl", ("ell", "kvec", "d"), TENSOR_GRID),
        ("rook-check", ("d",), [(d,) for d in range(1, 5)]),
        ("shift-duality", ("ell", "kk", "m", "d"), SHIFT_DUALITY_GRID),
    ]
    tasks = [(key, dict(zip(names, point))) for key, names, points in grids for point in points]
    return [
        (key, p) for key, p in tasks if p.get("ell", args.max_ell) <= args.max_ell and p["d"] <= args.max_d
    ]


def _run_all(args) -> dict:
    from concurrent.futures import ProcessPoolExecutor

    run = partial(run_task, cap=args.cap)
    with ProcessPoolExecutor(args.jobs) if args.jobs > 1 else nullcontext() as pool:
        results = sorted((pool.map if pool else map)(run, _all_tasks(args)), key=lambda r: r[0])
    checks = [c for _name, cs, _seconds in results for c in cs]
    timings = {name: seconds for name, _cs, seconds in results}
    return make_report("all", {"max_ell": args.max_ell, "max_d": args.max_d}, checks, timings)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing writes only to the namespace it returns."""
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


def _check_config(config) -> None:
    """The config holds a JSON object of known keys, each value of its flag's type."""
    if not isinstance(config, dict):
        raise UsageError(f"--config must hold a JSON object, got {type(config).__name__}")
    known = {name for key in _DEFAULTS for name in (key, key.replace("_", "-"))}
    for name in config:
        if name not in known:
            raise UsageError(f"unknown config key {name!r}")
    for key in _DEFAULTS:
        given = [name for name in dict.fromkeys((key, key.replace("_", "-"))) if name in config]
        if len(given) > 1:
            # one value would silently win over the other
            raise UsageError(f"config key {key!r} is given twice, as {given[0]!r} and {given[1]!r}")
        for name in given:
            value = config[name]
            if key == "out":
                ok, wanted = value in ("json", "text"), "json or text"
            elif key == "kvec":
                ok, wanted = isinstance(value, str), "a string"
            else:
                ok, wanted = isinstance(value, int) and not isinstance(value, bool), "an integer"
            if not ok:
                raise UsageError(f"config key {name!r} must be {wanted}, got {json.dumps(value)}")


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        _check_config(config)
    for key, hard_default in _DEFAULTS.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            value = config.get(key.replace("_", "-"), config.get(key, hard_default))
            setattr(args, key, value)
    if getattr(args, "kvec", None) is None and hasattr(args, "kvec"):
        args.kvec = ",".join(["1"] * getattr(args, "ell", 2))
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        args = _apply_config(args)
        _validate(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        report = (_run_all if args.command == "all" else _run_subcommand)(args)
    except ResourceWarning as exc:
        print(f"error: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    report["timings"].setdefault("total", round(time.perf_counter() - t0, 3))
    emit(report, args.out)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
