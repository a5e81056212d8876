"""Command-line surface: enumeration, construction and verification suites.

Every subcommand prints a report (text or a single JSON document) and exits
0 on success, 1 when a check fails, 2 on a usage error (one `error:` line)
and 3 when a resource cap is exceeded.  Reports are deterministic for
identical flags: timings are kept outside the checks payload.

Each suite is one entry of SUITES, run as a task by `run_task`; each flag, its
kind and default, one entry of FLAGS, read alike from argv and --config.  A
subcommand runs the one task of `all` at its parameters and reports the same
checks under the same names, with the task's time under its timings.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext, suppress
from functools import partial
from itertools import product
from math import factorial, prod
from types import SimpleNamespace
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
    """An invalid command line or flag value; reported as a usage error (exit 2)."""


def _validate(args) -> None:
    """Reject invalid parameters before any work starts; parse --kvec (unset: 1 per color) into a tuple."""
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
            args.kvec = (1,) * args.ell if args.kvec is None else tuple(int(v) for v in args.kvec.split(","))
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
# argument parsing: one table of flags, read alike for argv and --config
# ---------------------------------------------------------------------------


class Flag(NamedTuple):
    kind: type | tuple[str, ...]  # int, str, bool (a switch, given without a value) or its choices
    default: object  # taken when neither argv nor --config gives the flag


FLAGS = {
    "config": Flag(str, None),  # before the command only: a JSON object of flag defaults
    "ell": Flag(int, 2),
    "d": Flag(int, 2),
    "k": Flag(int, 1),
    "kvec": Flag(str, None),
    "kk": Flag(int, 2),
    "m": Flag(int, 1),
    "shift_duality": Flag(bool, False),
    "out": Flag(("json", "text"), "text"),
    "cap": Flag(int, DEFAULT_CAP),
    "jobs": Flag(int, 1),
    "max_ell": Flag(int, 4),
    "max_d": Flag(int, 4),
}
WANTED = {int: "an integer", str: "a string", bool: "given without a value"}
SHARED = ("out", "cap", "jobs")
# each command's own flags: the parameters of the suites it runs
COMMANDS = {key: suite.flags for key, suite in SUITES.items() if key != "shift-duality"}
COMMANDS["schur-weyl"] = (*dict.fromkeys(COMMANDS["schur-weyl"] + SUITES["shift-duality"].flags), "shift_duality")
COMMANDS["all"] = ("max_ell", "max_d")


def _check(key: str, value, name: str) -> None:
    """`value`, given as `name`, is of the kind FLAGS gives `key` (an int is no bool)."""
    kind = FLAGS[key].kind
    if not (value in kind if isinstance(kind, tuple) else type(value) is kind):
        wanted = " or ".join(kind) if isinstance(kind, tuple) else WANTED[kind]
        raise UsageError(f"{name} must be {wanted}, got {json.dumps(value)}")


def _spell(key: str) -> str:
    kind = FLAGS[key].kind
    value = "" if kind is bool else " {%s}" % ",".join(kind) if isinstance(kind, tuple) else f" {key.upper()}"
    return f"[--{key.replace('_', '-')}{value}]"


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """One walk over `[--config FILE] COMMAND [--flag VALUE | --flag=VALUE | --switch]...`.

    Every flag the command takes is set, to None when not given; None after printing -h/--help.
    """
    args = SimpleNamespace(command=None, config=None)
    takes = {"--config": "config"}
    items = iter(argv)
    for item in items:
        if item in ("-h", "--help"):
            usage = [f"  {command:11} {' '.join(map(_spell, flags + SHARED))}" for command, flags in COMMANDS.items()]
            print(f"usage: groupoid-reps {_spell('config')} COMMAND [FLAG ...]", *usage, sep="\n")
            return None
        if not item.startswith("--"):
            if args.command or item not in COMMANDS:
                raise UsageError(f"unexpected argument {item!r}" if args.command else f"unknown command {item!r}")
            args.command = item
            takes = {"--" + key.replace("_", "-"): key for key in COMMANDS[item] + SHARED}
            vars(args).update(dict.fromkeys(takes.values()))
            continue
        name, eq, value = item.partition("=")
        if name not in takes:
            raise UsageError(f"{args.command or 'groupoid-reps'} takes no {name}")
        key = takes[name]
        if FLAGS[key].kind is bool:
            value = value if eq else True
        elif not eq and (value := next(items, "--")).startswith("--"):
            raise UsageError(f"{name} needs a value")
        if FLAGS[key].kind is int:
            with suppress(ValueError):
                value = int(value)
        _check(key, value, name)
        setattr(args, key, value)
    if args.command is None:
        raise UsageError(f"expected a command: {', '.join(COMMANDS)}")
    return args


def _apply_config(args: SimpleNamespace) -> None:
    """Give each flag left None its value in the --config object, else its default."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError(f"--config must hold a JSON object, got {type(config).__name__}")
    for name, value in config.items():
        key = name.replace("-", "_")  # a key is spelt as its flag or with `_`
        if key not in FLAGS or FLAGS[key].kind is bool or key == "config":
            raise UsageError(f"unknown config key {name!r}")
        if name != key and key in config:
            # one value would silently win over the other
            raise UsageError(f"config key {key!r} is given twice, as {key!r} and {name!r}")
        _check(key, value, f"config key {name!r}")
    for key, flag in FLAGS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, config.get(key.replace("_", "-"), config.get(key, flag.default)))


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        _apply_config(args)
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
