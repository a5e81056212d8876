"""Outside-in tracer: wraps the library's layer boundaries from the benchmark.

Nothing under ``src/`` is edited.  A boundary is a module function or a class
method.  A module function is replaced in *every* ``groupoidreps.*`` namespace
that binds the same object (modules import names such as ``phi`` or
``kernel_basis`` at import time), and a method is replaced on its class.
:meth:`Tracer.uninstall` puts every original back.

Each wrapped call records its duration and the time covered by wrapped calls
made inside it; the difference is its self time.  Calls are aggregated as
(count, self time) per (boundary, caller), where the caller is the nearest
enclosing non-scalar boundary.  Scalar boundaries (``Cyc`` ops,
``compose_perms``, ``wreath_mul``, ``canonical_morphism``) are only
aggregated.  Coarse boundaries are also kept as spans (name, start, end,
parent span, request) and written out at the end of the run.

A boundary that the library no longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
import time

SCALAR, HOT, SPAN = "scalar", "hot", "span"


def _rref_cells(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs.get("rows", [])
    return len(rows) * len(rows[0]) if rows else 0


def _is_true(args, kwargs, result):
    return 1 if result is True else 0


# (metric prefix, kind, targets "module:attr" or "module:Class.method", probe)
# A probe (suffix, fn, per_call) turns each call's (args, kwargs, result) into
# a number; the metric <prefix>.<suffix> is their sum, or sum / calls.
BOUNDARIES = [
    ("cyclo.cyc_mul", SCALAR, ["cyclo:Cyc.__mul__"], None),
    ("cyclo.cyc_addsub", SCALAR, ["cyclo:Cyc.__add__", "cyclo:Cyc.__sub__", "cyclo:Cyc.__neg__"], None),
    ("cyclo.cyc_scale", SCALAR, ["cyclo:Cyc.scale"], None),
    ("cyclo.cyc_inverse", SCALAR, ["cyclo:Cyc.inverse"], None),
    ("cyclo.rref", HOT, ["cyclo:rref"], ("cells", _rref_cells, False)),
    ("cyclo.spanbasis_add", HOT, ["cyclo:SpanBasis.add"], ("useful_ratio", _is_true, True)),
    ("cyclo.linsolver", HOT, ["cyclo:LinSolver.__init__", "cyclo:LinSolver.express"], None),
    ("cyclo.mat_mul", HOT, ["cyclo:Mat.__mul__", "cyclo:Mat.kron"], None),
    ("algebra.phi", HOT, ["algebra:phi"], None),
    ("algebra.algelem_mul", HOT, ["algebra:AlgElem.__mul__"], None),
    ("algebra.verify_iso", SPAN, ["algebra:verify_iso"], None),
    ("algebra.phi_inverse", SPAN, ["algebra:phi_inverse"], None),
    ("wreath.wreath_mul", SCALAR, ["wreath:wreath_mul"], None),
    ("wreath.enum_group", SPAN, ["wreath:enum_group"], None),
    ("perms.compose_perms", SCALAR, ["perms:compose_perms"], None),
    ("groupoid.canonical_morphism", SCALAR, ["groupoid:canonical_morphism"], None),
    ("groupoid.hom", HOT, ["groupoid:hom"], None),
    ("tableaux.specht_build", SPAN, ["tableaux:SpechtRep.__init__"], None),
    ("tableaux.outer_matrix", HOT, ["tableaux:OuterRep.matrix_of_blockperm"], None),
    ("simples.char_wreath", HOT, ["simples:SimpleModule.char_wreath"], None),
    ("simples.action_block", HOT, ["simples:SimpleModule.action_block"], None),
    ("simples.conjugacy_classes", HOT, ["simples:conjugacy_classes"], None),
    ("simples.commutant", SPAN, ["simples:_commutant_dim"], None),
    ("simples.verify_complete", SPAN, ["simples:verify_complete"], None),
    ("simples.branching", SPAN, ["simples:branching_report"], None),
    ("gelfand.char_wreath", HOT, ["gelfand:GelfandModel.char_wreath"], None),
    ("gelfand.verify", SPAN, ["gelfand:verify_gelfand"], None),
    ("gkd.structure", SPAN, ["gkd:quotient_structure_report"], None),
    ("gkd.span", SPAN, ["gkd:reflection_span_check"], None),
    ("gkd.quotient_simples", SPAN, ["gkd:quotient_simples_check"], None),
    ("gkd.restriction", SPAN, ["gkd:restriction_check"], None),
    ("gkd.rotation", SPAN, ["gkd:rotation_eigenspace_check"], None),
    ("gkd.functorial", SPAN, ["gkd:_quotient_functorial"], None),
    ("gkd.commutant", SPAN, ["gkd:_quotient_commutant_dim"], None),
    ("gkd.conjugacy_classes", HOT, ["gkd:gkd_conjugacy_classes"], None),
    ("schurweyl.act_full", HOT, ["schurweyl:TensorSpace.act_full"], None),
    ("schurweyl.commuting", SPAN, ["schurweyl:verify_commuting"], None),
    ("schurweyl.double_centralizer", SPAN, ["schurweyl:verify_double_centralizer"], None),
    ("schurweyl.kernel", SPAN, ["schurweyl:kernel_check"], None),
    ("schurweyl.shift_duality", SPAN, ["schurweyl:shift_duality_check"], None),
    ("rook.epimorphism", SPAN, ["rook:rook_epimorphism_check"], None),
    ("reporting.emit", SPAN, ["reporting:emit"], None),
    ("cli.main", SPAN, ["cli:main"], None),
]

# Self time of these, plus the scalar ops they call, is "elimination".
ELIMINATION = ("cyclo.rref", "cyclo.spanbasis_add", "cyclo.linsolver", "cyclo.mat_mul")

# lru caches whose hit ratio is read through cache_info() (never patched).
CACHES = [
    ("tableaux", "specht_rep"),
    ("simples", "all_simples"),
    ("simples", "build_simple"),
    ("simples", "conjugacy_classes"),
    ("cyclo", "_root_cached"),
    ("gkd", "quotient_groupoid"),
    ("gelfand", "build_gelfand"),
]

LAYERS = ("cyclo", "algebra", "wreath", "perms", "groupoid", "tableaux", "simples",
          "gelfand", "gkd", "schurweyl", "rook", "reporting", "cli")

PACKAGE = "groupoidreps"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run emits, in a fixed order."""
    names = []
    for name, _kind, _targets, probe in BOUNDARIES:
        names += [f"{name}.calls", f"{name}.self_s"]
        if probe is not None:
            names.append(f"{name}.{probe[0]}")
    names += [f"cache.{mod}.{fn}.hit_ratio" for mod, fn in CACHES]
    names += [f"share.{layer}" for layer in LAYERS]
    names += ["share.elimination", "share.untraced", "trace.overhead"]
    return names


def _resolve(target: str):
    """(owner object, attribute name, original) or None when it is gone."""
    modname, path = target.split(":")
    try:
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
    except ImportError:
        return None
    owner = mod
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None
        return owner, attr, owner.__dict__[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wraps every boundary in :data:`BOUNDARIES` until :meth:`uninstall`."""

    def __init__(self):
        # A frame is [owner name, child time, id of the nearest span].
        self._stack = [["request", 0.0, 0]]
        self.agg: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._patches: list[tuple] = []
        self._next_span = 1
        self._request = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        found = [(name, kind, probe, _resolve(target))
                 for name, kind, targets, probe in BOUNDARIES for target in targets]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, kind, probe, where in found:
            if where is None:
                continue
            owner, attr, original = where
            wrapper = self._wrap(name, kind, original, probe)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def begin_request(self) -> None:
        """Start the next operation; spans recorded until the next call share its id."""
        self._request += 1

    def _wrap(self, name, kind, fn, probe):
        stack, agg, spans, counters = self._stack, self.agg, self.spans, self.counters
        clock = time.perf_counter
        scalar, span = kind == SCALAR, kind == SPAN
        counter = f"{name}.{probe[0]}" if probe else None
        measure = probe[1] if probe else None
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0] if scalar else name, 0.0, parent[2]]
            if span:
                frame[2] = tracer._next_span
                tracer._next_span += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                own = dt - frame[1]
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, own]
                else:
                    rec[0] += 1
                    rec[1] += own
                if span:
                    spans.append((frame[2], parent[2], tracer._request, name, t0, t1, own))
            if measure is not None:
                counters[counter] = counters.get(counter, 0) + measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-boundary counts and self times, counters and self-time shares."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, _caller), (n, own) in self.agg.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        out: dict[str, float] = {}
        for name, _kind, _targets, probe in BOUNDARIES:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            if probe is not None:
                suffix, _fn, per_call = probe
                total = self.counters.get(f"{name}.{suffix}", 0)
                if per_call:
                    total = total / calls[name] if calls.get(name) else 0.0
                out[f"{name}.{suffix}"] = total
        kinds = {name: kind for name, kind, _targets, _probe in BOUNDARIES}
        elimination = sum(
            own for (name, caller), (_n, own) in self.agg.items()
            if name in ELIMINATION or (kinds[name] == SCALAR and caller in ELIMINATION)
        )
        wall = wall_s if wall_s > 0 else 1.0
        for layer in LAYERS:
            out[f"share.{layer}"] = sum(
                v for name, v in self_s.items() if name.split(".")[0] == layer
            ) / wall
        out["share.elimination"] = elimination / wall
        out["share.untraced"] = max(0.0, wall_s - sum(self_s.values())) / wall
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "parent": pid, "request": req, "name": name,
             "start": t0, "end": t1, "self_s": own}
            for sid, pid, req, name, t0, t1, own in self.spans
        ]


def cache_hit_ratios() -> dict[str, float]:
    """hits / (hits + misses) of each library cache, read via cache_info()."""
    out = {}
    for modname, fn in CACHES:
        info = None
        mod = sys.modules.get(f"{PACKAGE}.{modname}")
        cached = getattr(mod, fn, None) if mod is not None else None
        if cached is not None and hasattr(cached, "cache_info"):
            info = cached.cache_info()
        total = (info.hits + info.misses) if info else 0
        out[f"cache.{modname}.{fn}.hit_ratio"] = info.hits / total if total else 0.0
    return out
