"""Spans around phaselab's public entry points, installed from outside.

``instrument(tracer)`` replaces each entry point listed in ``ENTRY_POINTS``
by a wrapper that records a span, at every attribute of every loaded
``phaselab`` module that binds the same function object.  The modules
import one another by name (``runner.build_family``,
``families.solve_half_space``, ``solver.half_space_energy``), so a wrapper
placed only in the defining module would miss those calls.  An entry point
whose defining module no longer has it is reported as absent, and every
per-layer metric that depends on it reads ``"absent"`` instead of 0.

Spans are thread-aware: a span opened on a thread with no open span of its
own (a ``_map_members`` pool thread) takes the innermost open span of the
thread that installed the tracer as its parent, which is the enclosing
``build_family``.  Self time is a span's duration minus the union of its
children's intervals, so children that ran in parallel are not counted
twice.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# (defining module, attribute, span name).  "RUNNERS[*]" stands for every
# value of the runner's experiment table; "EnergyBreakdown.of" is a
# classmethod patched on its class.
ENTRY_POINTS = (
    ("phaselab.solver", "solve_half_space", "solver.solve"),
    ("phaselab.solver", "splu", "solver.factor"),
    ("phaselab.solver", "cg", "solver.cg"),
    ("phaselab.families", "f_of_theta", "families.theta_eval"),
    ("phaselab.families", "find_theta_for_mass", "families.theta_search"),
    ("phaselab.families", "build_family", "families.build"),
    ("phaselab.families", "_map_members", "families.member"),
    ("phaselab.families", "neumann_layer_field", "families.neumann_field"),
    ("phaselab.energy", "modica_mortola", "energy"),
    ("phaselab.energy", "willmore_eps", "energy"),
    ("phaselab.energy", "EnergyBreakdown.of", "energy"),
    ("phaselab.energy", "half_space_energy", "energy"),
    ("phaselab.diagnostics", "boundary_layer_mass", "diagnostics"),
    ("phaselab.diagnostics", "concentration_scan", "diagnostics"),
    ("phaselab.diagnostics", "hausdorff_distance", "diagnostics"),
    ("phaselab.diagnostics", "hoelder_quotient", "diagnostics"),
    ("phaselab.diagnostics", "interior_region_mask", "diagnostics"),
    ("phaselab.diagnostics", "level_set", "diagnostics"),
    ("phaselab.diagnostics", "lp_norm", "diagnostics"),
    ("phaselab.runner", "run", "runner.run"),
    ("phaselab.runner", "RUNNERS[*]", "runner.experiment"),
    ("phaselab.fieldio", "save_field", "fieldio.save"),
)

# per-layer metric -> (unit, span names it is computed from)
LAYER_METRICS = {
    "solver.solves": ("count", ("solver.solve",)),
    "solver.iterations": ("count", ("solver.solve",)),
    "solver.unknowns": ("count", ("solver.solve",)),
    "solver.solve_s": ("s", ("solver.solve",)),
    "solver.self_s": ("s", ("solver.solve",)),
    "solver.factorizations": ("count", ("solver.factor",)),
    "solver.factor_s": ("s", ("solver.factor",)),
    "solver.cg_calls": ("count", ("solver.cg",)),
    "solver.cg_s": ("s", ("solver.cg",)),
    "families.theta_evals": ("count", ("families.theta_eval",)),
    "families.theta_solves": ("count", ("families.theta_eval", "solver.solve")),
    "families.theta_cache_hit_ratio": ("ratio",
                                       ("families.theta_eval", "solver.solve")),
    "families.theta_search_s": ("s", ("families.theta_search",)),
    "families.member_parallelism": ("ratio",
                                    ("families.member", "families.build")),
    "families.build_s": ("s", ("families.build",)),
    "families.neumann_field_s": ("s", ("families.neumann_field",)),
    "energy.calls": ("count", ("energy",)),
    "energy.s": ("s", ("energy",)),
    "diagnostics.calls": ("count", ("diagnostics",)),
    "diagnostics.s": ("s", ("diagnostics",)),
    "runner.experiment_s": ("s", ("runner.experiment",)),
    "runner.emit_s": ("s", ("runner.run", "runner.experiment")),
    "fieldio.files": ("count", ("fieldio.save",)),
    "fieldio.bytes": ("bytes", ("fieldio.save",)),
    "fieldio.save_s": ("s", ("fieldio.save",)),
}

COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items()
                      if unit in ("count", "bytes")
                      or k == "families.theta_cache_hit_ratio")


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder shared by every thread of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        return home[-1] if home else None

    def call(self, name, fn, args, kwargs, attrs_of=None):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            span = Span(name, self._parent(stack))
            stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            with self._lock:
                stack.pop()
                self.spans.append(span)
        if attrs_of is not None:
            span.attrs = attrs_of(result)
        return result


def _solve_attrs(result):
    unknowns = 1
    for m in result.field.grid.shape:
        unknowns *= m - 2
    return {"iterations": result.iterations, "unknowns": unknowns}


def _save_attrs(paths):
    return {"files": len(paths),
            "bytes": sum(os.path.getsize(p) for p in paths)}


ATTRS = {"solver.solve": _solve_attrs, "fieldio.save": _save_attrs}


def _wrap(tracer, name, fn):
    attrs_of = ATTRS.get(name)

    if name == "families.member":
        # fn is _map_members(fn, eps_list, workers): give each member its
        # own span, on whichever thread the member runs
        def map_members(member_fn, *args, **kwargs):
            def member(*a, **kw):
                return tracer.call(name, member_fn, a, kw)
            return fn(member, *args, **kwargs)
        return map_members

    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs_of)
    return wrapper


def _phaselab_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "phaselab" or k.startswith("phaselab."))]


def instrument(tracer: Tracer):
    """Wrap every entry point; returns a callable that restores them."""
    undo = []
    defining = {}
    for modname in dict.fromkeys(m for m, _, _ in ENTRY_POINTS):
        try:
            defining[modname] = importlib.import_module(modname)
        except ModuleNotFoundError:
            defining[modname] = None
    modules = _phaselab_modules()

    def rebind(orig, wrapped):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    for modname, attr, name in ENTRY_POINTS:
        mod = defining[modname]
        if attr == "RUNNERS[*]":
            table = getattr(mod, "RUNNERS", None)
            if not isinstance(table, dict):
                tracer.absent.add(name)
                continue
            for key, orig in list(table.items()):
                wrapped = _wrap(tracer, name, orig)
                rebind(orig, wrapped)
                undo.append((table, key, orig))
                table[key] = wrapped
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if not isinstance(raw, classmethod):
                tracer.absent.add(name)
                continue
            undo.append((cls, meth, raw))
            setattr(cls, meth, classmethod(_wrap(tracer, name, raw.__func__)))
            continue
        orig = getattr(mod, attr, None)
        if not callable(orig):
            tracer.absent.add(name)
            continue
        rebind(orig, _wrap(tracer, name, orig))

    def restore():
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
    return restore


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.end - s.start for s in spans(name))

    def self_time(name):
        return sum(s.end - s.start
                   - _covered([(c.start, c.end)
                               for c in children.get(id(s), [])])
                   for s in spans(name))

    def outermost_busy(name):
        # nested calls inside the same layer are not counted twice
        return sum(s.end - s.start for s in spans(name)
                   if s.parent is None or s.parent.name != name)

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in spans(name))

    evals = spans("families.theta_eval")
    solved = sum(1 for s in evals
                 if any(c.name == "solver.solve"
                        for c in children.get(id(s), [])))
    build = busy("families.build")
    values = {
        "solver.solves": len(spans("solver.solve")),
        "solver.iterations": total("solver.solve", "iterations"),
        "solver.unknowns": total("solver.solve", "unknowns"),
        "solver.solve_s": busy("solver.solve"),
        "solver.self_s": self_time("solver.solve"),
        "solver.factorizations": len(spans("solver.factor")),
        "solver.factor_s": busy("solver.factor"),
        "solver.cg_calls": len(spans("solver.cg")),
        "solver.cg_s": busy("solver.cg"),
        "families.theta_evals": len(evals),
        "families.theta_solves": solved,
        "families.theta_cache_hit_ratio":
            (len(evals) - solved) / len(evals) if evals else 0.0,
        "families.theta_search_s": busy("families.theta_search"),
        "families.member_parallelism":
            busy("families.member") / build if build > 0 else 0.0,
        "families.build_s": self_time("families.build"),
        "families.neumann_field_s": busy("families.neumann_field"),
        "energy.calls": len(spans("energy")),
        "energy.s": outermost_busy("energy"),
        "diagnostics.calls": len(spans("diagnostics")),
        "diagnostics.s": outermost_busy("diagnostics"),
        "runner.experiment_s": busy("runner.experiment"),
        "runner.emit_s": busy("runner.run") - busy("runner.experiment"),
        "fieldio.files": total("fieldio.save", "files"),
        "fieldio.bytes": total("fieldio.save", "bytes"),
        "fieldio.save_s": busy("fieldio.save"),
    }
    for metric, (_, needs) in LAYER_METRICS.items():
        if tracer.absent.intersection(needs):
            values[metric] = "absent"
    return values


def merge_passes(passes: list[dict]) -> tuple[dict, bool]:
    """Median of each timing over traced passes; counts must repeat exactly.

    Returns the merged metrics and whether every count repeated.
    """
    merged, repeated = {}, True
    for metric in LAYER_METRICS:
        vals = [p[metric] for p in passes]
        if metric in COUNT_METRICS or "absent" in vals:
            repeated = repeated and all(v == vals[0] for v in vals)
            merged[metric] = vals[0]
        else:
            merged[metric] = statistics.median(vals)
    return merged, repeated
