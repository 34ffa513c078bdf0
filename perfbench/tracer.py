"""Outside-in tracing of swnet: spans around calls into each layer.

The tracer replaces the module attributes that callers look up (for example
``swnet.collapse.lift`` and ``swnet.sim.select_schedule``) with wrappers that
record one span per call: (name, start, end, parent, note). Nothing under
``src/`` changes, and every attribute is put back when tracing ends. Spans
stay in memory until the caller writes them out. A span's name is the home
of the wrapped function (``lift.lift``, not the attribute that led to it), so
calls reaching one function through several modules land in one layer.

``layer_metrics`` turns the spans into the per-layer metrics the benchmark
reports; self times are span durations minus the time covered by child spans.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

# (module, attribute) pairs wrapped while tracing; "sim.SystemPath" is the class.
WRAPPED = (
    ("cli", "execute"),
    ("cli", "parse_scenario"),
    ("cli", "run"),
    ("cli", "lift"),
    ("cli", "integrate_fluid"),
    ("cli", "distance_to_lift"),
    ("cli", "enumerate_dual_vertices"),
    ("cli", "conservation_audit"),
    ("cli", "mssc_experiment"),
    ("collapse", "run"),
    ("collapse", "rescale"),
    ("collapse", "lift"),
    ("fluid", "lift"),
    ("fluid", "select_schedule"),
    ("sim", "select_schedule"),
    ("sim", "sample_increments"),
    ("geometry", "solve_lp"),
    ("geometry", "solve_square"),
    ("sim.SystemPath", "to_csv"),
)

# Counters that must repeat exactly across traced runs of one code and seed.
EXACT_COUNTERS = (
    "sim.slots",
    "policy.selections",
    "lift.solves",
    "lift.iterations",
    "geometry.candidates",
    "geometry.square_solves",
    "geometry.vertices",
    "sim.audit_checks",
)

# Layer of each span name, for the self-time shares.
LAYER_OF = {
    "arrivals.sample_increments": "arrivals",
    "policy.select_schedule": "policy",
    "sim.run": "sim",
    "sim.rescale": "sim",
    "sim.conservation_audit": "sim",
    "sim.SystemPath.to_csv": "sim",
    "geometry.enumerate_dual_vertices": "geometry",
    "geometry.solve_lp": "geometry",
    "geometry.solve_square": "geometry",
    "lift.lift": "lift",
    "fluid.integrate_fluid": "fluid",
    "fluid.distance_to_lift": "fluid",
    "collapse.mssc_experiment": "collapse",
    "cli.execute": "cli",
    "cli.parse_scenario": "cli",
}


def _note_select(args, kwargs, result):
    return {"tie": int(len(result.argmax_set) > 1)}


def _note_increments(args, kwargs, result):
    return {"increments": int(result.shape[0]) - 1}


def _note_run(args, kwargs, result):
    return {"slots": int(result.horizon)}


def _note_audit(args, kwargs, result):
    return {"checks": int(result.checks_run)}


def _note_enumerate(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    n, ns = model.n_queues, len(model.schedules)
    return {"candidates": math.comb(n + ns, n), "vertices": len(result.vertices)}


def _note_lift(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "kkt": float(result.kkt_residual),
        "warm": int(kwargs.get("mu0") is not None),
    }


def _note_fluid(args, kwargs, result):
    return {"steps": int(result.t.shape[0]) - 1}


NOTES = {
    "policy.select_schedule": _note_select,
    "arrivals.sample_increments": _note_increments,
    "sim.run": _note_run,
    "sim.conservation_audit": _note_audit,
    "geometry.enumerate_dual_vertices": _note_enumerate,
    "lift.lift": _note_lift,
    "fluid.integrate_fluid": _note_fluid,
}


class Tracer:
    """Span recorder. ``spans`` holds [name, start, end, parent, note] lists;
    ``parent`` is the index of the enclosing span, or -1."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, func, name: str):
        spans, stack, clock, note = self.spans, self._stack, self._clock, NOTES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[4] = {"error": 1}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced


def _owner(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


@contextmanager
def tracing(package, tracer: Tracer):
    """Wrap every attribute in WRAPPED for the duration of the block.

    ``package`` is the imported ``swnet`` package. Attributes are read from
    the owner's own ``__dict__`` so a method is restored as the plain
    function it was, and every one is restored even if the block raises.
    """
    saved = []
    try:
        for path, attr in WRAPPED:
            owner = _owner(package, path)
            func = vars(owner)[attr]
            saved.append((owner, attr, func))
            setattr(owner, attr, tracer.wrap(func, _span_name(func)))
        yield tracer
    finally:
        for owner, attr, func in reversed(saved):
            setattr(owner, attr, func)


def _percentile(sorted_vals: list[float], p: float) -> float:
    """Linear-interpolation percentile of an ascending list (0 if empty)."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], speed: float = 1.0) -> tuple[dict, dict]:
    """(metrics, shares) from one traced execution's spans.

    ``metrics`` holds every per-layer metric except ``cli.output_bytes`` and
    ``trace.overhead_s``, which need the output directory and an untraced
    run; durations are multiplied by ``speed`` (see child.py). ``shares``
    gives each layer's self time over the traced total.
    """
    own = [t * speed for t in self_times(spans)]
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    notes: dict[str, dict[str, float]] = {}
    lift_ms: list[float] = []
    worst_kkt = 0.0
    failures = 0
    collapse_cells = 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        took = (end - start) * speed
        count[name] = count.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + took
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if note:
            acc = notes.setdefault(name, {})
            for key, val in note.items():
                acc[key] = acc.get(key, 0) + val
        if name == "lift.lift":
            lift_ms.append(took * 1e3)
            if note and "error" in note:
                failures += 1
            elif note:
                worst_kkt = max(worst_kkt, note["kkt"])
        if name == "sim.run" and parent >= 0 and spans[parent][0] == "collapse.mssc_experiment":
            collapse_cells += 1

    def c(name):
        return count.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    def s(name):
        return self_s.get(name, 0.0)

    def n(name, key):
        return notes.get(name, {}).get(key, 0)

    lift_ms.sort()
    selections = c("policy.select_schedule")
    slots = n("sim.run", "slots")
    candidates = n("geometry.enumerate_dual_vertices", "candidates")
    vertices = n("geometry.enumerate_dual_vertices", "vertices")
    steps = n("fluid.integrate_fluid", "steps")
    metrics = {
        "arrivals.calls": c("arrivals.sample_increments"),
        "arrivals.increments": n("arrivals.sample_increments", "increments"),
        "arrivals.busy_s": b("arrivals.sample_increments"),
        "policy.selections": selections,
        "policy.busy_s": b("policy.select_schedule"),
        "policy.us_per_selection": _ratio(b("policy.select_schedule") * 1e6, selections),
        "policy.tie_share": _ratio(n("policy.select_schedule", "tie"), selections),
        "sim.runs": c("sim.run"),
        "sim.slots": slots,
        "sim.self_s": s("sim.run"),
        "sim.slots_per_s": _ratio(slots, b("sim.run")),
        "sim.rescale_s": b("sim.rescale"),
        "sim.audit_s": b("sim.conservation_audit"),
        "sim.audit_checks": n("sim.conservation_audit", "checks"),
        "sim.csv_s": b("sim.SystemPath.to_csv"),
        "geometry.enumerate_s": b("geometry.enumerate_dual_vertices"),
        "geometry.candidates": candidates,
        "geometry.square_solves": c("geometry.solve_square"),
        "geometry.vertices": vertices,
        "geometry.vertex_yield": _ratio(vertices, candidates),
        "geometry.lp_calls": c("geometry.solve_lp"),
        "geometry.lp_s": b("geometry.solve_lp"),
        "lift.solves": c("lift.lift"),
        "lift.busy_s": b("lift.lift"),
        "lift.iterations": n("lift.lift", "iterations"),
        "lift.iters_per_solve": _ratio(n("lift.lift", "iterations"), c("lift.lift") - failures),
        "lift.solve_ms_p50": _percentile(lift_ms, 50),
        "lift.solve_ms_p99": _percentile(lift_ms, 99),
        "lift.worst_kkt": worst_kkt,
        "lift.failures": failures,
        "lift.warm_share": _ratio(n("lift.lift", "warm"), c("lift.lift")),
        "fluid.steps": steps,
        "fluid.self_s": s("fluid.integrate_fluid"),
        "fluid.steps_per_s": _ratio(steps, b("fluid.integrate_fluid")),
        "fluid.distance_s": b("fluid.distance_to_lift"),
        "collapse.cells": collapse_cells,
        "collapse.self_s": s("collapse.mssc_experiment"),
        "cli.parse_s": b("cli.parse_scenario"),
        "cli.self_s": s("cli.execute"),
    }
    total = sum(own)
    shares: dict[str, float] = {}
    for name, t in self_s.items():
        layer = LAYER_OF[name]
        shares[layer] = shares.get(layer, 0.0) + _ratio(t, total)
    return metrics, shares
