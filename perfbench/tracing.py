"""Per-layer spans, recorded from outside the library.

`install` replaces curvlab functions with timing wrappers at the binding
each caller looks them up through: ``curvlab.integrate.frames_at`` is the
name `gauss_bonnet_check` calls, ``curvlab.curvature.frame_data_at`` the
one `egregium_report` calls, and the package namespace is the one the
benchmark's own ops call.  Methods are wrapped on their class.  A target
that no longer exists raises `TracingError`, so a renamed function makes
the traced run fail instead of reporting zero for its layer.

Spans are kept in memory as (name, parent, start, end, op) and reduced to
per-layer totals when the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


class TracingError(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    op: int = -1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    op: int = -1  # op the spans being recorded belong to
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter(), op=self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise TracingError(f"span {self.spans[idx].name} closed out of order")


@dataclass
class LayerTotals:
    inclusive_s: float = 0.0  # outermost spans of the name only, so nesting is not counted twice
    self_s: float = 0.0
    calls: int = 0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Inclusive time, self time and call count per span name."""
    # The tracer closes spans in LIFO order on one thread, so a span's children
    # lie inside it and do not overlap: their durations add up to what they cover.
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        tot = out[s.name]
        tot.calls += 1
        tot.self_s += dur - child_s[i]
        anc = s.parent
        while anc is not None and spans[anc].name != s.name:
            anc = spans[anc].parent
        if anc is None:
            tot.inclusive_s += dur
    return out


# -- wrapper targets ----------------------------------------------------------


def _jet_map_span(args, kwargs):
    # Tube boundary sheets are the only immersions charted by an override.
    return "tube.sheet_jet_map" if args[0].jet_map_override is not None else "jets.jet_map"


def _jet_map_points(name, args, kwargs, result):
    return {("tube.sheet_points" if name == "tube.sheet_jet_map" else "jets.points"): len(result[0].val)}


def _mesh_points(name, args, kwargs, result):
    return {"integrate.grid_points": result[0].shape[0]}


def _sphere_nodes(name, args, kwargs, result):
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    return {"curvature.sphere_nodes": rule.nodes.shape[0]}


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "name" or "Class.method"
    span: str | Callable  # span name, or a function of (args, kwargs) giving it
    counter: Optional[Callable] = None  # (span, args, kwargs, result) -> {count name: value}


TARGETS = (
    Target("curvlab.immersion", "Immersion.jet_map", _jet_map_span, _jet_map_points),
    Target("curvlab.integrate", "frames_at", "immersion.frames_at"),
    Target("curvlab.catalog", "frames_at", "immersion.frames_at"),
    Target("curvlab", "frame_data_at", "immersion.frame_data_at"),
    Target("curvlab.curvature", "frame_data_at", "immersion.frame_data_at"),
    Target("curvlab.tube", "frame_data_at", "immersion.frame_data_at"),
    Target("curvlab.curvature", "whiten_second_form", "curvature.whiten"),
    Target("curvlab.tube", "whiten_second_form", "curvature.whiten"),
    Target("curvlab.integrate", "batched_curvature_moments", "curvature.moments"),
    Target("curvlab.curvature", "batched_curvature_moments", "curvature.moments"),
    Target("curvlab.curvature", "generalized_curvature_quadrature", "curvature.quadrature",
           _sphere_nodes),
    Target("curvlab.curvature", "pfaffian_density", "curvature.pfaffian"),
    Target("curvlab", "intrinsic_curvature_fd", "curvature.intrinsic_fd"),
    Target("curvlab", "egregium_report", "curvature.egregium"),
    Target("curvlab.integrate", "normal_sphere_rule", "integrate.normal_sphere_rule"),
    Target("curvlab.integrate", "default_grid", "integrate.default_grid"),
    Target("curvlab.tube", "default_grid", "integrate.default_grid"),
    Target("curvlab.integrate", "QuadratureGrid.mesh", "integrate.mesh", _mesh_points),
    Target("curvlab", "gauss_bonnet_check", "integrate.gauss_bonnet"),
    Target("curvlab", "tube_total_curvature", "tube.total"),
    Target("curvlab", "tube_identity_check", "tube.identity"),
    Target("curvlab", "tube_boundary_immersion", "tube.boundary"),
    Target("curvlab.tube", "tube_boundary_immersion", "tube.boundary"),
    Target("curvlab", "catalog_get", "catalog.build"),
    Target("curvlab", "graph_poly", "catalog.build"),
)


def _wrap(fn, target: Target, tracer: Tracer):
    span = target.span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = span(args, kwargs) if callable(span) else span
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if target.counter is not None:
            for key, value in target.counter(name, args, kwargs, result).items():
                tracer.counts[key] += value
        return result

    return wrapper


def _owner_and_name(target: Target):
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or name not in vars(owner):
        raise TracingError(
            f"{target.module}.{target.attr} no longer exists; "
            f"span {target.span if isinstance(target.span, str) else target.attr} cannot be measured"
        )
    return owner, name


class installed:
    """Context manager: every target wrapped for `tracer`, originals restored on exit."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for target in self.targets:
                owner, name = _owner_and_name(target)
                original = vars(owner)[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, _wrap(original, target, self.tracer))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


# -- per-layer metrics ----------------------------------------------------------

# (metric, unit, how it is read): "incl"/"self" are seconds of the named
# span, "calls" its call count, "count" a counter the wrappers add up.
LAYER_METRICS = (
    ("jets.jet_map_s", "s", "incl", "jets.jet_map"),
    ("jets.points", "count", "count", "jets.points"),
    ("tube.sheet_jet_map_s", "s", "incl", "tube.sheet_jet_map"),
    ("tube.sheet_points", "count", "count", "tube.sheet_points"),
    ("immersion.frames_at_self_s", "s", "self", "immersion.frames_at"),
    ("immersion.frame_data_at_s", "s", "incl", "immersion.frame_data_at"),
    ("immersion.frame_data_at_calls", "count", "calls", "immersion.frame_data_at"),
    ("curvature.whiten_s", "s", "incl", "curvature.whiten"),
    ("curvature.whiten_calls", "count", "calls", "curvature.whiten"),
    ("curvature.moments_self_s", "s", "self", "curvature.moments"),
    ("curvature.quadrature_s", "s", "incl", "curvature.quadrature"),
    ("curvature.sphere_nodes", "count", "count", "curvature.sphere_nodes"),
    ("curvature.pfaffian_s", "s", "incl", "curvature.pfaffian"),
    ("curvature.intrinsic_fd_s", "s", "incl", "curvature.intrinsic_fd"),
    ("curvature.egregium_self_s", "s", "self", "curvature.egregium"),
    ("integrate.grid_points", "count", "count", "integrate.grid_points"),
    ("integrate.mesh_s", "s", "incl", "integrate.mesh"),
    ("integrate.default_grid_s", "s", "incl", "integrate.default_grid"),
    ("integrate.gauss_bonnet_self_s", "s", "self", "integrate.gauss_bonnet"),
    ("integrate.normal_sphere_rule_s", "s", "incl", "integrate.normal_sphere_rule"),
    ("integrate.normal_sphere_rule_calls", "count", "calls", "integrate.normal_sphere_rule"),
    ("tube.total_self_s", "s", "self", "tube.total"),
    ("tube.identity_self_s", "s", "self", "tube.identity"),
    ("tube.boundary_s", "s", "incl", "tube.boundary"),
    ("catalog.build_s", "s", "incl", "catalog.build"),
    # time inside ops that no wrapped layer covers (unwrapped helpers, op glue)
    ("bench.op_self_s", "s", "self", "bench.op"),
)

# Layer metrics that only the pointwise workload moves: gauss_bonnet and
# tube_total read 0, or a few microseconds of one call, for them.  The
# gauss_bonnet quadrature op reaches the private integrate._quadrature_K, not
# generalized_curvature_quadrature, so its time counts in
# integrate.gauss_bonnet_self_s.  A traced run prints these, but its result
# line carries only the others, which are the per_layer list of BENCHMARK.json.
POINTWISE_ONLY = frozenset({
    "immersion.frame_data_at_s",
    "immersion.frame_data_at_calls",
    "immersion.frame_data_at_per_op",
    "curvature.quadrature_s",
    "curvature.sphere_nodes",
    "curvature.pfaffian_s",
    "curvature.intrinsic_fd_s",
    "curvature.egregium_self_s",
    "integrate.normal_sphere_rule_s",
    "integrate.normal_sphere_rule_calls",
    "tube.identity_self_s",
    "catalog.build_s",
})


def _read(tracer: Tracer, totals, how: str, key: str) -> float:
    if how == "count":
        return float(tracer.counts.get(key, 0.0))
    tot = totals.get(key, LayerTotals())
    return {"incl": tot.inclusive_s, "self": tot.self_s, "calls": float(tot.calls)}[how]


def layer_metrics(setup: Tracer, passes: Tracer, n_passes: int, ops_per_pass: int) -> dict:
    """Per-layer values for one set-up plus one pass (pass spans averaged over the passes)."""
    setup_totals = layer_totals(setup.spans)
    pass_totals = layer_totals(passes.spans)
    out = {}
    for metric, unit, how, key in LAYER_METRICS:
        value = _read(setup, setup_totals, how, key) + _read(passes, pass_totals, how, key) / n_passes
        out[metric] = (value, unit)
    points = out["jets.points"][0]
    out["jets.us_per_point"] = (1e6 * out["jets.jet_map_s"][0] / points if points else 0.0, "us")
    per_pass_calls = _read(passes, pass_totals, "calls", "immersion.frame_data_at") / n_passes
    out["immersion.frame_data_at_per_op"] = (per_pass_calls / ops_per_pass, "1/op")
    out["trace.spans_per_pass"] = (len(passes.spans) / n_passes, "count")
    return out
