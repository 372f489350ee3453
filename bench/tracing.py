"""Per-layer tracing of rankone from outside the library.

``install`` wraps the public functions each layer exposes and rebinds every
module-level name that holds them, so calls made through ``from .x import
y`` bindings are traced too; methods are patched on their classes.  Every
traced call opens a span (id, name, start, end, parent id, op id).  Self
time, the span's duration minus the time of its traced children, and the
layer counters are accumulated as calls return.  Spans stay in memory, up
to ``SPAN_CAP`` of them, and are written out when the worker exits.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

SPAN_CAP = 200_000

# metric name -> unit, in report order.  "<span>.calls" and "<span>.self_s"
# come from the span of that name; the rest are counters or derived ratios.
# Totals are reported per round of ops: a run ends at a deadline, so its
# totals would grow with the rounds that fit, that is with the speed of the
# library, while every round runs the same op mix.
LAYER_METRICS: Dict[str, str] = {
    "construction.build_stage.calls": "count/round",
    "construction.build_stage.self_s": "s/round",
    "construction.occurrences.self_s": "s/round",
    "construction.occurrences.entries": "count/round",
    "construction.level.calls": "count/round",
    "construction.level.self_s": "s/round",
    "construction.ancestor_index.calls": "count/round",
    "construction.ancestor_index.self_s": "s/round",
    "construction.locate.calls": "count/round",
    "transform.power_image.calls": "count/round",
    "transform.power_image.self_s": "s/round",
    "transform.power_image.levels_scanned": "count/round",
    "transform.power_image.useful_level_ratio": "ratio",
    "transform.cursor.steps": "count/round",
    "transform.cursor.self_s": "s/round",
    "measure.canonicalize.calls": "count/round",
    "measure.canonicalize.self_s": "s/round",
    "measure.canonicalize.intervals_in": "count/round",
    "measure.set_intersection.self_s": "s/round",
    "measure.StepFunction.add.calls": "count/round",
    "measure.StepFunction.add.self_s": "s/round",
    "measure.StepFunction.add.segments_out": "count/round",
    "stats.return_profile.self_s": "s/round",
    "stats.return_profile.pairs_examined": "count/round",
    "stats.return_profile.hit_ratio": "ratio",
    "stats.correlation.calls": "count/round",
    "stats.correlation.self_s": "s/round",
    "averaging.average_apply.self_s": "s/round",
    "averaging.average_apply.power_image_calls": "count/round",
    "averaging.l2_deviation.self_s": "s/round",
    "joinings.product_blocks.self_s": "s/round",
    "joinings.product_blocks.entries": "count/round",
    "joinings.light_blocks.self_s": "s/round",
    "joinings.light_blocks.blocks_scanned": "count/round",
    "joinings.graph_blocks.self_s": "s/round",
    "joinings.empirical_joining.self_s": "s/round",
    "joinings.empirical_joining.ticks": "count/round",
    "joinings.dispersion_experiment.self_s": "s/round",
    "joinings.dispersion_experiment.ticks": "count/round",
    "joinings.trivialization_check.self_s": "s/round",
    "flow.windowed_return_flow.self_s": "s/round",
    "flow.band_masses.self_s": "s/round",
    "flow.band_masses.blocks": "count/round",
    "persist.render_json.self_s": "s/round",
    "persist.bytes_out": "bytes/round",
    "cli.build_parser.self_s": "s/round",
    "cli.main.self_s": "s/round",
}


class Tracer:
    """Span stack, per-span totals and layer counters for one process."""

    def __init__(self) -> None:
        # A frame is [child time, span id, span name]; the root frame stands
        # for the benchmark's own code around the ops.
        self.stack: List[list] = [[0.0, -1, None]]
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple] = []
        self.next_id = 0
        self.dropped = 0
        self.op_id = -1

    def span(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; count(parent_name, args, kwargs, result) runs
        after a successful call, outside the span and outside its parent's
        self time."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        totals = self.totals[name]
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [0.0, sid, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                totals[0] += 1
                totals[1] += d - frame[0]
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, t0, t1, parent[1], tracer.op_id))
                else:
                    tracer.dropped += 1
            if count is not None:
                # Booked as child time of the parent, so the counter's own
                # cost is in no span's self time.
                c0 = clock()
                count(parent[2], args, kwargs, result)
                parent[0] += clock() - c0
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self, bytes_out: int, rounds: int) -> Dict[str, float]:
        """LAYER_METRICS for a run of `rounds` whole rounds."""
        c, t = self.counts, self.totals
        out: Dict[str, float] = {}
        for name in LAYER_METRICS:
            span, _, stat = name.rpartition(".")
            if stat == "calls" and span in t:
                out[name] = t[span][0]
            elif stat == "self_s" and span in t:
                out[name] = t[span][1]
            else:
                out[name] = c.get(name, 0)
        out["transform.cursor.steps"] = t["transform.cursor"][0]
        out["persist.bytes_out"] = bytes_out
        for name, unit in LAYER_METRICS.items():
            if unit.endswith("/round"):
                out[name] /= rounds
        scanned = c.get("transform.power_image.levels_scanned", 0)
        out["transform.power_image.useful_level_ratio"] = (
            c.get("power_image.useful_levels", 0.0) / scanned if scanned else 0.0)
        pairs = c.get("stats.return_profile.pairs_examined", 0)
        out["stats.return_profile.hit_ratio"] = (
            c.get("return_profile.resolved", 0) / pairs if pairs else 0.0)
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "op"],
                                 "spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _binder(fn: Callable) -> Callable:
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def install(tracer: Tracer) -> None:
    """Wrap rankone's layer entry points; rankone must already be imported."""
    # By module path: the package's own `construction` name is a function.
    (averaging, cli, construction, flow, joinings, measure, persist, stats,
     transform) = (importlib.import_module(f"rankone.{m}") for m in (
         "averaging", "cli", "construction", "flow", "joinings", "measure",
         "persist", "stats", "transform"))

    TowerStage, Cursor, StepFunction = (construction.TowerStage,
                                        transform.Cursor, measure.StepFunction)
    orig_build_stage = construction.build_stage
    orig_occurrences = TowerStage.occurrences
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rankone" or name.startswith("rankone.")]

    def rebind(module, attr: str, wrapper: Callable) -> None:
        orig = getattr(module, attr)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)

    def patch(cls, attr: str, name: str, count: Optional[Callable] = None) -> None:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), count))

    def add(key: str, value: float) -> None:
        tracer.counts[key] += value

    # -- counters ---------------------------------------------------------
    def occurrences_count(parent, args, kwargs, result):
        add("construction.occurrences.entries", len(result))

    pi_args = _binder(transform.power_image)

    def power_image_count(parent, args, kwargs, result):
        a = pi_args(args, kwargs)
        n = a["n"]
        if parent == "averaging.average_apply":
            add("averaging.average_apply.power_image_calls", 1)
        if n == 0:
            return
        st = orig_build_stage(a["spec"], a["J"])
        scanned = max(st.height - abs(n), 0)
        A = a["A"]
        mu = A.measure if isinstance(A, measure.IntervalSet) else A.length
        add("transform.power_image.levels_scanned", scanned)
        add("power_image.useful_levels", float(mu / st.width))

    rp_args = _binder(stats.return_profile)

    def return_profile_count(parent, args, kwargs, result):
        a = rp_args(args, kwargs)
        size = len(orig_occurrences(orig_build_stage(a["spec"], a["J"]), a["j"]))
        add("stats.return_profile.pairs_examined", size * (a["z_max"] + 1))
        add("return_profile.resolved",
            sum(int(b.lo * size) for b in result.values.values()))

    def add_count(parent, args, kwargs, result):
        add("measure.StepFunction.add.segments_out", len(result.segments))

    def product_count(parent, args, kwargs, result):
        add("joinings.product_blocks.entries", len(result.masses))

    def light_count(parent, args, kwargs, result):
        add("joinings.light_blocks.blocks_scanned", result.total_blocks)

    ej_args = _binder(joinings.empirical_joining)

    def empirical_count(parent, args, kwargs, result):
        add("joinings.empirical_joining.ticks", ej_args(args, kwargs)["N"])

    de_args = _binder(joinings.dispersion_experiment)

    def dispersion_count(parent, args, kwargs, result):
        a = de_args(args, kwargs)
        add("joinings.dispersion_experiment.ticks",
            a["N"] + max(max(a["n_list"]), 0))

    # -- wrappers ---------------------------------------------------------
    orig_canonicalize = measure.canonicalize

    def canonicalize(intervals):
        ivs = list(intervals)
        add("measure.canonicalize.intervals_in", len(ivs))
        return orig_canonicalize(ivs)

    orig_band_indices = flow.band_indices

    def band_indices(*args, **kwargs):
        # Counted without a span, so its time stays in band_masses.
        result = orig_band_indices(*args, **kwargs)
        add("flow.band_masses.blocks", len(result))
        return result

    rebind(flow, "band_indices", band_indices)
    rebind(measure, "canonicalize",
           tracer.span("measure.canonicalize", canonicalize))
    functions = [
        (construction, "build_stage", None),
        (measure, "set_intersection", None),
        (transform, "power_image", power_image_count),
        (stats, "return_profile", return_profile_count),
        (stats, "correlation", None),
        (averaging, "average_apply", None),
        (averaging, "l2_deviation", None),
        (joinings, "product_blocks", product_count),
        (joinings, "light_blocks", light_count),
        (joinings, "graph_blocks", None),
        (joinings, "empirical_joining", empirical_count),
        (joinings, "dispersion_experiment", dispersion_count),
        (joinings, "trivialization_check", None),
        (flow, "windowed_return_flow", None),
        (flow, "band_masses", None),
        (persist, "render_json", None),
        (cli, "build_parser", None),
        (cli, "main", None),
    ]
    for module, attr, count in functions:
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        rebind(module, attr, tracer.span(name, getattr(module, attr), count))
    patch(TowerStage, "occurrences", "construction.occurrences", occurrences_count)
    patch(TowerStage, "level", "construction.level")
    patch(TowerStage, "ancestor_index", "construction.ancestor_index")
    patch(TowerStage, "locate", "construction.locate")
    patch(Cursor, "step_forward", "transform.cursor")
    patch(StepFunction, "add", "measure.StepFunction.add", add_count)
