"""Spans around the public functions of each trxsave layer.

The traced run wraps module attributes from outside the program, at the
name the caller looks up (``evaluator.run_cell``, not
``saving_engine.run_cell``), and keeps spans (name, start, end, parent) in
memory until the stage ends. Only per-stage, per-cell and per-restart
functions are wrapped; per-scan and per-value helpers such as ``scan_step``
or ``fmt_num`` are left alone so tracing cannot dominate what it measures.

``install`` runs inside the traced child process (see ``traced_cli.py``);
``layer_metrics`` runs in the benchmark process over the span files of all
stages of one pipeline.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import time
from collections import Counter, defaultdict

STAGES = ("generate", "cluster", "assign", "simulate")


class Tracer:
    """In-memory span recorder; a span's parent is the innermost open span."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent_index]
        self.counters: Counter = Counter()
        self.kmeans_keys: set[str] = set()
        self._open: list[int] = []

    def wrap(self, owner, attr, name, on_exit=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is a span name, or a function of the call's arguments that
        returns one. ``on_exit(tracer, args, kwargs, result)`` records
        counts where the work happens.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([label, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
            if on_exit is not None:
                on_exit(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "kmeans_keys": sorted(self.kmeans_keys),
        }


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_written(tracer, args, kwargs, result):
    traces, dest = _arg(args, kwargs, 0, "traces"), _arg(args, kwargs, 1, "dest")
    tracer.counters["traffic.write_rows"] += sum(len(t.samples) for t in traces)
    tracer.counters["traffic.write_bytes"] += os.path.getsize(dest)


def _count_read(tracer, args, kwargs, result):
    tracer.counters["traffic.read_rows"] += sum(len(t.samples) for t in result)
    tracer.counters["traffic.read_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "source"))


def _ps_enabled(kwargs) -> bool:
    return kwargs.get("ps_enabled", True)


def _run_cell_name(args, kwargs):
    return "saving_engine.run_cell_on" if _ps_enabled(kwargs) else "saving_engine.run_cell_off"


def _count_cell(tracer, args, kwargs, result):
    mode = "on" if _ps_enabled(kwargs) else "off"
    tracer.counters[f"saving_engine.scans_{mode}"] += result.n_scans
    tracer.counters[f"saving_engine.switch_events_{mode}"] += int((result.actions != 0).sum())


def _count_held(tracer, args, kwargs, result):
    # computed from array sizes; arrays shared with the input trace count too
    for timeline in result.values():
        for f in dataclasses.fields(timeline):
            value = getattr(timeline, f.name)
            if hasattr(value, "nbytes"):
                tracer.counters["evaluator.timelines_held_bytes"] += value.nbytes


def _count_timeline_rows(tracer, args, kwargs, result):
    tracer.counters["evaluator.timeline_rows"] += _arg(args, kwargs, 0, "timeline").n_scans


def _count_kmeans(tracer, args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    key = (
        hashlib.sha256(getattr(points, "values", points).tobytes()).hexdigest(),
        _arg(args, kwargs, 1, "k"),
        kwargs.get("seed", args[2] if len(args) > 2 else 0),
        kwargs.get("restarts", args[3] if len(args) > 3 else 10),
        kwargs.get("max_iter", 300),
        kwargs.get("tol", 1e-9),
    )
    tracer.counters["analytics.kmeans_calls"] += 1
    tracer.kmeans_keys.add(repr(key))


def _count_lloyd(tracer, args, kwargs, result):
    tracer.counters["analytics.lloyd_iterations"] += result.iterations


def _count_silhouette(tracer, args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "labels"))
    tracer.counters["analytics.silhouette_calls"] += 1
    tracer.counters["analytics.silhouette_pairs"] += n * n


def install(tracer: Tracer, stage: str) -> None:
    """Wrap the CLI stage callback and the layer functions it reaches."""
    from trxsave import analytics, cli, evaluator, traffic, tuner

    command = cli.main.commands[stage]
    tracer.wrap(command, "callback", f"cli.{stage}")

    tracer.wrap(traffic, "write_traffic_csv", "traffic.write", _count_written)
    tracer.wrap(traffic, "read_traffic_csv", "traffic.read", _count_read)
    tracer.wrap(traffic, "generate_diurnal_trace", "traffic.synth")
    tracer.wrap(traffic, "trace_to_kpis", "traffic.synth")
    tracer.wrap(traffic, "ingest_kpi_csv", "traffic.kpi_ingest")

    tracer.wrap(evaluator, "run_cell", _run_cell_name, _count_cell)
    tracer.wrap(evaluator, "simulate_network", "evaluator.simulate_network", _count_held)
    tracer.wrap(evaluator, "summarize", "evaluator.summarize")
    tracer.wrap(evaluator, "compare", "evaluator.report")
    tracer.wrap(evaluator, "emit_report", "evaluator.report")
    tracer.wrap(evaluator, "write_timeline_csv", "evaluator.timeline_write",
                _count_timeline_rows)

    tracer.wrap(analytics, "standardize", "analytics.standardize_pca")
    tracer.wrap(analytics, "pca_reduce", "analytics.standardize_pca")
    tracer.wrap(analytics, "elbow_curve", "analytics.elbow")
    tracer.wrap(analytics, "select_k", "analytics.select_k")
    tracer.wrap(analytics, "run_kmeans", "analytics.run_kmeans", _count_kmeans)
    tracer.wrap(analytics, "lloyd", "analytics.lloyd", _count_lloyd)
    tracer.wrap(analytics, "silhouette_score", "analytics.silhouette", _count_silhouette)

    for attr in ("profile_clusters", "rank_and_assign", "write_assignment_csv",
                 "write_push_csv"):
        tracer.wrap(tuner, attr, "tuner.assign")


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def _outermost_total(spans, name) -> float:
    """Wall time of spans called ``name``, not counting ones nested in another."""
    total = 0.0
    for label, start, end, parent in spans:
        if label != name:
            continue
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += end - start
    return total


def _rate(amount, seconds) -> float:
    return amount / seconds if seconds > 0 else 0.0


PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"cli.{s}.self_s": "s" for s in STAGES},
    **{f"cli.{s}.wall_s": "s" for s in STAGES},
    **{f"cli.{s}.trace_overhead_s": "s" for s in STAGES},
    "traffic.write_s": "s",
    "traffic.write_rows": "count",
    "traffic.write_mb_per_s": "MB/s",
    "traffic.read_s": "s",
    "traffic.read_rows": "count",
    "traffic.read_mb_per_s": "MB/s",
    "traffic.synth_s": "s",
    "traffic.kpi_ingest_s": "s",
    "saving_engine.run_cell_on_s": "s",
    "saving_engine.run_cell_off_s": "s",
    "saving_engine.scans": "count",
    "saving_engine.ns_per_scan_on": "ns",
    "saving_engine.ns_per_scan_off": "ns",
    "saving_engine.switch_events": "count",
    "saving_engine.events_per_kscan": "1/kscan",
    "evaluator.simulate_network.self_s": "s",
    "evaluator.summarize_s": "s",
    "evaluator.report_s": "s",
    "evaluator.timeline_write_s": "s",
    "evaluator.timeline_rows": "count",
    "evaluator.timelines_held_mb": "MB",
    "analytics.standardize_pca_s": "s",
    "analytics.elbow_s": "s",
    "analytics.select_k_s": "s",
    "analytics.kmeans_calls": "count",
    "analytics.kmeans_unique_calls": "count",
    "analytics.kmeans_useful_ratio": "ratio",
    "analytics.lloyd_iterations": "count",
    "analytics.silhouette_calls": "count",
    "analytics.silhouette_s": "s",
    "analytics.silhouette_ns_per_pair": "ns",
    "tuner.assign_s": "s",
}


def layer_metrics(stage_traces: dict[str, dict]) -> dict[str, float]:
    """Per-layer values from the span files of one traced pipeline.

    ``stage_traces`` maps a stage name to the dict ``Tracer.to_dict`` wrote.
    The ``cli.*`` wall, overhead and import metrics are measured by the
    caller, not from spans, and are not returned here. A layer the workload
    never reaches reads 0.
    """
    seconds: Counter = Counter()
    counters: Counter = Counter()
    kmeans_keys = set()
    for stage, trace in stage_traces.items():
        spans = trace["spans"]
        for (name, *_), own in zip(spans, self_times(spans)):
            if name in ("cli." + stage, "evaluator.simulate_network"):
                seconds[name + ".self"] += own
        for name in {s[0] for s in spans}:
            seconds[name] += _outermost_total(spans, name)
        counters.update(trace["counters"])
        kmeans_keys.update(trace["kmeans_keys"])

    scans_on = counters["saving_engine.scans_on"]
    scans_off = counters["saving_engine.scans_off"]
    events = counters["saving_engine.switch_events_on"]
    kmeans_calls = counters["analytics.kmeans_calls"]
    out = {f"cli.{s}.self_s": seconds[f"cli.{s}.self"] for s in STAGES}
    out.update({
        "traffic.write_s": seconds["traffic.write"],
        "traffic.write_rows": counters["traffic.write_rows"],
        "traffic.write_mb_per_s": _rate(counters["traffic.write_bytes"] / 1e6,
                                        seconds["traffic.write"]),
        "traffic.read_s": seconds["traffic.read"],
        "traffic.read_rows": counters["traffic.read_rows"],
        "traffic.read_mb_per_s": _rate(counters["traffic.read_bytes"] / 1e6,
                                       seconds["traffic.read"]),
        "traffic.synth_s": seconds["traffic.synth"],
        "traffic.kpi_ingest_s": seconds["traffic.kpi_ingest"],
        "saving_engine.run_cell_on_s": seconds["saving_engine.run_cell_on"],
        "saving_engine.run_cell_off_s": seconds["saving_engine.run_cell_off"],
        "saving_engine.scans": scans_on,
        "saving_engine.ns_per_scan_on": _rate(seconds["saving_engine.run_cell_on"] * 1e9,
                                              scans_on),
        "saving_engine.ns_per_scan_off": _rate(seconds["saving_engine.run_cell_off"] * 1e9,
                                               scans_off),
        "saving_engine.switch_events": events,
        "saving_engine.events_per_kscan": _rate(events * 1000.0, scans_on),
        "evaluator.simulate_network.self_s": seconds["evaluator.simulate_network.self"],
        "evaluator.summarize_s": seconds["evaluator.summarize"],
        "evaluator.report_s": seconds["evaluator.report"],
        "evaluator.timeline_write_s": seconds["evaluator.timeline_write"],
        "evaluator.timeline_rows": counters["evaluator.timeline_rows"],
        "evaluator.timelines_held_mb": counters["evaluator.timelines_held_bytes"] / 1e6,
        "analytics.standardize_pca_s": seconds["analytics.standardize_pca"],
        "analytics.elbow_s": seconds["analytics.elbow"],
        "analytics.select_k_s": seconds["analytics.select_k"],
        "analytics.kmeans_calls": kmeans_calls,
        "analytics.kmeans_unique_calls": len(kmeans_keys),
        "analytics.kmeans_useful_ratio": _rate(len(kmeans_keys), kmeans_calls),
        "analytics.lloyd_iterations": counters["analytics.lloyd_iterations"],
        "analytics.silhouette_calls": counters["analytics.silhouette_calls"],
        "analytics.silhouette_s": seconds["analytics.silhouette"],
        "analytics.silhouette_ns_per_pair": _rate(seconds["analytics.silhouette"] * 1e9,
                                                  counters["analytics.silhouette_pairs"]),
        "tuner.assign_s": seconds["tuner.assign"],
    })
    return out
