"""Smoke test of the benchmark itself.

Usage (from the repository root): python3 bench/smoke.py

Checks the self-time arithmetic on hand-built span trees, then runs every
workload, untraced and traced, at a tiny size and requires no failed
operation and every metric present. Takes about a minute.
"""

from __future__ import annotations

import math
import sys

import run
import spawn
import tracing

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src on sys.path)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED {message}")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_self_times() -> None:
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],    # overlaps "a": the union [1, 6] counts once
        ["c", 9.0, 12.0, 0],   # ends after its parent: clipped to [9, 10]
    ]
    got = tracing.self_times(spans)
    for name, value, want in zip([s[0] for s in spans], got, [4.0, 2.0, 1.0, 2.5, 3.0]):
        expect(close(value, want), f"self time of {name}: {value} != {want}")


def check_layer_metrics() -> None:
    stage = {
        "spans": [
            ["cli.simulate", 0.0, 10.0, -1],
            ["traffic.read", 0.5, 1.0, 0],
            ["evaluator.simulate_network", 1.0, 9.0, 0],
            ["saving_engine.run_cell_on", 2.0, 5.0, 2],
            ["saving_engine.run_cell_on", 5.0, 8.0, 2],
            ["evaluator.report", 9.0, 9.5, 0],
            ["evaluator.report", 9.1, 9.2, 5],  # nested in a span of its own name
        ],
        "counters": {"saving_engine.scans_on": 6000, "saving_engine.switch_events_on": 60,
                     "traffic.read_rows": 10, "traffic.read_bytes": 2_000_000},
        "kmeans_keys": [],
    }
    m = tracing.layer_metrics({"simulate": stage})
    want = {
        "cli.simulate.self_s": 10.0 - 0.5 - 8.0 - 0.5,
        "evaluator.simulate_network.self_s": 8.0 - 6.0,
        "saving_engine.run_cell_on_s": 6.0,
        "saving_engine.ns_per_scan_on": 6.0e9 / 6000,
        "saving_engine.events_per_kscan": 10.0,
        "traffic.read_mb_per_s": 4.0,
        "evaluator.report_s": 0.5,
        "analytics.silhouette_s": 0.0,
    }
    for name, value in want.items():
        expect(close(m[name], value), f"{name}: {m[name]} != {value}")
    expected_keys = set(tracing.PER_LAYER_UNITS) - {
        "cli.import_s", *(f"cli.{s}.{k}" for s in tracing.STAGES
                          for k in ("wall_s", "trace_overhead_s"))}
    expect(set(m) == expected_keys, f"layer metrics keys differ: {set(m) ^ expected_keys}")


def check_tracer() -> None:
    class Toy:
        @staticmethod
        def outer(x):
            return Toy.inner(x) + 1

        @staticmethod
        def inner(x):
            if x < 0:
                raise ValueError(x)
            return x

    tracer = tracing.Tracer()
    tracer.wrap(Toy, "inner", "inner")
    tracer.wrap(Toy, "outer", lambda args, kwargs: f"outer{args[0]}")
    expect(Toy.outer(2) == 3, "wrapped function changed its result")
    try:
        Toy.outer(-1)
    except ValueError:
        pass
    names = [(s[0], s[3]) for s in tracer.spans]
    expect(names == [("outer2", -1), ("inner", 0), ("outer-1", -1), ("inner", 2)],
           f"span names or parents wrong: {names}")
    expect(all(s[2] is not None and s[2] >= s[1] for s in tracer.spans),
           "a span was left open after an exception")


def tiny_sizes() -> None:
    workloads.FLEET_CELLS, workloads.FLEET_DAYS = 20, 2
    workloads.CLUSTER_CELLS = 60
    workloads.BURSTY_CELLS, workloads.BURSTY_DAYS = 4, 1


def check_workloads(spawner: spawn.Spawner) -> None:
    events = {}
    for workload in workloads.WORKLOADS.values():
        for trace in (False, True):
            result = run.run_workload(workload, workload.default_seed, 0.0, trace, spawner)
            expect(result["failed"] == 0,
                   f"{workload.name} trace={trace}: {result['failures']}")
            units = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            expect(set(result["metrics"]) == set(units),
                   f"{workload.name} trace={trace}: metric names differ")
            if trace:
                events[workload.name] = result["metrics"][
                    "saving_engine.events_per_kscan"]["value"]
            else:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{workload.name}: an end-to-end metric reads 0")
            print(f"smoke: {workload.name} trace={trace} ok", flush=True)
    expect(events["bursty-churn"] >= 100 * events["fleet-bundled"] > 0,
           f"bursty-churn is not 100x denser in switch events: {events}")


def main() -> None:
    check_self_times()
    check_layer_metrics()
    check_tracer()
    print("smoke: span arithmetic ok", flush=True)
    tiny_sizes()
    with spawn.Spawner() as spawner:
        check_workloads(spawner)
    print("smoke: all ok")


if __name__ == "__main__":
    main()
