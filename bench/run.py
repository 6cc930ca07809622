"""trxsave benchmark: the CLI pipeline end to end, and its layers in a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload fleet-bundled --seed 11 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced and traced

Each stage runs as its own ``python -m trxsave.cli`` process, one after
another, the way operators run the tool. A small helper (``spawn.py``)
starts each one and reports its wall time and its peak RSS from
``os.wait4``. Set-up runs at least three times and for at least two seconds;
``setup_s`` is its median. The pipeline then repeats until ``--seconds``
have passed, and at least twice; the other end-to-end metrics are medians
over those repetitions. Every repetition's outputs are checked, and the
sha256 of every artifact must match the first repetition of the run.

With ``--trace 1`` the untraced repetitions are followed by one traced
repetition (``traced_cli.py``), and the last line holds the per-layer
metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Operations are the
set-ups and the CLI stage runs; a stage that exits non-zero or fails an
output check counts as failed. The full record (run environment, samples,
digests, failures) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import spawn
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"

# Set-up repeats at least this often and for at least this long; setup_s is
# the median. A set-up of a fraction of a second needs many samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
MIN_REPS = 2
IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0  # a run, set-up included, must end well inside 180 s
# A seed kept out of every run made while the benchmark or a change was
# tuned; a later speed claim must also hold on it.
HELD_OUT_SEED = 20261017

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def artifact_digests(directory: Path) -> dict[str, str]:
    """sha256 of each file; a subdirectory gets one digest over its files' digests."""
    digests = {}
    for path in sorted(directory.iterdir()):
        if path.is_dir():
            inner = hashlib.sha256()
            for name, digest in artifact_digests(path).items():
                inner.update(f"{name} {digest}\n".encode())
            digests[path.name] = inner.hexdigest()
        else:
            digests[path.name] = sha256(path)
    return digests


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, seconds: float, spawner: spawn.Spawner):
        import workloads

        self.workloads = workloads
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        work = WORK / workload.name
        self.logs = fresh_dir(work / "logs")
        self.ctx = workloads.Context(inputs=work / "inputs", out=work / "out", seed=seed)
        self.attempted = 0
        self.failures: list[dict] = []
        self.first_digests: dict[str, str] | None = None

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, argv: list[str], log: Path) -> dict:
        """Run one child process: wall_s, cpu_s, peak_rss_kib and exit code."""
        return self.spawner.run(argv, ROOT, child_env(), log, self.time_left())

    def import_probe(self, log: Path) -> float:
        """Wall time of a bare ``import trxsave.cli`` in a fresh interpreter."""
        result = self.child([sys.executable, "-c", "import trxsave.cli"], log)
        if result["code"] != 0:
            raise RuntimeError(f"import trxsave.cli failed, see {log}")
        return result["wall_s"]

    def fail(self, rep, stage: str, message: str) -> None:
        self.failures.append({"rep": rep, "stage": stage, "message": message})

    @property
    def failed_ops(self) -> int:
        return len({(f["rep"], f["stage"]) for f in self.failures})

    def setup(self) -> list[float]:
        times, input_digests = [], None
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            i = len(times)
            self.attempted += 1
            start = time.perf_counter()
            fresh_dir(self.ctx.inputs)
            self.workload.setup(self.ctx)
            self.import_probe(self.logs / f"setup{i}.log")
            times.append(time.perf_counter() - start)
            digests = artifact_digests(self.ctx.inputs)
            if input_digests is None:
                input_digests = digests
            elif digests != input_digests:
                self.fail(f"setup{i}", "setup", "set-up inputs differ between repeats")
        self.input_digests = input_digests
        return times

    def pipeline(self, rep, traced: bool = False) -> dict:
        """Run every stage once; returns per-stage wall, RSS and span files."""
        fresh_dir(self.ctx.out)
        stages, spans = {}, {}
        for stage, options in self.workload.stages:
            self.attempted += 1
            log = self.logs / f"{rep}-{stage}.log"
            if traced:
                spans[stage] = self.logs / f"{rep}-{stage}.spans.json"
                argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans[stage]), stage]
            else:
                argv = [sys.executable, "-m", "trxsave.cli", stage]
            stages[stage] = self.child(argv + options(self.ctx), log)
            if stages[stage]["code"] != 0:
                self.fail(rep, stage, f"exit code {stages[stage]['code']}, see {log}")
                break
        else:
            for stage, message in self.workload.check(self.ctx):
                self.fail(rep, stage, message)
            digests = artifact_digests(self.ctx.out)
            if self.first_digests is None:
                self.first_digests = digests
            for name in sorted(set(digests) | set(self.first_digests)):
                if digests.get(name) != self.first_digests.get(name):
                    stage = self.workloads.STAGE_OF_ARTIFACT.get(name, "simulate")
                    self.fail(rep, stage, f"{name} differs from the run's first repetition")
        # stages after a failed one count as attempted and failed
        for stage, _ in self.workload.stages[len(stages):]:
            self.attempted += 1
            self.fail(rep, stage, "not run: an earlier stage failed")
        return {"stages": stages, "spans": spans}

    def repeat(self) -> list[dict]:
        reps = []
        start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - start < self.seconds:
            rep_start = time.perf_counter()
            reps.append(self.pipeline(len(reps)))
            if len(reps) == 1 and self.workload.first_rep_check is not None:
                for stage, message in self.workload.first_rep_check(self.ctx):
                    self.fail(0, stage, message)
            if self.time_left() < 2 * (time.perf_counter() - rep_start):
                break  # another repetition might be cut by the run limit
        return reps


def end_to_end(setup_times, reps, n_stages: int) -> dict[str, float]:
    complete = [r for r in reps if len(r["stages"]) == n_stages] or reps
    return {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(
            sum(s["wall_s"] for s in r["stages"].values()) for r in complete),
        "peak_rss_mb": statistics.median(
            max(s["peak_rss_kib"] for s in r["stages"].values()) * 1024 / 1e6
            for r in complete),
    }


def per_layer(run: Run, reps: list[dict], traced: dict) -> dict[str, float]:
    probes = [run.import_probe(run.logs / f"probe{i}.log") for i in range(IMPORT_PROBES)]
    out = {"cli.import_s": statistics.median(probes)}
    for stage in tracing.STAGES:
        walls = [r["stages"][stage]["wall_s"] for r in reps if stage in r["stages"]]
        wall = statistics.median(walls) if walls else 0.0
        out[f"cli.{stage}.wall_s"] = wall
        ran_traced = walls and stage in traced["stages"]
        out[f"cli.{stage}.trace_overhead_s"] = (
            traced["stages"][stage]["wall_s"] - wall if ran_traced else 0.0)
    stage_traces = {stage: json.loads(path.read_text(encoding="utf-8"))
                    for stage, path in traced["spans"].items() if path.is_file()}
    out.update(tracing.layer_metrics(stage_traces))
    return out


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 spawner: spawn.Spawner) -> dict:
    run = Run(workload, seed, seconds, spawner)
    setup_times = run.setup()
    reps = run.repeat()
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "record": run_record(),
        "setup_s_samples": setup_times,
        "reps": [r["stages"] for r in reps],
        "input_digests": run.input_digests,
        "artifact_digests": run.first_digests,
    }
    units = END_TO_END_UNITS
    metrics = end_to_end(setup_times, reps, len(workload.stages))
    if trace:
        traced = run.pipeline("traced", traced=True)
        result["traced_rep"] = traced["stages"]
        units = tracing.PER_LAYER_UNITS
        metrics = per_layer(run, reps, traced)
    result["failures"] = run.failures
    result["attempted"] = run.attempted
    result["failed"] = run.failed_ops
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"(held-out seed {result['held_out_seed']})  trace {result['trace']}")
    print(f"  why: {result['why']}")
    rec = result["record"]
    print(f"  git {rec['git_sha']}  python {rec['python']}  numpy {rec['numpy']}  "
          f"click {rec['click']}  nproc {rec['nproc']}  cpu {rec['cpu_model']}")
    reps = result["reps"]
    for stage in reps[0] if reps else ():
        walls = [r[stage]["wall_s"] for r in reps if stage in r]
        print(f"  stage {stage:<9} median {statistics.median(walls):9.4f} s  "
              f"min {min(walls):9.4f}  max {max(walls):9.4f}  n={len(walls)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for failure in result["failures"]:
        print(f"  FAILED rep {failure['rep']} {failure['stage']}: {failure['message']}")


def last_line(results: list[dict], prefix_workload: bool) -> str:
    """The JSON verdict: correctness, operation counts and metrics of the runs."""
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/" if prefix_workload else "") + name: m
                    for r in results for name, m in r["metrics"].items()},
    })


def save(result: dict, name: str) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload at its default seed")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for this long after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trxsave" / "cli.py").is_file():
        print(f"error: no trxsave sources under {SRC}", file=sys.stderr)
        return 2
    with spawn.Spawner() as spawner:  # before this process imports numpy
        return run_cli(args, parser, spawner)


def run_cli(args, parser, spawner: spawn.Spawner) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        results = []
        for workload in workloads.WORKLOADS.values():
            for trace in (False, True):
                result = run_workload(workload, workload.default_seed, args.seconds, trace,
                                      spawner)
                print_report(result)
                results.append(result)
        path = save({"results": results}, f"BENCH_{(git_sha() or 'nogit')[:12]}.json")
        print(f"wrote {path.relative_to(ROOT)}")
        print(last_line(results, prefix_workload=True))
        return 0

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    seed = workload.default_seed if args.seed is None else args.seed
    result = run_workload(workload, seed, args.seconds, bool(args.trace), spawner)
    print_report(result)
    save(result, f"{workload.name}-seed{seed}-trace{args.trace}.json")
    print(last_line([result], prefix_workload=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
