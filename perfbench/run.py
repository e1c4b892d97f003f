#!/usr/bin/env python3
"""Benchmark of notforest's equilibrium runs, end to end and layer by layer.

    python3 perfbench/run.py --workload single_optimizer_64 --seed 0 --seconds 55 --trace 0

Run from the root of a checkout: the program is imported from its `src/`.
The benchmark runs whole rounds of the workload (see workloads.py) for about
`--seconds` seconds, give or take half a round, checks every round's outputs,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones, measured with nothing
wrapped except, on sweep_16, the 16 equilibrium runs inside the sweep.  With
`--trace 1` each round is run twice on the same inputs, untraced and then
traced, and the metrics are the per-layer ones, averaged per traced round;
the spans of the traced rounds are written to
`perfbench/out/spans-<workload>.csv`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Fresh processes timed for setup_s; the median is reported.
SETUPS = 5
SETUP_CHILD = """
import sys
from time import perf_counter
from workloads import WORKLOADS
workload = WORKLOADS[sys.argv[1]](sys.argv[2])
t0 = perf_counter()
workload.setup()
print(perf_counter() - t0)
"""


def trace_targets():
    """(module, attribute, span name) for every function a traced round
    wraps.  One function imported into several modules is wrapped in each,
    since each caller looks it up in its own module."""
    import scipy.ndimage
    from notforest import cli, dynamics, lightning, metrics, runner
    targets = [
        (scipy.ndimage, "label", "grid.label"),
        (dynamics, "opt_sampled_fp", "dynamics.visit"),
        (dynamics, "choose_actions", "dynamics.choose_actions"),
        (dynamics, "player_utility", "grid.player_utility"),
        (runner, "run_sweep", "runner.sweep"),
        (runner, "run_cell", "runner.run_cell"),
        (runner, "fines_experiment", "metrics.fines"),
        (cli, "main", "cli.verify"),
    ]
    for module in (dynamics, metrics, cli):
        targets.append((module, "welfare", "grid.welfare"))
    for module in (dynamics, metrics, runner):
        targets.append((module, "best_response_dynamics", "dynamics.solve"))
    for module in (dynamics, cli):
        targets.append((module, "is_nash", "dynamics.is_nash"))
    for module in (lightning, runner, cli):
        targets.append((module, "build_gaussian_field", "lightning.field"))
    for module in (metrics, runner):
        targets.append((module, "cascade_distribution", "metrics.cascade"))
        targets.append((module, "fragility_eval", "metrics.fragility"))
        for attr in ("cascade_percentile", "fire_break_correlation", "empty_centroid"):
            targets.append((module, attr, "metrics.summary"))
    return targets


def layer_metrics(tracer, rnd) -> dict:
    """Per-layer metrics of one traced round, whose root span is the first."""
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    labels_under = {"dynamics.visit": 0, "dynamics.solve": 0}
    for i, name in enumerate(tracer.names):
        if name == "grid.label":
            owner = tracer.nearest(i, set(labels_under))
            if owner is not None:
                labels_under[owner] += 1
    visits = get("dynamics.visit", "calls")
    wall = tracer.durations()[0]
    return {
        "grid.label.calls": get("grid.label", "calls"),
        "grid.label.busy_s": get("grid.label", "busy_s"),
        "grid.player_utility.calls": get("grid.player_utility", "calls"),
        "grid.welfare.calls": get("grid.welfare", "calls"),
        "dynamics.is_nash.self_s": get("dynamics.is_nash", "self_s"),
        "dynamics.visits": visits,
        "dynamics.visit.self_s": get("dynamics.visit", "self_s"),
        "dynamics.visit.labels_per_visit":
            labels_under["dynamics.visit"] / visits if visits else 0.0,
        "dynamics.choose_actions.calls": get("dynamics.choose_actions", "calls"),
        "dynamics.choose_actions.self_s": get("dynamics.choose_actions", "self_s"),
        "dynamics.outer.labels": labels_under["dynamics.solve"],
        "dynamics.outer.self_s": get("dynamics.solve", "self_s"),
        "lightning.field.calls": get("lightning.field", "calls"),
        "lightning.field.busy_s": get("lightning.field", "busy_s"),
        "metrics.fragility.self_s": get("metrics.fragility", "self_s"),
        "metrics.cascade.busy_s": get("metrics.cascade", "busy_s"),
        "metrics.fines.busy_s": get("metrics.fines", "busy_s"),
        "runner.run_cell.self_s": get("runner.run_cell", "self_s"),
        "runner.artifact_bytes": rnd.artifact_bytes,
        "cli.verify.self_s": get("cli.verify", "self_s"),
        "trace.wall_s": wall,
        "trace.self_sum_s": wall - tracer.self_times()[0],
    }


def setup_times(name: str, scratch: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUPS):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, name, scratch], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure(workload, seed: int, seconds: float, trace: bool, spans_path: str):
    """Run whole rounds while at least half of the next one is expected to
    fit in `seconds`; return (errors, attempted, failed, untraced rounds,
    per-layer metrics of each traced round).

    A sweep_16 round takes about half of a 55-second run.  Starting a round
    only when all of it fits would measure that workload for one round in
    some runs and two in others, as round times wander; measuring for
    `seconds` give or take half a round gives it two in each."""
    errors, rounds, traced = [], [], []
    counts = [0, 0]

    def check(rnd):
        # Before the next round: a sweep round overwrites its predecessor's files.
        errors.extend(workload.check(rnd))
        counts[0] += rnd.attempted
        counts[1] += rnd.failed
        rnd.outputs = None

    start = perf_counter()
    k = 0
    with open(spans_path, "w") if trace else contextlib.nullcontext() as spans:
        if trace:
            spans.write("round,span,name,start_ns,end_ns,parent\n")
        while True:
            t0 = perf_counter()
            rounds.append(workload.round(seed, k))
            untraced_wall = perf_counter() - t0
            check(rounds[-1])
            if trace:
                tracer = Tracer()
                for module, attr, name in trace_targets():
                    tracer.wrap(module, attr, name)
                try:
                    with tracer.span("bench.round"):
                        rnd = workload.round(seed, k)
                finally:
                    tracer.restore()
                metrics = layer_metrics(tracer, rnd)
                metrics["dynamics.nash_gap"] = rnd.nash_gap
                metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
                traced.append(metrics)
                tracer.write_csv(spans, k)
                check(rnd)
            k += 1
            took = perf_counter() - t0
            print(f"perfbench: round {k} took {took:.2f} s", file=sys.stderr)
            if perf_counter() - start + took / 2 > seconds:
                return errors, counts[0], counts[1], rounds, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "notforest", "__init__.py")):
        print(f"perfbench: no notforest package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    spans_path = os.path.join(OUT, f"spans-{args.workload}.csv")
    try:
        setups = [] if args.trace else setup_times(args.workload, scratch)
        workload = WORKLOADS[args.workload](scratch)
        workload.setup()
        errors, attempted, failed, rounds, traced = measure(
            workload, args.seed, args.seconds, bool(args.trace), spans_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values = {name: statistics.mean(m[name] for m in traced) for name in traced[0]}
        values["dynamics.nash_gap"] = max(m["dynamics.nash_gap"] for m in traced)
        values["trace.overhead_s"] = statistics.median(m["trace.overhead_s"] for m in traced)
    else:
        def per_op(key):
            return statistics.median(getattr(r, key)[0] / getattr(r, key)[1] for r in rounds)

        values = {
            "setup_s": statistics.median(setups),
            "solve_s": per_op("solve"),
            "verify_s": per_op("verify"),
            "cell_s": per_op("cell"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for line in errors[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
