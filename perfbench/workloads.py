"""The benchmark's workloads.

Each workload builds its inputs in `setup` and then runs whole rounds: one
round is the unit of work whose times are reported (one 64x64 grid, or one
sweep plus its verifies).  `round` returns a `Round` with the round's times
and operation counts, and the outputs that `check` compares against the
oracle and against properties the method must have.

notforest is imported inside `setup`, so that `setup_s` covers the import.
Every call into notforest goes through a module attribute looked up at call
time (`dynamics.best_response_dynamics(...)`), so a traced round sees it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import oracle
from tracer import Tracer

EDGE = 64
V = 10.0
COST = 0.0
FRAGILITY_TRIALS = 50
# Cells whose single-flip gain the oracle recomputes on each 64x64 grid, on
# top of is_nash's witness; every flip costs the oracle a pure-Python
# relabeling of 4096 cells.
SAMPLED_FLIPS = 16
VERIFY_PASSES = 10


@dataclass
class Round:
    """Times are (seconds, count) pairs: the metric is seconds / count."""

    solve: tuple
    verify: tuple
    cell: tuple
    attempted: int
    failed: int = 0
    nash_gap: float = -math.inf
    artifact_bytes: int = 0
    outputs: object = field(default=None, repr=False)


def _close(a: float, b: float, what: str, errors: list) -> None:
    if not abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)):
        errors.append(f"{what}: {a!r} != {b!r}")


class Grid64:
    """One 64x64, v = 10, c = 0, m = 1 grid per round: a
    best_response_dynamics run with the default schedule, its single-flip
    is_nash check and its metric bundle (cascade distribution and p90,
    fire-break correlation, empty centroid, fragility over 50 relocated
    fields)."""

    def __init__(self, scratch: str) -> None:
        self._oracle_inputs = None

    def setup(self) -> None:
        from notforest import grid, lightning
        self.field = lightning.build_gaussian_field(EDGE, EDGE, V)
        self.part = grid.PlayerPartition.single(EDGE, EDGE)

    def round(self, seed: int, k: int) -> Round:
        import numpy as np
        from notforest import dynamics, metrics
        run_seed = seed * 1000 + k
        params = dynamics.DynamicsParams(seed=run_seed)
        t0 = perf_counter()
        result = dynamics.best_response_dynamics(self.field, self.part, COST, params)
        t1 = perf_counter()
        nash = dynamics.is_nash(result.config, self.field, self.part, COST)
        t2 = perf_counter()
        config = result.config
        dist = metrics.cascade_distribution(config, self.field)
        bundle = {
            "p90": metrics.cascade_percentile(dist, 0.9),
            "C": metrics.fire_break_correlation(config, self.field),
            "centroid": metrics.empty_centroid(config),
            "fragility": metrics.fragility_eval(config, self.field, COST, FRAGILITY_TRIALS,
                                                np.random.default_rng(run_seed)),
        }
        t3 = perf_counter()
        return Round(solve=(t1 - t0, 1), verify=(t2 - t1, 1), cell=(t1 - t0 + t3 - t2, 1),
                     attempted=2, nash_gap=nash.max_gain,
                     outputs=(run_seed, result, nash, dist, bundle))

    def check(self, rnd: Round) -> list:
        if self._oracle_inputs is None:
            self._oracle_inputs = (oracle.gaussian_field(EDGE, EDGE, V),
                                   oracle.square_owner(EDGE, 1))
        p, owner = self._oracle_inputs
        run_seed, result, nash, dist, bundle = rnd.outputs
        cells = result.config.cells.ravel().tolist()
        errors: list = []
        w = oracle.welfare(cells, p, EDGE, COST)
        _close(result.welfare, w, "welfare", errors)
        utils = oracle.utilities(cells, p, EDGE, owner, COST)
        for i, u in enumerate(result.player_utilities):
            _close(float(u), utils[i], f"utility of player {i}", errors)
        _close(math.fsum(result.player_utilities), result.welfare, "sum of utilities", errors)
        _close(result.trace[-1][4], result.welfare, "last trace row welfare", errors)
        _close(float(dist.pmf.sum()) + dist.zero_mass, 1.0, "cascade pmf + zero_mass", errors)
        _close(bundle["fragility"].baseline_welfare, w, "fragility baseline", errors)
        _close(bundle["p90"], oracle.cascade_percentile(cells, p, EDGE, 0.9), "p90", errors)
        _check_optional(bundle["C"], oracle.fire_break_correlation(cells, p), "C", errors)
        _check_optional(bundle["centroid"], oracle.empty_centroid(cells, EDGE), "centroid", errors)

        g_witness = nash.witness[1][1]
        sample = random.Random(run_seed).sample(range(EDGE * EDGE), SAMPLED_FLIPS)
        gains = oracle.flip_gains(cells, p, EDGE, owner, [g_witness] + sample, COST)
        _close(nash.max_gain, gains[0], f"is_nash max_gain at witness cell {g_witness}",
               errors)
        for g, gain in zip(sample, gains[1:]):
            if gain > nash.max_gain + 1e-9 * max(1.0, abs(gain)):
                errors.append(f"flip of cell {g} gains {gain!r} > is_nash max_gain "
                              f"{nash.max_gain!r}")
        return errors


def _check_optional(got, want, what: str, errors: list) -> None:
    if got is None or want is None:
        if got is not want:
            errors.append(f"{what}: {got!r} != {want!r}")
        return
    for a, b in zip(got if isinstance(got, tuple) else (got,),
                    want if isinstance(want, tuple) else (want,)):
        _close(a, b, what, errors)


class Sweep16:
    """`run_sweep` over edge 16, m in {1, 4, 16, 256}, c in {0, 0.25},
    v = 10, master seed 0, 50 fragility trials and the fine 0.05, and
    `notforest verify`, through the CLI's `main`, VERIFY_PASSES times on each
    of the 8 cell directories.  A verify that finds a profitable single flip
    exits 1 and counts as a failed operation."""

    EDGE = 16
    M_VALUES = [1, 4, 16, 256]
    C_VALUES = [0.0, 0.25]

    def __init__(self, scratch: str) -> None:
        self.out = os.path.join(scratch, "sweep")
        self._fields: dict = {}

    def setup(self) -> None:
        from notforest import runner
        self.cfg = runner.ExperimentConfig(
            edge=self.EDGE, m_values=list(self.M_VALUES), c_values=list(self.C_VALUES),
            v_values=[V], seeds=[0], fragility_trials=FRAGILITY_TRIALS, fines=[0.05],
            out_dir=self.out, workers=1, m_defaulted=False)
        self.cfg.validate()

    def run_dir(self, m: int, c: float, v: float, s: int) -> str:
        return os.path.join(self.out, "runs", f"{m}_{c:g}_{v:g}_{s}")

    def round(self, seed: int, k: int) -> Round:
        from notforest import cli, metrics, runner
        shutil.rmtree(self.out, ignore_errors=True)
        # Times each equilibrium run inside the sweep: the main run and the
        # fine run of every cell, 16 calls in all.
        solves = Tracer()
        solves.wrap(runner, "best_response_dynamics", "solve")
        solves.wrap(metrics, "best_response_dynamics", "solve")
        run_cell = runner.run_cell
        passes, medians, verify_total = [], [], [0.0]

        def run_cell_then_verify(cfg, m, c, v, s):
            # One verify takes ~20 ms and the machine's speed drifts over
            # seconds, so each cell is verified VERIFY_PASSES times as soon as
            # the sweep has written it, spreading the samples over the sweep.
            row = run_cell(cfg, m, c, v, s)
            outs, times = [], []
            for _ in range(VERIFY_PASSES):
                t = perf_counter()
                outs.append(_verify(cli, self.run_dir(m, c, v, s)))
                times.append(perf_counter() - t)
            passes.append(outs)
            medians.append(statistics.median(times))
            verify_total[0] += sum(times)
            return row

        runner.run_cell = run_cell_then_verify
        t0 = perf_counter()
        try:
            runner.run_sweep(self.cfg)
        finally:
            runner.run_cell = run_cell
            solves.restore()
        sweep_wall = perf_counter() - t0 - verify_total[0]
        n_cells = len(passes)
        solve = solves.summary()["solve"]
        records = [json.loads(out) for rc, out in (outs[0] for outs in passes) if rc in (0, 1)]
        artifact_bytes = sum(os.path.getsize(os.path.join(d, f))
                             for d, _, files in os.walk(self.out) for f in files)
        return Round(solve=(solve["busy_s"], solve["calls"]), verify=(sum(medians), n_cells),
                     cell=(sweep_wall, n_cells), attempted=n_cells * (1 + VERIFY_PASSES),
                     failed=sum(rc != 0 for outs in passes for rc, _ in outs),
                     nash_gap=max((r["max_deviation_gain"] for r in records), default=-math.inf),
                     artifact_bytes=artifact_bytes, outputs=passes)

    def check(self, rnd: Round) -> list:
        errors: list = []
        with open(os.path.join(self.out, "summary.csv")) as fh:
            summary = list(csv.DictReader(fh))
        if len(summary) != len(self.cfg.cells()):
            return [f"summary.csv has {len(summary)} rows"]
        for row, cell, outs in zip(summary, self.cfg.cells(), rnd.outputs):
            run_dir = self.run_dir(*cell)
            name = os.path.basename(run_dir)
            if any(out != outs[0] for out in outs):
                errors.append(f"verify passes over {name} disagree")
            rc, out = outs[0]
            if rc not in (0, 1):
                errors.append(f"verify {name} exited {rc}")
                continue
            with open(os.path.join(run_dir, "grid.txt")) as fh:
                rows = [line.strip() for line in fh if line.strip()]
            with open(os.path.join(run_dir, "metrics.json")) as fh:
                manifest = json.load(fh)["manifest"]
            with open(os.path.join(run_dir, "trace.csv")) as fh:
                last_trace = list(csv.DictReader(fh))[-1]
            width = len(rows[0])
            cells = [int(ch) for line in rows for ch in line]
            m, c = manifest["m"], manifest["cost"]
            key = (manifest["field_v"], tuple(manifest["field_center"]))
            if key not in self._fields:
                self._fields[key] = oracle.gaussian_field(width, len(rows), key[0], key[1])
            p = self._fields[key]
            w = oracle.welfare(cells, p, width, c)
            density = sum(cells) / len(cells)
            _close(float(row["welfare"]), w, f"{name} summary welfare", errors)
            _close(float(row["density"]), density, f"{name} density", errors)
            _close(float(row["fragility_baseline"]), w, f"{name} fragility baseline", errors)
            _close(float(last_trace["welfare"]), w, f"{name} last trace row welfare", errors)
            _close(int(row["p90"]), oracle.cascade_percentile(cells, p, width, 0.9),
                   f"{name} p90", errors)
            corr = oracle.fire_break_correlation(cells, p)
            _check_optional(None if row["C"] == "no-empty-cells" else float(row["C"]),
                            corr, f"{name} C", errors)
            centroid = oracle.empty_centroid(cells, width)
            _check_optional(None if row["centroid_x"] == "" else
                            (float(row["centroid_x"]), float(row["centroid_y"])),
                            centroid, f"{name} centroid", errors)

            record = json.loads(out)
            gain = max(oracle.flip_gains(cells, p, width, oracle.square_owner(width, m),
                                         range(len(cells)), c))
            _close(record["welfare"], w, f"{name} verify welfare", errors)
            _close(record["density"], density, f"{name} verify density", errors)
            _close(record["max_deviation_gain"], gain, f"{name} verify max gain", errors)
            if record["is_nash"] != (gain <= 1e-9) or (rc == 0) != record["is_nash"]:
                errors.append(f"{name}: verify says is_nash={record['is_nash']} (exit {rc}), "
                              f"oracle's largest flip gain is {gain!r}")
        return errors


def _verify(cli, run_dir: str) -> tuple:
    """`notforest verify --run-dir run_dir`: (exit code, standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--run-dir", run_dir])
    return rc, buf.getvalue()


WORKLOADS = {
    # Two workloads, so that each run may last 55 s within a full benchmark
    # pass; the m = 16 and m = 256 cells of sweep_16 stand for a 64x64
    # many-player workload (see README.md).
    "single_optimizer_64": Grid64,
    "sweep_16": Sweep16,
}
