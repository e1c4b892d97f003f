"""Experiment orchestration: parameter sweeps over (players, cost,
lightning concentration) with reproducible per-cell seeds and a fixed output
layout.

Each sweep cell runs the equilibrium dynamics, computes the metric bundle,
and writes `runs/<m>_<c>_<v>_<seed>/` (grid snapshot, metrics, cascade CCDF,
iteration trace); the sweep directory gets `summary.csv` and
`manifest.json`.  Cell seeds are derived from the master seed and the cell's
(m, c, v, seed-index) content, so adding parameter values never perturbs
existing cells.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as _field

import numpy as np

from . import __version__
from .dynamics import DynamicsParams, best_response_dynamics, is_nash
from .grid import PlayerPartition, neighbor_structure
from .lightning import build_gaussian_field
from .metrics import (
    cascade_distribution,
    cascade_percentile,
    empty_centroid,
    fines_experiment,
    fire_break_correlation,
    fragility_eval,
)

DEFAULT_M_VALUES = [1, 4, 16, 64, 256, 1024, 4096, 16384]
DEFAULT_C_VALUES = [0.0, 0.25, 0.5, 0.75, 0.9]
DEFAULT_V_VALUES = [0.1, 1.0, 10.0, 100.0]
DEFAULT_EDGE = 32  # 128 is supported but opt-in (hours, not minutes)


def _feasible_m(edge: int, m: int) -> bool:
    try:
        PlayerPartition.square_tiling(edge, m)
    except ValueError:
        return False
    return True


@dataclass
class ExperimentConfig:
    edge: int = DEFAULT_EDGE
    m_values: list = _field(default_factory=lambda: list(DEFAULT_M_VALUES))
    c_values: list = _field(default_factory=lambda: list(DEFAULT_C_VALUES))
    v_values: list = _field(default_factory=lambda: list(DEFAULT_V_VALUES))
    seeds: list = _field(default_factory=lambda: [0])
    fragility_trials: int = 50
    fines: list = _field(default_factory=list)
    out_dir: str = "sweep_out"
    workers: int = 1
    neighborhood: int = 4
    iteration_overrides: dict = _field(default_factory=dict)  # m -> (t_br, t_opt)
    m_defaulted: bool = True

    def validate(self) -> None:
        if self.edge < 1:
            raise ValueError("edge must be positive")
        if self.m_defaulted:
            # Default player counts, restricted to what this edge admits.
            self.m_values = [m for m in self.m_values if _feasible_m(self.edge, m)]
        for m in self.m_values:
            if not _feasible_m(self.edge, m):
                raise ValueError(
                    f"m={m} is not a power of 4 tiling a {self.edge}x{self.edge} grid")
        if not self.m_values:
            raise ValueError("no feasible player counts")
        for name, values in (("c", self.c_values), ("v", self.v_values),
                             ("fines", self.fines)):
            for x in values:
                if not math.isfinite(x):
                    raise ValueError(f"{name} values must be finite, got {x}")
        for s in self.seeds:
            if s < 0:
                raise ValueError(f"seeds must be nonnegative, got {s}")
        for name, values in (("cost", self.c_values), ("fine", self.fines)):
            for x in values:
                if x < 0:
                    raise ValueError(f"{name} must be nonnegative, got {x}")
        for v in self.v_values:
            if v <= 0:
                raise ValueError(f"concentration v must be positive, got {v}")
        # A cell's directory name (a fine's summary column) and seed entropy
        # are built from these keys of its values; two values that agree on
        # either would silently overwrite one another's runs.
        for name, values, keys in (("m", self.m_values, (str, int)),
                                   ("seeds", self.seeds, (str, int)),
                                   ("c", self.c_values, ("{:g}".format, _seed_entropy)),
                                   ("v", self.v_values, ("{:g}".format, _seed_entropy)),
                                   ("fines", self.fines, ("{:g}".format, _seed_entropy))):
            for key in keys:
                if len({key(x) for x in values}) < len(values):
                    raise ValueError(f"{name} values {values} would share a run "
                                     "directory, a summary column or a derived seed")
        if self.fragility_trials < 0:
            raise ValueError("fragility_trials must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        try:
            neighbor_structure(self.neighborhood)
        except ValueError:
            raise ValueError(f"neighborhood must be 4 or 8, got {self.neighborhood!r}") from None
        for m, (t_br, t_opt) in self.iteration_overrides.items():
            if m not in self.m_values:
                raise ValueError(f"iteration override for absent m={m}")
            if t_br < 1 or t_opt < 1:
                raise ValueError("iteration overrides must be >= 1")

    def cells(self) -> list:
        """Sweep cells in deterministic lexical order."""
        return [(m, c, v, s)
                for m in sorted(self.m_values)
                for c in sorted(self.c_values)
                for v in sorted(self.v_values)
                for s in sorted(self.seeds)]


def _list_of(conv):
    """Parser of a comma-separated list of conv values."""
    return lambda raw: [conv(tok) for tok in raw.split(",") if tok.strip()]


def _parse_iters(raw: str) -> dict:
    """m:t_br:t_opt triples, comma separated, as {m: (t_br, t_opt)}."""
    table = {}
    for tok in raw.split(","):
        if tok.strip():
            m_s, br_s, opt_s = tok.split(":")
            table[int(m_s)] = (int(br_s), int(opt_s))
    return table


# Config-file key -> (ExperimentConfig attribute, parser of the raw value).
_KEYS = {
    "edge": ("edge", int),
    "fragility_trials": ("fragility_trials", int),
    "workers": ("workers", int),
    "neighborhood": ("neighborhood", int),
    "m": ("m_values", _list_of(int)),
    "seeds": ("seeds", _list_of(int)),
    "c": ("c_values", _list_of(float)),
    "v": ("v_values", _list_of(float)),
    "fines": ("fines", _list_of(float)),
    "out": ("out_dir", str),
    "iters": ("iteration_overrides", _parse_iters),
}


def validate_and_load(path: str | None, **overrides) -> ExperimentConfig:
    """Parse a flat `key = value` config file (comma-separated lists, '#'
    comments; an empty or missing-path file yields the defaults), apply any
    keyword overrides, and validate."""
    cfg = ExperimentConfig()
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                try:
                    if key not in _KEYS:
                        raise ValueError(f"unknown key {key!r}")
                    attr, parse = _KEYS[key]
                    setattr(cfg, attr, parse(raw))
                    if key == "m":
                        cfg.m_defaulted = False
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    for key, value in overrides.items():
        if value is None:
            continue
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config attribute {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _seed_entropy(x: float) -> int:
    return round(x * 10 ** 6)


def _derived_seed(master: int, m: int, c: float, v: float, stream: int) -> int:
    entropy = (int(master), int(m), _seed_entropy(c), _seed_entropy(v), stream)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _cell_dir_name(m: int, c: float, v: float, seed: int) -> str:
    return f"{m}_{c:g}_{v:g}_{seed}"


def run_cell(cfg: ExperimentConfig, m: int, c: float, v: float, seed: int) -> dict:
    """Run one sweep cell end to end and return its summary row + artifacts."""
    edge = cfg.edge
    field = build_gaussian_field(edge, edge, v)
    part = PlayerPartition.square_tiling(edge, m)
    t_br, t_opt = cfg.iteration_overrides.get(m, (None, None))
    run_seed = _derived_seed(seed, m, c, v, 0)
    params = DynamicsParams(t_br=t_br, t_opt=t_opt, seed=run_seed,
                            connectivity=cfg.neighborhood)
    result = best_response_dynamics(field, part, c, params)
    config = result.config

    dist = cascade_distribution(config, field, cfg.neighborhood)
    p90 = cascade_percentile(dist, 0.9)
    corr = fire_break_correlation(config, field)
    centroid = empty_centroid(config)
    nash = is_nash(config, field, part, c, connectivity=cfg.neighborhood)

    row = {
        "m": m, "c": c, "v": v, "seed": seed,
        "welfare": result.welfare,
        "density": config.density,
        "C": corr if corr is not None else "no-empty-cells",
        "centroid_x": centroid[0] if centroid else None,
        "centroid_y": centroid[1] if centroid else None,
        "p90": p90,
        "nash_gap": nash.max_gain,
        "profitable_flips": nash.profitable_flips,
        "changes_per_round": result.changes_per_round,
        "last_change_round": max((rnd for rnd, n in enumerate(result.changes_per_round) if n),
                                 default=-1),
    }
    manifest = dict(result.manifest)
    manifest["master_seed"] = seed
    manifest["run_seed"] = run_seed

    if cfg.fragility_trials > 0:
        frag_seed = _derived_seed(seed, m, c, v, 1)
        frag = fragility_eval(config, field, c, cfg.fragility_trials,
                              np.random.Generator(np.random.PCG64(frag_seed)),
                              cfg.neighborhood)
        row["fragility_mean"] = frag.mean_shifted_welfare
        row["fragility_baseline"] = frag.baseline_welfare
        manifest["fragility_seed"] = frag_seed
        manifest["fragility_trials"] = cfg.fragility_trials

    fine_seeds = {}
    for p in cfg.fines:
        fine_seed = _derived_seed(seed, m, c, v, 2 + _seed_entropy(p))
        fine_params = DynamicsParams(t_br=t_br, t_opt=t_opt, seed=fine_seed,
                                     connectivity=cfg.neighborhood)
        w_p, _ = fines_experiment(field, part, c, p, fine_params)
        row[f"fine_W_{p:g}"] = w_p
        fine_seeds[f"{p:g}"] = fine_seed
    if fine_seeds:
        manifest["fine_seeds"] = fine_seeds

    cell_dir = os.path.join(cfg.out_dir, "runs", _cell_dir_name(m, c, v, seed))
    os.makedirs(cell_dir, exist_ok=True)
    with open(os.path.join(cell_dir, "grid.txt"), "w") as fh:
        fh.write(config.to_text())
    with open(os.path.join(cell_dir, "grid.pgm"), "wb") as fh:
        fh.write(config.to_pgm_bytes())
    with open(os.path.join(cell_dir, "ccdf.csv"), "w") as fh:
        fh.write(dist.to_csv())
    with open(os.path.join(cell_dir, "trace.csv"), "w") as fh:
        fh.write("outer_iter,player,updated,u_i,welfare\n")
        for rnd, player, updated, u_i, w in result.trace:
            fh.write(f"{rnd},{player},{updated},{u_i!r},{w!r}\n")
    with open(os.path.join(cell_dir, "metrics.json"), "w") as fh:
        json.dump({"manifest": manifest, "metrics": row}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return row


def run_sweep(cfg: ExperimentConfig) -> list:
    """Run every (m, c, v, seed) cell, write per-run artifacts plus the
    top-level summary.csv and manifest.json, and return the summary rows in
    deterministic order."""
    cfg.validate()
    cells = cfg.cells()
    os.makedirs(cfg.out_dir, exist_ok=True)

    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(run_cell, [cfg] * len(cells), *zip(*cells)))
    else:
        rows = [run_cell(cfg, m, c, v, s) for m, c, v, s in cells]

    columns = ["m", "c", "v", "seed", "welfare", "density", "C",
               "centroid_x", "centroid_y", "p90"]
    if cfg.fragility_trials > 0:
        columns += ["fragility_mean", "fragility_baseline"]
    columns += [f"fine_W_{p:g}" for p in cfg.fines]

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(os.path.join(cfg.out_dir, "summary.csv"), "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row.get(col)) for col in columns) + "\n")

    manifest = {
        "version": __version__,
        "edge": cfg.edge,
        "m": sorted(cfg.m_values),
        "c": sorted(cfg.c_values),
        "v": sorted(cfg.v_values),
        "seeds": sorted(cfg.seeds),
        "fragility_trials": cfg.fragility_trials,
        "fines": list(cfg.fines),
        "neighborhood": cfg.neighborhood,
        "iteration_overrides": {str(k): list(val)
                                for k, val in sorted(cfg.iteration_overrides.items())},
        "seed_scheme": "per-cell seeds = SeedSequence((seed, m, c*1e6, v*1e6, stream))",
    }
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return rows
