"""Command-line interface.

Subcommands:
  run        parameter sweep from a config file
  oned       emit the 1-D closed-form / brute-force table
  verify     re-check a finished run directory (equilibrium + metrics)
  fragility  re-evaluate fragility of a finished run with fresh trials
  fines      run the planting-fine experiment for one setting

Failures exit nonzero with a one-line JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, oned
from .dynamics import DynamicsParams, is_nash
from .grid import GridConfig, PlayerPartition, welfare
from .lightning import build_gaussian_field, build_uniform_field
from .metrics import fines_experiment, fragility_eval
from .runner import run_sweep, validate_and_load


def _require(record: dict, key: str, where: str):
    if key not in record:
        raise ValueError(f"{where} has no {key!r}")
    return record[key]


def _load_run_dir(run_dir: str):
    with open(os.path.join(run_dir, "grid.txt")) as fh:
        config = GridConfig.from_text(fh.read())
    path = os.path.join(run_dir, "metrics.json")
    with open(path) as fh:
        manifest = _require(json.load(fh), "manifest", path)
    where = f"{path} manifest"
    for key in ("m", "field_v", "cost"):
        _require(manifest, key, where)
    cost = manifest["cost"]
    if not isinstance(cost, (int, float)) or not math.isfinite(cost) or cost < 0:
        raise ValueError(f"{where} cost must be finite and nonnegative, got {cost!r}")
    m = manifest["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"{where} m must be an integer, got {m!r}")
    v = manifest["field_v"]
    if v is None:
        field = build_uniform_field(config.width, config.height)
    else:
        cx, cy = _require(manifest, "field_center", where)
        field = build_gaussian_field(config.width, config.height, v, (cx, cy))
    part = PlayerPartition.square_tiling(config.width, m)
    return config, field, part, manifest


def _cmd_run(args) -> int:
    cfg = validate_and_load(args.config, edge=args.edge, out_dir=args.out,
                            workers=args.workers, neighborhood=args.neighborhood,
                            seeds=[args.seed] if args.seed is not None else None)
    rows = run_sweep(cfg)
    print(f"wrote {len(rows)} runs to {cfg.out_dir}")
    return 0


def _cmd_oned(args) -> int:
    ns = [int(tok) for tok in args.n.split(",")]
    cs = [float(tok) for tok in args.c.split(",")]
    text = oned.emit_table(ns, cs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    config, field, part, manifest = _load_run_dir(args.run_dir)
    check = is_nash(config, field, part, manifest["cost"], scope=args.scope,
                    connectivity=manifest.get("connectivity", 4))
    w = welfare(config, field, manifest["cost"],
                connectivity=manifest.get("connectivity", 4))
    record = {
        "run_dir": args.run_dir,
        "scope": args.scope,
        "is_nash": check.is_nash,
        "max_deviation_gain": check.max_gain,
        "welfare": w,
        "density": config.density,
    }
    print(json.dumps(record, sort_keys=True))
    return 0 if check.is_nash else 1


def _cmd_fragility(args) -> int:
    config, field, part, manifest = _load_run_dir(args.run_dir)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    res = fragility_eval(config, field, manifest["cost"], args.trials, rng,
                         manifest.get("connectivity", 4))
    print(json.dumps({
        "run_dir": args.run_dir,
        "trials": args.trials,
        "seed": args.seed,
        "baseline_welfare": res.baseline_welfare,
        "mean_shifted_welfare": res.mean_shifted_welfare,
    }, sort_keys=True))
    return 0


def _cmd_fines(args) -> int:
    field = build_gaussian_field(args.edge, args.edge, args.v)
    part = PlayerPartition.square_tiling(args.edge, args.m)
    params = DynamicsParams(seed=args.seed, connectivity=args.neighborhood)
    out = {}
    for p in (float(tok) for tok in args.p.split(",")):
        w_p, _ = fines_experiment(field, part, args.c, p, params)
        out[f"{p:g}"] = w_p
    print(json.dumps({"edge": args.edge, "m": args.m, "c": args.c, "v": args.v,
                      "seed": args.seed, "welfare_by_fine": out}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="notforest")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a parameter sweep")
    p_run.add_argument("--config", default=None, help="flat key=value config file")
    p_run.add_argument("--seed", type=int, default=None, help="single master seed")
    p_run.add_argument("--edge", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--neighborhood", type=int, choices=(4, 8), default=None)
    p_run.set_defaults(func=_cmd_run)

    p_oned = sub.add_parser("oned", help="emit the 1-D closed-form table")
    p_oned.add_argument("--n", default="50,99,200,399", help="line lengths")
    p_oned.add_argument("--c", default="0,0.25,0.5", help="costs")
    p_oned.add_argument("--out", default=None)
    p_oned.set_defaults(func=_cmd_oned)

    p_verify = sub.add_parser("verify", help="equilibrium check of a run directory")
    p_verify.add_argument("--run-dir", required=True)
    p_verify.add_argument("--scope", choices=("single_flip", "exhaustive"),
                          default="single_flip")
    p_verify.set_defaults(func=_cmd_verify)

    p_frag = sub.add_parser("fragility", help="re-evaluate fragility of a run")
    p_frag.add_argument("--run-dir", required=True)
    p_frag.add_argument("--trials", type=int, default=50)
    p_frag.add_argument("--seed", type=int, default=0)
    p_frag.set_defaults(func=_cmd_fragility)

    p_fines = sub.add_parser("fines", help="planting-fine experiment")
    p_fines.add_argument("--edge", type=int, default=16)
    p_fines.add_argument("--m", type=int, required=True)
    p_fines.add_argument("--c", type=float, default=0.0)
    p_fines.add_argument("--v", type=float, default=10.0)
    p_fines.add_argument("--p", default="0,0.05", help="fine amounts")
    p_fines.add_argument("--seed", type=int, default=0)
    p_fines.add_argument("--neighborhood", type=int, choices=(4, 8), default=4)
    p_fines.set_defaults(func=_cmd_fines)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
