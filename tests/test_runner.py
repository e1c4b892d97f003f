"""Sweep orchestration: config parsing, artifact layout, reproducibility."""

import hashlib
import json
import math
import os

import pytest

from notforest import GridConfig, PlayerPartition, build_gaussian_field, is_nash
from notforest.runner import (
    ExperimentConfig,
    run_cell,
    run_sweep,
    validate_and_load,
)


def tiny_config(out_dir, **kwargs):
    cfg = ExperimentConfig(edge=8, m_values=[4], c_values=[0.0], v_values=[10.0],
                           seeds=[0], fragility_trials=5, out_dir=str(out_dir),
                           iteration_overrides={4: (3, 20)}, m_defaulted=False)
    for key, val in kwargs.items():
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


class TestValidateAndLoad:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = validate_and_load(str(path))
        assert cfg.edge == 32
        # Default player counts, restricted to what a 32-edge grid admits.
        assert cfg.m_values == [1, 4, 16, 64, 256, 1024]
        assert cfg.c_values == [0.0, 0.25, 0.5, 0.75, 0.9]
        assert cfg.v_values == [0.1, 1.0, 10.0, 100.0]

    def test_no_path_gives_defaults(self):
        cfg = validate_and_load(None)
        assert cfg.edge == 32 and cfg.seeds == [0]

    def test_parses_keys_and_comments(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# comment\n"
            "edge = 16\n"
            "m = 1, 4   # two player counts\n"
            "c = 0, 0.5\n"
            "v = 10\n"
            "seeds = 0, 1\n"
            "fines = 0.05\n"
            "iters = 4:5:30\n"
            "out = somewhere\n")
        cfg = validate_and_load(str(path))
        assert cfg.edge == 16 and cfg.m_values == [1, 4]
        assert cfg.c_values == [0.0, 0.5] and cfg.seeds == [0, 1]
        assert cfg.fines == [0.05] and cfg.out_dir == "somewhere"
        assert cfg.iteration_overrides == {4: (5, 30)}

    def test_rejects_non_power_of_4_m(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("m = 3\n")
        with pytest.raises(ValueError):
            validate_and_load(str(path))

    def test_rejects_infeasible_m_for_edge(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("edge = 32\nm = 16384\n")
        with pytest.raises(ValueError):
            validate_and_load(str(path))

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate = 1\n")
        with pytest.raises(ValueError):
            validate_and_load(str(path))

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("edge 16\n")
        with pytest.raises(ValueError):
            validate_and_load(str(path))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(edge=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(c_values=[-0.5]).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(v_values=[0.0]).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(neighborhood=5).validate()
        for key, name, value in (("c_values", "c", math.inf), ("c_values", "c", math.nan),
                                 ("v_values", "v", math.inf), ("v_values", "v", math.nan),
                                 ("fines", "fines", math.inf), ("fines", "fines", math.nan)):
            with pytest.raises(ValueError, match=f"{name} values must be finite"):
                ExperimentConfig(**{key: [value]}).validate()
        with pytest.raises(ValueError, match="seeds must be nonnegative"):
            ExperimentConfig(seeds=[-1]).validate()
        for m in (0, -4):
            with pytest.raises(ValueError, match=f"m={m} is not a power of 4"):
                ExperimentConfig(edge=16, m_values=[m], m_defaulted=False).validate()
        # The sweep admits exactly the player counts square_tiling tiles.
        tiled = {(6, 1), (6, 4), (8, 1), (8, 4), (8, 16), (8, 64),
                 (16, 1), (16, 4), (16, 16), (16, 64)}
        for edge in (6, 8, 16):
            for m in (0, -4, 1, 2, 4, 8, 16, 64):
                cfg = ExperimentConfig(edge=edge, m_values=[m], m_defaulted=False)
                if (edge, m) in tiled:
                    assert PlayerPartition.square_tiling(edge, m).m == m
                    cfg.validate()
                    continue
                with pytest.raises(ValueError):
                    PlayerPartition.square_tiling(edge, m)
                with pytest.raises(ValueError, match=f"m={m} is not a power of 4"):
                    cfg.validate()

    @pytest.mark.parametrize("key, values", [
        ("m_values", [4, 4]),
        ("seeds", [0, 0]),
        ("c_values", [0.25, 0.25]),
        # Same "{:g}" directory name and the same round(c * 1e6) seed entropy.
        ("c_values", [0.25, 0.2500001]),
        # Same directory name "100", different seed entropy.
        ("v_values", [100.0001, 100.0002]),
        # Different directory names "1e-07" and "2e-07", same seed entropy 0.
        ("c_values", [1e-7, 2e-7]),
        ("v_values", [10.0, 10.0]),
        ("fines", [0.05, 0.05]),
        # Same summary column "fine_W_0.05" and the same derived fine seed.
        ("fines", [0.05, 0.050000001]),
    ])
    def test_rejects_colliding_sweep_values(self, key, values):
        cfg = ExperimentConfig(edge=8, m_values=[4], m_defaulted=False)
        setattr(cfg, key, values)
        with pytest.raises(ValueError, match="share a run directory"):
            cfg.validate()

    def test_accepts_distinct_sweep_values(self):
        ExperimentConfig(edge=8, m_values=[1, 4], c_values=[0.25, 0.2500011],
                         v_values=[10.0, 100.0], seeds=[0, 1],
                         m_defaulted=False).validate()

    def test_cells_lexical_order(self):
        cfg = ExperimentConfig(edge=8, m_values=[4, 1], c_values=[0.5, 0.0],
                               v_values=[10.0], seeds=[1, 0], m_defaulted=False)
        cells = cfg.cells()
        assert cells == sorted(cells)
        assert len(cells) == 2 * 2 * 1 * 2


class TestRunCell:
    def test_artifacts_and_summary_row(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        row = run_cell(cfg, 4, 0.0, 10.0, 0)
        assert row["m"] == 4 and row["welfare"] > 0
        cell_dir = os.path.join(cfg.out_dir, "runs", "4_0_10_0")
        for name in ("grid.txt", "grid.pgm", "metrics.json", "ccdf.csv", "trace.csv"):
            assert os.path.exists(os.path.join(cell_dir, name))
        with open(os.path.join(cell_dir, "metrics.json")) as fh:
            blob = json.load(fh)
        assert blob["manifest"]["master_seed"] == 0
        assert blob["metrics"]["welfare"] == row["welfare"]

    def test_metrics_record_nash_gap(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        row = run_cell(cfg, 4, 0.0, 10.0, 0)
        cell_dir = os.path.join(cfg.out_dir, "runs", "4_0_10_0")
        with open(os.path.join(cell_dir, "grid.txt")) as fh:
            config = GridConfig.from_text(fh.read())
        with open(os.path.join(cell_dir, "metrics.json")) as fh:
            metrics = json.load(fh)["metrics"]
        check = is_nash(config, build_gaussian_field(8, 8, 10.0),
                        PlayerPartition.square_tiling(8, 4), 0.0)
        assert metrics["nash_gap"] == row["nash_gap"] == check.max_gain
        assert metrics["profitable_flips"] == row["profitable_flips"] == check.profitable_flips

    def test_metrics_record_change_counts(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        run_cell(cfg, 4, 0.0, 10.0, 0)
        with open(os.path.join(cfg.out_dir, "runs", "4_0_10_0", "metrics.json")) as fh:
            blob = json.load(fh)
        changes = blob["metrics"]["changes_per_round"]
        assert len(changes) == blob["manifest"]["t_br"] and sum(changes) > 0
        last = blob["metrics"]["last_change_round"]
        assert changes[last] > 0 and not any(changes[last + 1:])
        run_cell(cfg, 4, 1.0, 10.0, 0)
        with open(os.path.join(cfg.out_dir, "runs", "4_1_10_0", "metrics.json")) as fh:
            metrics = json.load(fh)["metrics"]
        assert not any(metrics["changes_per_round"])
        assert metrics["last_change_round"] == -1

    def test_fine_column(self, tmp_path):
        cfg = tiny_config(tmp_path / "out", fines=[0.05])
        row = run_cell(cfg, 4, 0.0, 10.0, 0)
        assert "fine_W_0.05" in row


class TestRunSweep:
    def test_single_cell_sweep(self, tmp_path):
        cfg = tiny_config(tmp_path / "out")
        rows = run_sweep(cfg)
        assert len(rows) == 1
        with open(os.path.join(cfg.out_dir, "summary.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("m,c,v,seed,welfare,density,C")
        assert os.path.exists(os.path.join(cfg.out_dir, "manifest.json"))

    def test_rerun_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = tiny_config(tmp_path / "b")
        run_sweep(cfg_a)
        run_sweep(cfg_b)
        for name in ("summary.csv", "manifest.json"):
            with open(os.path.join(cfg_a.out_dir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(cfg_b.out_dir, name), "rb") as fh:
                b = fh.read()
            assert a == b.replace(str(cfg_b.out_dir).encode(),
                                  str(cfg_a.out_dir).encode())

    def test_workers_do_not_change_output(self, tmp_path):
        cfg_serial = tiny_config(tmp_path / "serial", seeds=[0, 1])
        cfg_parallel = tiny_config(tmp_path / "parallel", seeds=[0, 1], workers=2)
        rows_s = run_sweep(cfg_serial)
        rows_p = run_sweep(cfg_parallel)
        assert rows_s == rows_p

    def test_adding_seed_keeps_existing_cells(self, tmp_path):
        # Per-cell seeds depend only on the cell's own coordinates, so a
        # grown sweep reproduces the original cells bit-exactly.
        cfg_small = tiny_config(tmp_path / "small", seeds=[0])
        cfg_big = tiny_config(tmp_path / "big", seeds=[0, 1])
        run_sweep(cfg_small)
        run_sweep(cfg_big)
        for name in ("grid.txt", "metrics.json"):
            with open(os.path.join(cfg_small.out_dir, "runs", "4_0_10_0", name)) as fh:
                a = fh.read()
            with open(os.path.join(cfg_big.out_dir, "runs", "4_0_10_0", name)) as fh:
                b = fh.read()
            assert a == b


# sha256 of the golden sweep's artifacts.  trace.csv and metrics.json are left
# out: their columns and manifest keys are still expected to grow.
GOLDEN_SHA256 = {
    "summary.csv": "f2fdcb3fc4ff4f417dcdeedeb624d0a7024d732fad5f8dcc41561bfe444cddb3",
    "runs/1_0_10_0/grid.txt": "fe8df99b8bf821329678a7cad820941f8e10c999ce501cb05d4271f2840af355",
    "runs/1_0_10_0/ccdf.csv": "174e4493347ec46787697fbb2949b551e7eee467be639127ca9bc3ebf409ed8b",
    "runs/1_0.25_10_0/grid.txt": "ba46f54bea26f82a0ea94fce7d91cfa2c54d167ff96f76b2f423c829523ef009",
    "runs/1_0.25_10_0/ccdf.csv": "0bf65cd4b74927de789e96742fac3821e769a912e7e4f07983c860cd23843d6a",
    "runs/4_0_10_0/grid.txt": "95387ea4b526b21265ca68f0991c855c3c00b85527d0932ad104bb0bd921eae0",
    "runs/4_0_10_0/ccdf.csv": "90c716a9fdfcea3b7c3c658669a7ba5a60f79cd10d01fab994b6682c761309a6",
    "runs/4_0.25_10_0/grid.txt": "2e1ea0e057da2957a1dccb1f8eabd71b146702d29708d42266946497f93f42d4",
    "runs/4_0.25_10_0/ccdf.csv": "b038e7d6438c95a4857bdfd83ff171d6eabb0c3ebc7570ad6d54d5fc1f884871",
    "runs/16_0_10_0/grid.txt": "1fe3b9c943ae30955e42cc140418fd89264944ac4439e59c931e197169560ab0",
    "runs/16_0_10_0/ccdf.csv": "a2c0e937fae02364a19b6a805b88138c53aeecc7d14619ec0cd7b3fd284d98cb",
    "runs/16_0.25_10_0/grid.txt": "f33cddcfa11640d48a6113765516f80726cad1c8b15ed50b77fed86466a90c1d",
    "runs/16_0.25_10_0/ccdf.csv": "6c87e43be5eeea4cbf66ed28199dc5b782778dc765119a88c3a87db2b7b670d2",
}


def test_golden_sweep_artifacts(tmp_path):
    # Refactors must leave these bytes alone; a change that alters them on
    # purpose records the new hashes and says why.
    cfg = ExperimentConfig(edge=8, m_values=[1, 4, 16], c_values=[0.0, 0.25],
                           v_values=[10.0], seeds=[0], fragility_trials=5, fines=[0.05],
                           out_dir=str(tmp_path), m_defaulted=False)
    run_sweep(cfg)
    changed = []
    for name, digest in GOLDEN_SHA256.items():
        with open(os.path.join(tmp_path, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                changed.append(name)
    assert not changed, f"artifacts differ from the golden sweep: {changed}"
