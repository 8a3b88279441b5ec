"""CLI subcommands: exit codes, outputs, determinism."""

import argparse
import csv
import filecmp
import json
import os
import re
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import segdrift.cli
import segdrift.metrics
from segdrift.cli import AGGREGATE_HEADER, main
from segdrift.metrics import Trajectory, write_tum
from segdrift.worldgen import WorldSpec, generate_corridor, world_from_file, world_to_file
from test_worldgen import HUGE_SPECS, OVERFLOWING_SPECS


def small_config(tmp_path, **overrides):
    cfg = {
        "world": {"corridor_length": 12, "door_spacing": 2},
        "drift": {"scale_sigma": 1e-3},
        "observation": {"detect_prob": 0.9, "endpoint_noise_sigma": 0.005},
        "modes": ["baseline", "seg"],
        "seeds": [0, 1],
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def main_without_warnings(argv) -> int:
    """`main(argv)`'s exit code, asserting it raised no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


def refuse_to_generate(spec):
    raise AssertionError(f"generated a world the spec check should have refused: {spec}")


def turning_trajectory(n=121):
    """n poses at 30 Hz along a quarter circle of radius 5 m, facing along it:
    the heading turns 90 degrees about z."""
    yaw = np.linspace(0.0, np.pi / 2, n)
    positions = 5.0 * np.stack([np.sin(yaw), 1.0 - np.cos(yaw), np.zeros(n)], axis=1)
    quats = np.stack([np.cos(yaw / 2), 0 * yaw, 0 * yaw, np.sin(yaw / 2)], axis=1)
    return Trajectory(np.arange(n) / 30.0, positions, quats)


CELL_FILES = ["corrected.tum", "gt.tum", "manifest.json", "metrics.csv", "metrics.json", "raw.tum"]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestGenWorld:
    def test_default_flags_writes_reparseable_world(self, tmp_path, capsys):
        out = tmp_path / "world.json"
        assert main(["gen-world", "--out", str(out)]) == 0
        world = world_from_file(out)
        assert len(world.endpoints) > 0
        assert "segments" in capsys.readouterr().out

    def test_invalid_spec_exits_1_names_constraint(self, tmp_path, capsys):
        out = tmp_path / "world.json"
        code = main([
            "gen-world", "--corridor-length", "2", "--door-spacing", "5", "--out", str(out)
        ])
        assert code == 1
        assert "door_spacing" in capsys.readouterr().err

    def test_spec_with_doorless_legs_exits_1_names_it(self, tmp_path, capsys):
        out = tmp_path / "world.json"
        code = main([
            "gen-world", "--corridor-length", "10", "--n-turns", "4", "--door-spacing", "3",
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert all(name in err for name in ("door_spacing", "n_turns", "legs of 2.0 m"))
        assert not out.exists()

    @pytest.mark.parametrize("fields, named", OVERFLOWING_SPECS + HUGE_SPECS)
    def test_overflowing_spec_exits_1_before_any_output(self, tmp_path, capsys, monkeypatch, fields, named):
        monkeypatch.setattr(segdrift.cli, "generate_corridor", refuse_to_generate)
        out = tmp_path / "world.json"
        flags = [x for k, v in fields.items() for x in ("--" + k.replace("_", "-"), str(v))]
        assert main_without_warnings(["gen-world", *flags, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: {named} " in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, fields",
        [
            ([], {}),
            (["--corridor-length", "12.5"], {"corridor_length": 12.5}),
            (["--door-spacing", "1.5"], {"door_spacing": 1.5}),
            (["--door-height", "2.5"], {"door_height": 2.5}),
            (["--door-width", "0.75"], {"door_width": 0.75}),
            (["--n-turns", "2"], {"n_turns": 2}),
            (["--turn-angle", "45"], {"turn_angle": 45.0}),
            (["--extra-unique-segments", "3"], {"extra_unique_segments": 3}),
            (["--seed", "7"], {"rng_seed": 7}),
        ],
    )
    def test_each_flag_sets_its_own_spec_field(self, tmp_path, monkeypatch, flags, fields):
        specs = []

        def record(spec):
            specs.append(spec)
            return generate_corridor(WorldSpec(corridor_length=4))

        monkeypatch.setattr(segdrift.cli, "generate_corridor", record)
        assert main(["gen-world", *flags, "--out", str(tmp_path / "world.json")]) == 0
        assert specs == [WorldSpec(**fields)]

    def test_seed_flag_keeps_its_metavar(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-world", "--help"])
        assert exc.value.code == 0
        assert "--seed SEED" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen-world", "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen-world", "--seed", "7", "--out", str(b)]) == 0
        assert filecmp.cmp(a, b, shallow=False)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-world"])
        assert exc.value.code == 1

    def test_empty_out_exits_1_before_any_work(self, tmp_path, monkeypatch, capsys):
        def fail(spec):
            raise AssertionError("world generated for an empty --out")

        monkeypatch.setattr(segdrift.cli, "generate_corridor", fail)
        monkeypatch.chdir(tmp_path)
        assert main(["gen-world", "--out", ""]) == 1
        captured = capsys.readouterr()
        assert "--out must not be empty" in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == []


class TestRun:
    def test_writes_expected_tree(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for mode in ("baseline", "seg"):
            for seed in (0, 1):
                cell = out / mode / f"seed{seed}"
                for name in ("raw.tum", "corrected.tum", "gt.tum",
                             "manifest.json", "metrics.json", "metrics.csv"):
                    assert (cell / name).is_file(), f"missing {cell / name}"
        assert (out / "aggregate.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["errors"] == []
        assert 0.0 <= summary["modes"]["seg"]["win_rate_vs_baseline"] <= 1.0

    def test_tum_files_of_every_cell(self, tmp_path, capsys):
        cfg = small_config(tmp_path, modes=["baseline", "seg", "segglobal"], seeds=[0, 1, 2])
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        world = world_from_file(out / "world.json")
        write_tum(world.trajectory, tmp_path / "gt.tum")
        fresh = (tmp_path / "gt.tum").read_bytes()
        solved = 0
        for mode in ("baseline", "seg", "segglobal"):
            for seed in (0, 1, 2):
                cell = out / mode / f"seed{seed}"
                assert (cell / "gt.tum").read_bytes() == fresh
                raw, corrected = (cell / "raw.tum").read_bytes(), (cell / "corrected.tum").read_bytes()
                if mode == "baseline":
                    assert corrected == raw
                elif json.loads((cell / "manifest.json").read_text())["objective_traces"]:
                    assert corrected != raw  # a solving cell writes its own correction
                    solved += 1
        assert solved

    def test_gt_tum_after_a_failed_first_cell(self, tmp_path, monkeypatch, capsys):
        # The first cell raises before it writes any TUM file, so the
        # second formats the ground truth itself.
        real = segdrift.cli.run_pipeline
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("no map")
            return real(*args)

        monkeypatch.setattr(segdrift.cli, "run_pipeline", fails_once)
        assert main(["run", "--config", str(small_config(tmp_path, modes=["seg"]))]) == 2
        out = tmp_path / "out"
        write_tum(world_from_file(out / "world.json").trajectory, tmp_path / "gt.tum")
        assert (out / "seg" / "seed1" / "gt.tum").read_bytes() == (tmp_path / "gt.tum").read_bytes()
        assert list((out / "seg" / "seed0").iterdir()) == []
        summary = json.loads((out / "summary.json").read_text())
        assert summary["errors"] == [{"mode": "seg", "seed": 0, "error": "no map"}]

    def test_zero_drift_baseline_ate_zero(self, tmp_path, capsys):
        cfg = small_config(
            tmp_path, drift={}, observation={}, modes=["baseline"], seeds=[3]
        )
        assert main(["run", "--config", str(cfg)]) == 0
        metrics = json.loads(
            (tmp_path / "out" / "baseline" / "seed3" / "metrics.json").read_text()
        )
        assert metrics["ate_rmse"] < 1e-9

    def test_rerun_byte_identical_tree(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run1")]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run2")]) == 0
        t1, t2 = tree_bytes(tmp_path / "run1"), tree_bytes(tmp_path / "run2")
        assert t1.keys() == t2.keys()
        mismatched = [k for k in t1 if t1[k] != t2[k]]
        assert mismatched == []

    @pytest.mark.parametrize("failing", [{("baseline", 1)}, {("seg", 0), ("seg", 1)}])
    def test_failed_cells_exit_2_and_are_reported(self, tmp_path, monkeypatch, capsys, failing):
        # One cell fails, or every cell of one mode; the others still run.
        real = segdrift.cli.run_pipeline

        def flaky(world, drift, observation, schedule):
            if (schedule.mode, drift.rng_seed) in failing:
                raise RuntimeError(f"no map for {schedule.mode} seed {drift.rng_seed}")
            return real(world, drift, observation, schedule)

        monkeypatch.setattr(segdrift.cli, "run_pipeline", flaky)
        assert main(["run", "--config", str(small_config(tmp_path))]) == 2
        out = tmp_path / "out"
        cells = [(mode, seed) for mode in ("baseline", "seg") for seed in (0, 1)]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["errors"] == [
            {"mode": m, "seed": s, "error": f"no map for {m} seed {s}"} for m, s in cells if (m, s) in failing
        ]
        assert json.loads(capsys.readouterr().out) == summary["modes"]
        with open(out / "aggregate.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == AGGREGATE_HEADER
        assert [(row[0], int(row[1])) for row in rows] == cells
        ates = {}
        for (mode, seed), row in zip(cells, rows):
            cell = out / mode / f"seed{seed}"
            if (mode, seed) in failing:
                assert row[2:4] == ["nan", "nan"]
                assert list(cell.iterdir()) == []
            else:
                assert sorted(os.listdir(cell)) == CELL_FILES
                ates[(mode, seed)] = json.loads((cell / "metrics.json").read_text())["ate_rmse"]
                assert float(row[2]) == ates[(mode, seed)]
        for mode in ("baseline", "seg"):
            ran = [ates[(mode, s)] for s in (0, 1) if (mode, s) in ates]
            if not ran:
                assert mode not in summary["modes"]
                continue
            entry = summary["modes"][mode]
            assert (entry["n"], entry["mean_ate"]) == (len(ran), statistics.fmean(ran))
        both = [s for s in (0, 1) if ("seg", s) in ates and ("baseline", s) in ates]
        if both:
            wins = sum(ates[("seg", s)] < ates[("baseline", s)] for s in both)
            assert summary["modes"]["seg"]["win_rate_vs_baseline"] == wins / len(both)

    @pytest.mark.parametrize(
        "section", [{"observation": {"endpoint_noise_sigma": 1e300}}, {"schedule": {"rel_threshold": 1e300}}]
    )
    def test_overflowing_cell_fails_by_name(self, tmp_path, capsys, section):
        # Outside pytest the warning filter is "default": an overflow would
        # only warn, and the cell would write nonsense. It fails instead.
        overrides = {"world": {"corridor_length": 10, "door_spacing": 2}, "observation": {}, **section}
        cfg = small_config(tmp_path, modes=["seg"], seeds=[0], **overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert main(["run", "--config", str(cfg)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["errors"] == [{"mode": "seg", "seed": 0, "error": "overflow encountered in multiply"}]
        assert capsys.readouterr().err == ""

    def test_cell_configs_built_once_per_cell(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = segdrift.cli._cell_configs

        def spy(cfg, mode, seed):
            calls.append((mode, seed))
            return real(cfg, mode, seed)

        monkeypatch.setattr(segdrift.cli, "_cell_configs", spy)
        assert main(["run", "--config", str(small_config(tmp_path, seeds=[1, 0]))]) == 0
        assert calls == [("baseline", 1), ("baseline", 0), ("seg", 1), ("seg", 0)]

    def test_config_not_an_object_exits_1_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"seeds": [0], "out_dir": str(tmp_path / "out")}]))
        assert main(["run", "--config", str(path)]) == 1
        assert "config must be a JSON object" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_config_without_out_dir_exits_1_before_any_output(self, tmp_path, monkeypatch, capsys):
        cfg = small_config(tmp_path)
        cfg.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text()).items() if k != "out_dir"}))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", "--config", str(cfg)]) == 1
        assert "no output directory: set 'out_dir' in the config or pass --out" in capsys.readouterr().err
        assert os.listdir(cwd) == []
        assert sorted(os.listdir(tmp_path)) == ["config.json", "cwd"]

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_without_seeds_exits_1(self, tmp_path, capsys):
        cfg = small_config(tmp_path, seeds=[])
        assert main(["run", "--config", str(cfg)]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"seeds": [0, 0]}, "seeds"),
            ({"seeds": [1, 0, 1]}, "seeds"),
            ({"modes": ["baseline", "seg", "seg"]}, "modes"),
            ({"modes": []}, "modes"),
            ({"modes": "seg"}, "modes"),
            ({"modes": [["seg"]]}, "mode must be one of"),
        ],
    )
    def test_repeated_seed_or_mode_or_no_mode_exits_1_before_any_output(
        self, tmp_path, capsys, overrides, named
    ):
        cfg = small_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_mode_exits_1(self, tmp_path, capsys):
        cfg = small_config(tmp_path, modes=["baseline", "warp"])
        assert main(["run", "--config", str(cfg)]) == 1
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, fields, named",
        [
            ("drift", {"scale_sigmaa": 1e-3}, "scale_sigmaa"),
            ("observation", {"detect_probability": 0.9}, "detect_probability"),
            ("schedule", {"window": 5}, "window"),
            # settings the schedule no longer holds
            ("schedule", {"local_window": 5}, "local_window"),
            ("schedule", {"iteration_cap": 10}, "iteration_cap"),
            ("schedule", {"anchor_weight": 1e-3}, "anchor_weight"),
            # fixed simulator choices, now module constants
            ("observation", {"max_range": 8.0}, "'max_range'"),
            ("observation", {"min_segment_length": 0.3}, "'min_segment_length'"),
            ("schedule", {"keyframe_interval": 10}, "'keyframe_interval'"),
            ("world", {"length": 12}, "length"),
        ],
    )
    def test_unknown_config_key_exits_1_before_any_output(
        self, tmp_path, capsys, section, fields, named
    ):
        cfg = small_config(tmp_path, **{section: fields})
        assert main(["run", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, fields, named",
        [
            ("drift", {"scale_sigma": float("nan")}, "scale_sigma"),
            ("observation", {"endpoint_noise_sigma": float("nan")}, "endpoint_noise_sigma"),
            ("schedule", {"rel_threshold": -1}, "rel_threshold"),
            ("world", {"door_width": float("inf")}, "door_width"),
            # an int too large for a float
            ("schedule", {"rel_threshold": 10**400}, "rel_threshold"),
        ],
    )
    def test_bad_config_value_exits_1_before_any_output(
        self, tmp_path, capsys, section, fields, named
    ):
        cfg = small_config(tmp_path, **{section: fields})
        assert main(["run", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields, named", OVERFLOWING_SPECS + HUGE_SPECS)
    def test_overflowing_world_exits_1_before_any_output(self, tmp_path, capsys, monkeypatch, fields, named):
        monkeypatch.setattr(segdrift.cli, "generate_corridor", refuse_to_generate)
        cfg = small_config(tmp_path, world=fields)
        assert main_without_warnings(["run", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"error: {named} " in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"world": {"corridor_length": 12, "n_turns": 1.5}}, "n_turns"),
            ({"world": {"corridor_length": 12, "extra_unique_segments": 2.5}}, "extra_unique_segments"),
            ({"world": {"corridor_length": 12, "rng_seed": 0.5}}, "rng_seed"),
            ({"seeds": [0.5]}, "seed"),
            ({"seeds": ["a"]}, "seed"),
            ({"seeds": [0, True]}, "seed"),
            ({"seeds": [0, -1]}, "seed"),
            ({"seeds": 3}, "seed"),
        ],
    )
    def test_non_integer_count_or_seed_exits_1_before_any_output(
        self, tmp_path, capsys, overrides, named
    ):
        cfg = small_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0.001", None, True, [0.001]])
    @pytest.mark.parametrize(
        "section, name",
        [
            ("drift", "scale_sigma"),
            ("observation", "detect_prob"),
            ("observation", "endpoint_noise_sigma"),
            ("schedule", "rel_threshold"),
            ("world", "door_width"),
            ("world", "turn_angle"),
        ],
    )
    def test_non_number_float_parameter_exits_1_before_any_output(
        self, tmp_path, capsys, section, name, value
    ):
        cfg = small_config(tmp_path, **{section: {name: value}})
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"{name} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_schedule_value_checked_for_every_mode(self, tmp_path, capsys):
        # A baseline-only run never solves, yet its schedule is checked too.
        cfg = small_config(tmp_path, modes=["baseline"], schedule={"rel_threshold": -1})
        assert main(["run", "--config", str(cfg)]) == 1
        assert "rel_threshold" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"schedual": {"local_window": 5}}, "schedual"),
            ({"metrics": {"align_mode": "affine"}}, "align_mode"),
            ({"metrics": {"rpe_delta": 0}}, "rpe_delta"),
            ({"metrics": {"rpe_delta": 2.5}}, "rpe_delta"),
            ({"metrics": {"rpe_delta": "30"}}, "rpe_delta"),
            ({"metrics": {"rpe_delta": True}}, "rpe_delta"),
            ({"metrics": {"rpe_dleta": 30}}, "rpe_dleta"),
        ],
    )
    def test_bad_top_level_or_metrics_exits_1_before_any_output(
        self, tmp_path, capsys, overrides, named
    ):
        cfg = small_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("metrics", 5, "a JSON object"),
            ("metrics", None, "a JSON object"),
            ("metrics", "abc", "a JSON object"),
            ("world", [12], "a JSON object"),
            ("drift", 3, "a JSON object"),
            ("observation", "detect_prob", "a JSON object"),
            ("schedule", None, "a JSON object"),
            ("out_dir", 5, "a string"),
            ("out_dir", None, "a string"),
            ("world_file", 7, "a string"),
            ("world_file", ["world.json"], "a string"),
        ],
    )
    def test_wrong_json_type_exits_1_before_any_output(self, tmp_path, capsys, key, value, kind):
        cfg = small_config(tmp_path, **{key: value})
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"config {key!r} must be {kind}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize(
        "overrides, flags, key",
        [
            ({"out_dir": ""}, [], "out_dir"),
            ({}, ["--out", ""], "out_dir"),
            ({"world_file": ""}, [], "world_file"),
        ],
    )
    def test_empty_path_exits_1_before_any_output(
        self, tmp_path, monkeypatch, capsys, overrides, flags, key
    ):
        # An empty path is the working directory: nothing may land there.
        cfg = small_config(tmp_path, **overrides)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", "--config", str(cfg), *flags]) == 1
        assert f"config {key!r} must not be empty" in capsys.readouterr().err
        assert os.listdir(cwd) == []
        assert sorted(os.listdir(tmp_path)) == ["config.json", "cwd"]

    @pytest.mark.parametrize(
        "section, field, index, value, named",
        [
            ("segments", "a", 4 * 3, float("nan"), "segment 4 has a non-finite endpoint"),
            ("segments", "b", 4 * 3 + 2, float("-inf"), "segment 4 has a non-finite endpoint"),
            # the last of 300 timestamps, so they still increase
            ("trajectory", "t", -1, float("inf"), "trajectory entry 299: non-finite timestamp"),
            ("trajectory", "q", 4 * 4, float("nan"), "trajectory entry 4: non-finite quaternion"),
            ("trajectory", "p", 4 * 3, float("inf"), "trajectory entry 4: non-finite position"),
        ],
    )
    def test_non_finite_world_file_exits_1_before_any_output(
        self, tmp_path, capsys, section, field, index, value, named
    ):
        world_path = tmp_path / "world.json"
        assert main(["gen-world", "--corridor-length", "10", "--out", str(world_path)]) == 0
        doc = json.loads(world_path.read_text())
        doc[section][field][index] = value
        world_path.write_text(json.dumps(doc))
        cfg = json.loads(small_config(tmp_path).read_text())
        del cfg["world"]
        cfg["world_file"] = str(world_path)
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "damage, named",
        [
            ("drop_y", "segments field 'archetype' has 12 entries, field 'a' 8"),
            ("zero_length", "segment 4 endpoints must differ"),
            ("one_object_per_segment", "world file section 'segments' must be an object, got list"),
            ("one_object_per_pose", "world file section 'trajectory' must be an object, got list"),
        ],
    )
    def test_malformed_world_file_exits_1_before_any_output(self, tmp_path, capsys, damage, named):
        # 8 m: 4 doors, 12 segments. With 2-D endpoints the 24 numbers of
        # 'a' and of 'b' would re-chunk into 8 three-D entries if only the
        # count of numbers were checked.
        world_path = tmp_path / "world.json"
        assert main(["gen-world", "--corridor-length", "8", "--out", str(world_path)]) == 0
        doc = json.loads(world_path.read_text())
        seg = doc["segments"]
        assert len(seg["archetype"]) == 12
        if damage == "drop_y":
            for key in ("a", "b"):  # keep x and z: no segment collapses
                seg[key] = [x for i, x in enumerate(seg[key]) if i % 3 != 1]
        elif damage == "zero_length":
            seg["b"][12:15] = seg["a"][12:15]
        else:  # the layout of files written before the columnar one
            world = world_from_file(world_path)
            traj = world.trajectory
            ends = zip(world.endpoints.tolist(), world.archetypes.tolist())
            poses = zip(traj.timestamps.tolist(), traj.quaternions.tolist(), traj.positions.tolist())
            doc["trajectory"] = [{"t": t, "q": q, "p": p} for t, q, p in poses]
            if damage == "one_object_per_segment":
                doc["segments"] = [{"a": a, "b": b, "archetype": k} for (a, b), k in ends]
        world_path.write_text(json.dumps(doc))
        cfg = json.loads(small_config(tmp_path).read_text())
        del cfg["world"]
        cfg["world_file"] = str(world_path)
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, field, damage, named",
        [
            ("segments", "a", lambda v: v[:4] + [True] + v[5:], "segments field 'a' entry 1 must be 3 numbers"),
            ("trajectory", "t", lambda v: v[:2] + ["0.5"] + v[3:], "trajectory field 't' entry 2 must be a number"),
            (
                "segments", "archetype", lambda v: [0.0] + v[1:],
                "segments field 'archetype' entry 0 must be an integer, got 0.0",
            ),
            ("segments", "b", lambda v: v[:-1], "segments field 'b' entry 11 has 2 of 3 numbers"),
            (
                "trajectory", "q", lambda v: v[:-4],
                "trajectory field 'q' has 239 entries, field 't' 240: entry 239 has no 'q'",
            ),
            (
                "trajectory", "p", lambda v: v[:7] + [10**400] + v[8:],
                "trajectory field 'p' entry 2 holds a number out of range",
            ),
        ],
    )
    def test_malformed_world_file_column_exits_1_before_any_output(
        self, tmp_path, capsys, section, field, damage, named
    ):
        world_path = tmp_path / "world.json"
        assert main(["gen-world", "--corridor-length", "8", "--out", str(world_path)]) == 0
        doc = json.loads(world_path.read_text())
        doc[section][field] = damage(doc[section][field])
        world_path.write_text(json.dumps(doc))
        cfg = world_file_config(tmp_path, world_path)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "world, metrics, named",
        [
            ({"corridor_length": 4}, {"rpe_delta": 100000}, "rpe_delta 100000 must be below the world's frame count 120"),
            ({"corridor_length": 4}, {"rpe_delta": 120}, "rpe_delta 120 must be below the world's frame count 120"),
            ({"corridor_length": 0.1, "door_spacing": 0.03}, {"rpe_delta": 3}, "frame count 3"),
            (
                {"corridor_length": 0.07, "door_spacing": 0.02}, {"rpe_delta": 1},
                "align_mode 'similarity' needs at least 3 frames, the world has 2",
            ),
            (
                {"corridor_length": 0.07, "door_spacing": 0.02}, {"rpe_delta": 1, "align_mode": "rigid"},
                "align_mode 'rigid' needs at least 3 frames, the world has 2",
            ),
        ],
    )
    def test_metrics_beyond_the_world_exit_1_before_any_output(
        self, tmp_path, capsys, world, metrics, named
    ):
        cfg = small_config(tmp_path, world=world, metrics=metrics)
        assert main(["run", "--config", str(cfg)]) == 1
        assert named in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["config.json"]

    @pytest.mark.parametrize(
        "world, metrics",
        [
            ({"corridor_length": 4}, {"rpe_delta": 119}),
            ({"corridor_length": 0.1, "door_spacing": 0.03}, {"rpe_delta": 2}),
            ({"corridor_length": 0.07, "door_spacing": 0.02}, {"rpe_delta": 1, "align_mode": "none"}),
        ],
    )
    def test_metrics_within_the_world_run(self, tmp_path, capsys, world, metrics):
        cfg = small_config(tmp_path, world=world, metrics=metrics)
        assert main(["run", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["errors"] == []

    def test_world_beside_world_file_exits_1_before_any_output(self, tmp_path, capsys):
        world_path = tmp_path / "world.json"
        assert main(["gen-world", "--corridor-length", "10", "--out", str(world_path)]) == 0
        cfg = small_config(
            tmp_path,
            world_file=str(world_path),
            world={"corridor_lenght": 40, "door_width": -5},
            modes=["baseline"],
            seeds=[0],
        )
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "'world'" in err and "'world_file'" in err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "world.json"]

    def test_metrics_section_applied(self, tmp_path, capsys):
        cfg = small_config(
            tmp_path, modes=["baseline"], seeds=[0], metrics={"align_mode": "rigid", "rpe_delta": 5}
        )
        assert main(["run", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        assert rows[1].endswith(",rigid,5")

    def test_world_file_input(self, tmp_path, capsys):
        world_path = tmp_path / "world.json"
        assert main([
            "gen-world", "--corridor-length", "10", "--out", str(world_path)
        ]) == 0
        cfg = small_config(tmp_path, world_file=str(world_path), seeds=[0])
        del_cfg = json.loads(cfg.read_text())
        del_cfg.pop("world")
        cfg.write_text(json.dumps(del_cfg))
        assert main(["run", "--config", str(cfg)]) == 0


def world_file_config(tmp_path, world_path, **overrides):
    cfg = json.loads(small_config(tmp_path, world_file=str(world_path), **overrides).read_text())
    del cfg["world"]
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return tmp_path / "config.json"


class TestWorldJson:
    """`world.json` is the `world_file` as read, or the generated world."""

    def test_non_canonical_world_file_copied_as_written(self, tmp_path, capsys):
        world_path = tmp_path / "world_in.json"
        assert main(["gen-world", "--corridor-length", "10", "--out", str(world_path)]) == 0
        cfg = world_file_config(tmp_path, world_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "canonical")]) == 0
        doc = json.loads(world_path.read_text())
        doc["trajectory"]["t"] = [int(t) if t.is_integer() else t for t in doc["trajectory"]["t"]]
        compact = json.dumps(doc, separators=(",", ":")).encode()
        assert b'"t":[0,' in compact
        world_path.write_bytes(compact)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "compact")]) == 0
        canonical, copied = tree_bytes(tmp_path / "canonical"), tree_bytes(tmp_path / "compact")
        assert copied.pop("world.json") == compact
        assert canonical.pop("world.json") != compact
        assert copied == canonical

    def test_rerun_from_its_own_world_json_leaves_it_alone(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config(tmp_path, seeds=[0]))]) == 0
        before = tree_bytes(out)
        cfg = world_file_config(tmp_path, out / "world.json", seeds=[0])
        assert main(["run", "--config", str(cfg)]) == 0
        after = tree_bytes(out)
        assert after["world.json"] == before["world.json"]
        assert after.keys() == before.keys()

    def test_world_section_written_by_world_to_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(small_config(tmp_path, seeds=[0]))]) == 0
        world_to_file(generate_corridor(WorldSpec(corridor_length=12, door_spacing=2)), tmp_path / "expected.json")
        assert (tmp_path / "out" / "world.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


class TestInputParseErrors:
    """A file that is not JSON or not UTF-8 exits 1 with `path: reason`."""

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"seeds": [0] "modes": ["seg"]}')
        assert main(["run", "--config", str(path)]) == 1
        assert f"{path}: Expecting ',' delimiter" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"\xd8": 1}')
        assert main(["run", "--config", str(path)]) == 1
        assert f"{path}: 'utf-8' codec can't decode byte 0xd8" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_world_file_not_utf8(self, tmp_path, capsys):
        world_path = tmp_path / "world.json"
        assert main(["gen-world", "--corridor-length", "10", "--out", str(world_path)]) == 0
        world_path.write_bytes(b"{\xd8" + world_path.read_bytes()[1:])
        cfg = world_file_config(tmp_path, world_path)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{world_path}: 'utf-8' codec can't decode byte 0xd8" in err
        assert not (tmp_path / "out").exists()

    def test_eval_tum_not_utf8(self, tmp_path, capsys):
        est, gt = tmp_path / "est.tum", tmp_path / "gt.tum"
        write_tum(turning_trajectory(), gt)
        est.write_bytes(b"# \xd8\n" + gt.read_bytes())
        assert main(["eval", str(est), str(gt)]) == 1
        captured = capsys.readouterr()
        assert f"{est}: 'utf-8' codec can't decode byte 0xd8" in captured.err
        assert captured.out == ""


class TestEval:
    def run_small(self, tmp_path):
        cfg = small_config(tmp_path, modes=["baseline"], seeds=[0])
        assert main(["run", "--config", str(cfg)]) == 0
        cell = tmp_path / "out" / "baseline" / "seed0"
        return cell / "corrected.tum", cell / "gt.tum"

    def test_eval_matches_run_metrics(self, tmp_path, capsys):
        est, gt = self.run_small(tmp_path)
        run_metrics = json.loads((est.parent / "metrics.json").read_text())
        capsys.readouterr()
        assert main(["eval", str(est), str(gt)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ate_rmse"] == pytest.approx(run_metrics["ate_rmse"], rel=1e-6)

    def test_eval_writes_json_file(self, tmp_path, capsys):
        est, gt = self.run_small(tmp_path)
        out_path = tmp_path / "metrics.json"
        assert main(["eval", str(est), str(gt), "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["align_mode"] == "similarity"

    def test_eval_empty_out_exits_1_before_any_output(self, tmp_path, monkeypatch, capsys):
        est, gt = self.run_small(tmp_path)
        before = tree_bytes(tmp_path)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        assert main(["eval", str(est), str(gt), "--out", ""]) == 1
        captured = capsys.readouterr()
        assert "--out must not be empty" in captured.err
        assert captured.out == ""  # no metrics printed: nothing was scored
        assert os.listdir(cwd) == []
        assert tree_bytes(tmp_path) == before

    def test_eval_align_none(self, tmp_path, capsys):
        est, gt = self.run_small(tmp_path)
        capsys.readouterr()
        assert main(["eval", str(est), str(gt), "--align", "none"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["alignment"]["scale"] == 1.0

    def test_eval_unknown_align_mode_exits_1(self, tmp_path, capsys):
        est, gt = self.run_small(tmp_path)
        capsys.readouterr()
        assert main(["eval", str(est), str(gt), "--align", "affine"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "segdrift: error: align_mode must be one of ('similarity', 'rigid', 'none'), got 'affine'\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("delta", [0, -3])
    def test_eval_bad_rpe_delta_exits_1_as_run_does(self, tmp_path, capsys, delta):
        est, gt = self.run_small(tmp_path)
        message = f"segdrift: error: rpe_delta must be an integer >= 1, got {delta}\n"
        capsys.readouterr()
        assert main(["eval", str(est), str(gt), "--rpe-delta", str(delta)]) == 1
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""  # no metrics printed: nothing was scored
        (tmp_path / "run").mkdir()
        cfg = small_config(tmp_path / "run", metrics={"rpe_delta": delta})
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "run" / "out").exists()

    def test_eval_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "a.tum"), str(tmp_path / "b.tum")]) == 2

    def test_eval_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tum"
        bad.write_text("1 2 3\n")
        gt = tmp_path / "gt.tum"
        gt.write_text("0 0 0 0 0 0 0 1\n")
        assert main(["eval", str(bad), str(gt)]) == 1

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0 nan 0 0 0 0 1", "non-finite position"),
            ("0 0 0 0 0 inf 1", "non-finite quaternion"),
            ("0 0 0 0 0 0 0", "zero-norm quaternion"),
            ("0 0 0 1e300 0 0 1e300", "quaternion norm overflows"),
            ("0 0 abc 0 0 0 1", "non-numeric field"),
        ],
    )
    def test_eval_bad_row_exits_1_naming_line(self, tmp_path, capsys, row, message):
        est, gt = self.run_small(tmp_path)
        lines = est.read_text().splitlines(keepends=True)
        lines[1] = f"{lines[1].split()[0]} {row}\n"
        est.write_text("".join(lines))
        capsys.readouterr()
        assert main(["eval", str(est), str(gt), "--out", str(tmp_path / "metrics.json")]) == 1
        captured = capsys.readouterr()
        assert f"corrected.tum:2: {message}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("align", segdrift.metrics.ALIGN_MODES)
    def test_eval_overflow_exits_1_naming_both_files(self, tmp_path, capsys, align):
        # Positions near 1e300 m read as finite, but their squares overflow:
        # in the alignment, or in the ATE's row norms when unaligned.
        est, gt = self.run_small(tmp_path)
        traj = segdrift.metrics.read_tum(est)
        huge = tmp_path / "huge.tum"
        write_tum(Trajectory(traj.timestamps, 1e300 * (traj.positions + 1.0), traj.quaternions), huge)
        out_path = tmp_path / "metrics.json"
        capsys.readouterr()
        assert main(["eval", str(huge), str(gt), "--align", align, "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"segdrift: error: cannot score {huge} against {gt}: overflow encountered in "
        )
        assert captured.out == ""
        assert not out_path.exists()

    def test_eval_names_first_bad_line_of_several(self, tmp_path, capsys):
        # a NaN quaternion on line 3, then a NaN timestamp on line 5
        est, gt = self.run_small(tmp_path)
        lines = est.read_text().splitlines(keepends=True)
        lines[2] = " ".join(lines[2].split()[:4] + ["nan", "0", "0", "1"]) + "\n"
        lines[4] = " ".join(["nan"] + lines[4].split()[1:]) + "\n"
        bad = tmp_path / "bad.tum"
        bad.write_text("".join(lines))
        capsys.readouterr()
        assert main(["eval", str(bad), str(gt)]) == 1
        captured = capsys.readouterr()
        assert f"{bad}:3: non-finite quaternion" in captured.err
        assert captured.out == ""

    def test_eval_non_increasing_timestamp_names_line(self, tmp_path, capsys):
        est, gt = self.run_small(tmp_path)
        lines = gt.read_text().splitlines(keepends=True)
        lines[5] = lines[4]  # line 6 repeats line 5's timestamp
        dup = tmp_path / "dup.tum"
        dup.write_text("".join(lines))
        capsys.readouterr()
        assert main(["eval", str(est), str(dup)]) == 1
        t = float(lines[4].split()[0])
        assert f"dup.tum:6: timestamps must be strictly increasing, got {t!r} after {t!r}" in capsys.readouterr().err

    def test_eval_interpolate_gt(self, tmp_path, capsys):
        est, gt = self.run_small(tmp_path)
        capsys.readouterr()
        assert main(["eval", str(est), str(gt), "--interpolate-gt"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ate_rmse"] >= 0.0

    @pytest.mark.parametrize("mode", ["baseline", "seg", "segglobal"])
    def test_run_files_pair_row_for_row(self, tmp_path, capsys, monkeypatch, mode):
        # A cell's TUM files keep the timestamps' bits, so `eval` of its own
        # files, and of an interpolated gt, matches every frame without the walk.
        cfg = small_config(tmp_path, modes=[mode], seeds=[0])
        assert main(["run", "--config", str(cfg)]) == 0
        cell = tmp_path / "out" / mode / "seed0"
        gt_lines = (cell / "gt.tum").read_text().splitlines(keepends=True)
        n_frames = len(gt_lines)
        # every third gt row, the last included: interpolation does not extrapolate
        sparse = tmp_path / "sparse_gt.tum"
        keep = sorted({*range(0, n_frames, 3), n_frames - 1})
        sparse.write_text("".join(gt_lines[k] for k in keep))

        def walk(*args):
            raise AssertionError("the greedy walk ran")

        monkeypatch.setattr(segdrift.metrics, "_match_walk", walk)
        capsys.readouterr()
        for argv in (
            [str(cell / "raw.tum"), str(cell / "gt.tum")],
            [str(cell / "corrected.tum"), str(cell / "gt.tum")],
            [str(cell / "corrected.tum"), str(sparse), "--interpolate-gt"],
        ):
            assert main(["eval", *argv]) == 0
            assert json.loads(capsys.readouterr().out)["n_matched"] == n_frames

    @pytest.mark.parametrize("stride, bound", [(1, 1e-9), (5, 1e-3)])
    def test_eval_interpolate_gt_follows_turning_orientation(self, tmp_path, capsys, stride, bound):
        # The estimate is the ground truth; gt keeps every stride-th pose,
        # the last included. Identity gt orientations give an RPE of 0.52 m
        # here.
        traj = turning_trajectory()
        keep = np.arange(0, len(traj), stride)
        est, gt = tmp_path / "est.tum", tmp_path / "gt.tum"
        write_tum(traj, est)
        write_tum(Trajectory(traj.timestamps[keep], traj.positions[keep], traj.quaternions[keep]), gt)
        argv = ["eval", str(est), str(gt), "--rpe-delta", "10", "--interpolate-gt"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_matched"] == len(traj)
        assert out["ate_rmse"] < bound and out["rpe_rmse"] < bound


class TestUsage:
    def test_readme_configs_load(self, tmp_path):
        # Every experiment config README shows (a JSON block with seeds)
        # passes the checks `run` makes before its first write.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        configs = [b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if '"seeds"' in b]
        assert len(configs) >= 2  # experiment.json and the criterion-2 config
        for i, text in enumerate(configs):
            path = tmp_path / f"config{i}.json"
            path.write_text(text)
            out = tmp_path / f"out{i}"
            segdrift.cli._load_experiment(argparse.Namespace(config=str(path), out=str(out)))
            assert not out.exists()

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # The runtime needs numpy only: neither the import nor the spline of
        # `eval --interpolate-gt` loads scipy.
        traj = turning_trajectory()
        est, gt = tmp_path / "est.tum", tmp_path / "gt.tum"
        write_tum(traj, est)
        write_tum(traj, gt)
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, segdrift.cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "assert segdrift.cli.main(sys.argv[1:]) == 0\n"
            "print(scipy())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, "eval", str(est), str(gt), "--interpolate-gt"],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        lines = out.stdout.splitlines()
        assert lines[0] == "[]"
        assert "ate_rmse" in out.stdout
        assert lines[-1] == "[]"

    def test_plain_corridor_leaves_numpy_random_unloaded(self):
        # Only clutter draws from a generator, so generating a plain corridor
        # loads no `numpy.random` that importing numpy did not.
        code = (
            "import sys\n"
            "from segdrift.worldgen import WorldSpec, generate_corridor\n"
            "def loaded(): return 'numpy.random' in sys.modules\n"
            "before = loaded()\n"
            "generate_corridor(WorldSpec())\n"
            "plain = loaded()\n"
            "generate_corridor(WorldSpec(extra_unique_segments=3))\n"
            "print(before, plain, loaded())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        before, plain, clutter = out.stdout.split()
        assert plain == before
        assert clutter == "True"

    def test_package_root_re_exports_nothing(self):
        # Each name is imported from the module that owns it: loading one
        # module loads only that module's imports, and the root has no `run`.
        code = (
            "import sys, segdrift.geometry\n"
            "print('segdrift.pipeline' in sys.modules, hasattr(sys.modules['segdrift'], 'run'))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.split() == ["False", "False"]

    def test_commands_run_with_scipy_unimportable(self, tmp_path):
        # `sys.modules["scipy"] = None` makes every scipy import fail, so
        # each command below exits 0 on numpy alone.
        world, out = tmp_path / "world.json", tmp_path / "out"
        config = world_file_config(tmp_path, world, out_dir=str(out), seeds=[0])
        cell = out / "seg" / "seed0"
        commands = [
            ["gen-world", "--corridor-length", "12", "--out", str(world)],
            ["run", "--config", str(config)],
            ["eval", str(cell / "corrected.tum"), str(cell / "gt.tum"), "--interpolate-gt"],
        ]
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import segdrift.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert segdrift.cli.main(argv) == 0, argv\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        modes = json.loads(config.read_text())["modes"]
        assert modes == ["baseline", "seg"]
        assert all((out / mode / "seed0" / "metrics.json").is_file() for mode in modes)

    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
