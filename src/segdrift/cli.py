"""Command-line front door: world generation, experiment runs, scoring.

Subcommands:
  gen-world  write a synthetic corridor world to a JSON file
  run        run pipelines over (mode, seed) cells and aggregate metrics
  eval       score an estimated TUM trajectory against a ground truth one

Exit codes: 0 success, 1 usage/configuration error, 2 runtime failure.
Every command runs with numpy overflow, invalid and divide errors raised,
so arithmetic that overflows fails its command, or its `run` cell, by name.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import statistics
import sys
from contextlib import suppress
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import metrics as met
from .frontend import DriftConfig, ObservationConfig
from .pipeline import ScheduleConfig, run as run_pipeline
from .geometry import check_int
from .worldgen import WorldSpec, generate_corridor, world_from_file, world_to_file

AGGREGATE_HEADER = ["mode", "seed", "ate_rmse", "rpe_rmse", "align_mode", "rpe_delta"]
CONFIG_KEYS = (
    "out_dir", "world", "world_file", "drift", "observation", "schedule", "modes", "seeds", "metrics"
)
CONFIG_SECTIONS = ("world", "drift", "observation", "schedule", "metrics")  # JSON objects
CONFIG_PATHS = ("out_dir", "world_file")  # strings
OBS_SEED_OFFSET = 1_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _world_spec_args(p: argparse.ArgumentParser) -> None:
    """One flag per WorldSpec field, defaulting to the field's default;
    `--seed` sets rng_seed."""
    for f in fields(WorldSpec):
        flag = "--seed" if f.name == "rng_seed" else "--" + f.name.replace("_", "-")
        metavar = "SEED" if f.name == "rng_seed" else None
        p.add_argument(flag, dest=f.name, metavar=metavar, type=type(f.default), default=f.default)


def _check_out(path: str | None) -> None:
    """Reject an empty --out before any work: it names no file."""
    if path == "":
        raise ValueError("--out must not be empty")


def cmd_gen_world(args) -> int:
    _check_out(args.out)
    spec = WorldSpec(**{f.name: getattr(args, f.name) for f in fields(WorldSpec)})
    world = generate_corridor(spec)
    world_to_file(world, args.out)
    print(f"wrote {args.out}: {len(world.endpoints)} segments, {world.n_frames} frames")
    return 0


def _load_experiment(args):
    """The checked plan of a run: (cfg, world, scoring, cells), each cell a (mode,
    seed, configs) triple. Every configuration error is raised here, before any output."""
    with open(args.config, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{args.config}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}; choose from {CONFIG_KEYS}")
    if args.out is not None:
        cfg["out_dir"] = args.out
    for key, value in cfg.items():
        if key in CONFIG_SECTIONS and not isinstance(value, dict):
            raise ValueError(f"config {key!r} must be a JSON object, got {value!r}")
        if key in CONFIG_PATHS and not isinstance(value, str):
            raise ValueError(f"config {key!r} must be a string, got {value!r}")
        if key in CONFIG_PATHS and not value:  # Path("") is the working directory
            raise ValueError(f"config {key!r} must not be empty")
    if "world" in cfg and "world_file" in cfg:  # the world section would go unchecked and unused
        raise ValueError("config sets both 'world' and 'world_file'; give one")
    if "out_dir" not in cfg:
        raise ValueError("no output directory: set 'out_dir' in the config or pass --out")
    _listed(cfg, "seeds", lambda seed: check_int("seed", seed, 0))
    cfg.setdefault("modes", ["baseline", "seg"])
    # Building a mode's cells checks the mode and every section they read.
    per_mode = _listed(
        cfg, "modes", lambda mode: [(mode, s, _cell_configs(cfg, mode, s)) for s in cfg["seeds"]]
    )
    scoring = _build_config(met.MetricsConfig, cfg.get("metrics", {}))
    if "world_file" in cfg:
        world = world_from_file(cfg["world_file"])
    else:
        world = generate_corridor(_build_config(WorldSpec, cfg.get("world", {})))
    # Every cell's trajectories hold one pose per frame, all of them matched.
    scoring.check_frames(world.n_frames)
    return cfg, world, scoring, [cell for cells in per_mode for cell in cells]


def _listed(cfg, key: str, check) -> list:
    """`check(item)` of each item of config `key`, a non-empty JSON list of
    distinct items; each is checked before the repeat test hashes it. A
    repeat would rerun a cell into the same directory and count it twice."""
    items = cfg.get(key)
    if not isinstance(items, list) or not items:
        raise ValueError(f"config {key!r} must be a non-empty JSON list, got {items!r}")
    checked = [check(item) for item in items]
    if len(set(items)) < len(items):
        raise ValueError(f"config {key!r} repeats a {key[:-1]}: {items}")
    return checked


def _build_config(cls, section: dict, **fixed):
    try:
        return cls(**fixed, **section)
    except TypeError as exc:  # unknown or duplicated key
        raise ValueError(f"bad config key: {exc}") from None


def _cell_configs(cfg, mode: str, seed: int):
    return (
        _build_config(DriftConfig, cfg.get("drift", {}), rng_seed=seed),
        _build_config(ObservationConfig, cfg.get("observation", {}), rng_seed=seed + OBS_SEED_OFFSET),
        _build_config(ScheduleConfig, cfg.get("schedule", {}), mode=mode),
    )


def _write_rows(path: Path, records, scoring) -> None:
    """A CSV of AGGREGATE_HEADER and one row per (mode, seed, outcome)
    record; a failed cell's outcome is its exception, and it scores nan."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(AGGREGATE_HEADER)
        for mode, seed, outcome in records:
            failed = isinstance(outcome, Exception)
            ate, rpe = (float("nan"),) * 2 if failed else (outcome.ate_rmse, outcome.rpe_rmse)
            w.writerow([mode, seed, repr(ate), repr(rpe), scoring.align_mode, scoring.rpe_delta])


def cmd_run(args) -> int:
    cfg, world, scoring, cells = _load_experiment(args)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if "world_file" not in cfg:
        world_to_file(world, out_dir / "world.json")
    else:  # the file as read; a rerun may read the world.json it wrote
        with suppress(shutil.SameFileError):
            shutil.copyfile(cfg["world_file"], out_dir / "world.json")

    records = []  # one (mode, seed, report or the exception it raised) per cell
    # The first cell whose pipeline runs formats the ground truth's fields;
    # every later trajectory, on the same timestamps, is lent them.
    gt_columns = None
    for mode, seed, configs in cells:
        cell_dir = out_dir / mode / f"seed{seed}"
        cell_dir.mkdir(parents=True, exist_ok=True)
        try:
            rr = run_pipeline(world, *configs)
            gt_columns = met.write_tum(world.trajectory, cell_dir / "gt.tum", gt_columns)
            met.write_tum(rr.emap.trajectory, cell_dir / "raw.tum", gt_columns)
            if rr.corrected_trajectory is rr.emap.trajectory:
                shutil.copyfile(cell_dir / "raw.tum", cell_dir / "corrected.tum")
            else:
                met.write_tum(rr.corrected_trajectory, cell_dir / "corrected.tum", gt_columns)
            report = met.evaluate(rr.corrected_trajectory, world.trajectory, scoring)
            manifest = {
                "mode": mode,
                "seed": seed,
                # out_dir is excluded so runs of one experiment are
                # byte-identical regardless of where they are written
                "config": {k: v for k, v in cfg.items() if k != "out_dir"},
                "n_map_points": len(rr.emap.points),
                "n_observations": len(rr.emap.observations),
                "n_clusters": len(rr.store),
                "discarded_observations": rr.discarded_observations,
                "objective_traces": [r.to_json() for r in rr.reports],
            }
            with open(cell_dir / "manifest.json", "w") as f:
                json.dump(manifest, f, indent=1)
            with open(cell_dir / "metrics.json", "w") as f:
                json.dump(report.to_json(), f, indent=1)
            _write_rows(cell_dir / "metrics.csv", [(mode, seed, report)], scoring)
            records.append((mode, seed, report))
        except Exception as exc:  # a failed cell must not sink the others
            records.append((mode, seed, exc))
    _write_rows(out_dir / "aggregate.csv", records, scoring)

    ates = {(m, s): r.ate_rmse for m, s, r in records if not isinstance(r, Exception)}
    errors = [{"mode": m, "seed": s, "error": str(r)} for m, s, r in records if isinstance(r, Exception)]
    summary: dict = {"errors": errors, "modes": {}}
    for mode in cfg["modes"]:
        ran = [ates[(mode, s)] for s in cfg["seeds"] if (mode, s) in ates]
        if not ran:
            continue
        entry = {"mean_ate": statistics.fmean(ran), "median_ate": statistics.median(ran), "n": len(ran)}
        both = [s for s in cfg["seeds"] if (mode, s) in ates and ("baseline", s) in ates]
        if mode != "baseline" and both:
            wins = sum(ates[(mode, s)] < ates[("baseline", s)] for s in both)
            entry["win_rate_vs_baseline"] = wins / len(both)
        summary["modes"][mode] = entry
    with open(out_dir / "summary.json", "w") as f:
        json.dump(summary, f, indent=1)

    print(json.dumps(summary["modes"], indent=1))
    return 2 if errors else 0


def cmd_eval(args) -> int:
    _check_out(args.out)
    scoring = met.MetricsConfig(args.align, args.rpe_delta)
    est = met.read_tum(args.est)
    gt = met.read_tum(args.gt)
    try:
        if args.interpolate_gt:
            gt = met.interpolate_trajectory(gt, est.timestamps)
        report = met.evaluate(est, gt, scoring)
    except FloatingPointError as exc:  # finite input beyond `main`'s errstate
        raise ValueError(f"cannot score {args.est} against {args.gt}: {exc}") from None
    payload = json.dumps(report.to_json(), indent=1)
    print(payload)
    if args.out is not None:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="segdrift")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-world", help="generate a synthetic corridor world")
    _world_spec_args(p)
    p.add_argument("--out", required=True, help="output world JSON path")
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("run", help="run an experiment over (mode, seed) cells")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score an estimated trajectory against ground truth")
    p.add_argument("est", help="estimated trajectory, TUM format")
    p.add_argument("gt", help="ground-truth trajectory, TUM format")
    p.add_argument("--align", default=met.MetricsConfig.align_mode, help=" | ".join(met.ALIGN_MODES))
    p.add_argument("--rpe-delta", type=int, default=met.MetricsConfig.rpe_delta)
    p.add_argument(
        "--interpolate-gt",
        action="store_true",
        help="resample gt at the est timestamps: positions splined, orientations slerped",
    )
    p.add_argument("--out", default=None, help="write the metrics JSON here too")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ValueError as exc:
        print(f"segdrift: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"segdrift: i/o failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"segdrift: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
