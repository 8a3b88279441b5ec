#!/usr/bin/env python3
"""One-off record of the criterion-2 grid, for comparison with its 120 s budget.

    python3 perfbench/criterion2.py --trace 1 --out perfbench/records/criterion2-traced.json

Runs the acceptance suite's criterion-2 grid (40 m corridor, doors every
2 m, scale_sigma 1e-3, endpoint noise 0.01, detect_prob 0.8, seeds 0-19)
as one `segdrift run` call per mode, so each mode also pays for the CLI's
metrics and writes. Records the wall time of each mode and of the grid,
and with --trace 1 the per-layer breakdown of each mode (totals over the
mode's 20 seeds). This is
informative: it is not one of the benchmark's workloads.
"""

import argparse
import contextlib
import csv
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run
import tracing
import workloads as wl

BUDGET_S = 120.0
MODES = ("baseline", "seg", "segglobal")
SEEDS = tuple(range(20))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=1)
    p.add_argument("--out", required=True, help="record JSON path")
    args = p.parse_args()

    cli = wl.import_cli()
    wl.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="criterion2-", dir=wl.WORK))
    tracer = tracing.Tracer()
    walls: dict[str, float] = {}
    counts: dict[int, dict] = {}
    ates: dict[str, list[float]] = {}
    try:
        with tracer.install() if args.trace else contextlib.nullcontext():
            grid = wl.Workload("criterion2", wl.WORKLOADS["corridor40-segglobal"].world, "", ())
            n_frames, _ = wl.prepare(grid, tmp)
            for i, mode in enumerate(MODES):
                config = tmp / f"{mode}.json"
                cfg = wl.cell_config(grid, 0, tmp / "world.json")
                config.write_text(json.dumps({**cfg, "modes": [mode], "seeds": list(SEEDS)}))
                tracer.begin_cell(i)
                t0 = perf_counter()
                rc = run.call_cli(cli, ["run", "--config", str(config), "--out", str(tmp / mode)])
                walls[mode] = perf_counter() - t0
                counts[i] = tracer.end_cell()
                if rc != 0:
                    print(f"criterion2: {mode} exited {rc}", file=sys.stderr)
                    return 2
                with open(tmp / mode / "aggregate.csv") as f:
                    ates[mode] = [float(row["ate_rmse"]) for row in csv.DictReader(f)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    total = sum(walls.values())
    record = {
        "grid": {"world": grid.world, "modes": list(MODES), "seeds": list(SEEDS), "frames": n_frames},
        "traced": bool(args.trace),
        "wall_s": {"total": total, **walls},
        "budget_s": BUDGET_S,
        "within_budget": total < BUDGET_S,
        "median_ate_m": {mode: statistics.median(v) for mode, v in ates.items()},
        "seg_wins_vs_baseline": sum(s < b for s, b in zip(ates["seg"], ates["baseline"])),
        "machine": run.machine(),
    }
    if args.trace:
        record["per_mode_layers"] = {
            mode: tracer.layer_metrics({i: counts[i]}, walls[mode]) for i, mode in enumerate(MODES)
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("wall_s", "within_budget", "median_ate_m", "seg_wins_vs_baseline")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
