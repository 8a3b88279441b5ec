#!/usr/bin/env python3
"""segdrift benchmark: closed-loop `segdrift run` cells, one process.

    python3 perfbench/run.py --workload corridor40-segglobal --seed 1 --seconds 25 --trace 0

One client runs cells back to back. A cell is one in-process
`segdrift.cli.main(["run", ...])` call on a one-mode, one-seed config whose
world file was written during set-up, so it pays for everything a user's
`segdrift run` does: config and world load, simulate, clustering, cluster
solves, pose propagation, metrics and the TUM/JSON writes. `--seed` only
shuffles the order of the workload's fixed pipeline seeds; cells run until
`--seconds` have passed and every pipeline seed has run at least once.

Every cell is checked: exit code 0, finite ATE/RPE equal to the values in
references.json, and TUM files with one row per frame. A failed check
counts in `failed` and is never dropped.

--trace 0 prints the end-to-end metrics (tracing off), with times
rescaled to a reference machine speed sampled during each cell and each
set-up (see speed.py); raw wall times are printed beside them. --trace 1 wraps
each layer's public functions (see tracing.py), runs the first pipeline
seed twice so its counts must repeat exactly, and prints the per-layer
metrics. The last stdout line is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import tracing
import workloads as wl
import speed

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
SETUP_PROBE = HERE / "setup_probe.py"
SETUP_PROBES = 3  # set-up samples per run; setup_s is their median
REL_TOLERANCE = 1e-9  # on ATE/RPE against references.json

END_TO_END_UNITS = {  # times at reference speed (see speed.py)
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_s.p50": "s",
    "peak_rss_mb": "MiB",
    "ate_m.median": "m",
    "rpe_m.median": "m",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="shuffles the order of cells")
    p.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cell_order(seeds, rng: random.Random, repeat_first: bool):
    """Endless shuffled passes over the seeds; optionally the first seed twice."""
    batch = list(seeds)
    rng.shuffle(batch)
    if repeat_first:
        batch.insert(0, batch[0])
    while True:
        yield from batch
        batch = list(seeds)
        rng.shuffle(batch)


def call_cli(cli, argv) -> int:
    """One cell: `segdrift run` in process, its stdout summary discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing cell is a failed cell, not a failed benchmark
        traceback.print_exc()
        return 2


def read_cell(out_dir: Path, mode: str, seed: int, n_frames: int) -> tuple[dict, dict]:
    """Return (metrics.json, manifest.json) of one cell; raise ValueError if malformed."""
    cell_dir = out_dir / mode / f"seed{seed}"
    for name in ("raw.tum", "corrected.tum", "gt.tum"):
        with open(cell_dir / name) as f:
            rows = sum(1 for _ in f)
        if rows != n_frames:
            raise ValueError(f"{name} has {rows} rows, expected {n_frames}")
    report = json.loads((cell_dir / "metrics.json").read_text())
    manifest = json.loads((cell_dir / "manifest.json").read_text())
    for key in ("ate_rmse", "rpe_rmse"):
        if not math.isfinite(report[key]):
            raise ValueError(f"{key} is {report[key]}")
    return report, manifest


def reference_key(workload: wl.Workload, seed: int) -> str:
    return f"{workload.name}/{workload.mode}/seed{seed}"


def check_against_reference(report: dict, ref: dict | None) -> str | None:
    if ref is None:
        return "no reference value"
    for key, ref_key in (("ate_rmse", "ate_m"), ("rpe_rmse", "rpe_m")):
        if not math.isclose(report[key], ref[ref_key], rel_tol=REL_TOLERANCE, abs_tol=1e-12):
            return f"{key} {report[key]!r} != reference {ref[ref_key]!r}"
    return None


def manifest_counts(manifest: dict) -> dict[str, int]:
    """The traced counts a cell's manifest also states."""
    traces = manifest["objective_traces"]
    return {
        "frontend.observations": manifest["n_observations"],
        "clustering.clusters": manifest["n_clusters"],
        "clusteropt.solve.calls": len(traces),
        "clusteropt.lm_iterations": sum(t["iterations"] for t in traces),
    }


def run_cells(cli, workload, configs, n_frames, seconds, rng, tmp: Path, tracer=None) -> dict:
    refs = json.loads(REFERENCES.read_text())
    counts_by_seed: dict[int, dict] = {}
    cells = []
    problems = []
    order = cell_order(workload.seeds, rng, repeat_first=tracer is not None)
    probe = None if tracer else speed.SpeedProbe()
    start = perf_counter()
    while perf_counter() - start < seconds or {c["seed"] for c in cells} != set(workload.seeds):
        seed = next(order)
        out_dir = tmp / f"cell{len(cells)}"
        argv = ["run", "--config", str(configs[seed]), "--out", str(out_dir)]
        if tracer:
            tracer.begin_cell(len(cells))
        with probe.sampling() if probe else contextlib.nullcontext():
            t0 = perf_counter()
            rc = call_cli(cli, argv)
            wall = perf_counter() - t0
        cell = {"seed": seed, "wall_s": wall, "ref_s": None, "rc": rc, "ok": False, "ate_m": None, "rpe_m": None}
        if probe:
            slices_s, mean_slice_s = probe.summary()
            cell["wall_s"] = wall - slices_s
            cell["ref_s"] = speed.at_reference_speed(cell["wall_s"], mean_slice_s)
        cells.append(cell)
        counts = tracer.end_cell() if tracer else None
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}")
            report, manifest = read_cell(out_dir, workload.mode, seed, n_frames)
            cell["ate_m"], cell["rpe_m"] = report["ate_rmse"], report["rpe_rmse"]
            mismatch = check_against_reference(report, refs.get(reference_key(workload, seed)))
            if mismatch:
                raise ValueError(mismatch)
            cell["ok"] = True
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"cell {len(cells) - 1} (seed {seed}): {exc}")
        if counts is not None:
            if cell["ok"]:
                for key, value in manifest_counts(manifest).items():
                    if counts[key] != value:
                        problems.append(f"seed {seed}: traced {key} {counts[key]} != manifest {value}")
            if seed in counts_by_seed and counts_by_seed[seed] != counts:
                diff = {k: (counts_by_seed[seed][k], v) for k, v in counts.items() if counts_by_seed[seed][k] != v}
                problems.append(f"seed {seed}: counts differ between two runs: {diff}")
            counts_by_seed.setdefault(seed, counts)
            cell["counts"] = counts
        shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "cells": cells,
        "wall_s": perf_counter() - start,
        "problems": problems,
        "repeated_counts": len(cells) - len(counts_by_seed) if tracer else 0,
    }


def setup_times(workload: wl.Workload, tmp: Path) -> list[tuple[float, float]]:
    """Set-up in fresh processes, from process start to world and configs
    written: (wall seconds, seconds at reference speed) per process."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = tmp / f"probe{i}"
        probe_dir.mkdir()
        start = monotonic()  # CLOCK_MONOTONIC, shared with the child
        done = subprocess.run(
            [sys.executable, str(SETUP_PROBE), workload.name, str(probe_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        report = json.loads(done.stdout)
        own = report["done"] - start - report["slices_s"]
        times.append((own, speed.at_reference_speed(own, report["mean_slice_s"])))
    return times


def machine(**extra) -> dict:
    """The machine and library versions, plus the caller's run description."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in wl.BLAS_ENV},
        **extra,
    }


def end_to_end(run: dict, setup: list[tuple[float, float]]) -> dict[str, float]:
    ok = [c for c in run["cells"] if c["ok"]]
    by_seed = {c["seed"]: c for c in ok}  # each seed's ATE/RPE is exact, so one per seed
    ref_s = [c["ref_s"] for c in run["cells"]]
    return {
        "setup_s": statistics.median(s for _, s in setup),
        "cells_per_s": len(ok) / sum(ref_s),
        "cell_s.p50": statistics.median(ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ate_m.median": statistics.median(c["ate_m"] for c in by_seed.values()) if ok else 0.0,
        "rpe_m.median": statistics.median(c["rpe_m"] for c in by_seed.values()) if ok else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    cli = wl.import_cli()  # exits 1 outside a checkout with src/
    wl.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=wl.WORK))
    rng = random.Random(args.seed)
    setup = []
    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.install():
                n_frames, configs = wl.prepare(workload, tmp)
                run = run_cells(cli, workload, configs, n_frames, args.seconds, rng, tmp, tracer)
            tracer.write(wl.WORK / f"spans-{workload.name}.jsonl")
            counts = {i: c["counts"] for i, c in enumerate(run["cells"])}
            layer = tracer.layer_metrics(counts, run["wall_s"])
            metrics = {k: (v, tracing.unit(k)) for k, v in layer.items()}
            if not run["repeated_counts"]:
                run["problems"].append("no cell ran twice, so counts were not compared")
        else:
            setup = setup_times(workload, tmp)
            n_frames, configs = wl.prepare(workload, tmp)
            run = run_cells(cli, workload, configs, n_frames, args.seconds, rng, tmp)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(run, setup).items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    cells = run["cells"]
    failed = sum(not c["ok"] for c in cells)
    for i, c in enumerate(cells):
        at_ref = "" if c["ref_s"] is None else f" ({c['ref_s']:.3f} s at reference speed)"
        print(f"cell {i:3d} seed {c['seed']:3d} wall {c['wall_s']:8.3f} s{at_ref}  rc {c['rc']}  "
              f"ate {c['ate_m']}  rpe {c['rpe_m']}  {'ok' if c['ok'] else 'FAILED'}")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"fail_ratio {failed / len(cells):.6g} ({failed} of {len(cells)} cells failed)")
    print(
        f"cell wall time, not gated: cells_per_s {(len(cells) - failed) / run['wall_s']:.6g} 1/s, "
        f"cell_s.p50 {statistics.median(c['wall_s'] for c in cells):.6g} s"
    )
    if setup:
        print(f"set-up wall time, not gated: setup_s {statistics.median(w for w, _ in setup):.6g} s")
    description = machine(
        workload=workload.name,
        mode=workload.mode,
        world=workload.world,
        pipeline_seeds=list(workload.seeds),
        bench_seed=args.seed,
        seconds=args.seconds,
    )
    print("machine " + json.dumps(description))
    result = {
        "correct": failed == 0 and not run["problems"],
        "attempted": len(cells),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
