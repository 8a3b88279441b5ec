#!/usr/bin/env python3
"""Record references.json: the ATE/RPE of every (workload, mode, seed) cell.

    python3 perfbench/record_references.py

run.py fails any cell whose ATE or RPE differs from these values by more
than its relative tolerance. Re-record only for a change that is meant to
alter the trajectories, and say so in that change.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads as wl


def main() -> None:
    cli = wl.import_cli()
    wl.WORK.mkdir(exist_ok=True)
    cells = {}
    for workload in wl.WORKLOADS.values():
        tmp = Path(tempfile.mkdtemp(prefix="references-", dir=wl.WORK))
        try:
            n_frames, configs = wl.prepare(workload, tmp)
            for seed, config in configs.items():
                out_dir = tmp / f"seed{seed}"
                rc = run.call_cli(cli, ["run", "--config", str(config), "--out", str(out_dir)])
                if rc != 0:
                    raise SystemExit(f"{workload.name} seed {seed}: exit code {rc}")
                report, _ = run.read_cell(out_dir, workload.mode, seed, n_frames)
                key = run.reference_key(workload, seed)
                cells[key] = {"ate_m": report["ate_rmse"], "rpe_m": report["rpe_rmse"]}
                print(key, cells[key])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(cells, indent=1) + "\n")


if __name__ == "__main__":
    main()
