"""Workload definitions and set-up shared by run.py, the set-up probe and
the reference recorder.

Every workload runs the same drift and observation noise (criterion 2's
settings) over a fixed list of pipeline seeds; only the world and the
pipeline mode differ. Importing this module imports nothing from
segdrift: `import_cli` does that, from the checkout's own `src/`, so the
benchmark always measures the source tree it sits in.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One BLAS thread: the machine is small and shared, and a single thread keeps
# the dense solves' timing steady. Set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DRIFT = {"scale_sigma": 1e-3}
OBSERVATION = {"detect_prob": 0.8, "endpoint_noise_sigma": 0.01}
METRICS = {"align_mode": "similarity", "rpe_delta": 30}


@dataclass(frozen=True)
class Workload:
    name: str
    world: dict  # WorldSpec keyword arguments
    mode: str
    seeds: tuple[int, ...]  # pipeline seeds; one cell per (mode, seed)


# Why each workload exists, and which metrics each layer should move on it,
# is recorded in BENCHMARK.json and README.md beside this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corridor40-segglobal",
            {"corridor_length": 40.0, "door_spacing": 2.0},
            "segglobal",
            (0, 1, 2),
        ),
        Workload(
            "clutter60-seg",
            {"corridor_length": 60.0, "n_turns": 2, "extra_unique_segments": 150},
            "seg",
            (0, 1, 2),
        ),
        Workload(
            "corridor120-baseline",
            {"corridor_length": 120.0, "n_turns": 3},
            "baseline",
            (0, 1, 2),
        ),
    )
}


def import_cli():
    """Import segdrift.cli from this checkout's src/, or exit 1 if it is absent."""
    if not (SRC / "segdrift" / "__init__.py").is_file():
        sys.exit(f"perfbench: no segdrift sources at {SRC}; run from a checkout")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import segdrift.cli

    if SRC.resolve() not in Path(segdrift.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: segdrift imported from {segdrift.cli.__file__}, not {SRC}")
    return segdrift.cli


def cell_config(workload: Workload, seed: int, world_file: Path) -> dict:
    return {
        "world_file": str(world_file),
        "drift": DRIFT,
        "observation": OBSERVATION,
        "modes": [workload.mode],
        "seeds": [seed],
        "metrics": METRICS,
    }


def prepare(workload: Workload, directory: Path) -> tuple[int, dict[int, Path]]:
    """Generate the workload's world, write it and one config per seed.

    Looks segdrift's functions up at call time, so a traced run sees them
    through its patches. Returns the world's frame count and the config
    path of each seed.
    """
    from segdrift import worldgen

    world = worldgen.generate_corridor(worldgen.WorldSpec(**workload.world))
    world_file = directory / "world.json"
    worldgen.world_to_file(world, world_file)
    configs = {}
    for seed in workload.seeds:
        path = directory / f"cell-seed{seed}.json"
        path.write_text(json.dumps(cell_config(workload, seed, world_file)))
        configs[seed] = path
    return world.n_frames, configs
