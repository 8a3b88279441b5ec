"""Every benchmark cell reproduces its recorded ATE and RPE.

`perfbench/references.json` holds the scores of each (workload, seed)
cell that `perfbench/run.py` checks a run against. These tests load the
workload definitions (read only, no bytecode written), write each world
into a temporary directory and run every recorded cell through the CLI,
so a change that moves any output fails here as well as in the benchmark.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

from segdrift import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())
REL_TOLERANCE = 1e-9  # perfbench/run.py's REL_TOLERANCE


def load_workloads():
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    # `@dataclass` looks its class's module up in sys.modules.
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


WORKLOADS = load_workloads()


def reference_key(workload, seed: int) -> str:
    return f"{workload.name}/{workload.mode}/seed{seed}"


def test_every_cell_has_a_reference():
    cells = {reference_key(w, s) for w in WORKLOADS.WORKLOADS.values() for s in w.seeds}
    assert cells == set(REFERENCES)


@pytest.mark.parametrize("name", list(WORKLOADS.WORKLOADS))
def test_cells_reproduce_references(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name]
    _, configs = WORKLOADS.prepare(workload, tmp_path)
    for seed, config in configs.items():
        out = tmp_path / f"out-seed{seed}"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / workload.mode / f"seed{seed}" / "metrics.json").read_text())
        ref = REFERENCES[reference_key(workload, seed)]
        for key, ref_key in (("ate_rmse", "ate_m"), ("rpe_rmse", "rpe_m")):
            assert math.isclose(report[key], ref[ref_key], rel_tol=REL_TOLERANCE, abs_tol=1e-12), (
                f"{name} seed {seed}: {key} {report[key]!r} != reference {ref[ref_key]!r}"
            )
