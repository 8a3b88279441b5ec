"""The benchmark tracer's contract with the package.

`perfbench/tracing.py` patches functions by the names its callers look
them up under and counts from their results. A rename or a changed return
type silently zeroes a traced metric, so these tests load the tracer
(read only, no bytecode written) and check it against the sources.
"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

from segdrift import cli
from segdrift.clustering import ClusterStore
from segdrift.frontend import EstimatedMap, simulate
from segdrift.geometry import Trajectory
from segdrift.worldgen import world_from_file

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_target_resolves(tracing):
    for module_name, path, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(module_name, path)
        assert callable(owner.__dict__[attr]), f"{module_name}.{path}"


def test_counts_match_the_cell_manifest(tracing, tmp_path):
    cfg = {
        "world": {"corridor_length": 10, "door_spacing": 2},
        "drift": {"scale_sigma": 1e-3},
        "observation": {"detect_prob": 0.8, "endpoint_noise_sigma": 0.01},
        "modes": ["seg"],
        "seeds": [3],
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    tracer = tracing.Tracer()
    with tracer.install():
        tracer.begin_cell(0)
        assert cli.main(["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0
        counts = tracer.end_cell()
    assert tracer.missing == []
    manifest = json.loads((tmp_path / "out" / "seg" / "seed3" / "manifest.json").read_text())
    assert counts["frontend.points"] == manifest["n_map_points"] > 0
    assert counts["frontend.observations"] == manifest["n_observations"] > 0
    assert counts["clustering.clusters"] == manifest["n_clusters"]
    assert counts["clusteropt.solve.calls"] == len(manifest["objective_traces"])

    # Every traced cell name is on the path such a cell takes, so a step that
    # its caller reaches under another name shows here, not as a metric of 0.
    # Not reached: `ClusterStore.assign`, which the batched assignment
    # bypasses, and `world_from_file`, since the world comes from `world`.
    # Set-up spans are timed where the benchmark generates its world.
    spans = {tracer.names[span[0]] for span in tracer.spans}
    unreached = {"clustering.assign", "worldgen.world_from_file"}
    assert set(tracing.SPAN_NAMES) - set(tracing.SETUP_SPANS) - spans == unreached
    assert counts["metrics.associate.calls"] == 1
    # gt.tum, raw.tum and corrected.tum each go through the traced writer.
    assert [tracer.names[span[0]] for span in tracer.spans].count("metrics.write_tum") == 3

    # The simulate hook alone, on the cell's own simulate result.
    drift, obs, _ = cli._cell_configs(cfg, "seg", 3)
    emap = simulate(world_from_file(tmp_path / "out" / "world.json"), drift, obs)
    direct = dict.fromkeys(tracing.COUNTS, 0)
    tracing._count_simulate(direct, (), emap, None)
    assert direct["frontend.points"] == manifest["n_map_points"]
    assert direct["frontend.observations"] == manifest["n_observations"]


def test_world_file_run_loads_and_copies(tracing, tmp_path):
    # A `world_file` cell loads the world through the traced name and
    # copies the file into world.json without re-serialising it.
    world_path = tmp_path / "world_in.json"
    assert cli.main(["gen-world", "--corridor-length", "10", "--out", str(world_path)]) == 0
    cfg = {
        "world_file": str(world_path),
        "drift": {"scale_sigma": 1e-3},
        "observation": {"detect_prob": 0.8, "endpoint_noise_sigma": 0.01},
        "modes": ["baseline"],
        "seeds": [1],
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    tracer = tracing.Tracer()
    with tracer.install():
        tracer.begin_cell(0)
        assert cli.main(["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0
        counts = tracer.end_cell()
    assert tracer.missing == []
    spans = [tracer.names[span[0]] for span in tracer.spans]
    assert spans.count("worldgen.world_from_file") == 1
    assert "worldgen.world_to_file" not in spans
    # gt.tum and raw.tum; a baseline cell's corrected.tum copies raw.tum.
    assert spans.count("metrics.write_tum") == 2
    manifest = json.loads((tmp_path / "out" / "baseline" / "seed1" / "manifest.json").read_text())
    assert counts["frontend.points"] == manifest["n_map_points"] > 0
    assert counts["frontend.observations"] == manifest["n_observations"] > 0


def test_assign_hook_counts_joins(tracing):
    # Observation i spans points 2i and 2i + 1. Rows 1 and 3 (the reversed
    # segment) join cluster 0, row 4 joins cluster 1, which row 2 seeded.
    vectors = np.array([[0, 0, 2.0], [0, 0, 2.0], [1.0, 0, 0], [0, 0, -2.0], [1.0, 0, 0]])
    points = np.zeros((2 * len(vectors), 3))
    points[1::2] = vectors
    observations = [(2 * i, 2 * i + 1, 0, i) for i in range(len(vectors))]
    trajectory = Trajectory([0.0], np.zeros((1, 3)), [[1.0, 0.0, 0.0, 0.0]])
    emap = EstimatedMap(points, np.zeros(len(points)), observations, trajectory)
    store = ClusterStore(emap)
    tracer = tracing.Tracer()
    with tracer.install():
        tracer.begin_cell(0)
        cids = [store.assign(i) for i in range(len(vectors))]
        counts = tracer.end_cell()
    assert tracer.missing == []
    assert cids == [0, 0, 1, 0, 1]
    assert counts["clustering.assign.calls"] == 5
    assert counts["clustering.assign.joins"] == 3
