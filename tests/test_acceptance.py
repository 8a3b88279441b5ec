"""Acceptance suite: one test (one pass/fail line) per release criterion.

Criterion 2, the end-to-end directional-improvement claim, is asserted
faithfully and is expected to fail for this open-loop pipeline; why, with
the measured win rate and median ATEs, is the known-failing paragraph of
README.md ("Install and test"), not a weakened assertion.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from segdrift.cli import OBS_SEED_OFFSET, main as cli_main
from segdrift.clustering import ClusterStore
from segdrift.clusteropt import EDGE_DTYPE, evaluate_objective, residual, solve
from segdrift.frontend import DriftConfig, ObservationConfig
from segdrift.geometry import Sim3, quat_from_axis_angle, quat_rotate, umeyama_alignment
from segdrift.metrics import MetricsConfig, Trajectory, evaluate, read_tum, spline_interpolate, write_tum
from segdrift.pipeline import ScheduleConfig, run
from segdrift.worldgen import WorldSpec, generate_corridor

from test_clustering import batch_center, map_from_vectors
from test_clusteropt import by_id, edge_residuals, iterates, random_problem


def test_criterion_1_external_trajectory_ingestion(tmp_path):
    """Benchmark numbers from real indoor datasets and a full SLAM stack are
    out of scope and never claimed; the CLI must ingest externally produced
    TUM trajectories so such numbers could be recomputed given the data."""
    est_path = tmp_path / "external_est.tum"
    gt_path = tmp_path / "external_gt.tum"
    # Files written by an external tool: plain TUM text, not this package.
    rng = np.random.default_rng(0)
    lines_gt, lines_est = ["# ground truth"], ["# estimate"]
    for i in range(50):
        t = i / 30.0
        p = [0.5 * i, 0.0, 1.2]
        e = [v + rng.normal(0, 0.01) for v in p]
        lines_gt.append(f"{t:.6f} {p[0]} {p[1]} {p[2]} 0 0 0 1")
        lines_est.append(f"{t:.6f} {e[0]} {e[1]} {e[2]} 0 0 0 1")
    gt_path.write_text("\n".join(lines_gt) + "\n")
    est_path.write_text("\n".join(lines_est) + "\n")

    out = tmp_path / "metrics.json"
    code = cli_main(["eval", str(est_path), str(gt_path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ate_rmse"] > 0
    assert report["n_matched"] == 50


def test_criterion_2_directional_improvement():
    """40 m corridor, doors every 2 m, scale_sigma=1e-3,
    endpoint_noise_sigma=0.01, detect_prob=0.8, 20 seeds: median ATE(Seg) <
    median ATE(Baseline), Seg wins >= 80% of seeds, median ATE(SegGlobal) <=
    median ATE(Seg), all within a 2 minute budget."""
    start = time.monotonic()
    world = generate_corridor(WorldSpec(corridor_length=40, door_spacing=2))
    ates: dict[str, list[float]] = {"baseline": [], "seg": [], "segglobal": []}
    for seed in range(20):
        drift = DriftConfig(scale_sigma=1e-3, rng_seed=seed)
        obs = ObservationConfig(
            detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=seed + OBS_SEED_OFFSET
        )
        for mode in ates:
            r = run(world, drift, obs, ScheduleConfig(mode=mode))
            ates[mode].append(evaluate(r.corrected_trajectory, world.trajectory).ate_rmse)
    elapsed = time.monotonic() - start

    medians = {m: float(np.median(v)) for m, v in ates.items()}
    wins = sum(s < b for s, b in zip(ates["seg"], ates["baseline"]))
    assert elapsed < 120, f"runtime {elapsed:.0f}s over budget"
    assert medians["seg"] < medians["baseline"], (
        f"median ATE seg {medians['seg']:.4f} !< baseline {medians['baseline']:.4f}"
    )
    assert wins >= 16, f"seg wins only {wins}/20 seeds"
    assert medians["segglobal"] <= medians["seg"]


def test_criterion_3_noiseless_exactness():
    """Zero drift and zero noise: ATE = 0 within 1e-9 for every mode, and
    the cluster count equals archetype count + clutter count exactly."""
    world = generate_corridor(
        WorldSpec(corridor_length=20, door_spacing=2, extra_unique_segments=3)
    )
    n_archetypes = len(set(world.archetypes.tolist()))
    for mode in ("baseline", "seg", "segglobal"):
        r = run(world, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0),
                ScheduleConfig(mode=mode))
        assert evaluate(r.corrected_trajectory, world.trajectory, MetricsConfig("none")).ate_rmse < 1e-9
        if mode != "baseline":
            assert len(r.store) == n_archetypes


def test_criterion_4_objective_oracle_equivalence():
    """Solver-reported objective equals the independent evaluate_objective
    recomputation within 1e-12 at every accepted iterate over 100 randomized
    problems of at most 30 edges."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, max_edges=30,
                                 anchor_weight=float(rng.choice([0.0, 1e-3])))
        for pos, f in iterates(problem):
            assert abs(evaluate_objective(problem, by_id(problem, pos)) - f) < 1e-12


def test_criterion_5_invariance_suite():
    """lambda = 0 gauge structure: (a) global translation changes no residual
    bit-exactly; (b) rotation about a uniform cluster's segment axis changes
    those residuals by < 1e-12; (c) global scaling by s=1.1 gives per-edge
    residual norm |1-s| * |v_c| within 1e-9."""
    center = np.array([0.0, 0.0, 2.0])
    rng = np.random.default_rng(0)
    # (a) exactly-representable coordinates so float subtraction is exact
    pos_int = {pid: rng.integers(-8, 8, size=3).astype(float) for pid in range(8)}
    edges = np.array([(0, i, (i + 1) % 8, 1, center, 1.0) for i in range(7)],
                     dtype=EDGE_DTYPE).view(np.recarray)
    delta = np.array([12.0, -5.0, 3.0])
    shifted = {pid: p + delta for pid, p in pos_int.items()}
    for r0, r1 in zip(edge_residuals(edges, pos_int), edge_residuals(edges, shifted)):
        assert np.array_equal(r0, r1)

    # (b) vertical cluster, rotation about the z axis
    pos, axis_edges = {}, []
    for i in range(6):
        base = rng.uniform(-4, 4, size=3)
        pos[2 * i], pos[2 * i + 1] = base, base + center
        axis_edges.append((0, 2 * i, 2 * i + 1, 1, center, 1.0))
    axis_edges = np.array(axis_edges, dtype=EDGE_DTYPE).view(np.recarray)
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.9)
    rotated = {pid: quat_rotate(q, p) for pid, p in pos.items()}
    for r0, r1 in zip(edge_residuals(axis_edges, pos), edge_residuals(axis_edges, rotated)):
        assert np.linalg.norm(r1 - r0) < 1e-12

    # (c) uniform scaling about the origin
    s = 1.1
    scaled = {pid: s * p for pid, p in pos.items()}
    expected = abs(1 - s) * np.linalg.norm(center)
    for r in edge_residuals(axis_edges, scaled):
        assert abs(np.linalg.norm(r) - expected) < 1e-9


def test_criterion_6_clustering_oracle():
    """Incremental center maintenance equals batch mean recomputation within
    1e-9 over 1000 randomized insertion sequences; a candidate at distance
    exactly tau * |v_c| opens a new cluster (strict inequality)."""
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.5, 3.0, size=(3, 3))
        vectors = []
        for _ in range(20):
            v = base[rng.integers(3)] * (1.0 + rng.normal(0, 0.001))
            if rng.random() < 0.5:
                v = -v
            vectors.append(v)
        emap = map_from_vectors(vectors)
        store = ClusterStore(emap)
        store.assign_batch(range(len(vectors)))
        for cid, center in enumerate(store.centers):
            assert np.linalg.norm(center - batch_center(store, emap, cid)) < 1e-9

    # boundary: dyadic values make the distance exactly tau * |center|
    tau = 2.0**-8
    emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 2.0**-7]])
    store = ClusterStore(emap, rel_threshold=tau)
    store.assign(0)
    assert store.assign(1) == 1


def test_criterion_7_lm_behavior():
    """Accepted LM iterations never increase the objective on any logged
    report; analytic residual Jacobians match central finite differences
    within 1e-6."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, anchor_weight=float(rng.choice([0.0, 1e-3])))
        _, report = solve(problem)
        trace = report.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(30):
        sign = int(rng.choice([-1, 1]))
        center = rng.uniform(-2, 2, size=3)
        p1, p2 = rng.uniform(-3, 3, size=(2, 3))
        for which, analytic in ((0, sign * np.eye(3)), (1, -sign * np.eye(3))):
            fd = np.empty((3, 3))
            for axis in range(3):
                d = np.zeros(3)
                d[axis] = h
                if which == 0:
                    hi, lo = residual(center, sign, p1 + d, p2), residual(center, sign, p1 - d, p2)
                else:
                    hi, lo = residual(center, sign, p1, p2 + d), residual(center, sign, p1, p2 - d)
                fd[:, axis] = (hi - lo) / (2 * h)
            assert np.max(np.abs(fd - analytic)) < 1e-6


def test_criterion_8_metrics_validation():
    """Umeyama generate-and-recover within 1e-6 over 500 random similarity
    transforms; hand-computed ATE and brute-force RPE cases pass; spline
    interpolation reproduces interior values of generating cubics within
    1e-9."""
    rng = np.random.default_rng(2024)
    for _ in range(500):
        axis = rng.normal(size=3)
        t = Sim3(float(rng.uniform(0.3, 3.0)),
                 quat_from_axis_angle(axis, rng.uniform(-np.pi, np.pi)),
                 rng.uniform(-5, 5, size=3))
        src = rng.uniform(-10, 10, size=(int(rng.integers(4, 40)), 3))
        dst = np.array([t.apply(p) for p in src])
        fit = umeyama_alignment(src, dst, with_scale=True)
        assert abs(fit.scale - t.scale) < 1e-6
        assert np.max(np.abs(np.array([fit.apply(p) for p in src]) - dst)) < 1e-6

    # hand ATE: single residual of 0.3 m over 3 matched poses, no alignment
    ts = np.array([0.0, 1.0, 2.0])
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    gt = Trajectory(ts, np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]), quats)
    est = Trajectory(ts, np.array([[0.0, 0, 0], [1.0, 0, 0], [2.3, 0, 0]]), quats)
    assert evaluate(est, gt, MetricsConfig("none", rpe_delta=1)).ate_rmse == pytest.approx(
        np.sqrt(0.09 / 3), abs=1e-12
    )

    # RPE vs brute-force accumulation on a scale-inflated straight line
    n, eps = 30, 0.02
    ts = np.arange(n, dtype=float)
    line = np.zeros((n, 3))
    line[:, 0] = np.arange(n)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    gt_line = Trajectory(ts, line, quats)
    est_line = Trajectory(ts, (1 + eps) * line, quats)
    errs = [np.linalg.norm((1 + eps) * (line[k + 1] - line[k]) - (line[k + 1] - line[k]))
            for k in range(n - 1)]
    assert evaluate(est_line, gt_line, MetricsConfig("none", rpe_delta=1)).rpe_rmse == pytest.approx(
        float(np.sqrt(np.mean(np.square(errs)))), abs=1e-12
    )

    # spline: deep-interior midpoints of a generating cubic
    def poly(t):
        return np.stack([t**3 - 2 * t, 0.5 * t**3 + t**2, -t**3 + 4.0 * t], axis=-1)

    times = np.linspace(0, 6, 61)
    interior = (times[20:-21] + times[21:-20]) / 2
    out = spline_interpolate(times, poly(times), interior)
    assert np.max(np.abs(out - poly(interior))) < 1e-9


def test_criterion_9_deterministic_output_trees(tmp_path):
    """Running the experiment command twice over a fixed config yields
    byte-identical output trees."""
    cfg = {
        "world": {"corridor_length": 16, "door_spacing": 2},
        "drift": {"scale_sigma": 1e-3},
        "observation": {"detect_prob": 0.8, "endpoint_noise_sigma": 0.01},
        "modes": ["baseline", "seg", "segglobal"],
        "seeds": [0, 1],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0

    def tree(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    ta, tb = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert ta.keys() == tb.keys()
    assert [k for k in ta if ta[k] != tb[k]] == []
