"""Cluster-consistency least-squares optimization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdrift.clustering import CLUSTER, ClusterStore, assign_all
from segdrift.clusteropt import (
    ClusterEdge,
    OptProblem,
    build_problem,
    evaluate_objective,
    solve,
)
from segdrift.frontend import EstimatedMap, MapPoint, SegmentObservation
from segdrift.geometry import PoseSE3, quat_from_axis_angle, quat_rotate

from test_clustering import map_from_vectors


def random_problem(rng, max_edges=30, anchor_weight=0.0):
    n_points = int(rng.integers(4, 12))
    points = {pid: rng.uniform(-3, 3, size=3) for pid in range(n_points)}
    n_edges = int(rng.integers(1, max_edges + 1))
    edges = []
    for i in range(n_edges):
        p1, p2 = rng.choice(n_points, size=2, replace=False)
        edges.append(
            ClusterEdge(
                cluster_id=int(rng.integers(5)),
                obs_index=i,
                p1_id=int(p1),
                p2_id=int(p2),
                sign=int(rng.choice([-1, 1])),
                center=rng.uniform(-2, 2, size=3),
            )
        )
    used = sorted({e.p1_id for e in edges} | {e.p2_id for e in edges})
    initial = np.array([points[pid] for pid in used])
    return OptProblem(used, initial, edges, anchor_weight=anchor_weight)


class TestObjective:
    def test_hand_computed_two_member_cluster(self):
        # Vectors (0,0,2) and (0,0,2.004): center (0,0,2.002), residuals
        # (0,0,±0.002), objective 2 * 0.002^2 = 8e-6.
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.004]])
        store = ClusterStore()
        assign_all(store, emap, range(2))
        assert len(store) == 1
        problem = build_problem(store, emap, anchor_weight=0.0)
        f0 = evaluate_objective(problem, emap.positions())
        assert f0 == pytest.approx(8e-6, rel=1e-9)

    def test_zero_residual_configuration(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        store = ClusterStore()
        assign_all(store, emap, range(2))
        problem = build_problem(store, emap, anchor_weight=0.0)
        assert evaluate_objective(problem, emap.positions()) == 0.0

    def test_missing_position_raises(self):
        problem = random_problem(np.random.default_rng(0))
        positions = {pid: problem.initial[i] for i, pid in enumerate(problem.point_ids)}
        del positions[problem.point_ids[0]]
        with pytest.raises(KeyError):
            evaluate_objective(problem, positions)

    def test_negative_anchor_weight_rejected(self):
        with pytest.raises(ValueError):
            OptProblem([0], np.zeros((1, 3)), [], anchor_weight=-1.0)

    def test_non_finite_anchor_weight_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="anchor_weight"):
                OptProblem([0], np.zeros((1, 3)), [], anchor_weight=bad)


class TestSolverOracle:
    def test_trace_matches_independent_objective_at_every_iterate(self):
        # Solver-reported objective values vs the per-edge oracle
        # evaluation, at the initial point and every accepted iterate.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, anchor_weight=float(rng.choice([0.0, 1e-3, 1e-1])))
            _, report = solve(problem, record_iterates=True)
            assert len(report.iterate_positions) == len(report.objective_trace)
            for pos, f in zip(report.iterate_positions, report.objective_trace):
                assert abs(evaluate_objective(problem, pos) - f) < 1e-12

    def test_accepted_iterations_never_increase_objective(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, anchor_weight=float(rng.choice([0.0, 1e-3])))
            _, report = solve(problem)
            trace = report.objective_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert report.final_objective == trace[-1]


class TestJacobian:
    def test_residual_jacobian_matches_central_differences(self):
        # Analytic Jacobian of e = v_c - sign*(p2 - p1): +sign*I w.r.t. p1,
        # -sign*I w.r.t. p2.
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(50):
            sign = int(rng.choice([-1, 1]))
            edge = ClusterEdge(0, 0, 0, 1, sign, rng.uniform(-2, 2, size=3))
            p1, p2 = rng.uniform(-3, 3, size=(2, 3))
            for which, analytic in ((0, sign * np.eye(3)), (1, -sign * np.eye(3))):
                fd = np.empty((3, 3))
                for axis in range(3):
                    d = np.zeros(3)
                    d[axis] = h
                    if which == 0:
                        hi, lo = edge.residual(p1 + d, p2), edge.residual(p1 - d, p2)
                    else:
                        hi, lo = edge.residual(p1, p2 + d), edge.residual(p1, p2 - d)
                    fd[:, axis] = (hi - lo) / (2 * h)
                assert np.max(np.abs(fd - analytic)) < 1e-6


class TestInvariance:
    """Gauge structure of the anchor-free (lambda = 0) objective."""

    def test_translation_leaves_residuals_bit_unchanged(self):
        # Integer endpoint coordinates and an integer shift make the float
        # subtraction exact, so residuals must be bitwise identical.
        rng = np.random.default_rng(1)
        endpoints = {pid: rng.integers(-8, 8, size=3).astype(float) for pid in range(6)}
        edges = [
            ClusterEdge(0, i, i % 6, (i + 1) % 6, 1, np.array([0.0, 0.0, 2.0]))
            for i in range(5)
        ]
        problem = OptProblem(list(range(6)), np.array([endpoints[i] for i in range(6)]), edges,
                             anchor_weight=0.0)
        delta = np.array([17.0, -9.0, 4.0])
        shifted = {pid: p + delta for pid, p in endpoints.items()}
        for e in edges:
            r0 = e.residual(endpoints[e.p1_id], endpoints[e.p2_id])
            r1 = e.residual(shifted[e.p1_id], shifted[e.p2_id])
            assert np.array_equal(r0, r1)
        assert evaluate_objective(problem, endpoints) == evaluate_objective(problem, shifted)

    def test_translation_invariance_random_positions(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, anchor_weight=0.0)
            pos = {pid: problem.initial[i] for i, pid in enumerate(problem.point_ids)}
            delta = rng.uniform(-5, 5, size=3)
            shifted = {pid: p + delta for pid, p in pos.items()}
            f0 = evaluate_objective(problem, pos)
            f1 = evaluate_objective(problem, shifted)
            assert abs(f0 - f1) <= 1e-12 * max(1.0, f0)

    def test_rotation_about_cluster_axis_blind(self):
        # All segment vectors of the cluster are vertical; rotating every
        # endpoint about the z axis leaves each vertical segment vector
        # unchanged, so residuals against the vertical center are blind to
        # that rotation.
        rng = np.random.default_rng(3)
        center = np.array([0.0, 0.0, 2.0])
        pos = {}
        edges = []
        for i in range(6):
            base = rng.uniform(-4, 4, size=3)
            pos[2 * i] = base
            pos[2 * i + 1] = base + center + rng.normal(0, 1e-3, size=3) * [0, 0, 1]
            edges.append(ClusterEdge(0, i, 2 * i, 2 * i + 1, 1, center))
        problem = OptProblem(sorted(pos), np.array([pos[p] for p in sorted(pos)]), edges,
                             anchor_weight=0.0)
        q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.7)
        rotated = {pid: quat_rotate(q, p) for pid, p in pos.items()}
        f0 = evaluate_objective(problem, pos)
        f1 = evaluate_objective(problem, rotated)
        assert abs(f0 - f1) < 1e-12

    def test_uniform_scaling_produces_expected_residual_norm(self):
        # Scaling all endpoints by s multiplies each segment vector by s,
        # so a previously exact edge gets residual norm |1 - s| * |v_c|.
        s = 1.1
        center = np.array([0.0, 0.0, 2.0])
        rng = np.random.default_rng(4)
        pos = {}
        edges = []
        for i in range(5):
            base = rng.uniform(-4, 4, size=3)
            pos[2 * i] = base
            pos[2 * i + 1] = base + center
            edges.append(ClusterEdge(0, i, 2 * i, 2 * i + 1, 1, center))
        scaled = {pid: s * p for pid, p in pos.items()}
        expected = abs(1 - s) * np.linalg.norm(center)
        for e in edges:
            r = e.residual(scaled[e.p1_id], scaled[e.p2_id])
            assert abs(np.linalg.norm(r) - expected) < 1e-9


class TestSolve:
    def test_zero_residual_fixed_point(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        store = ClusterStore()
        assign_all(store, emap, range(2))
        problem = build_problem(store, emap, anchor_weight=0.0)
        positions, report = solve(problem)
        assert report.final_objective == 0.0
        assert report.iterations <= 1
        for i, pid in enumerate(problem.point_ids):
            assert np.array_equal(positions[pid], problem.initial[i])

    def test_single_edge_splits_discrepancy_symmetrically(self):
        # One segment vs a mismatched fixed center, lambda = 0: endpoints
        # move so p2 - p1 equals the center exactly, midpoint preserved.
        p1, p2 = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0])
        center = np.array([0.0, 0.1, 2.2])
        problem = OptProblem([0, 1], np.array([p1, p2]),
                             [ClusterEdge(0, 0, 0, 1, 1, center)],
                             anchor_weight=0.0, iteration_cap=50)
        positions, report = solve(problem)
        assert np.linalg.norm((positions[1] - positions[0]) - center) < 1e-8
        assert np.linalg.norm((positions[0] + positions[1]) / 2 - (p1 + p2) / 2) < 1e-8
        assert report.final_objective < 1e-16

    def test_huge_anchor_freezes_positions(self):
        p1, p2 = np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])
        center = np.array([0.0, 0.0, 2.2])
        edge = ClusterEdge(0, 0, 0, 1, 1, center)
        free = OptProblem([0, 1], np.array([p1, p2]), [edge], anchor_weight=0.0,
                          iteration_cap=50)
        stiff = OptProblem([0, 1], np.array([p1, p2]), [edge], anchor_weight=1e6,
                           iteration_cap=50)
        pos_free, _ = solve(free)
        pos_stiff, _ = solve(stiff)
        correction = np.linalg.norm(pos_free[1] - p2)
        assert correction > 0.05
        assert np.linalg.norm(pos_stiff[1] - p2) < 1e-4 * correction

    def test_empty_problem(self):
        positions, report = solve(OptProblem([], np.zeros((0, 3)), []))
        assert positions == {}
        assert report.iterations == 0

    def test_build_problem_frames_scope(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        # Reframe observations: frames 0, 1, 2.
        emap.observations = [
            type(o)(o.p1_id, o.p2_id, i, o.world_segment_index)
            for i, o in enumerate(emap.observations)
        ]
        store = ClusterStore()
        assign_all(store, emap, range(3))
        full = build_problem(store, emap)
        scoped = build_problem(store, emap, frames={0, 1})
        assert len(full.edges) == 3
        assert len(scoped.edges) == 2
        assert all(emap.observations[e.obs_index].frame in {0, 1} for e in scoped.edges)

    def test_report_to_json(self):
        problem = random_problem(np.random.default_rng(9), anchor_weight=1e-3)
        _, report = solve(problem)
        out = report.to_json()
        assert out["iterations"] == report.iterations
        assert out["objective_trace"] == report.objective_trace


ARCHETYPES = ([0.0, 0.0, 2.0], [0.9, 0.0, 0.0], [0.0, 0.4, 0.0])


@st.composite
def reobserved_maps(draw):
    """An EstimatedMap whose segments are each observed several times.

    Re-observations reuse the segment's two point ids, in either endpoint
    order, so many observations share one (cluster, p1, p2, sign) key.
    """
    n_segments = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = {}
    for i in range(n_segments):
        v = np.array(ARCHETYPES[draw(st.integers(0, len(ARCHETYPES) - 1))])
        base = rng.uniform(-3, 3, size=3)
        points[2 * i] = MapPoint(2 * i, base, 0)
        points[2 * i + 1] = MapPoint(2 * i + 1, base + v * (1 + rng.uniform(-2e-3, 2e-3)), 0)
    seen = draw(st.lists(
        st.tuples(st.integers(0, n_segments - 1), st.booleans(), st.integers(0, 4)),
        min_size=1, max_size=25,
    ))
    observations = [
        SegmentObservation(2 * i + flip, 2 * i + 1 - flip, frame, i) for i, flip, frame in seen
    ]
    emap = EstimatedMap(points, observations, np.zeros(5), [PoseSE3.identity()] * 5)
    frames = draw(st.none() | st.sets(st.integers(0, 4), min_size=1))
    anchor_weight = draw(st.sampled_from([0.0, 1e-3, 1e-1]))
    return emap, frames, anchor_weight


def expanded_problem(store, emap, weighted, frames):
    """The same problem with one weight-1 edge per in-scope observation."""
    table = store.member_table
    by_cluster = table[np.argsort(table[:, CLUSTER], kind="stable")]
    edges = [
        ClusterEdge(cid, obs_index, p1, p2, sign, store.centers[cid].copy())
        for obs_index, frame, cid, p1, p2, sign in by_cluster.tolist()
        if frames is None or frame in frames
    ]
    return OptProblem(weighted.point_ids, weighted.initial, edges, weighted.anchor_weight)


class TestWeightedUniqueEdges:
    @settings(max_examples=60)
    @given(reobserved_maps())
    def test_matches_one_edge_per_observation(self, case):
        emap, frames, anchor_weight = case
        store = ClusterStore()
        assign_all(store, emap, range(len(emap.observations)))
        weighted = build_problem(store, emap, frames=frames, anchor_weight=anchor_weight)
        expanded = expanded_problem(store, emap, weighted, frames)
        assert sum(e.weight for e in weighted.edges) == len(expanded.edges)
        assert len({(e.cluster_id, e.p1_id, e.p2_id, e.sign) for e in weighted.edges}) == len(
            weighted.edges
        )
        if not weighted.edges:
            return

        rng = np.random.default_rng(0)
        for positions in (
            {pid: weighted.initial[i] for i, pid in enumerate(weighted.point_ids)},
            {pid: rng.uniform(-3, 3, size=3) for pid in weighted.point_ids},
        ):
            f_w = evaluate_objective(weighted, positions)
            f_e = evaluate_objective(expanded, positions)
            assert abs(f_w - f_e) <= 1e-12 * max(1.0, f_e)

        pos_w, report_w = solve(weighted)
        pos_e, report_e = solve(expanded)
        assert abs(report_w.final_objective - report_e.final_objective) <= 1e-12 * max(
            1.0, report_e.final_objective
        )
        for pid in weighted.point_ids:
            assert np.max(np.abs(pos_w[pid] - pos_e[pid])) <= 1e-12

    def test_scope_counts_in_scope_observations_only(self):
        # One segment observed in frames 0, 1 and 2 under the same point ids.
        points = {0: MapPoint(0, np.zeros(3), 0), 1: MapPoint(1, np.array([0.0, 0.0, 2.0]), 0)}
        observations = [SegmentObservation(0, 1, frame, 0) for frame in range(3)]
        emap = EstimatedMap(points, observations, np.zeros(3), [PoseSE3.identity()] * 3)
        store = ClusterStore()
        assign_all(store, emap, range(3))

        scoped = build_problem(store, emap, frames={0, 1})
        assert [(e.obs_index, e.weight) for e in scoped.edges] == [(0, 2.0)]
        assert scoped.point_ids == [0, 1]
        late = build_problem(store, emap, frames={2})
        assert [(e.obs_index, e.weight) for e in late.edges] == [(2, 1.0)]
        full = build_problem(store, emap)
        assert [(e.obs_index, e.weight) for e in full.edges] == [(0, 3.0)]
        assert build_problem(store, emap, frames={5}).edges == []
