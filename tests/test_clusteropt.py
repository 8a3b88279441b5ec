"""Cluster-consistency least-squares optimization."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdrift.clustering import CLUSTER, FRAME, P1, P2, SIGN, ClusterStore, assign_all
from segdrift.clusteropt import (
    EDGE_DTYPE,
    OptProblem,
    build_problem,
    evaluate_objective,
    residual,
    solve,
)
from segdrift.frontend import OBS_FRAME
from segdrift.geometry import quat_from_axis_angle, quat_rotate

from test_clustering import array_map, map_from_vectors


def random_problem(rng, max_edges=30, anchor_weight=0.0):
    n_points = int(rng.integers(4, 12))
    points = {pid: rng.uniform(-3, 3, size=3) for pid in range(n_points)}
    n_edges = int(rng.integers(1, max_edges + 1))
    rows = []
    for i in range(n_edges):
        p1, p2 = rng.choice(n_points, size=2, replace=False)
        # (cluster_id, obs_index, p1_id, p2_id, sign, center, weight)
        rows.append(
            (int(rng.integers(5)), i, int(p1), int(p2), int(rng.choice([-1, 1])),
             rng.uniform(-2, 2, size=3), 1.0)
        )
    edges = np.array(rows, dtype=EDGE_DTYPE)
    used = np.union1d(edges["p1_id"], edges["p2_id"])
    initial = np.array([points[pid] for pid in used.tolist()])
    return OptProblem(used, initial, edges, anchor_weight=anchor_weight)


def by_id(problem, positions):
    """An (n, 3) position array in point_ids order, keyed by point id."""
    return dict(zip(problem.point_ids.tolist(), positions))


def edge_residuals(edges, positions):
    """Each edge's residual at positions keyed by point id, one edge at a time."""
    return [residual(e.center, e.sign, positions[e.p1_id], positions[e.p2_id]) for e in edges]


class TestObjective:
    def test_hand_computed_two_member_cluster(self):
        # Vectors (0,0,2) and (0,0,2.004): center (0,0,2.002), residuals
        # (0,0,±0.002), objective 2 * 0.002^2 = 8e-6.
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.004]])
        store = ClusterStore()
        assign_all(store, emap, range(2))
        assert len(store) == 1
        problem = build_problem(store, emap, anchor_weight=0.0)
        f0 = evaluate_objective(problem, dict(enumerate(emap.points)))
        assert f0 == pytest.approx(8e-6, rel=1e-9)

    def test_zero_residual_configuration(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        store = ClusterStore()
        assign_all(store, emap, range(2))
        problem = build_problem(store, emap, anchor_weight=0.0)
        assert evaluate_objective(problem, dict(enumerate(emap.points))) == 0.0

    def test_missing_position_raises(self):
        problem = random_problem(np.random.default_rng(0))
        positions = by_id(problem, problem.initial)
        del positions[int(problem.point_ids[0])]
        with pytest.raises(KeyError):
            evaluate_objective(problem, positions)

    def test_negative_anchor_weight_rejected(self):
        with pytest.raises(ValueError):
            OptProblem([0], np.zeros((1, 3)), [], anchor_weight=-1.0)

    def test_non_finite_anchor_weight_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="anchor_weight"):
                OptProblem([0], np.zeros((1, 3)), [], anchor_weight=bad)

    def test_edge_endpoint_outside_point_ids_rejected(self):
        edges = [(0, 0, 0, 1, 1, (0.0, 0.0, 2.0), 1.0), (0, 1, 2, 7, 1, (0.0, 0.0, 2.0), 1.0)]
        with pytest.raises(ValueError, match="endpoint id 7"):
            OptProblem([0, 1, 2], np.zeros((3, 3)), edges)

    def test_broadcast_residual_equals_per_edge_residual(self):
        problem = random_problem(np.random.default_rng(5))
        pos = by_id(problem, problem.initial)
        edges = problem.edges
        p1 = np.array([pos[pid] for pid in edges.p1_id.tolist()])
        p2 = np.array([pos[pid] for pid in edges.p2_id.tolist()])
        stacked = residual(edges.center, edges.sign, p1, p2)
        assert stacked.tobytes() == np.array(edge_residuals(edges, pos)).tobytes()


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
                assert abs(evaluate_objective(problem, by_id(problem, pos)) - f) < 1e-12

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
            center = rng.uniform(-2, 2, size=3)
            p1, p2 = rng.uniform(-3, 3, size=(2, 3))
            for which, analytic in ((0, sign * np.eye(3)), (1, -sign * np.eye(3))):
                fd = np.empty((3, 3))
                for axis in range(3):
                    d = np.zeros(3)
                    d[axis] = h
                    if which == 0:
                        hi = residual(center, sign, p1 + d, p2)
                        lo = residual(center, sign, p1 - d, p2)
                    else:
                        hi = residual(center, sign, p1, p2 + d)
                        lo = residual(center, sign, p1, p2 - d)
                    fd[:, axis] = (hi - lo) / (2 * h)
                assert np.max(np.abs(fd - analytic)) < 1e-6


class TestInvariance:
    """Gauge structure of the anchor-free (lambda = 0) objective."""

    def test_translation_leaves_residuals_bit_unchanged(self):
        # Integer endpoint coordinates and an integer shift make the float
        # subtraction exact, so residuals must be bitwise identical.
        rng = np.random.default_rng(1)
        endpoints = {pid: rng.integers(-8, 8, size=3).astype(float) for pid in range(6)}
        edges = [(0, i, i % 6, (i + 1) % 6, 1, (0.0, 0.0, 2.0), 1.0) for i in range(5)]
        problem = OptProblem(list(range(6)), np.array([endpoints[i] for i in range(6)]), edges,
                             anchor_weight=0.0)
        delta = np.array([17.0, -9.0, 4.0])
        shifted = {pid: p + delta for pid, p in endpoints.items()}
        for r0, r1 in zip(edge_residuals(problem.edges, endpoints),
                          edge_residuals(problem.edges, shifted)):
            assert np.array_equal(r0, r1)
        assert evaluate_objective(problem, endpoints) == evaluate_objective(problem, shifted)

    def test_translation_invariance_random_positions(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            problem = random_problem(rng, anchor_weight=0.0)
            pos = by_id(problem, problem.initial)
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
            edges.append((0, i, 2 * i, 2 * i + 1, 1, center, 1.0))
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
            edges.append((0, i, 2 * i, 2 * i + 1, 1, center, 1.0))
        scaled = {pid: s * p for pid, p in pos.items()}
        expected = abs(1 - s) * np.linalg.norm(center)
        for r in edge_residuals(np.array(edges, dtype=EDGE_DTYPE).view(np.recarray), scaled):
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
        assert np.array_equal(positions, problem.initial)

    def test_single_edge_splits_discrepancy_symmetrically(self):
        # One segment vs a mismatched fixed center, lambda = 0: endpoints
        # move so p2 - p1 equals the center exactly, midpoint preserved.
        p1, p2 = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0])
        center = np.array([0.0, 0.1, 2.2])
        problem = OptProblem([0, 1], np.array([p1, p2]), [(0, 0, 0, 1, 1, center, 1.0)],
                             anchor_weight=0.0, iteration_cap=50)
        positions, report = solve(problem)
        assert np.linalg.norm((positions[1] - positions[0]) - center) < 1e-8
        assert np.linalg.norm((positions[0] + positions[1]) / 2 - (p1 + p2) / 2) < 1e-8
        assert report.final_objective < 1e-16

    def test_huge_anchor_freezes_positions(self):
        p1, p2 = np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])
        center = np.array([0.0, 0.0, 2.2])
        edge = (0, 0, 0, 1, 1, center, 1.0)
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
        assert positions.shape == (0, 3)
        assert report.iterations == 0

    def test_build_problem_frames_scope(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        # Reframe observations: frames 0, 1, 2.
        emap.observations[:, OBS_FRAME] = np.arange(3)
        store = ClusterStore()
        assign_all(store, emap, range(3))
        full = build_problem(store, emap)
        scoped = build_problem(store, emap, frames={0, 1})
        assert len(full.edges) == 3
        assert len(scoped.edges) == 2
        assert all(emap.observations[e.obs_index, OBS_FRAME] in {0, 1} for e in scoped.edges)

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
    points = []
    for i in range(n_segments):
        v = np.array(ARCHETYPES[draw(st.integers(0, len(ARCHETYPES) - 1))])
        base = rng.uniform(-3, 3, size=3)
        points += [base, base + v * (1 + rng.uniform(-2e-3, 2e-3))]
    seen = draw(st.lists(
        st.tuples(st.integers(0, n_segments - 1), st.booleans(), st.integers(0, 4)),
        min_size=1, max_size=25,
    ))
    observations = [(2 * i + flip, 2 * i + 1 - flip, frame, i) for i, flip, frame in seen]
    emap = array_map(points, np.zeros(len(points)), observations, 5)
    frames = draw(st.none() | st.sets(st.integers(0, 4), min_size=1))
    anchor_weight = draw(st.sampled_from([0.0, 1e-3, 1e-1]))
    return emap, frames, anchor_weight


def expanded_problem(store, emap, weighted, frames):
    """The same problem with one weight-1 edge per in-scope observation."""
    table = store.member_table
    by_cluster = table[np.argsort(table[:, CLUSTER], kind="stable")]
    edges = [
        (cid, obs_index, p1, p2, sign, store.centers[cid], 1.0)
        for obs_index, frame, cid, p1, p2, sign in by_cluster.tolist()
        if frames is None or frame in frames
    ]
    return OptProblem(weighted.point_ids, weighted.initial, edges, weighted.anchor_weight)


ClusterEdge = namedtuple("ClusterEdge", EDGE_DTYPE.names)


def reference_build_problem(store, emap, frames=None):
    """build_problem as one ClusterEdge object per weighted unique edge.

    Returns (point_ids, initial, edges) with point_ids a list of ints and
    edges a list of ClusterEdge; build_problem packs the same values into
    arrays.
    """
    table = store.member_table
    if frames is not None:
        table = table[np.isin(table[:, FRAME], np.fromiter(frames, dtype=np.int64))]
    if not len(table):
        return [], np.zeros((0, 3)), []

    cid, p1, p2 = table[:, CLUSTER], table[:, P1], table[:, P2]
    n_ids = int(max(p1.max(), p2.max())) + 1
    positive = (table[:, SIGN] > 0).astype(np.int64)
    key = np.ravel_multi_index((cid, p1, p2, positive), (len(store), n_ids, n_ids, 2))
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.lexsort((first, cid[first]))
    rows, counts = table[first[order]], counts[order]

    ends = rows[:, [P1, P2]].ravel()
    _, first_end = np.unique(ends, return_index=True)
    point_ids = ends[np.sort(first_end)]
    centers = store.centers[rows[:, CLUSTER]]
    edges = [
        ClusterEdge(c, o, a, b, s, centers[k], float(n))
        for k, ((o, _, c, a, b, s), n) in enumerate(zip(rows.tolist(), counts.tolist()))
    ]
    return point_ids.tolist(), emap.points[point_ids], edges


class TestEdgeTable:
    @settings(max_examples=100)
    @given(reobserved_maps())
    def test_matches_the_object_build_bit_for_bit(self, case):
        emap, frames, anchor_weight = case
        store = ClusterStore()
        assign_all(store, emap, range(len(emap.observations)))
        problem = build_problem(store, emap, frames=frames, anchor_weight=anchor_weight)
        point_ids, initial, edges = reference_build_problem(store, emap, frames)
        assert problem.edges.dtype.names == EDGE_DTYPE.names
        assert len(problem.edges) == len(edges)
        for name in EDGE_DTYPE.names:
            column = np.array([getattr(e, name) for e in edges], dtype=EDGE_DTYPE[name].base)
            assert problem.edges[name].tobytes() == column.tobytes(), name
        assert problem.point_ids.tobytes() == np.array(point_ids, dtype=np.int64).tobytes()
        assert problem.initial.tobytes() == initial.tobytes()


class TestWeightedUniqueEdges:
    @settings(max_examples=60)
    @given(reobserved_maps())
    def test_matches_one_edge_per_observation(self, case):
        emap, frames, anchor_weight = case
        store = ClusterStore()
        assign_all(store, emap, range(len(emap.observations)))
        weighted = build_problem(store, emap, frames=frames, anchor_weight=anchor_weight)
        expanded = expanded_problem(store, emap, weighted, frames)
        assert weighted.edges.weight.sum() == len(expanded.edges)
        assert len({(e.cluster_id, e.p1_id, e.p2_id, e.sign) for e in weighted.edges}) == len(
            weighted.edges
        )
        if not len(weighted.edges):
            return

        rng = np.random.default_rng(0)
        for positions in (
            by_id(weighted, weighted.initial),
            {pid: rng.uniform(-3, 3, size=3) for pid in weighted.point_ids.tolist()},
        ):
            f_w = evaluate_objective(weighted, positions)
            f_e = evaluate_objective(expanded, positions)
            assert abs(f_w - f_e) <= 1e-12 * max(1.0, f_e)

        pos_w, report_w = solve(weighted)
        pos_e, report_e = solve(expanded)
        assert abs(report_w.final_objective - report_e.final_objective) <= 1e-12 * max(
            1.0, report_e.final_objective
        )
        assert np.max(np.abs(pos_w - pos_e)) <= 1e-12

    def test_scope_counts_in_scope_observations_only(self):
        # One segment observed in frames 0, 1 and 2 under the same point ids.
        points = [(0.0, 0.0, 0.0), (0.0, 0.0, 2.0)]
        observations = [(0, 1, frame, 0) for frame in range(3)]
        emap = array_map(points, [0, 0], observations, 3)
        store = ClusterStore()
        assign_all(store, emap, range(3))

        scoped = build_problem(store, emap, frames={0, 1})
        assert scoped.edges[["obs_index", "weight"]].tolist() == [(0, 2.0)]
        assert scoped.point_ids.tolist() == [0, 1]
        late = build_problem(store, emap, frames={2})
        assert late.edges[["obs_index", "weight"]].tolist() == [(2, 1.0)]
        full = build_problem(store, emap)
        assert full.edges[["obs_index", "weight"]].tolist() == [(0, 3.0)]
        assert len(build_problem(store, emap, frames={5}).edges) == 0
