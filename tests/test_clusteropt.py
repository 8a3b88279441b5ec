"""Cluster-consistency least-squares optimization."""

import inspect
import re
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segdrift import pipeline
from segdrift.clustering import EDGE, EDGE_COLUMNS, MEMBER_COLUMNS, ClusterStore
from segdrift.clusteropt import (
    DEFAULT_ANCHOR_WEIGHT,
    DEFAULT_ITERATION_CAP,
    EDGE_DTYPE,
    INITIAL_DAMPING,
    OptProblem,
    OptReport,
    _endpoint_rows,
    build_problem,
    evaluate_objective,
    residual,
    solve,
)
from segdrift.frontend import OBS_FRAME, OBS_P1, OBS_P2, DriftConfig, ObservationConfig, simulate
from segdrift.geometry import quat_from_axis_angle, quat_rotate
from segdrift.pipeline import ScheduleConfig
from segdrift.worldgen import WorldSpec, generate_corridor

from test_clustering import (
    CLUSTER, FRAME, P1, P2, SIGN, array_map, expanded_table, map_from_vectors
)


def random_problem(rng, max_edges=30, anchor_weight=0.0):
    n_points = int(rng.integers(4, 12))
    points = {pid: rng.uniform(-3, 3, size=3) for pid in range(n_points)}
    n_edges = int(rng.integers(1, max_edges + 1))
    rows = []
    for _ in range(n_edges):
        p1, p2 = rng.choice(n_points, size=2, replace=False)
        # (cluster_id, p1_id, p2_id, sign, center, weight)
        rows.append(
            (int(rng.integers(5)), int(p1), int(p2), int(rng.choice([-1, 1])),
             rng.uniform(-2, 2, size=3), 1.0)
        )
    edges = np.array(rows, dtype=EDGE_DTYPE)
    used = np.union1d(edges["p1_id"], edges["p2_id"])
    initial = np.array([points[pid] for pid in used.tolist()])
    return OptProblem(used, initial, edges, anchor_weight=anchor_weight)


def by_id(problem, positions):
    """An (n, 3) position array in point_ids order, keyed by point id."""
    return dict(zip(problem.point_ids.tolist(), positions))


def iterates(problem):
    """(positions, reported objective) at the start and at every accepted
    iterate k of solve(problem); iterate k is read as the solve capped at k
    iterations, which TestSolve::test_capped_solve_is_a_prefix checks."""
    _, report = solve(problem)
    yield problem.initial, report.objective_trace[0]
    for k in range(1, report.iterations + 1):
        positions, _ = solve(replace(problem, iteration_cap=k))
        yield positions, report.objective_trace[k]


def edge_residuals(edges, positions):
    """Each edge's residual at positions keyed by point id, one edge at a time."""
    return [residual(e.center, e.sign, positions[e.p1_id], positions[e.p2_id]) for e in edges]


class TestObjective:
    def test_hand_computed_two_member_cluster(self):
        # Vectors (0,0,2) and (0,0,2.004): center (0,0,2.002), residuals
        # (0,0,±0.002), objective 2 * 0.002^2 = 8e-6.
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.004]])
        store = ClusterStore(emap)
        store.assign_batch(range(2))
        assert len(store) == 1
        problem = replace(build_problem(store, range(1)), anchor_weight=0.0)
        f0 = evaluate_objective(problem, dict(enumerate(emap.points)))
        assert f0 == pytest.approx(8e-6, rel=1e-9)

    def test_zero_residual_configuration(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        store = ClusterStore(emap)
        store.assign_batch(range(2))
        problem = replace(build_problem(store, range(1)), anchor_weight=0.0)
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

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("anchor_weight", True),
            ("iteration_cap", 2.5),
            ("iteration_cap", 0),
            ("iteration_cap", -1),
            ("iteration_cap", True),
            ("iteration_cap", float("nan")),
        ],
    )
    def test_bad_solver_setting_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            OptProblem([0], np.zeros((1, 3)), [], **{name: bad})

    def test_edge_endpoint_outside_point_ids_rejected(self):
        edges = [(0, 0, 1, 1, (0.0, 0.0, 2.0), 1.0), (0, 2, 7, 1, (0.0, 0.0, 2.0), 1.0)]
        with pytest.raises(ValueError, match="endpoint id 7"):
            OptProblem([0, 1, 2], np.zeros((3, 3)), edges)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("weight", -1.0),
            ("weight", -1e-300),
            ("weight", float("nan")),
            ("weight", float("inf")),
            ("weight", -float("inf")),
            ("sign", 0),
            ("sign", 2),
            ("sign", -2),
        ],
    )
    def test_bad_edge_weight_or_sign_rejected(self, column, value):
        rule = {"weight": "finite and non-negative", "sign": "1 or -1"}[column]
        edges = np.array([(0, 0, 1, 1, (0.0, 0.0, 2.0), 1.0)] * 3, dtype=EDGE_DTYPE)
        edges[column][1:] = value
        message = f"edge 1 {column} must be {rule}, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            OptProblem([0, 1], np.zeros((2, 3)), edges)

    def test_zero_edge_weight_accepted(self):
        edges = [(0, 0, 1, -1, (0.0, 0.0, 2.0), 0.0)]
        assert OptProblem([0, 1], np.zeros((2, 3)), edges).edges.weight.tolist() == [0.0]

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
            for pos, f in iterates(problem):
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
        edges = [(0, i % 6, (i + 1) % 6, 1, (0.0, 0.0, 2.0), 1.0) for i in range(5)]
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
            edges.append((0, 2 * i, 2 * i + 1, 1, center, 1.0))
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
            edges.append((0, 2 * i, 2 * i + 1, 1, center, 1.0))
        scaled = {pid: s * p for pid, p in pos.items()}
        expected = abs(1 - s) * np.linalg.norm(center)
        for r in edge_residuals(np.array(edges, dtype=EDGE_DTYPE).view(np.recarray), scaled):
            assert abs(np.linalg.norm(r) - expected) < 1e-9


class TestSolve:
    def test_zero_residual_fixed_point(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        store = ClusterStore(emap)
        store.assign_batch(range(2))
        problem = replace(build_problem(store, range(1)), anchor_weight=0.0)
        positions, report = solve(problem)
        assert report.final_objective == 0.0
        assert report.iterations <= 1
        assert np.array_equal(positions, problem.initial)

    def test_single_edge_splits_discrepancy_symmetrically(self):
        # One segment vs a mismatched fixed center, lambda = 0: endpoints
        # move so p2 - p1 equals the center exactly, midpoint preserved.
        p1, p2 = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0])
        center = np.array([0.0, 0.1, 2.2])
        problem = OptProblem([0, 1], np.array([p1, p2]), [(0, 0, 1, 1, center, 1.0)],
                             anchor_weight=0.0, iteration_cap=50)
        positions, report = solve(problem)
        assert np.linalg.norm((positions[1] - positions[0]) - center) < 1e-8
        assert np.linalg.norm((positions[0] + positions[1]) / 2 - (p1 + p2) / 2) < 1e-8
        assert report.final_objective < 1e-16

    def test_huge_anchor_freezes_positions(self):
        p1, p2 = np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])
        center = np.array([0.0, 0.0, 2.2])
        edge = (0, 0, 1, 1, center, 1.0)
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
        store = ClusterStore(emap)
        store.assign_batch(range(3))
        full = build_problem(store, frames=range(3))
        scoped = build_problem(store, frames=range(2))
        assert len(full.edges) == 3
        assert len(scoped.edges) == 2
        in_scope = emap.observations[:2, [OBS_P1, OBS_P2]]
        assert {(e.p1_id, e.p2_id) for e in scoped.edges} == set(map(tuple, in_scope.tolist()))

    def test_build_problem_takes_the_solver_defaults(self):
        # a window is all build_problem is told; the solve settings are OptProblem's
        assert list(inspect.signature(build_problem).parameters) == ["store", "frames"]
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0]])
        store = ClusterStore(emap)
        store.assign_batch(range(2))
        problem = build_problem(store, range(2))
        assert len(problem.edges) == 2
        assert problem.anchor_weight == DEFAULT_ANCHOR_WEIGHT
        assert problem.iteration_cap == DEFAULT_ITERATION_CAP

    @pytest.mark.parametrize("anchor_weight", [0.0, 1e-3])
    def test_capped_solve_is_a_prefix(self, anchor_weight):
        # Capped at k, the solve stops right after the uncapped run's k-th
        # accepted step: its objective and trace are iterate k's, bit for
        # bit, and at the last iterate so are its positions.
        for seed in range(30):
            problem = random_problem(np.random.default_rng(seed), anchor_weight=anchor_weight)
            positions, report = solve(problem)
            trace = report.objective_trace
            for k in range(1, report.iterations + 1):
                capped_positions, capped = solve(replace(problem, iteration_cap=k))
                assert capped.iterations == k
                assert capped.final_objective == trace[k]
                assert capped.objective_trace == trace[: k + 1]
                if k == report.iterations:
                    assert capped_positions.tobytes() == positions.tobytes()

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
    # the whole store, or any window
    frames = draw(st.just(range(5)) | st.builds(range, st.integers(-2, 5), st.integers(-1, 7)))
    anchor_weight = draw(st.sampled_from([0.0, 1e-3, 1e-1]))
    return emap, frames, anchor_weight


def expanded_problem(store, emap, weighted, frames):
    """The same problem with one weight-1 edge per in-scope observation."""
    table = expanded_table(store)
    by_cluster = table[np.argsort(table[:, CLUSTER], kind="stable")]
    edges = [
        (cid, p1, p2, sign, store.centers[cid], 1.0)
        for _, frame, cid, p1, p2, sign in by_cluster.tolist()
        if frame in frames
    ]
    return OptProblem(weighted.point_ids, weighted.initial, edges, weighted.anchor_weight)


ClusterEdge = namedtuple("ClusterEdge", EDGE_DTYPE.names)


def reference_build_problem(store, emap, frames):
    """build_problem as one ClusterEdge object per weighted unique edge.

    Returns (point_ids, initial, edges) with point_ids a list of ints and
    edges a list of ClusterEdge; build_problem packs the same values into
    arrays.
    """
    table = expanded_table(store)
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
        ClusterEdge(c, a, b, s, centers[k], float(n))
        for k, ((_, _, c, a, b, s), n) in enumerate(zip(rows.tolist(), counts.tolist()))
    ]
    return point_ids.tolist(), emap.points[point_ids], edges


def older_edge_again_map():
    """Segments A (points 0, 1) and B (points 2, 3) of one cluster, seen in
    frames 0 (A), 1 (B) and 2 (A): edge 0 is A's and edge 1 is B's, but in
    frames 1-2 B's first member comes before A's."""
    points = [(0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (1.0, 1.0, 1.0), (1.0, 1.0, 3.001)]
    observations = [(0, 1, 0, 0), (2, 3, 1, 1), (0, 1, 2, 0)]
    return array_map(points, np.zeros(len(points)), observations, 5)


class TestEdgeTable:
    @settings(max_examples=100)
    @given(reobserved_maps())
    @example((older_edge_again_map(), range(1, 3), 1e-3))
    @example((older_edge_again_map(), range(2, 2), 1e-3))  # an empty scope
    @example((older_edge_again_map(), range(2, 1001), 0.0))  # frames beyond the member table
    @example((older_edge_again_map(), range(-3, 2), 1e-1))  # negative frames
    def test_matches_the_object_build_bit_for_bit(self, case):
        emap, frames, anchor_weight = case
        store = ClusterStore(emap)
        store.assign_batch(range(len(emap.observations)))
        problem = replace(build_problem(store, frames=frames), anchor_weight=anchor_weight)
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
        store = ClusterStore(emap)
        store.assign_batch(range(len(emap.observations)))
        weighted = replace(build_problem(store, frames=frames), anchor_weight=anchor_weight)
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
        store = ClusterStore(emap)
        store.assign_batch(range(3))

        scoped = build_problem(store, frames=range(2))
        assert scoped.edges["weight"].tolist() == [2.0]
        assert scoped.point_ids.tolist() == [0, 1]
        late = build_problem(store, frames=range(2, 3))
        assert late.edges["weight"].tolist() == [1.0]
        full = build_problem(store, frames=range(3))
        assert full.edges["weight"].tolist() == [3.0]
        assert len(build_problem(store, frames=range(5, 6)).edges) == 0

    @pytest.mark.parametrize("frames", [None, {0, 1}, [0, 1], range(0, 3, 2), range(2, 0, -1)])
    def test_scope_other_than_a_window_rejected(self, frames):
        emap = array_map([(0.0, 0.0, 0.0), (0.0, 0.0, 2.0)], [0, 0], [(0, 1, 0, 0)], 1)
        store = ClusterStore(emap)
        store.assign_batch(range(1))
        message = f"frames must be a range with step 1, got {frames!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_problem(store, frames=frames)


def assert_edge_table_consistent(store):
    table, edges = store.member_table, store.edge_table
    assert table.dtype == edges.dtype == np.int64
    assert table.shape == (len(table), len(MEMBER_COLUMNS))
    assert edges.shape == (len(edges), len(EDGE_COLUMNS))
    assert len(set(map(tuple, edges.tolist()))) == len(edges)  # distinct keys
    # edge ids run 0, 1, ... in order of first member
    ids, first_rows = np.unique(table[:, EDGE], return_index=True)
    assert ids.tolist() == list(range(len(edges)))
    assert np.all(np.diff(first_rows) > 0)


class TestStoreEdgeTable:
    @settings(max_examples=60)
    @given(reobserved_maps(), st.integers(0, 25))
    def test_edges_match_member_rows(self, case, split):
        emap = case[0]
        n = len(emap.observations)
        store = ClusterStore(emap)
        store.assign_batch(range(min(split, n)))
        store.assign_batch(range(min(split, n), n))
        assert_edge_table_consistent(store)

    def test_edges_match_member_rows_on_a_simulated_map(self):
        world = generate_corridor(WorldSpec(corridor_length=20, door_spacing=2))
        emap = simulate(
            world,
            DriftConfig(scale_sigma=1e-3, rng_seed=0),
            ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=0),
        )
        frames = emap.observations[:, OBS_FRAME]
        store = ClusterStore(emap)
        for frame in range(len(emap.trajectory)):
            store.assign_batch(np.flatnonzero(frames == frame))
        assert len(store.edge_table) < len(store.member_table)  # keys repeat
        assert_edge_table_consistent(store)


def reference_solve(problem):
    """solve as one np.add.at Laplacian and gradient, an np.eye damping term
    and a gradient recomputed on every iteration; solve must match it bit
    for bit."""
    n = problem.n_points
    lam = problem.anchor_weight
    report = OptReport(0.0, 0.0, 0, [])
    edges = np.asarray(problem.edges)
    if not len(edges):
        return problem.initial.copy(), report

    i1, i2 = _endpoint_rows(problem.point_ids, edges)
    sign, centers, weight = (edges[c].astype(float) for c in ("sign", "center", "weight"))
    x0 = problem.initial.copy()
    x = x0.copy()
    lap = np.zeros((n, n))
    np.add.at(lap, (i1, i1), weight)
    np.add.at(lap, (i2, i2), weight)
    np.add.at(lap, (i1, i2), -weight)
    np.add.at(lap, (i2, i1), -weight)
    signed_weight = (weight * sign)[:, None]

    def objective(xc):
        r = residual(centers, sign, xc[i1], xc[i2])
        f = float((weight[:, None] * r * r).sum())
        if lam > 0:
            d = xc - x0
            f += lam * float((d * d).sum())
        return f

    def gradient_half(xc):
        r = residual(centers, sign, xc[i1], xc[i2])
        g = np.zeros_like(xc)
        np.add.at(g, i1, signed_weight * r)
        np.add.at(g, i2, -signed_weight * r)
        if lam > 0:
            g += lam * (xc - x0)
        return g

    f = objective(x)
    report.initial_objective = f
    report.objective_trace.append(f)
    mu = INITIAL_DAMPING
    accepted = rejects = 0
    while accepted < problem.iteration_cap:
        g = gradient_half(x)
        try:
            delta = -np.linalg.solve(lap + (lam + mu) * np.eye(n), g)
        except np.linalg.LinAlgError:
            report.diagnostics.append(f"singular normal equations at damping {mu}")
            break
        x_new = x + delta
        f_new = objective(x_new)
        if f_new < f:
            x, f = x_new, f_new
            accepted += 1
            mu *= 0.5
            report.objective_trace.append(f)
            if float(np.abs(delta).max()) < 1e-14:
                break
        else:
            mu *= 10.0
            rejects += 1
            if rejects > 50:
                report.diagnostics.append("damping limit reached; stopping")
                break
    report.final_objective = f
    report.iterations = accepted
    return x, report


def at_optimum(problem):
    """The problem with every center equal to its edge's signed vector at the
    initial positions: every residual is zero, so no step can be accepted."""
    edges = problem.edges.copy()
    i1, i2 = problem.endpoint_rows
    edges.center = edges.sign[:, None] * (problem.initial[i2] - problem.initial[i1])
    return OptProblem(
        problem.point_ids, problem.initial, edges, problem.anchor_weight, problem.iteration_cap
    )


def started_at(problem, initial):
    """The problem started at, and anchored to, other initial positions."""
    return OptProblem(
        problem.point_ids, initial, problem.edges, problem.anchor_weight, problem.iteration_cap
    )


def with_zero_coordinate(problem):
    initial = problem.initial.copy()
    initial[0, 0] = 0.0
    return started_at(problem, initial)


def at_powers_of_two(problem):
    """Every initial coordinate rounded to a signed power of two."""
    initial = problem.initial
    return started_at(problem, np.copysign(2.0 ** np.round(np.log2(np.abs(initial))), initial))


def dense_solve_counter(monkeypatch):
    """A list that gains one entry per np.linalg.solve call."""
    calls, real = [], np.linalg.solve

    def spy(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return calls


def assert_same_solve(result, reference):
    (positions, report), (ref_positions, ref_report) = result, reference
    assert positions.tobytes() == ref_positions.tobytes()
    assert (np.array(report.objective_trace).tobytes()
            == np.array(ref_report.objective_trace).tobytes())
    assert report.diagnostics == ref_report.diagnostics
    assert report.iterations == ref_report.iterations


@st.composite
def lm_problems(draw):
    """Random and store-built problems, any iteration cap, optionally at
    their optimum."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        problem = random_problem(rng, anchor_weight=draw(st.sampled_from([0.0, 1e-3, 1e-1])))
    else:
        emap, frames, anchor_weight = draw(reobserved_maps())
        store = ClusterStore(emap)
        store.assign_batch(range(len(emap.observations)))
        problem = replace(build_problem(store, frames=frames), anchor_weight=anchor_weight)
    problem.iteration_cap = draw(st.integers(1, 12))
    return at_optimum(problem) if draw(st.booleans()) else problem


def optimum_problem(anchor_weight=1e-3):
    return at_optimum(random_problem(np.random.default_rng(3), anchor_weight=anchor_weight))


class TestSolveMatchesReference:
    @settings(max_examples=150)
    @given(lm_problems())
    @example(optimum_problem())
    # spacing(0) / 4 underflows to 0: the early exit must not fire
    @example(at_optimum(with_zero_coordinate(random_problem(np.random.default_rng(3)))))
    # a step down from a power of two rounds to a neighbor half as far away
    @example(at_optimum(at_powers_of_two(random_problem(np.random.default_rng(3)))))
    @example(at_powers_of_two(random_problem(np.random.default_rng(4), anchor_weight=1e-3)))
    @example(optimum_problem(anchor_weight=0.0))
    @example(random_problem(np.random.default_rng(5), anchor_weight=0.0))
    def test_same_bits_as_reference_lm_loop(self, problem):
        # the uncapped solves, then both capped at every earlier iterate
        result = solve(problem)
        assert_same_solve(result, reference_solve(problem))
        for k in range(1, result[1].iterations):
            capped = replace(problem, iteration_cap=k)
            assert_same_solve(solve(capped), reference_solve(capped))

    def test_problem_at_its_optimum_reaches_the_damping_limit(self, monkeypatch):
        problem = optimum_problem()
        solves = dense_solve_counter(monkeypatch)
        counts = []
        for solver in (solve, reference_solve):
            solves.clear()
            positions, report = solver(problem)
            counts.append(len(solves))
            assert report.diagnostics == ["damping limit reached; stopping"]
            assert report.objective_trace == [0.0]
            assert positions.tobytes() == problem.initial.tobytes()
        # the reference rejects 51 steps; solve proves them void up front
        assert counts[1] == 51
        assert counts[0] <= 1

    def test_zero_coordinate_keeps_every_rejected_step(self, monkeypatch):
        problem = at_optimum(with_zero_coordinate(random_problem(np.random.default_rng(3))))
        solves = dense_solve_counter(monkeypatch)
        _, report = solve(problem)
        assert report.diagnostics == ["damping limit reached; stopping"]
        assert len(solves) == 51

    def test_same_bits_on_every_problem_of_a_pipeline_run(self, monkeypatch):
        # Store-built problems reach rounding-level objectives, where the
        # early exit fires; random problems rarely do.
        solves = dense_solve_counter(monkeypatch)
        skipped = 0

        def solve_both(problem):
            nonlocal skipped
            solves.clear()
            result = solve(problem)
            ours = len(solves)
            assert_same_solve(result, reference_solve(problem))
            skipped += len(solves) - 2 * ours
            return result

        monkeypatch.setattr(pipeline, "solve", solve_both)
        pipeline.run(
            generate_corridor(WorldSpec(corridor_length=20, door_spacing=2)),
            DriftConfig(scale_sigma=1e-3, rng_seed=0),
            ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=0),
            ScheduleConfig(mode="segglobal"),
        )
        assert skipped > 0, "the early exit never fired"
