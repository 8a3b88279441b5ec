"""Incremental segment-vector clustering."""

import numpy as np
import pytest

from segdrift.clustering import (
    CLUSTER,
    MEMBER_COLUMNS,
    OBS,
    SIGN,
    ClusterStore,
    DegenerateSegmentError,
    assign_all,
)
from segdrift.frontend import EstimatedMap, MapPoint, SegmentObservation
from segdrift.geometry import PoseSE3


def map_from_vectors(vectors):
    """EstimatedMap whose observation i has signed vector vectors[i]."""
    points = {}
    observations = []
    for i, v in enumerate(vectors):
        p1, p2 = 2 * i, 2 * i + 1
        points[p1] = MapPoint(p1, np.zeros(3), 0)
        points[p2] = MapPoint(p2, np.asarray(v, float), 0)
        observations.append(SegmentObservation(p1, p2, 0, i))
    return EstimatedMap(points, observations, np.zeros(len(vectors)), [PoseSE3.identity()])


def batch_center(store, emap, cid):
    vs = [s * store.signed_vector(i, emap) for i, s in store.clusters[cid].members]
    return np.mean(vs, axis=0)


class TestAssignment:
    def test_first_observation_seeds_cluster(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0]])
        store = ClusterStore()
        assert store.assign(0, emap) == 0
        assert len(store) == 1
        assert np.array_equal(store.clusters[0].center, [1.0, 0.0, 0.0])

    def test_identical_vectors_merge(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0]] * 5)
        store = ClusterStore()
        for i in range(5):
            store.assign(i, emap)
        assert len(store) == 1
        assert store.clusters[0].cardinality == 5

    def test_opposite_orientation_merges_with_negative_sign(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        store = ClusterStore()
        store.assign(0, emap)
        cid = store.assign(1, emap)
        assert cid == 0
        assert store.membership[1] == (0, -1)
        assert np.allclose(store.clusters[0].center, [0.0, 0.0, 2.0])

    def test_distinct_lengths_separate(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.5]])
        store = ClusterStore()
        store.assign(0, emap)
        assert store.assign(1, emap) == 1
        assert len(store) == 2

    def test_strict_inequality_at_exact_boundary(self):
        # Dyadic construction: center (0, 0, 2), threshold 2^-8, candidate
        # (0, 0, 2 + 2^-7). Distance 2^-7 equals the limit 2^-8 * 2 exactly
        # in binary floating point, so the strict test must open a new
        # cluster.
        tau = 2.0**-8
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 2.0**-7]])
        store = ClusterStore()
        store.assign(0, emap, rel_threshold=tau)
        assert store.assign(1, emap, rel_threshold=tau) == 1
        assert len(store) == 2

    def test_just_inside_boundary_merges(self):
        tau = 2.0**-8
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 2.0**-7 - 2.0**-20]])
        store = ClusterStore()
        store.assign(0, emap, rel_threshold=tau)
        assert store.assign(1, emap, rel_threshold=tau) == 0

    def test_nearest_cluster_wins(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [1.004, 0.0, 0.0], [1.0024, 0.0, 0.0]])
        store = ClusterStore()
        store.assign(0, emap, rel_threshold=0.0025)
        store.assign(1, emap, rel_threshold=0.0025)
        assert len(store) == 2
        # 1.0024 is within threshold of both centers; cluster 1 (center
        # 1.004) is nearer.
        assert store.assign(2, emap, rel_threshold=0.0025) == 1

    def test_degenerate_segment_raises(self):
        emap = map_from_vectors([[0.0, 0.0, 0.0]])
        store = ClusterStore()
        with pytest.raises(DegenerateSegmentError):
            store.assign(0, emap)

    def test_assign_all_discards_degenerate(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        store = ClusterStore()
        discarded = assign_all(store, emap, range(3))
        assert discarded == 1
        assert len(store) == 1
        assert store.clusters[0].cardinality == 2

    def test_double_assignment_rejected(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0]])
        store = ClusterStore()
        store.assign(0, emap)
        with pytest.raises(ValueError):
            store.assign(0, emap)


class TestCenters:
    def test_incremental_mean_matches_batch_mean(self):
        # Incremental running means vs exact batch means of the signed
        # member vectors, over many random sequences.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            base = rng.uniform(0.5, 3.0, size=(4, 3))
            vectors = []
            for _ in range(25):
                v = base[rng.integers(4)] * (1.0 + rng.normal(0, 0.001))
                if rng.random() < 0.5:
                    v = -v
                vectors.append(v)
            emap = map_from_vectors(vectors)
            store = ClusterStore()
            assign_all(store, emap, range(len(vectors)))
            for cid, cluster in store.clusters.items():
                assert np.linalg.norm(cluster.center - batch_center(store, emap, cid)) < 1e-9

    def test_recompute_centers_exact_after_moving_points(self):
        rng = np.random.default_rng(7)
        vectors = rng.uniform(-2, 2, size=(30, 3))
        emap = map_from_vectors(vectors)
        store = ClusterStore()
        assign_all(store, emap, range(30))
        for pt in emap.points.values():
            pt.position = pt.position + rng.normal(0, 0.1, size=3)
        store.recompute_centers(emap)
        for cid, cluster in store.clusters.items():
            assert np.linalg.norm(cluster.center - batch_center(store, emap, cid)) < 1e-12

    def test_recompute_centers_empty_store(self):
        store = ClusterStore()
        store.recompute_centers(map_from_vectors([[1.0, 0.0, 0.0]]))
        assert len(store) == 0


class TestMemberTable:
    def test_rows_agree_with_members_and_membership(self):
        emap = map_from_vectors(
            [[0.0, 0.0, 2.0], [0.0, 0.0, -2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.004], [1.0, 0.0, 0.0]]
        )
        emap.observations = [
            SegmentObservation(o.p1_id, o.p2_id, 7 - i, o.world_segment_index)
            for i, o in enumerate(emap.observations)
        ]
        store = ClusterStore()
        order = [3, 0, 4, 1, 2]
        assign_all(store, emap, order)

        table = store.member_table
        assert table.dtype == np.int64
        assert table.shape == (len(order), len(MEMBER_COLUMNS))
        assert table[:, OBS].tolist() == order
        for obs_index, frame, cid, p1, p2, sign in table.tolist():
            obs = emap.observations[obs_index]
            assert (frame, p1, p2) == (obs.frame, obs.p1_id, obs.p2_id)
            assert store.membership[obs_index] == (cid, sign)
        for cid, cluster in store.clusters.items():
            rows = table[table[:, CLUSTER] == cid]
            assert list(zip(rows[:, OBS].tolist(), rows[:, SIGN].tolist())) == cluster.members
        assert np.array_equal(store.centers, [c.center for c in store.clusters.values()])


class TestSerialization:
    def test_to_json_structure(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        store = ClusterStore()
        assign_all(store, emap, range(2))
        out = store.to_json()
        assert len(out) == 1
        assert out[0]["cardinality"] == 2
        assert out[0]["members"] == [
            {"observation": 0, "sign": 1},
            {"observation": 1, "sign": -1},
        ]

    def test_dump_round_trips(self, tmp_path):
        import json

        emap = map_from_vectors([[1.0, 2.0, 3.0]])
        store = ClusterStore()
        store.assign(0, emap)
        path = tmp_path / "clusters.json"
        store.dump(path)
        assert json.loads(path.read_text()) == store.to_json()
