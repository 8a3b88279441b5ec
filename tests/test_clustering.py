"""Incremental segment-vector clustering."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segdrift.clustering import (
    CLUSTER,
    FRAME,
    MEMBER_COLUMNS,
    OBS,
    P1,
    P2,
    SIGN,
    ClusterStore,
    DegenerateSegmentError,
    assign_all,
)
from segdrift.frontend import OBS_FRAME, OBS_P1, OBS_P2, EstimatedMap
from segdrift.geometry import PoseSE3


def array_map(points, first_seen, observations, n_frames):
    """EstimatedMap of the given points and (p1, p2, frame, segment) rows,
    over n_frames identity poses."""
    poses = PoseSE3(np.tile([1.0, 0.0, 0.0, 0.0], (n_frames, 1)), np.zeros((n_frames, 3)))
    return EstimatedMap(points, first_seen, observations, np.zeros(n_frames), poses)


def map_from_vectors(vectors):
    """EstimatedMap whose observation i has signed vector vectors[i]."""
    vectors = np.asarray(vectors, dtype=float).reshape(-1, 3)
    points = np.zeros((2 * len(vectors), 3))
    points[1::2] = vectors
    observations = [(2 * i, 2 * i + 1, 0, i) for i in range(len(vectors))]
    return array_map(points, np.zeros(len(points)), observations, 1)


def signed_vector(emap, obs_index):
    obs = emap.observations[obs_index]
    return emap.points[obs[OBS_P2]] - emap.points[obs[OBS_P1]]


def batch_center(store, emap, cid):
    table = store.member_table
    rows = table[table[:, CLUSTER] == cid]
    return np.mean([s * signed_vector(emap, i) for i, s in rows[:, [OBS, SIGN]].tolist()], axis=0)


class ReferenceStore:
    """The per-observation scan: every observation is compared with every
    center in one numpy pass, and the store is updated before the next one.
    Centers are recomputed with np.add.at."""

    def __init__(self):
        self.centers = np.empty((0, 3))
        self.counts = []
        self.rows = []

    @property
    def table(self):
        return np.array(self.rows, dtype=np.int64).reshape(-1, len(MEMBER_COLUMNS))

    def assign(self, obs_index, emap, rel_threshold):
        """Return the cluster id, or None if the observation is degenerate."""
        obs = emap.observations[obs_index]
        v = signed_vector(emap, obs_index)
        if np.linalg.norm(v) == 0.0:
            return None
        cid = sign = None
        if len(self.centers):
            d_pos = np.linalg.norm(self.centers - v, axis=1)
            d_neg = np.linalg.norm(self.centers + v, axis=1)
            signs = np.where(d_pos <= d_neg, 1, -1)
            d = np.minimum(d_pos, d_neg)
            limits = rel_threshold * np.linalg.norm(self.centers, axis=1)
            d = np.where(d < limits, d, np.inf)
            best = int(np.argmin(d))
            if np.isfinite(d[best]):
                cid, sign = best, int(signs[best])
        if cid is None:
            cid, sign = len(self.centers), 1
            self.centers = np.vstack([self.centers, v])
            self.counts.append(1)
        else:
            n = self.counts[cid]
            self.centers[cid] = (self.centers[cid] * n + sign * v) / (n + 1)
            self.counts[cid] = n + 1
        self.rows.append((obs_index, obs[OBS_FRAME], cid, obs[OBS_P1], obs[OBS_P2], sign))
        return cid

    def recompute_centers(self, emap):
        if not len(self.centers):
            return
        pos = emap.points
        table = self.table
        vs = table[:, SIGN].astype(float)[:, None] * (pos[table[:, P2]] - pos[table[:, P1]])
        sums = np.zeros_like(self.centers)
        np.add.at(sums, table[:, CLUSTER], vs)
        self.centers = sums / np.array(self.counts, dtype=float)[:, None]


REL_THRESHOLDS = (2.0**-8, 0.005, 0.5, 2.0)


@st.composite
def observation_streams(draw):
    """(rel_threshold, frames, moves): frames are lists of observation specs,
    ("vec", v) for a new segment or ("again", j, flip) re-observing
    observation j's points, in either endpoint order; moves[f] is a noise
    seed applied to every point after frame f, or None."""
    rel = draw(st.sampled_from(REL_THRESHOLDS))
    unit = st.floats(0.5, 3.0)
    bases = draw(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=4))
    jitter = st.floats(-2 * min(rel, 0.5), 2 * min(rel, 0.5))
    frames, moves, total = [], [], 0
    for _ in range(draw(st.integers(1, 6))):
        specs = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(["near", "near", "again", "again", "zero", "subnormal", "tiny"]))
            if kind == "again" and total:
                specs.append(("again", draw(st.integers(0, total - 1)), draw(st.booleans())))
            elif kind == "zero":
                specs.append(("vec", (0.0, 0.0, 0.0)))
            elif kind == "subnormal":
                specs.append(("vec", tuple(5e-324 * draw(st.integers(-1000, 1000)) for _ in range(3))))
            else:
                base = draw(st.sampled_from(bases))
                sign = draw(st.sampled_from([1.0, -1.0]))
                scale = 1e-155 if kind == "tiny" else 1.0
                specs.append(("vec", tuple(sign * scale * b * (1 + draw(jitter)) for b in base)))
            total += 1
        frames.append(specs)
        moves.append(draw(st.none() | st.integers(0, 2**32 - 1)))
    return rel, frames, moves


def stream_map(frames):
    """The EstimatedMap of a stream, and the observation indices of each frame."""
    points, first_seen, observations, batches = [], [], [], []
    for frame, specs in enumerate(frames):
        batch = []
        for spec in specs:
            if spec[0] == "vec":
                p1, p2 = len(points), len(points) + 1
                points += [(0.0, 0.0, 0.0), spec[1]]
                first_seen += [frame, frame]
            else:
                seen_p1, seen_p2 = observations[spec[1]][:2]
                p1, p2 = (seen_p2, seen_p1) if spec[2] else (seen_p1, seen_p2)
            batch.append(len(observations))
            observations.append((p1, p2, frame, len(observations)))
        batches.append(batch)
    return array_map(points, first_seen, observations, len(frames)), batches


class TestBatchedAssignment:
    @given(observation_streams())
    # two clusters at exactly equal distance 2^-6: the lower id wins, in one
    # batch, in separate batches, and when the lower id was just touched
    @example((2.0**-6, [[("vec", (0, 0, 2.0)), ("vec", (0, 0, 2.0 + 2.0**-5)), ("vec", (0, 0, 2.0 + 2.0**-6))]], [None]))
    @example((2.0**-6, [[("vec", (0, 0, 2.0))], [("vec", (0, 0, 2.0 + 2.0**-5))], [("vec", (0, 0, 2.0 + 2.0**-6))]], [None] * 3))
    @example((2.0**-6, [[("vec", (0, 0, 2.0)), ("vec", (0, 0, 2.0 + 2.0**-5))], [("again", 0, False), ("vec", (0, 0, 2.0 + 2.0**-6))]], [None] * 2))
    # the dyadic exact boundary: distance 2^-7 equals the limit, a new cluster
    @example((2.0**-8, [[("vec", (0, 0, 2.0)), ("vec", (0, 0, 2.0 + 2.0**-7))]], [None]))
    @example((2.0**-8, [[("vec", (0, 0, 2.0))], [("vec", (0, 0, 2.0 + 2.0**-7))]], [None] * 2))
    # a cluster pulled along by three joins becomes joinable by a row that
    # was outside its near set when the frame started
    @example((0.5, [[("vec", (0, 0, 2.0))], [("vec", (0, 0, v)) for v in (2.9, 3.6, 3.9, 4.1)]], [None] * 2))
    # norms near 1e-160 have squares deep in the subnormal range
    @example((0.005, [
        [("vec", (-6.4880789415947995e-161, -1.3729544630697643e-160, -1.3516330956912554e-160))],
        [
            ("vec", (6.491511101545974e-161, 1.3787383880667364e-160, 1.3517138377238164e-160)),
            ("vec", (-6.518683862536226e-161, -1.3630673752756495e-160, -1.3457199633387534e-160)),
            ("vec", (-6.421759677766131e-161, -1.3597818016996797e-160, -1.335606563951113e-160)),
        ],
    ], [None] * 2))
    def test_matches_per_observation_reference(self, case):
        rel, frames, moves = case
        emap, batches = stream_map(frames)
        store, single, ref = ClusterStore(), ClusterStore(), ReferenceStore()
        for batch, move in zip(batches, moves):
            expected = [ref.assign(i, emap, rel) for i in batch]
            assert assign_all(store, emap, batch, rel) == expected.count(None)
            for i, cid in zip(batch, expected):
                if cid is None:
                    with pytest.raises(DegenerateSegmentError):
                        single.assign(i, emap, rel)
                else:
                    assert single.assign(i, emap, rel) == cid
            if move is not None:
                rng = np.random.default_rng(move)
                emap.points += rng.normal(0, 1e-3, size=emap.points.shape)
                for s in (store, single, ref):
                    s.recompute_centers(emap)
            for s in (store, single):
                assert np.array_equal(s.member_table, ref.table)
                assert np.array_equal(s.centers, ref.centers)
                assert s.counts.tolist() == ref.counts

    def test_equal_distance_lowest_id_wins(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 2.0**-5], [0.0, 0.0, 2.0 + 2.0**-6]])
        store = ClusterStore()
        assign_all(store, emap, range(3), rel_threshold=2.0**-6)
        assert store.member_table[:, CLUSTER].tolist() == [0, 1, 0]


class TestAssignment:
    def test_first_observation_seeds_cluster(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0]])
        store = ClusterStore()
        assert store.assign(0, emap) == 0
        assert len(store) == 1
        assert np.array_equal(store.centers, [[1.0, 0.0, 0.0]])
        assert store.counts.tolist() == [1]

    def test_identical_vectors_merge(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0]] * 5)
        store = ClusterStore()
        for i in range(5):
            store.assign(i, emap)
        assert len(store) == 1
        assert store.counts.tolist() == [5]

    def test_opposite_orientation_merges_with_negative_sign(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        store = ClusterStore()
        store.assign(0, emap)
        cid = store.assign(1, emap)
        assert cid == 0
        table = store.member_table
        assert table[:, [OBS, CLUSTER, SIGN]].tolist() == [[0, 0, 1], [1, 0, -1]]
        assert np.allclose(store.centers, [[0.0, 0.0, 2.0]])

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
        assert len(store.member_table) == 0

    def test_assign_all_discards_degenerate(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        store = ClusterStore()
        discarded = assign_all(store, emap, range(3))
        assert discarded == 1
        assert len(store) == 1
        assert store.counts.tolist() == [2]
        assert store.member_table[:, OBS].tolist() == [0, 2]

    def test_double_assignment_rejected(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0]])
        store = ClusterStore()
        store.assign(0, emap)
        with pytest.raises(ValueError):
            store.assign(0, emap)


class TestBatchRejection:
    @staticmethod
    def snapshot(store):
        return store.member_table.copy(), store.centers.copy(), store.counts.copy()

    @pytest.mark.parametrize(
        "first, batch",
        [
            ([], [0, 1, 0]),  # repeats an index
            ([2], [0, 1, 2]),  # holds an assigned index
            ([2], [3, 2]),
            ([0, 1], [2, 3, 1]),
        ],
    )
    def test_rejected_before_store_changes(self, first, batch):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        store = ClusterStore()
        assign_all(store, emap, first)
        before = self.snapshot(store)
        with pytest.raises(ValueError):
            assign_all(store, emap, batch)
        for a, b in zip(before, self.snapshot(store)):
            assert np.array_equal(a, b)

    def test_unassigned_lower_index_accepted(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
        store = ClusterStore()
        assign_all(store, emap, [2])
        assert assign_all(store, emap, [1, 0]) == 0
        assert store.member_table[:, OBS].tolist() == [2, 1, 0]
        assert store.counts.tolist() == [2, 1]


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
            for cid, center in enumerate(store.centers):
                assert np.linalg.norm(center - batch_center(store, emap, cid)) < 1e-9

    def test_recompute_centers_exact_after_moving_points(self):
        rng = np.random.default_rng(7)
        vectors = rng.uniform(-2, 2, size=(30, 3))
        emap = map_from_vectors(vectors)
        store = ClusterStore()
        assign_all(store, emap, range(30))
        emap.points += rng.normal(0, 0.1, size=emap.points.shape)
        store.recompute_centers(emap)
        for cid, center in enumerate(store.centers):
            assert np.linalg.norm(center - batch_center(store, emap, cid)) < 1e-12

    def test_recompute_centers_empty_store(self):
        store = ClusterStore()
        store.recompute_centers(map_from_vectors([[1.0, 0.0, 0.0]]))
        assert len(store) == 0


class TestMemberTable:
    def test_rows_agree_with_members_and_membership(self):
        emap = map_from_vectors(
            [[0.0, 0.0, 2.0], [0.0, 0.0, -2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.004], [1.0, 0.0, 0.0]]
        )
        emap.observations[:, OBS_FRAME] = 7 - np.arange(len(emap.observations))
        store = ClusterStore()
        order = [3, 0, 4, 1, 2]
        assign_all(store, emap, order)

        table = store.member_table
        assert table.dtype == np.int64
        assert table.shape == (len(order), len(MEMBER_COLUMNS))
        assert table[:, OBS].tolist() == order
        for obs_index, frame, cid, p1, p2, sign in table.tolist():
            obs = emap.observations[obs_index]
            assert [frame, p1, p2] == obs[[OBS_FRAME, OBS_P1, OBS_P2]].tolist()
        # obs 3 seeds cluster 0, obs 4 seeds cluster 1; 0 and 1 join cluster 0
        # (1 reversed), 2 joins cluster 1
        assert table[:, [CLUSTER, SIGN]].tolist() == [[0, 1], [0, 1], [1, 1], [0, -1], [1, 1]]
        assert table[:, FRAME].tolist() == [4, 7, 3, 6, 5]
        assert store.counts.tolist() == np.bincount(table[:, CLUSTER]).tolist() == [3, 2]
        for cid, center in enumerate(store.centers):
            assert np.linalg.norm(center - batch_center(store, emap, cid)) < 1e-12


class TestSerialization:
    def test_to_json_structure(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        store = ClusterStore()
        assign_all(store, emap, range(2))
        out = store.to_json()
        assert len(out) == 1
        assert out[0]["id"] == 0
        assert out[0]["center"] == [0.0, 0.0, 2.0]
        assert out[0]["cardinality"] == 2
        assert out[0]["members"] == [
            {"observation": 0, "sign": 1},
            {"observation": 1, "sign": -1},
        ]

    def test_to_json_groups_members_by_cluster_in_assignment_order(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        store = ClusterStore()
        assign_all(store, emap, [3, 0, 1, 2])
        out = store.to_json()
        assert [c["id"] for c in out] == [0, 1]
        assert [c["cardinality"] for c in out] == [2, 2]
        assert [[(m["observation"], m["sign"]) for m in c["members"]] for c in out] == [
            [(3, 1), (1, 1)],
            [(0, 1), (2, -1)],
        ]

    def test_dump_round_trips(self, tmp_path):
        import json

        emap = map_from_vectors([[1.0, 2.0, 3.0]])
        store = ClusterStore()
        store.assign(0, emap)
        path = tmp_path / "clusters.json"
        store.dump(path)
        assert json.loads(path.read_text()) == store.to_json()
