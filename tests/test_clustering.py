"""Incremental segment-vector clustering."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segdrift import clustering
from segdrift.clustering import (
    DEFAULT_REL_THRESHOLD,
    MEMBER_COLUMNS,
    ClusterStore,
    DegenerateSegmentError,
    _norm,
)
from segdrift.frontend import OBS_FRAME, OBS_P1, OBS_P2, DriftConfig, EstimatedMap, ObservationConfig, simulate
from segdrift.geometry import Trajectory, xyz_norms
from segdrift.worldgen import WorldSpec, generate_corridor


# A member row with its edge's key in place of the edge id.
EXPANDED_COLUMNS = ("obs", "frame", *clustering.EDGE_COLUMNS)
OBS, FRAME, CLUSTER, P1, P2, SIGN = range(len(EXPANDED_COLUMNS))


def expanded_table(store):
    """(members, 6) int64 rows, columns EXPANDED_COLUMNS, assignment order:
    each member-table row joined with its row of the edge table."""
    table = store.member_table
    return np.column_stack(
        (table[:, [clustering.OBS, clustering.FRAME]], store.edge_table[table[:, clustering.EDGE]])
    )


def array_map(points, first_seen, observations, n_frames):
    """EstimatedMap of the given points and (p1, p2, frame, segment) rows,
    over n_frames identity poses."""
    quaternions = np.tile([1.0, 0.0, 0.0, 0.0], (n_frames, 1))
    trajectory = Trajectory(np.arange(n_frames), np.zeros((n_frames, 3)), quaternions)
    return EstimatedMap(points, first_seen, observations, trajectory)


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
    table = expanded_table(store)
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
        return np.array(self.rows, dtype=np.int64).reshape(-1, len(EXPANDED_COLUMNS))

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
    observation j's points, in either endpoint order; moves[f] is a seed that
    picks a random subset of the points and shifts it after frame f, or None."""
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


def certification_boundary(rel):
    """Clusters at (0, 0, 2) and (2, 0, 0), then one batch re-observing a
    pair at scanned distance B (1 - 2^-19) of the first, inside the
    certification bound B (1 - 2^-20), and one at B (1 - 2^-21) of the
    second, outside it; B = lim / (2 (1 + rel)), lim = 2 rel."""
    b = 2.0 * rel / (2.0 * (1.0 + rel))
    return (rel, [
        [("vec", (0.0, 0.0, 2.0)), ("vec", (2.0, 0.0, 0.0))],
        [("vec", (0.0, 0.0, 2.0 + b * (1 - 2.0**-19))), ("vec", (2.0 + b * (1 - 2.0**-21), 0.0, 0.0))]
        + [("again", j, False) for j in (2, 3) * 3],
    ], [None] * 2)


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
    # the scan's prefilter: components whose products underflow, at both
    # sides of each boundary 2 lim0 and lim0
    @example((0.5, [
        [("vec", (1.0, 0.0, 1e-300))],
        [("vec", (v, s * 1e-300, 0.0)) for v in (2.0, -1.9, 1.5, 1.4, -0.6) for s in (1.0, -1.0)],
    ], [None] * 2))
    @example((2.0, [
        [("vec", (1.0, 0.0, 1e-300))],
        [("vec", (v, s * 1e-300, 0.0)) for v in (5.0, -4.9, 3.0, -2.9, 1e-300) for s in (1.0, -1.0)],
    ], [None] * 2))
    # clusters whose norm or limit sits just inside or outside _SAFE_NORMS
    @example((0.5, [
        [("vec", (c, 0.0, 0.0)) for c in (2.0**-499, 2.0**-501, 2.0**499, 2.0**501)],
        [("vec", (f * c, 0.0, 0.0)) for c in (2.0**-499, 2.0**-501, 2.0**499, 2.0**501) for f in (1.2, 1.9, -0.7)],
    ], [None] * 2))
    @example((2.0, [
        [("vec", (c, 0.0, c)) for c in (2.0**-500, 2.0**-502, 2.0**498, 2.0**499)],
        [("vec", (f * c, c, 0.0)) for c in (2.0**-500, 2.0**-502, 2.0**498, 2.0**499) for f in (2.5, 4.1, -3.0)],
    ], [None] * 2))
    # a cluster created in the batch is scanned at creation: rows at distance
    # exactly 2 lim (outside its reach) and 2 lim - 2^-20 (inside) of its
    # creation center, and a row at 1.25 lim that joins it once a join moved
    # it by a quarter lim, less than lim / (2 (1 + rel))
    @example((0.5, [[
        ("vec", (0, 0, 2.0)),
        ("vec", (2.0, 0, 2.0)),
        ("vec", (0, 2.0 - 2.0**-20, 2.0)),
        ("vec", (0, 0, 2.5)),
        ("vec", (0, 0, 3.25)),
    ]], [None]))
    # a cluster created in the batch and pulled beyond lim / (2 (1 + rel)) by
    # its first join is joined by a row outside 2 lim of its creation center
    @example((0.5, [[("vec", (0, 0, v)) for v in (2.0, 2.9, 3.6, 3.9, 4.1)]], [None]))
    # certified runs: pairs re-observed three times at scanned distance just
    # inside and just outside B (1 - 2^-20), B = lim / (2 (1 + rel))
    @example(certification_boundary(0.5))
    @example(certification_boundary(2.0**-8))
    # a certified pair's run is cut mid-batch by a cluster a later row
    # creates outside 2 lim of the pair's cluster, with the pair inside its
    # own 2 lim
    @example((0.5, [
        [("vec", (0, 0, 2.0))],
        [("vec", (0, 0, 2.1)), ("again", 1, False), ("again", 1, False),
         ("vec", (0, 2.2, 2.1)), ("again", 1, False), ("again", 4, False)],
    ], [None] * 2))
    # a cluster created in the batch lands near other pairs, so neither its
    # creator nor they may defer joins to it: a last row near its limit
    # joins or not by whether the rows of the creator (first example) or of
    # another pair (second) were applied before it
    @example((0.5, [[("vec", (0, 0, 2.0)), ("vec", (0, 0, 2.5))] + [("again", 0, False)] * 4 + [("vec", (0, 0, 3.3))]], [None]))
    @example((0.5, [[("vec", (0, 0, 2.0)), ("vec", (0, 0, 2.5))] + [("again", 1, False)] * 4 + [("vec", (0, 0, 1.2))]], [None]))
    # a cluster created in the batch is pulled beyond lim / (2 (1 + rel))
    # twice, and scanned again each time: the last row lies outside 2 lim of
    # its first two scans and joins it
    @example((0.5, [[("vec", (0, 0, v)) for v in (2.0, 2.9, 3.6, 3.9, 4.5, 4.95)]], [None]))
    # clusters whose norm and limit lie below _SAFE_NORMS enter every pair's
    # near set when the batch creates them or first changes them, so a last
    # row outside 2 lim of their scanned center joins them
    @example((0.5, [[("vec", (0, 0, v * 2.0**-505)) for v in (2.0, 2.9, 3.6, 3.9, 4.1)]], [None]))
    @example((0.5, [[("vec", (0, 0, 2.0**-504))], [("vec", (0, 0, v * 2.0**-505)) for v in (2.9, 3.6, 3.9, 4.1)]], [None] * 2))
    # a cluster pulled beyond lim / (2 (1 + rel)) is scanned again and lands
    # far from a certified pair, whose run goes on; a pair outside 2 lim of
    # its creation center then joins it four times, and the last row joins
    # it only once those joins are applied
    @example((0.5, [
        [("vec", (0, 5.0, 0)), ("again", 0, False)]
        + [("vec", (0, 0, v)) for v in (2.0, 2.9, 3.6, 3.9, 4.1)]
        + [("again", 6, False)] * 4 + [("again", 0, False), ("vec", (0, 0, 5.2))]
    ], [None]))
    # pairs the scan must not certify, since a last row joins or not by
    # whether their rows were applied before it: two pairs near one cluster;
    # a pair whose second near cluster alone would certify it; a pair that
    # joins beyond B and pulls its cluster into reach of a row outside 2 lim
    @example((0.5, [[("vec", (0, 0, 2.0))], [("vec", (0, 0, 2.3))] + [("again", 1, False)] * 4 + [("vec", (0, 0, 3.3))]], [None] * 2))
    @example((0.5, [
        [("vec", (0, 0, 2.0)), ("vec", (1.57, 0, 1.23))],
        [("vec", (0, 0, 2.3))] + [("again", 2, False)] * 4 + [("vec", (0, 1.1, 2.25))],
    ], [None] * 2))
    @example((0.5, [
        [("vec", (0, 0, 2.0)), ("again", 0, False), ("again", 0, False)],
        [("vec", (0, 0, 2.9))] + [("again", 3, False)] * 19 + [("vec", (0, 0, 4.0))],
    ], [None] * 2))
    # re-observed pairs whose norm lies outside _SAFE_NORMS
    @example((0.5, [
        [("vec", (2.0**-501, 0.0, 0.0))],
        [("vec", (1.2 * 2.0**-501, 0.0, 0.0)), ("vec", (0.0, 2.0**-502, 0.0))]
        + [("again", j, False) for j in (1, 2) * 3],
    ], [None] * 2))
    # one (p1, p2) pair observed again in both orientations, among others
    @example((0.005, [[
        ("vec", (1.0, 0.0, 0.0)),
        ("vec", (0.0, 2.0, 0.0)),
        ("again", 0, True),
        ("again", 1, False),
        ("again", 0, False),
        ("again", 1, True),
        ("again", 0, True),
        ("vec", (-1.001, 0.0, 0.0)),
        ("again", 1, False),
    ]], [None]))
    def test_matches_per_observation_reference(self, case):
        rel, frames, moves = case
        emap, batches = stream_map(frames)
        store, single, ref = ClusterStore(rel), ClusterStore(rel), ReferenceStore()
        # one batch per move interval: every frame up to the next move, or the end
        interval, pending, pending_discarded = ClusterStore(rel), [], 0
        for f, (batch, move) in enumerate(zip(batches, moves)):
            expected = [ref.assign(i, emap, rel) for i in batch]
            assert len(store.assign_batch(batch, emap)) == expected.count(None)
            for i, cid in zip(batch, expected):
                if cid is None:
                    with pytest.raises(DegenerateSegmentError):
                        single.assign(i, emap)
                else:
                    assert single.assign(i, emap) == cid
            pending += batch
            pending_discarded += expected.count(None)
            flush = move is not None or f == len(batches) - 1
            if flush:
                assert len(interval.assign_batch(pending, emap)) == pending_discarded
                pending, pending_discarded = [], 0
            if move is not None:
                rng = np.random.default_rng(move)
                listed = np.flatnonzero(rng.random(len(emap.points)) < 0.5)
                # as after a solve, some listed points keep their bits: they
                # are left out of `moved`, and only `interval` is told of them
                moved = listed[rng.random(len(listed)) < 0.7]
                emap.points[moved] += rng.normal(0, 1e-3, size=(len(moved), 3))
                store.recompute_centers(emap, moved)  # only the clusters it dirtied
                interval.recompute_centers(emap, listed)
                single.recompute_centers(emap, np.arange(len(emap.points)))  # every cluster
                ref.recompute_centers(emap)
            # edge ids run in order of first member
            keys = list(dict.fromkeys(map(tuple, ref.table[:, CLUSTER:].tolist())))
            for s in (store, single, interval) if flush else (store, single):
                assert np.array_equal(expanded_table(s), ref.table)
                assert list(map(tuple, s.edge_table.tolist())) == keys
                assert np.array_equal(s.centers, ref.centers)
                assert s.counts.tolist() == ref.counts

    def test_scan_runs_once_per_pair(self, monkeypatch):
        # 9 rows over 3 (p1, p2) pairs, each seen three times in one orientation
        specs = [("vec", (1.0, 0.0, 0.0)), ("vec", (0.0, 2.0, 0.0)), ("vec", (1.001, 0.0, 0.0))]
        emap, (batch,) = stream_map([specs + [("again", j, False) for j in (0, 1, 2) * 2]])
        scanned = []
        scan = ClusterStore._scan

        def spy(self, vs):
            scanned.append(len(vs))
            return scan(self, vs)

        monkeypatch.setattr(ClusterStore, "_scan", spy)
        store, ref = ClusterStore(), ReferenceStore()
        store.assign_batch(batch, emap)
        for i in batch:
            ref.assign(i, emap, DEFAULT_REL_THRESHOLD)
        assert len(batch) == 9
        assert scanned == [3]
        assert np.array_equal(expanded_table(store), ref.table)
        assert np.array_equal(store.centers, ref.centers)
        assert store.counts.tolist() == ref.counts

    @pytest.mark.parametrize(
        "frames, pair_rows, counted",
        [
            # a certified pair counts two rows, then a created cluster lands
            # near it: the rows are applied and its later row is walked
            ([
                [("vec", (0, 0, 2.0))],
                [("vec", (0, 0, 2.1)), ("again", 1, False), ("again", 1, False),
                 ("vec", (0, 2.2, 2.1)), ("again", 1, False), ("again", 4, False)],
            ], [1, 2, 3, 5], [2]),
            # a certified pair counts one row, then a join pulls a cluster
            # beyond lim / (2 (1 + rel)), and its new scan lands near the
            # pair: the row is applied and its later row walked
            ([
                [("vec", (0, 0.9, 0.2)), ("again", 0, False), ("vec", (0, 0, 2.0)),
                 ("vec", (0, 0.9, 2.0)), ("again", 0, False)],
            ], [0, 1, 4], [1]),
            # the same for a cluster scanned again far from the pair: the
            # run goes on, and both its later rows are applied at the end
            ([
                [("vec", (0, 5.0, 0)), ("again", 0, False)]
                + [("vec", (0, 0, v)) for v in (2.0, 2.9, 3.6, 3.9, 4.1)]
                + [("again", 6, False)] * 4 + [("again", 0, False), ("vec", (0, 0, 5.2))]
            ], [0, 1, 11], [2]),
        ],
        ids=["created-cluster-near-pair", "rescanned-cluster-near-pair", "rescanned-cluster-far-from-pair"],
    )
    def test_flushed_run_keeps_its_edge_id(self, monkeypatch, frames, pair_rows, counted):
        emap, batches = stream_map(frames)
        applied = []
        advance = clustering._advance

        def spy(center, n, v, sign, k):
            applied.append(k)
            return advance(center, n, v, sign, k)

        monkeypatch.setattr(clustering, "_advance", spy)
        store, ref = ClusterStore(0.5), ReferenceStore()
        for batch in batches:
            store.assign_batch(batch, emap)
            for i in batch:
                ref.assign(i, emap, 0.5)
        assert applied == counted  # the guard applied the run's counted rows
        assert np.array_equal(expanded_table(store), ref.table)
        assert np.array_equal(store.centers, ref.centers)
        eids = store.member_table[pair_rows, clustering.EDGE].tolist()
        assert eids == [eids[0]] * len(pair_rows)

    def test_edge_ids_in_first_member_order(self):
        # The second batch's distinct (pair, cluster, sign) keys, in order of
        # first row, are not in key order: pair (2, 3) comes first, pair
        # (0, 1) joins in both orientations, and their first rows interleave.
        specs = [
            ("vec", (0.0, 2.0, 0.0)),
            ("again", 0, True),
            ("again", 1, True),
            ("vec", (1.001, 0.0, 0.0)),
            ("again", 0, True),
            ("again", 0, False),
            ("again", 2, False),
            ("again", 1, False),
        ]
        emap, batches = stream_map([[("vec", (1.0, 0.0, 0.0))], specs])
        store, ref = ClusterStore(), ReferenceStore()
        for batch in batches:
            store.assign_batch(batch, emap)
            for i in batch:
                ref.assign(i, emap, DEFAULT_REL_THRESHOLD)
        assert np.array_equal(expanded_table(store), ref.table)
        keys = [tuple(row) for row in ref.table[:, CLUSTER:].tolist()]
        first_member_order = list(dict.fromkeys(keys))
        assert [tuple(row) for row in store.edge_table.tolist()] == first_member_order
        assert len(first_member_order) < len(keys)  # some rows share an edge
        eids = store.member_table[:, clustering.EDGE].tolist()
        assert list(dict.fromkeys(eids)) == list(range(len(first_member_order)))

    def test_equal_distance_lowest_id_wins(self):
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 2.0**-5], [0.0, 0.0, 2.0 + 2.0**-6]])
        store = ClusterStore(rel_threshold=2.0**-6)
        store.assign_batch(range(3), emap)
        assert expanded_table(store)[:, CLUSTER].tolist() == [0, 1, 0]


class TestWholeMapBatch:
    """One `assign_batch` over a whole simulated map with clutter, as a
    round of re-clustering a corrected map makes it."""

    @pytest.fixture(scope="class")
    def world(self):
        return generate_corridor(WorldSpec(corridor_length=20.0, n_turns=1, extra_unique_segments=40))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rel", [0.005, 0.04])
    def test_matches_per_observation_reference(self, monkeypatch, world, seed, rel):
        drift = DriftConfig(scale_sigma=1e-3, rng_seed=seed)
        emap = simulate(world, drift, ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=seed))
        counted = []
        advance = clustering._advance

        def spy(center, n, v, sign, k):
            counted.append(k)
            return advance(center, n, v, sign, k)

        monkeypatch.setattr(clustering, "_advance", spy)
        batch = range(len(emap.observations))
        store, ref = ClusterStore(rel), ReferenceStore()
        store.assign_batch(batch, emap)
        for i in batch:
            ref.assign(i, emap, rel)
        assert np.array_equal(expanded_table(store), ref.table)
        assert np.array_equal(store.centers, ref.centers)
        assert store.counts.tolist() == ref.counts
        # A moved cluster decertifies only the pairs its new scan lands
        # near, so most rows are counted in certified runs, not walked.
        assert sum(counted) >= len(batch) / 2

    @pytest.mark.parametrize("seed", [0, 2])
    @pytest.mark.parametrize("rel", [0.005, 0.04])
    def test_no_row_rechecks_a_cluster_twice(self, monkeypatch, world, seed, rel):
        # A cluster scanned again lands near pairs whose near set may
        # already hold it (seeds 0 and 2 have such pairs at both gates,
        # seed 1 none); each near set names it once, so a row rechecks it
        # once.
        drift = DriftConfig(scale_sigma=1e-3, rng_seed=seed)
        emap = simulate(world, drift, ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=seed))
        hits = []
        near_append = clustering._near_append

        def spy(near, *args):
            rows, cids, d = near_append(near, *args)
            hits.append((near, rows.tolist(), cids.tolist()))
            return rows, cids, d

        monkeypatch.setattr(clustering, "_near_append", spy)
        ClusterStore(rel).assign_batch(range(len(emap.observations)), emap)
        near = hits[0][0]
        named = [set() for _ in near]
        for _, hit_rows, cids in hits:
            for r, c in zip(hit_rows, cids):
                named[r].add(c)
        assert sum(len(cids) for _, _, cids in hits) > sum(map(len, named))  # some land again
        assert [len(s) for s in near] == list(map(len, named))


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
        table = expanded_table(store)
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
        store = ClusterStore(rel_threshold=tau)
        store.assign(0, emap)
        assert store.assign(1, emap) == 1
        assert len(store) == 2

    def test_just_inside_boundary_merges(self):
        tau = 2.0**-8
        emap = map_from_vectors([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0 + 2.0**-7 - 2.0**-20]])
        store = ClusterStore(rel_threshold=tau)
        store.assign(0, emap)
        assert store.assign(1, emap) == 0

    def test_nearest_cluster_wins(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [1.004, 0.0, 0.0], [1.0024, 0.0, 0.0]])
        store = ClusterStore(rel_threshold=0.0025)
        store.assign(0, emap)
        store.assign(1, emap)
        assert len(store) == 2
        # 1.0024 is within threshold of both centers; cluster 1 (center
        # 1.004) is nearer.
        assert store.assign(2, emap) == 1

    def test_degenerate_segment_raises(self):
        emap = map_from_vectors([[0.0, 0.0, 0.0]])
        store = ClusterStore()
        with pytest.raises(DegenerateSegmentError):
            store.assign(0, emap)
        assert len(store.member_table) == 0

    def test_assign_batch_discards_and_logs_degenerate(self, caplog):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        store = ClusterStore()
        with caplog.at_level("WARNING", logger="segdrift.clustering"):
            discarded = store.assign_batch(range(3), emap)
        assert discarded == [1]
        assert caplog.messages == ["observation 1 has coincident endpoints; discarded"]
        assert len(store) == 1
        assert store.counts.tolist() == [2]
        assert expanded_table(store)[:, OBS].tolist() == [0, 2]

    def test_double_assignment_rejected(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0]])
        store = ClusterStore()
        store.assign(0, emap)
        with pytest.raises(ValueError):
            store.assign(0, emap)


class TestBatchRejection:
    @staticmethod
    def snapshot(store):
        return (
            store.member_table.copy(),
            store.edge_table.copy(),
            store.centers.copy(),
            store.counts.copy(),
        )

    # (assigned first, rejected batch, error message)
    CASES = [
        ([], [0, 1, 0], "batch repeats an observation"),
        ([], [0, 1, 1], "batch repeats an observation"),  # sorted, with a repeat
        ([2], [0, 1, 2], "observation 2 already assigned"),
        ([2], [3, 2], "observation 2 already assigned"),
        ([0, 1], [2, 3, 1], "observation 1 already assigned"),
        # the assigned id lies below the largest one assigned
        ([3, 1], [2, 1], "observation 1 already assigned"),
        # indices that are not integers in [0, 4)
        ([], [-1], "observation index -1 is not an integer from 0 to 3"),
        ([3], [0, -1], "observation index -1 is not an integer from 0 to 3"),
        ([], [1.7], "observation index 1.7 is not an integer from 0 to 3"),
        ([], [True], "observation index True is not an integer from 0 to 3"),
        ([1], [2, 4], "observation index 4 is not an integer from 0 to 3"),
    ]

    @staticmethod
    def assigned_store(first):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        store = ClusterStore()
        store.assign_batch(first, emap)
        return store, emap

    @pytest.mark.parametrize("first, batch", [(first, batch) for first, batch, _ in CASES])
    def test_rejected_before_store_changes(self, first, batch):
        store, emap = self.assigned_store(first)
        before = self.snapshot(store)
        with pytest.raises(ValueError):
            store.assign_batch(batch, emap)
        for a, b in zip(before, self.snapshot(store)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("first, batch, message", CASES)
    def test_rejection_names_the_fault(self, first, batch, message):
        store, emap = self.assigned_store(first)
        with pytest.raises(ValueError, match=message):
            store.assign_batch(batch, emap)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize(
        "first, batch, message", [case for case in CASES if all(type(i) is int for i in case[1])]
    )
    def test_integer_array_rejected_alike(self, first, batch, message, dtype):
        store, emap = self.assigned_store(first)
        before = self.snapshot(store)
        with pytest.raises(ValueError, match=message):
            store.assign_batch(np.array(batch, dtype=dtype), emap)
        for a, b in zip(before, self.snapshot(store)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "first, batch, message",
        [
            ([], range(2, 5), "observation index 4 is not an integer from 0 to 3"),
            ([], range(-1, 2), "observation index -1 is not an integer from 0 to 3"),
            ([], range(2**70, 2**70 + 2), f"observation index {2**70} is not an integer from 0 to 3"),
            ([2], range(1, 3), "observation 2 already assigned"),
        ],
    )
    def test_range_rejected_alike(self, first, batch, message):
        store, emap = self.assigned_store(first)
        with pytest.raises(ValueError, match=message):
            store.assign_batch(batch, emap)

    @pytest.mark.parametrize(
        "batch",
        [
            [0, 1, 2, 3],
            range(4),
            np.arange(4),
            np.arange(4, dtype=np.uint8),
            [3, 1, 0, 2],
            np.array([3, 1, 0, 2]),
            range(3, -1, -1),
            [np.int64(i) for i in (2, 0, 3, 1)],
        ],
    )
    def test_batch_forms_assign_alike(self, batch):
        reference, emap = self.assigned_store([])
        reference.assign_batch(list(map(int, batch)), emap)
        store = ClusterStore()
        store.assign_batch(batch, emap)
        for a, b in zip(self.snapshot(reference), self.snapshot(store)):
            assert a.tobytes() == b.tobytes()

    # (rel_threshold, error message): not a finite real > 0
    REL_CASES = [
        (float("nan"), "rel_threshold must be a finite number, got nan"),
        (float("inf"), "rel_threshold must be a finite number, got inf"),
        (True, "rel_threshold must be a finite number, got True"),
        ("0.5", "rel_threshold must be a finite number, got '0.5'"),
        pytest.param(
            10**400, f"rel_threshold must be a finite number, got {10**400}", id="int-too-large"
        ),
        (0.0, "rel_threshold must be > 0, got 0.0"),
        (-0.5, "rel_threshold must be > 0, got -0.5"),
    ]

    @pytest.mark.parametrize("rel, message", REL_CASES)
    def test_bad_rel_threshold_rejected_when_store_built(self, rel, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ClusterStore(rel)
        with pytest.raises(ValueError, match=re.escape(message)):
            ClusterStore(rel_threshold=rel)

    @pytest.mark.parametrize("rel", [1, np.float32(0.5), 0.005])
    def test_gate_kept_as_float(self, rel):
        store = ClusterStore(rel)
        assert type(store.rel_threshold) is float
        assert store.rel_threshold == float(rel)
        assert ClusterStore().rel_threshold == DEFAULT_REL_THRESHOLD

    def test_unassigned_lower_index_accepted(self):
        emap = map_from_vectors([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
        store = ClusterStore()
        store.assign_batch([2], emap)
        assert store.assign_batch([1, 0], emap) == []
        assert expanded_table(store)[:, OBS].tolist() == [2, 1, 0]
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
            store.assign_batch(range(len(vectors)), emap)
            for cid, center in enumerate(store.centers):
                assert np.linalg.norm(center - batch_center(store, emap, cid)) < 1e-9

    def test_recompute_centers_exact_after_moving_points(self):
        rng = np.random.default_rng(7)
        vectors = rng.uniform(-2, 2, size=(30, 3))
        emap = map_from_vectors(vectors)
        store = ClusterStore()
        store.assign_batch(range(30), emap)
        emap.points += rng.normal(0, 0.1, size=emap.points.shape)
        store.recompute_centers(emap, np.arange(len(emap.points)))
        for cid, center in enumerate(store.centers):
            assert np.linalg.norm(center - batch_center(store, emap, cid)) < 1e-12

    def test_recompute_redoes_cluster_joined_since_last_recompute(self):
        # No point moves, but obs 1-3 join after the last recompute, so the
        # center is an incremental mean until the next one.
        vectors = [[0.0, 0.0, z] for z in (2.0, 2.001, 2.002, 1.999)]
        emap = map_from_vectors(vectors)
        store = ClusterStore()
        store.assign_batch([0], emap)
        store.recompute_centers(emap, [])
        store.assign_batch([1, 2, 3], emap)
        exact = (2.0 + 2.001 + 2.002 + 1.999) / 4  # summed in table order
        assert store.counts.tolist() == [4]
        assert store.centers[0].tolist() == [0.0, 0.0, 2.0005] != [0.0, 0.0, exact]
        store.recompute_centers(emap, [])
        assert store.centers[0].tolist() == [0.0, 0.0, exact]

    def test_recompute_centers_empty_store(self):
        store = ClusterStore()
        emap = map_from_vectors([[1.0, 0.0, 0.0]])
        store.recompute_centers(emap, np.arange(len(emap.points)))
        assert len(store) == 0


class TestMemberTable:
    def test_rows_agree_with_members_and_membership(self):
        emap = map_from_vectors(
            [[0.0, 0.0, 2.0], [0.0, 0.0, -2.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.004], [1.0, 0.0, 0.0]]
        )
        emap.observations[:, OBS_FRAME] = 7 - np.arange(len(emap.observations))
        store = ClusterStore()
        order = [3, 0, 4, 1, 2]
        store.assign_batch(order, emap)

        assert store.member_table.dtype == np.int64
        assert store.member_table.shape == (len(order), len(MEMBER_COLUMNS))
        table = expanded_table(store)
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


@st.composite
def vector_pairs(draw):
    """(centers, vectors): coordinates m * 2^(e + o) with one exponent e in
    [-600, 600] per example and small offsets o, so that the three squares
    are of like size and their summation order shows. Squares overflow
    above 2^512 and are subnormal, then zero, below 2^-511."""
    e = draw(st.integers(-600, 600))
    coordinate = st.builds(
        lambda m, o: m * 2.0 ** (e + o),
        st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
        st.integers(-4, 4),
    )
    vectors = st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=6)
    return draw(vectors), draw(vectors)


class TestNormForms:
    @given(vector_pairs())
    # squares in the subnormal range, where `_SAFE_NORMS` stops skipping
    @example(([(2.0**-530, 3 * 2.0**-531, -(2.0**-520))], [(2.0**-525, 0.0, 2.0**-519)]))
    @example(([(1.5 * 2.0**511, 2.0**511, 0.0)], [(2.0**500, -(2.0**512), 1.0)]))
    def test_column_and_scalar_forms_equal_reduce(self, case):
        """The batch scan (columns), the rechecks (Python floats) and the
        degenerate check all equal sqrt(add.reduce(x*x, axis=-1)) bit for bit."""
        c, v = (np.array(vectors) for vectors in case)

        def reduced(x):
            return np.sqrt(np.add.reduce(x * x, axis=-1))

        cx, cy, cz = c.T
        vx, vy, vz = v.T[:, :, None]
        cases = [
            ((cx - vx, cy - vy, cz - vz), c - v[:, None]),
            ((cx + vx, cy + vy, cz + vz), c + v[:, None]),
            ((cx, cy, cz), c),
        ]
        with np.errstate(over="ignore"):  # squares above 2^1024 are inf in every form
            for columns, x in cases:
                want = reduced(x)
                assert xyz_norms(*columns).tobytes() == want.tobytes()
                assert [_norm(*row) for row in x.reshape(-1, 3).tolist()] == want.ravel().tolist()
