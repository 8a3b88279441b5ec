"""Drifting front-end simulator."""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segdrift import frontend
from segdrift.frontend import (
    _VISIBILITY_BLOCK,
    OBS_FRAME,
    OBS_P1,
    OBS_P2,
    OBS_SEGMENT,
    DriftConfig,
    EstimatedMap,
    ObservationConfig,
    _distances,
    _offsets,
    _visible,
    drift_walk,
    simulate,
)
from segdrift.geometry import (
    Sim3,
    Trajectory,
    quat_from_axis_angle,
    quat_identity,
    quat_multiply,
    quat_rotate,
    row_norms,
)
from segdrift.worldgen import World, WorldSpec, generate_corridor


def identity_trajectory(n):
    return Trajectory(np.arange(n), np.zeros((n, 3)), np.tile(quat_identity(), (n, 1)))


def gt_poses(world):
    """The world's ground-truth (quaternions, positions), as `_visible` takes them."""
    return world.trajectory.quaternions, world.trajectory.positions


def make_world(**kw):
    base = dict(corridor_length=20, door_spacing=2)
    base.update(kw)
    return generate_corridor(WorldSpec(**base))


class ReferenceDrift:
    """The per-frame drift random walk that `drift_walk` computes as arrays."""

    def __init__(self, cfg: DriftConfig):
        self.cfg = cfg
        self.cumulative = Sim3.identity()
        self.rng = np.random.default_rng(cfg.rng_seed)

    def step(self) -> Sim3:
        cfg = self.cfg
        scale = float(np.exp(self.rng.normal(0.0, cfg.scale_sigma))) if cfg.scale_sigma > 0 else 1.0
        if cfg.rot_sigma > 0:
            axis = self.rng.normal(size=3)
            while np.linalg.norm(axis) == 0.0:
                axis = self.rng.normal(size=3)
            q = quat_from_axis_angle(axis, self.rng.normal(0.0, cfg.rot_sigma))
        else:
            q = np.array([1.0, 0.0, 0.0, 0.0])
        if cfg.trans_sigma > 0:
            t = self.rng.normal(0.0, cfg.trans_sigma, size=3)
        else:
            t = np.zeros(3)
        self.cumulative = self.cumulative.compose(Sim3(scale, q, t))
        return self.cumulative


def reference_drift(cfg, n_frames):
    """(scale, rotation, translation) arrays of the per-frame walk."""
    state = ReferenceDrift(cfg)
    steps = [state.cumulative] + [state.step() for _ in range(n_frames - 1)]
    return (
        np.array([d.scale for d in steps]),
        np.array([d.rotation for d in steps]).reshape(-1, 4),
        np.array([d.translation for d in steps]).reshape(-1, 3),
    )


def reference_simulate(world, drift_cfg, obs_cfg):
    """The frame-by-frame simulator that `simulate` computes as arrays:
    returns (points, first_seen, observations, est rotations, est
    translations) with the same shapes and dtypes as an EstimatedMap."""
    drift = ReferenceDrift(drift_cfg)
    obs_rng = np.random.default_rng(obs_cfg.rng_seed)

    points, first_seen, observations = [], [], []
    endpoint_to_id: dict[bytes, int] = {}
    est_poses = []
    candidates = [
        (i, (a, b))
        for i, (a, b) in enumerate(world.endpoints)
        if np.linalg.norm(b - a) >= obs_cfg.min_segment_length
    ]
    cand_mids = np.array([0.5 * (a + b) for _, (a, b) in candidates]).reshape(-1, 3)

    gt = world.trajectory
    for frame, (rotation, translation) in enumerate(zip(gt.quaternions, gt.positions)):
        if frame > 0:
            drift.step()
        d = drift.cumulative
        est_poses.append(Sim3(1.0, quat_multiply(d.rotation, rotation), d.apply(translation)))
        if not candidates:
            continue
        rel = cand_mids - translation
        in_range = np.linalg.norm(rel, axis=1) <= obs_cfg.max_range
        facing = rel @ quat_rotate(rotation, np.array([1.0, 0.0, 0.0])) > 0.0
        visible = np.flatnonzero(in_range & facing)
        if obs_cfg.detect_prob < 1.0 and len(visible):
            visible = visible[obs_rng.random(len(visible)) < obs_cfg.detect_prob]
        for ci in visible:
            seg_index, seg = candidates[ci]
            ids = []
            for true_pt in seg:
                key = true_pt.tobytes()
                pid = endpoint_to_id.get(key)
                if pid is None:
                    pos = d.apply(true_pt)
                    if obs_cfg.endpoint_noise_sigma > 0:
                        pos = pos + obs_rng.normal(0.0, obs_cfg.endpoint_noise_sigma, size=3)
                    pid = endpoint_to_id[key] = len(points)
                    points.append(pos)
                    first_seen.append(frame)
                ids.append(pid)
            observations.append((ids[0], ids[1], frame, seg_index))

    return (
        np.array(points).reshape(-1, 3),
        np.array(first_seen, dtype=np.int64),
        np.array(observations, dtype=np.int64).reshape(-1, 4),
        np.array([p.rotation for p in est_poses]).reshape(-1, 4),
        np.array([p.translation for p in est_poses]).reshape(-1, 3),
    )


def assert_same_bits(actual, expected):
    """Equal shapes, dtypes and bytes: a -0.0 where 0.0 was expected fails."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype and a.shape == e.shape
        assert a.tobytes() == e.tobytes()


class TestDriftRandomWalk:
    def test_zero_sigmas_stay_identity(self):
        scale, rotation, translation = drift_walk(DriftConfig(rng_seed=0), 101)
        assert np.all(scale == 1.0)
        assert np.array_equal(rotation, np.tile([1.0, 0.0, 0.0, 0.0], (101, 1)))
        assert np.array_equal(translation, np.zeros((101, 3)))

    def test_log_scale_stddev_matches_random_walk(self):
        # After n steps of per-step stddev s, log(scale) ~ N(0, s^2 n):
        # stddev 0.001 * sqrt(1000) ~= 0.0316. Monte-Carlo over 200 seeds.
        samples = [
            np.log(drift_walk(DriftConfig(scale_sigma=1e-3, rng_seed=seed), 1001)[0][-1])
            for seed in range(200)
        ]
        expected = 1e-3 * np.sqrt(1000)
        assert abs(np.std(samples) - expected) / expected < 0.2

    def test_deterministic_per_seed(self):
        cfg = DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, trans_sigma=1e-3, rng_seed=5)
        assert_same_bits(drift_walk(cfg, 51), drift_walk(cfg, 51))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            DriftConfig(scale_sigma=-1.0)

    @pytest.mark.parametrize("name", ["scale_sigma", "rot_sigma", "trans_sigma"])
    def test_non_finite_sigma_rejected(self, name):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                DriftConfig(**{name: bad})

    def test_non_integer_or_negative_seed_rejected(self):
        for bad in (0.5, -1, True, "3"):
            with pytest.raises(ValueError, match="rng_seed"):
                DriftConfig(rng_seed=bad)

    @pytest.mark.parametrize("scale_sigma", [0.0, 1e-3])
    @pytest.mark.parametrize("rot_sigma", [0.0, 1e-4, 0.3])
    @pytest.mark.parametrize("trans_sigma", [0.0, 1e-3])
    def test_matches_per_frame_walk(self, scale_sigma, rot_sigma, trans_sigma):
        for seed in range(3):
            cfg = DriftConfig(scale_sigma, rot_sigma, trans_sigma, rng_seed=seed)
            assert_same_bits(drift_walk(cfg, 400), reference_drift(cfg, 400))

    @pytest.mark.parametrize("n_frames", [0, 1, 2])
    def test_short_walks(self, n_frames):
        cfg = DriftConfig(1e-3, 1e-4, 1e-3, rng_seed=1)
        scale, rotation, translation = drift_walk(cfg, n_frames)
        assert (scale.shape, rotation.shape, translation.shape) == ((n_frames,), (n_frames, 4), (n_frames, 3))
        if n_frames:
            assert_same_bits(drift_walk(cfg, n_frames), reference_drift(cfg, n_frames))

    def test_zero_axis_is_drawn_again(self, monkeypatch):
        # Force exact zeros onto the rotation axes of frames 6 and 13 (the
        # second one twice in a row); both walks must re-draw identically.
        cfg = DriftConfig(scale_sigma=1e-3, rot_sigma=0.3, trans_sigma=1e-3, rng_seed=4)
        width = 8  # draws per frame: log-scale, axis (3), angle, translation (3)
        zeros = {5 * width + 1, 5 * width + 2, 5 * width + 3}
        redrawn = 12 * width + 1 + 3
        zeros |= {redrawn, redrawn + 1, redrawn + 2, redrawn + 3, redrawn + 4, redrawn + 5}
        plain = drift_walk(cfg, 30)
        default_rng = np.random.default_rng

        class ZeroedGenerator:
            """Draws standard normals from the seeded generator, with exact
            zeros at the given positions of the stream; `normal` scales a
            draw as numpy does (`loc + scale * z`)."""

            def __init__(self, seed):
                self.inner = default_rng(seed)
                self.drawn = 0

            def standard_normal(self, size=None):
                z = self.inner.standard_normal(1 if size is None else size)
                for i in range(z.size):
                    if self.drawn + i in zeros:
                        z[i] = 0.0
                self.drawn += z.size
                return float(z[0]) if size is None else z

            def normal(self, loc=0.0, scale=1.0, size=None):
                return loc + scale * self.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", ZeroedGenerator)
        zeroed = drift_walk(cfg, 30)
        assert_same_bits(zeroed, reference_drift(cfg, 30))
        assert np.array_equal(zeroed[1][:6], plain[1][:6])
        assert not np.array_equal(zeroed[1][6], plain[1][6])


@st.composite
def simulate_cases(draw):
    spec = WorldSpec(
        corridor_length=draw(st.sampled_from([6.0, 9.0, 12.0])),
        door_spacing=draw(st.sampled_from([1.0, 2.0])),
        n_turns=draw(st.integers(0, 2)),
        turn_angle=draw(st.sampled_from([90.0, -60.0, 135.0])),
        extra_unique_segments=draw(st.sampled_from([0, 8])),
        rng_seed=draw(st.integers(0, 100)),
    )
    drift = DriftConfig(
        scale_sigma=draw(st.sampled_from([0.0, 1e-3])),
        rot_sigma=draw(st.sampled_from([0.0, 1e-4, 0.3])),
        trans_sigma=draw(st.sampled_from([0.0, 1e-3])),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )
    obs = ObservationConfig(
        detect_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        endpoint_noise_sigma=draw(st.sampled_from([0.0, 0.01])),
        max_range=draw(st.sampled_from([2.0, 8.0])),
        min_segment_length=draw(st.sampled_from([0.0, 0.3, 1.0, 1e3])),  # 1e3 drops all
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )
    return spec, drift, obs


class TestMatchesPerFrameLoop:
    @settings(max_examples=40)
    @given(simulate_cases())
    # the benchmark's noise settings plus rotation and translation drift, on
    # a longer world with turns and clutter
    @example(
        (
            WorldSpec(corridor_length=30, door_spacing=2, n_turns=2, extra_unique_segments=20),
            DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, trans_sigma=1e-3, rng_seed=2),
            ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=1_000_002),
        )
    )
    # many detection blocks: at detect_prob 0.05 keys stay unseen over many
    # frames, at 1.0 there are no detection draws at all
    @example(
        (
            WorldSpec(corridor_length=30, door_spacing=2, n_turns=2, extra_unique_segments=40),
            DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, trans_sigma=1e-3, rng_seed=3),
            ObservationConfig(detect_prob=0.05, endpoint_noise_sigma=0.01, rng_seed=7),
        )
    )
    @example(
        (
            WorldSpec(corridor_length=30, door_spacing=2, n_turns=2, extra_unique_segments=40),
            DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, trans_sigma=1e-3, rng_seed=3),
            ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=7),
        )
    )
    @example(
        (
            WorldSpec(corridor_length=30, door_spacing=2, n_turns=2, extra_unique_segments=40),
            DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, trans_sigma=1e-3, rng_seed=3),
            ObservationConfig(detect_prob=1.0, endpoint_noise_sigma=0.01, rng_seed=7),
        )
    )
    def test_simulate_equals_reference(self, case):
        spec, drift, obs = case
        world = generate_corridor(spec)
        emap = simulate(world, drift, obs)
        actual = (
            emap.points,
            emap.first_seen,
            emap.observations,
            emap.trajectory.quaternions,
            emap.trajectory.positions,
        )
        assert_same_bits(actual, reference_simulate(world, drift, obs))
        assert emap.trajectory.timestamps.tobytes() == world.trajectory.timestamps.tobytes()

    @staticmethod
    def one_frame_world():
        w = make_world()
        t = w.trajectory
        return replace(w, trajectory=Trajectory(t.timestamps[:1], t.positions[:1], t.quaternions[:1]))

    @staticmethod
    def world_with_unseen_segments():
        # copies of four segments 500 m above every camera: never visible
        w = make_world(n_turns=1, extra_unique_segments=5)
        far = w.endpoints[:4] + [0.0, 0.0, 500.0]
        return replace(
            w, endpoints=np.concatenate([w.endpoints, far]), archetypes=np.append(w.archetypes, [90, 90, 91, 91])
        )

    @pytest.mark.parametrize("name", ["plain", "one_frame", "unseen_segments"])
    @pytest.mark.parametrize("detect_prob, noise", [(1.0, 0.0), (0.0, 0.0), (1.0, 0.01), (0.3, 0.0)])
    def test_edge_configs_equal_reference(self, name, detect_prob, noise):
        world = {
            "plain": make_world,
            "one_frame": self.one_frame_world,
            "unseen_segments": self.world_with_unseen_segments,
        }[name]()
        drift = DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, rng_seed=5)
        obs = ObservationConfig(detect_prob=detect_prob, endpoint_noise_sigma=noise, rng_seed=9)
        emap = simulate(world, drift, obs)
        actual = (emap.points, emap.first_seen, emap.observations, emap.trajectory.quaternions, emap.trajectory.positions)
        assert_same_bits(actual, reference_simulate(world, drift, obs))
        assert (detect_prob == 0.0) == (len(emap.observations) == 0)
        if name == "unseen_segments":
            assert (emap.observations[:, OBS_SEGMENT] < len(world.endpoints) - 4).all()

    def test_endpoints_keyed_by_bits(self):
        # (2, 1, 0.0) and (2, 1, -0.0) are equal floats with different bits:
        # the oracle association keys bits, so they are two map points.
        endpoints = [
            ([2.0, 1.0, 0.0], [2.0, 1.0, 2.0]),
            ([3.0, 1.0, 0.0], [3.0, 1.0, 2.0]),
            ([2.0, 1.0, -0.0], [3.0, 1.0, -0.0]),
        ]
        identity = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        world = World(endpoints, [0, 0, 1], Trajectory(np.arange(3) / 30.0, np.zeros((3, 3)), identity), 0)
        drift, obs = DriftConfig(scale_sigma=1e-3, rng_seed=1), ObservationConfig(rng_seed=2)
        emap = simulate(world, drift, obs)
        actual = (emap.points, emap.first_seen, emap.observations, emap.trajectory.quaternions, emap.trajectory.positions)
        assert_same_bits(actual, reference_simulate(world, drift, obs))
        assert len(emap.points) == 6


    def test_detections_drawn_in_blocks(self, monkeypatch):
        # Only a frame with a visible candidate of an unseen key can create a
        # point; the frames before it draw their detections in one call.
        # On the 120 m, 3-turn world 3566 of 3690 frames have a visible
        # candidate, and the benchmark's settings make 189 `random` calls.
        world = generate_corridor(WorldSpec(corridor_length=120, n_turns=3))
        drift = DriftConfig(scale_sigma=1e-3, rng_seed=0)
        obs = ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=1_000_000)
        plain = simulate(world, drift, obs)
        default_rng = np.random.default_rng
        generators = []

        class CountingGenerator:
            def __init__(self, seed):
                self.inner = default_rng(seed)
                self.random_calls = 0
                generators.append(self)

            def random(self, size=None):
                self.random_calls += 1
                return self.inner.random(size)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        counted = simulate(world, drift, obs)
        assert counted.observations.tobytes() == plain.observations.tobytes()
        assert counted.points.tobytes() == plain.points.tobytes()
        ends = world.endpoints[row_norms(world.endpoints[:, 1] - world.endpoints[:, 0]) >= 0.3]
        vis_frame, _ = _visible(0.5 * (ends[:, 0] + ends[:, 1]), *gt_poses(world), 8.0)
        assert len(np.unique(vis_frame)) == 3566
        assert [g.random_calls for g in generators] == [0, 189]  # drift, then observation
        # every call but the last steps one frame; each of the 158 frames
        # that create a point is one of them
        assert len(np.unique(plain.first_seen)) == 158


# Coordinates whose squares are subnormal (1e-160), overflow to inf
# (1e155), or are signed zeros, among ordinary ones.
scan_coords = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([0.0, -0.0, 3.0, 4.0, 1e-160, -3e-170, 1e155, -2e160]),
)


class TestVisibilityScan:
    @settings(max_examples=200)
    @given(
        st.lists(st.tuples(scan_coords, scan_coords, scan_coords), min_size=1, max_size=6),
        st.lists(st.tuples(scan_coords, scan_coords, scan_coords), min_size=1, max_size=4),
        st.sampled_from([2.0, 5.0, 8.0]),
    )
    # a midpoint exactly max_range away: sqrt(3*3 + 4*4) == 5.0
    @example([(3.0, 4.0, 0.0), (-0.0, -4.0, 3.0)], [(0.0, 0.0, 0.0)], 5.0)
    @example([(1e-160, -0.0, 2e-160), (1e155, 0.0, 0.0)], [(-0.0, 1e-160, 0.0), (0.0, -0.0, -0.0)], 2.0)
    def test_column_scan_equals_per_frame_norm(self, mids, positions, max_range):
        mids, positions = np.array(mids), np.array(positions)
        rel = _offsets(np.ascontiguousarray(mids.T), positions)
        # the facing matmul's input: the bytes of the broadcast subtraction
        assert rel.tobytes() == (mids - positions[:, None, :]).tobytes()
        with np.errstate(over="ignore"):  # squares above 2^1024 are inf in both forms
            distances = _distances(rel)
            for i in range(len(positions)):
                want = np.linalg.norm(rel[i], axis=1)
                assert distances[i].tobytes() == want.tobytes()
                assert np.array_equal(distances[i] <= max_range, want <= max_range)

    def test_exact_max_range_is_in_range(self):
        identity = np.array([[1.0, 0.0, 0.0, 0.0]])
        frames, cands = _visible(np.array([[3.0, 4.0, 0.0]]), identity, np.zeros((1, 3)), 5.0)
        assert (frames.tolist(), cands.tolist()) == ([0], [0])


def reference_visible(mids, rotations, positions, max_range, block=_VISIBILITY_BLOCK):
    """The dense scan that `_visible` prunes: every candidate of every block."""
    frames, cands = [], []
    x_axis = np.array([1.0, 0.0, 0.0])
    mids_t = np.ascontiguousarray(mids.T)
    for lo in range(0, len(positions), block):
        rel = _offsets(mids_t, positions[lo : lo + block])
        in_range = _distances(rel) <= max_range
        forward = quat_rotate(rotations[lo : lo + block], x_axis)
        facing = (rel @ forward[:, :, None])[..., 0] > 0.0
        f, c = np.divmod(np.flatnonzero(in_range & facing), len(mids))
        frames.append(f + lo)
        cands.append(c)
    return np.concatenate(frames), np.concatenate(cands)


FLOAT_MAX = np.finfo(float).max
IDENTITY = np.array([[1.0, 0.0, 0.0, 0.0]])


@st.composite
def scan_cases(draw):
    """(mids, rotations, positions, max_range, block) of a turning walk.

    The geometry is drawn in units of max_range / 4, then scaled (clipped
    to the finite floats) and, for x and y, offset far from the origin; z
    keeps signed zeros. Small blocks leave many blocks with no candidate
    near them. Candidates exactly max_range, and one float either side of
    it, beyond the extreme frame on some axis sit on a block's box edge,
    and so does one just beyond the skip rule's margin: below 2**-500 its
    square can round down into range.
    """
    max_range = draw(st.sampled_from([2.0, 5.0, 8.0, 2.0**-501, 1e-160, 1e-170, 1e308, FLOAT_MAX]))
    block = draw(st.sampled_from([1, 2, 5, _VISIBILITY_BLOCK]))
    n = draw(st.integers(1, 24))
    unit_steps = st.floats(0.0, 1.5)
    steps = np.array(draw(st.lists(unit_steps, min_size=n, max_size=n)))
    heading = np.cumsum(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    rotations = np.column_stack([np.cos(heading / 2), 0 * heading, 0 * heading, np.sin(heading / 2)])
    walk = np.cumsum(steps[:, None] * np.column_stack([np.cos(heading), np.sin(heading)]), axis=0)
    zeros = st.sampled_from([0.0, -0.0])
    positions = np.column_stack([walk, draw(st.lists(zeros, min_size=n, max_size=n))])
    # candidates near one frame each, or all near the first (far from later blocks)
    near_first = draw(st.booleans())
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 0 if near_first else n - 1),
                st.floats(-6.0, 6.0),
                st.floats(-6.0, 6.0),
                st.one_of(zeros, st.floats(-6.0, 6.0)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    mids = np.array([positions[i] + (dx, dy, 0.0) for i, dx, dy, _ in rows])
    mids[:, 2] = [dz for *_, dz in rows]
    unit, offset = max_range / 4, draw(st.sampled_from([0.0, 1e6, -1e9, 1e12]))
    with np.errstate(over="ignore"):
        positions, mids = (np.clip(a * unit, -FLOAT_MAX, FLOAT_MAX) for a in (positions, mids))
    if offset:
        positions[:, :2] += offset
        mids[:, :2] += offset
    axis, side = draw(st.integers(0, 2)), draw(st.sampled_from([-1.0, 1.0]))
    beyond = draw(st.sampled_from([1 + 2**-19, 1 + 2**-16, 1.001]))
    edges = np.tile(positions[np.argmax(side * positions[:, axis])], (4, 1))
    with np.errstate(over="ignore"):
        edges[:3, axis] += side * max_range
        edges[1:3, axis] = np.nextafter(edges[0, axis], [np.inf, -np.inf])
        edges[3, axis] += side * max_range * beyond
    mids = np.vstack([mids, edges[np.isfinite(edges).all(axis=1)]])
    order = draw(st.permutations(range(len(mids))))
    return mids[order], rotations, positions, max_range, block


class TestPrunedScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    # beyond the margin, yet in range: its square underflows, and
    # sqrt(fl(x*x)) is 9.99994e-161
    @example((np.array([[1e-160 * (1 + 2**-19), 0.0, 0.0]]), IDENTITY, np.zeros((1, 3)), 1e-160, 256))
    # exactly max_range beyond the block's largest x, at 1e12
    @example(
        (
            np.array([[1e12 + 7.0, 0.0, -0.0]]),
            np.tile(IDENTITY, (2, 1)),
            np.array([[1e12 + 2.0, 0.0, -0.0], [1e12, 0.0, 0.0]]),
            5.0,
            256,
        )
    )
    def test_equals_dense_scan(self, case):
        mids, rotations, positions, max_range, block = case
        with patch.object(frontend, "_VISIBILITY_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
            frames, cands = _visible(mids, rotations, positions, max_range)
            want_frames, want_cands = reference_visible(mids, rotations, positions, max_range, block)
        assert frames.dtype == want_frames.dtype and cands.dtype == want_cands.dtype
        assert np.array_equal(frames, want_frames) and np.array_equal(cands, want_cands)

    def test_kept_pairs_below_a_quarter_of_dense(self, monkeypatch):
        # On the 120 m, 3-turn world the dense scan tests 3690 frames x 180
        # candidates; the pruned one keeps about 22 % of those pairs.
        world = generate_corridor(WorldSpec(corridor_length=120, n_turns=3))
        ends = world.endpoints[row_norms(world.endpoints[:, 1] - world.endpoints[:, 0]) >= 0.3]
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        widths = []
        offsets = frontend._offsets

        def spy(mids_t, t):
            widths.append(len(t) * mids_t.shape[1])
            return offsets(mids_t, t)

        monkeypatch.setattr(frontend, "_offsets", spy)
        _visible(mids, *gt_poses(world), 8.0)
        dense = world.n_frames * len(mids)
        assert dense == 664_200
        assert sum(widths) < 0.25 * dense


class TestEstimatedMap:
    def make(self, observations):
        return EstimatedMap(
            np.zeros((3, 3)), [0, 0, 1], observations, identity_trajectory(2)
        )

    def test_valid_map_accepted(self):
        emap = self.make([(0, 1, 0, 0), (2, 1, 1, 4)])
        assert emap.observations.dtype == np.int64
        assert emap.observations.shape == (2, 4)

    @pytest.mark.parametrize("row", [(0, 3, 0, 0), (-1, 1, 0, 0), (1, 1, 0, 0)])
    def test_unknown_or_coincident_ids_rejected(self, row):
        with pytest.raises(ValueError, match="observation 1"):
            self.make([(0, 1, 0, 0), row])

    def test_first_seen_length_checked(self):
        with pytest.raises(ValueError, match="first_seen"):
            EstimatedMap(np.zeros((2, 3)), [0], [], identity_trajectory(1))


class TestSimulate:
    def test_zero_drift_zero_noise_exact(self):
        w = make_world()
        emap = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0))
        for p1, p2, _, segment in emap.observations.tolist():
            a, b = w.endpoints[segment]
            assert np.array_equal(emap.points[p1], a) or np.array_equal(emap.points[p1], b)
            assert np.array_equal(emap.points[p2], a) or np.array_equal(emap.points[p2], b)
        assert np.array_equal(emap.trajectory.positions, w.trajectory.positions)
        assert np.array_equal(emap.trajectory.quaternions, w.trajectory.quaternions)

    def test_pure_scale_drift_scales_first_sight_positions(self):
        w = make_world()
        cfg = DriftConfig(scale_sigma=1e-3, rng_seed=3)
        emap = simulate(w, cfg, ObservationConfig(rng_seed=0))
        scales = reference_drift(cfg, w.n_frames)[0]
        checked = 0
        for p1, p2, _, segment in emap.observations.tolist():
            a, b = w.endpoints[segment]
            for pid, true_pt in ((p1, a), (p2, b)):
                s = scales[emap.first_seen[pid]]
                assert np.linalg.norm(emap.points[pid]) == pytest.approx(
                    s * np.linalg.norm(true_pt), abs=1e-9
                )
                checked += 1
        assert checked > 0

    def test_same_frame_endpoints_share_drift(self):
        w = make_world()
        cfg = DriftConfig(scale_sigma=2e-3, rng_seed=1)
        emap = simulate(w, cfg, ObservationConfig(rng_seed=0))
        scales = reference_drift(cfg, w.n_frames)[0]
        for p1, p2, _, segment in emap.observations.tolist():
            if emap.first_seen[p1] != emap.first_seen[p2]:
                continue
            v_est = emap.points[p2] - emap.points[p1]
            s = scales[emap.first_seen[p1]]
            v_true = w.endpoints[segment, 1] - w.endpoints[segment, 0]
            match = np.allclose(v_est, s * v_true, atol=1e-9) or np.allclose(
                v_est, -s * v_true, atol=1e-9
            )
            assert match

    def test_detect_prob_zero_empty(self):
        w = make_world()
        emap = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(detect_prob=0.0, rng_seed=0))
        assert emap.observations.shape == (0, 4)
        assert emap.points.shape == (0, 3)

    def test_reuses_map_points(self):
        w = make_world()
        emap = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0))
        # Far fewer points than observations: re-detections reuse ids.
        assert len(emap.points) < len(emap.observations)
        seen_pairs = {}
        for p1, p2, _, segment in emap.observations.tolist():
            assert seen_pairs.setdefault(segment, frozenset((p1, p2))) == frozenset((p1, p2))

    def test_endpoint_noise_perturbs_points(self):
        w = make_world()
        clean = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=3))
        noisy = simulate(
            w, DriftConfig(rng_seed=0), ObservationConfig(endpoint_noise_sigma=0.01, rng_seed=3)
        )
        deltas = np.linalg.norm(noisy.points - clean.points, axis=1)
        assert all(d > 0 for d in deltas)
        # Mean norm of a 3D gaussian with per-axis sigma 0.01 is ~0.016.
        assert 0.005 < np.mean(deltas) < 0.05

    def test_max_range_limits_visibility(self):
        w = make_world()
        near = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(max_range=2.0, rng_seed=0))
        far = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(max_range=10.0, rng_seed=0))
        assert len(near.observations) < len(far.observations)

    def test_observation_frames_in_range(self):
        w = make_world()
        emap = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0))
        frames = emap.observations[:, OBS_FRAME]
        assert frames.min() >= 0 and frames.max() < w.n_frames
        assert np.all(np.diff(frames) >= 0)
        assert np.all(emap.first_seen[emap.observations[:, [OBS_P1, OBS_P2]]] <= frames[:, None])
        assert emap.observations[:, OBS_SEGMENT].max() < len(w.endpoints)

    def test_invalid_detect_prob_rejected(self):
        with pytest.raises(ValueError):
            ObservationConfig(detect_prob=1.5)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("detect_prob", [float("nan"), float("inf")]),
            ("endpoint_noise_sigma", [float("nan"), float("inf"), -0.1]),
            ("max_range", [float("nan"), float("inf"), 0.0]),
            ("min_segment_length", [float("nan"), float("inf"), -0.1]),
            ("rng_seed", [0.5, -1, True, "3"]),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                ObservationConfig(**{name: value})
