"""Drifting front-end simulator."""

import re
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segdrift import frontend
from segdrift.cli import OBS_SEED_OFFSET
from segdrift.frontend import (
    _VISIBILITY_BLOCK,
    MAX_RANGE_M,
    MIN_SEGMENT_LENGTH_M,
    OBS_FRAME,
    OBS_P1,
    OBS_P2,
    OBS_SEGMENT,
    DriftConfig,
    EstimatedMap,
    ObservationConfig,
    _offsets,
    _visible,
    drift_walk,
    observe,
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
    xyz_norms,
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
        if np.linalg.norm(b - a) >= MIN_SEGMENT_LENGTH_M
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
        in_range = np.linalg.norm(rel, axis=1) <= MAX_RANGE_M
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

    @pytest.mark.parametrize(
        "seed, frame, value",
        [(0, 340, "0.0"), (1, 159, "0.0"), (2, 287, "0.0"), (3, 278, "inf"), (4, 223, "inf"), (5, 48, "0.0")],
    )
    def test_scale_leaving_positive_finite_floats_rejected(self, seed, frame, value):
        # A log-scale walk of stddev 50 * sqrt(k) leaves the floats within 400
        # frames, at either end; neither end may pass, nor warn on its way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                drift_walk(DriftConfig(scale_sigma=50.0, rng_seed=seed), 400)
        assert str(info.value) == f"drift scale of frame {frame} must be positive and finite, got {value}"

    def test_infinite_scale_stops_simulate_at_the_walk(self):
        # It stops at the walk, before it can make a non-finite trajectory row.
        cfg = DriftConfig(scale_sigma=50.0, rng_seed=3)
        with pytest.raises(ValueError, match="drift scale of frame 278 must be positive and finite, got inf"):
            simulate(make_world(corridor_length=12), cfg, ObservationConfig())

    @pytest.mark.parametrize(
        "name, message",
        [
            ("scale_sigma", "drift log-scale step of frame 13 must be finite, got -inf"),
            ("rot_sigma", "drift rotation angle of frame 12 must be finite, got inf"),
            ("trans_sigma", "drift translation step x of frame 5 must be finite, got -inf"),
        ],
    )
    def test_overflowing_increment_rejected_without_warning(self, name, message):
        # sigma * z overflows for |z| > 1.8; the walk names the first such
        # draw, by frame and component, before it composes any increment.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                simulate(make_world(corridor_length=12), DriftConfig(**{name: 1e308}), ObservationConfig())
        assert str(info.value) == message

    def test_overflowing_translation_walk_rejected_without_warning(self):
        # Every increment is finite, but their running sum overflows; the
        # walk names the first frame whose translation is not finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                simulate(make_world(corridor_length=12), DriftConfig(trans_sigma=1e307), ObservationConfig())
        assert str(info.value).startswith("drift translation of frame 222 must be finite, got [-inf, ")

    @settings(max_examples=60)
    @given(
        *[st.just(0.0) | st.floats(1e-3, 1e308)] * 3,
        st.integers(0, 2**32 - 1),
    )
    @example(1e308, 0.0, 0.0, 0)  # an increment overflows
    @example(100.0, 0.0, 0.0, 0)  # the scale walk overflows
    @example(0.0, 0.0, 1e307, 1)  # the translation walk overflows
    @example(20.0, 0.0, 0.0, 1618)  # a drifted pose overflows
    def test_any_drift_gives_finite_map_or_named_error(self, scale_sigma, rot_sigma, trans_sigma, seed):
        cfg = DriftConfig(scale_sigma, rot_sigma, trans_sigma, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                emap = simulate(make_world(corridor_length=4), cfg, ObservationConfig())
            except ValueError as error:
                assert re.match(r"drift [a-z -]+ of frame \d+ |trajectory row \d+: |point \d+ ", str(error))
                return
        trajectory = emap.trajectory
        assert np.isfinite(emap.points).all()
        assert np.isfinite(trajectory.positions).all() and np.isfinite(trajectory.quaternions).all()

    def test_wide_but_finite_walk_keeps_its_bits(self):
        cfg = DriftConfig(scale_sigma=5.0, rot_sigma=0.3, trans_sigma=1e-3, rng_seed=2)
        walk = drift_walk(cfg, 60)
        assert np.isfinite(walk[0]).all() and walk[0].max() / walk[0].min() > 1e20  # far from 1 both ways
        assert_same_bits(walk, reference_drift(cfg, 60))

    def test_zero_axis_is_refused(self, monkeypatch):
        # Force exact zeros onto the rotation axis of frame 6: `drift_walk`
        # and the per-frame walk both refuse it, as `quat_from_axis_angle`
        # refuses any axis of zero norm.
        cfg = DriftConfig(scale_sigma=1e-3, rot_sigma=0.3, trans_sigma=1e-3, rng_seed=4)
        width = 8  # draws per frame: log-scale, axis (3), angle, translation (3)
        zeros = {5 * width + 1, 5 * width + 2, 5 * width + 3}
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
                        z.flat[i] = 0.0
                self.drawn += z.size
                return float(z.flat[0]) if size is None else z

            def normal(self, loc=0.0, scale=1.0, size=None):
                return loc + scale * self.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", ZeroedGenerator)
        assert_same_bits(drift_walk(cfg, 6), reference_drift(cfg, 6))  # a walk that stops short is drawn
        for walk in (drift_walk, reference_drift):
            with pytest.raises(ValueError, match="^rotation axis must be nonzero$"):
                walk(cfg, 30)


@st.composite
def simulate_cases(draw):
    spec = WorldSpec(
        corridor_length=draw(st.sampled_from([6.0, 9.0, 12.0])),
        door_spacing=draw(st.sampled_from([1.0, 2.0])),
        n_turns=draw(st.integers(0, 2)),
        turn_angle=draw(st.sampled_from([90.0, -60.0, 135.0])),
        extra_unique_segments=draw(st.sampled_from([0, 8])),
        # at 0.2 m each lintel is shorter than MIN_SEGMENT_LENGTH_M and dropped,
        # while the jambs that share its endpoints are kept
        door_width=draw(st.sampled_from([0.9, 0.2])),
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
            ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=OBS_SEED_OFFSET + 2),
        )
    )
    # every lintel dropped, its jambs and their shared endpoints kept
    @example(
        (
            WorldSpec(corridor_length=12, door_spacing=1, n_turns=1, door_width=0.2),
            DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, trans_sigma=1e-3, rng_seed=4),
            ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=5),
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
        obs = ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=OBS_SEED_OFFSET)
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
        ends = world.endpoints[row_norms(world.endpoints[:, 1] - world.endpoints[:, 0]) >= MIN_SEGMENT_LENGTH_M]
        vis_frame, _ = _visible(0.5 * (ends[:, 0] + ends[:, 1]), *gt_poses(world))
        assert len(np.unique(vis_frame)) == 3566
        assert [g.random_calls for g in generators] == [0, 189]  # drift, then observation
        # every call but the last steps one frame; each of the 158 frames
        # that create a point is one of them
        assert len(np.unique(plain.first_seen)) == 158


class TestTwoStages:
    @settings(max_examples=30)
    @given(
        simulate_cases(),
        st.builds(
            DriftConfig,
            scale_sigma=st.floats(0.0, 0.05),
            rot_sigma=st.floats(0.0, 1.0),
            trans_sigma=st.floats(0.0, 0.1),
            rng_seed=st.integers(0, 2**32 - 1),
        ),
    )
    def test_simulate_is_observe_then_drift(self, case, drift):
        # The map `simulate` returns is `observe`'s, each true point moved by
        # its creation frame's drift, one point at a time here, plus its noise.
        spec, _, obs = case
        world = generate_corridor(spec)
        emap = simulate(world, drift, obs)
        true_points, first_seen, noise, observations = observe(world, obs)
        assert_same_bits((emap.observations, emap.first_seen), (observations, first_seen))
        scale, rotation, translation = drift_walk(drift, world.n_frames)
        drifted = [scale[f] * quat_rotate(rotation[f], x) + translation[f] for f, x in zip(first_seen, true_points)]
        want = np.array(drifted).reshape(-1, 3)
        assert (noise is None) == (obs.endpoint_noise_sigma == 0.0 or len(want) == 0)
        if noise is not None:
            want += noise
        assert emap.points.tobytes() == want.tobytes()


# Coordinates whose squares are subnormal (1e-160), overflow to inf
# (1e155), or are signed zeros, among ordinary ones.
scan_coords = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([0.0, -0.0, 3.0, 4.0, 1e-160, -3e-170, 1e155, -2e160]),
)


# (axis, side, quaternion) of a camera facing `side` along `axis`
HEADINGS = [
    (0, 1.0, [1.0, 0.0, 0.0, 0.0]),
    (0, -1.0, [0.0, 0.0, 0.0, 1.0]),  # half a turn about z
    (1, 1.0, [0.5**0.5, 0.0, 0.0, 0.5**0.5]),  # a quarter turn about z
    (1, -1.0, [0.5**0.5, 0.0, 0.0, -(0.5**0.5)]),
    (2, 1.0, [0.5**0.5, 0.0, -(0.5**0.5), 0.0]),  # a quarter turn about -y
    (2, -1.0, [0.5**0.5, 0.0, 0.5**0.5, 0.0]),
]


class TestVisibilityScan:
    @settings(max_examples=200)
    @given(
        st.lists(st.tuples(scan_coords, scan_coords, scan_coords), min_size=1, max_size=6),
        st.lists(st.tuples(scan_coords, scan_coords, scan_coords), min_size=1, max_size=4),
        st.sampled_from([2.0, 5.0, 8.0]),
    )
    # a midpoint exactly at the limit: sqrt(3*3 + 4*4) == 5.0
    @example([(3.0, 4.0, 0.0), (-0.0, -4.0, 3.0)], [(0.0, 0.0, 0.0)], 5.0)
    @example([(1e-160, -0.0, 2e-160), (1e155, 0.0, 0.0)], [(-0.0, 1e-160, 0.0), (0.0, -0.0, -0.0)], 2.0)
    def test_column_scan_equals_per_frame_norm(self, mids, positions, limit):
        mids, positions = np.array(mids), np.array(positions)
        rel = _offsets(np.ascontiguousarray(mids.T), positions)
        # the facing matmul's input: the bytes of the broadcast subtraction
        assert rel.tobytes() == (mids - positions[:, None, :]).tobytes()
        with np.errstate(over="ignore"):  # squares above 2^1024 are inf in both forms
            distances = xyz_norms(rel[..., 0], rel[..., 1], rel[..., 2])
            for i in range(len(positions)):
                want = np.linalg.norm(rel[i], axis=1)
                assert distances[i].tobytes() == want.tobytes()
                assert np.array_equal(distances[i] <= limit, want <= limit)

    @pytest.mark.parametrize("axis, side, quaternion", HEADINGS, ids=["+x", "-x", "+y", "-y", "+z", "-z"])
    def test_exact_max_range_is_in_range(self, axis, side, quaternion):
        # A camera at the origin facing `side` along `axis` sees candidates
        # MAX_RANGE_M ahead and on a diagonal with the next axis, where
        # sqrt(a*a + b*b) == MAX_RANGE_M for a = 0.6 and b = 0.8 of it, but
        # not one a float beyond.
        a, b = 0.6 * MAX_RANGE_M, 0.8 * MAX_RANGE_M
        mids = np.zeros((3, 3))
        mids[:, axis] = side * np.array([MAX_RANGE_M, a, np.nextafter(MAX_RANGE_M, np.inf)])
        mids[1, (axis + 1) % 3] = b
        frames, cands = _visible(mids, np.array([quaternion]), np.zeros((1, 3)))
        assert (frames.tolist(), cands.tolist()) == ([0, 0], [0, 1])

    @pytest.mark.parametrize(
        "spec, n_near",
        [
            (WorldSpec(corridor_length=40.0, door_spacing=2.0), 20),
            (WorldSpec(corridor_length=60.0, n_turns=2, extra_unique_segments=150), 78),
            (WorldSpec(corridor_length=120.0, n_turns=3), 155),
        ],
        ids=["corridor40", "clutter60", "corridor120"],
    )
    def test_facing_equals_exact_dot_on_benchmark_worlds(self, spec, n_near):
        # `_visible` decides facing by a BLAS matmul, whose rounding the
        # build chooses. On the benchmark's worlds every in-range pair gets
        # the decision of the exact dot product: a pair whose dot rounds
        # below 1e-12 in size is decided with fractions, any other by the
        # sign of a plain float dot, which is at most 1e-14 off for
        # offsets within MAX_RANGE_M.
        world = generate_corridor(spec)
        ends = world.endpoints[row_norms(world.endpoints[:, 1] - world.endpoints[:, 0]) >= MIN_SEGMENT_LENGTH_M]
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        rotations, positions = gt_poses(world)
        forward = quat_rotate(rotations, np.array([1.0, 0.0, 0.0]))
        rel = _offsets(np.ascontiguousarray(mids.T), positions)
        in_range = xyz_norms(rel[..., 0], rel[..., 1], rel[..., 2]) <= MAX_RANGE_M
        dot = sum(rel[..., k] * forward[:, None, k] for k in range(3))
        facing = dot > 0.0
        near = np.argwhere(in_range & (np.abs(dot) < 1e-12))
        assert len(near) == n_near
        for f, c in near.tolist():
            exact = sum(Fraction(r) * Fraction(v) for r, v in zip(rel[f, c].tolist(), forward[f].tolist()))
            facing[f, c] = exact > 0
        frames, cands = _visible(mids, rotations, positions)
        seen = set(zip(frames.tolist(), cands.tolist()))
        wrong = [(f, c) for f, c in near.tolist() if ((f, c) in seen) != facing[f, c]]
        assert not wrong, f"(frame, candidate) pairs decided against the exact dot: {wrong}"
        want_frames, want_cands = np.nonzero(in_range & facing)
        assert np.array_equal(frames, want_frames) and np.array_equal(cands, want_cands)


def reference_visible(mids, rotations, positions, block=_VISIBILITY_BLOCK):
    """The dense scan that `_visible` prunes: every candidate of every block."""
    frames, cands = [], []
    x_axis = np.array([1.0, 0.0, 0.0])
    mids_t = np.ascontiguousarray(mids.T)
    for lo in range(0, len(positions), block):
        rel = _offsets(mids_t, positions[lo : lo + block])
        in_range = xyz_norms(rel[..., 0], rel[..., 1], rel[..., 2]) <= MAX_RANGE_M
        forward = quat_rotate(rotations[lo : lo + block], x_axis)
        facing = (rel @ forward[:, :, None])[..., 0] > 0.0
        f, c = np.divmod(np.flatnonzero(in_range & facing), len(mids))
        frames.append(f + lo)
        cands.append(c)
    return np.concatenate(frames), np.concatenate(cands)


IDENTITY = np.array([[1.0, 0.0, 0.0, 0.0]])


@st.composite
def scan_cases(draw):
    """(mids, rotations, positions, block) of a turning walk.

    The geometry is drawn in units of MAX_RANGE_M / 4 and, for x and y,
    offset far from the origin; z keeps signed zeros. Small blocks leave
    many blocks with no candidate near them. Candidates exactly
    MAX_RANGE_M, and one float either side of it, beyond the extreme frame
    on some axis sit on a block's box edge, and so does one just beyond
    the skip rule's margin.
    """
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
    offset = draw(st.sampled_from([0.0, 1e6, -1e9, 1e12]))
    positions, mids = positions * (MAX_RANGE_M / 4), mids * (MAX_RANGE_M / 4)
    if offset:
        positions[:, :2] += offset
        mids[:, :2] += offset
    axis, side = draw(st.integers(0, 2)), draw(st.sampled_from([-1.0, 1.0]))
    beyond = draw(st.sampled_from([1 + 2**-19, 1 + 2**-16, 1.001]))
    edges = np.tile(positions[np.argmax(side * positions[:, axis])], (4, 1))
    edges[:3, axis] += side * MAX_RANGE_M
    edges[1:3, axis] = np.nextafter(edges[0, axis], [np.inf, -np.inf])
    edges[3, axis] += side * MAX_RANGE_M * beyond
    mids = np.vstack([mids, edges])
    order = draw(st.permutations(range(len(mids))))
    return mids[order], rotations, positions, block


class TestPrunedScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    # exactly MAX_RANGE_M beyond the block's largest x, at 1e12
    @example(
        (
            np.array([[1e12 + 2.0 + MAX_RANGE_M, 0.0, -0.0]]),
            np.tile(IDENTITY, (2, 1)),
            np.array([[1e12 + 2.0, 0.0, -0.0], [1e12, 0.0, 0.0]]),
            256,
        )
    )
    def test_equals_dense_scan(self, case):
        mids, rotations, positions, block = case
        with patch.object(frontend, "_VISIBILITY_BLOCK", block):
            frames, cands = _visible(mids, rotations, positions)
            want_frames, want_cands = reference_visible(mids, rotations, positions, block)
        assert frames.dtype == want_frames.dtype and cands.dtype == want_cands.dtype
        assert np.array_equal(frames, want_frames) and np.array_equal(cands, want_cands)

    def test_kept_pairs_below_a_quarter_of_dense(self, monkeypatch):
        # On the 120 m, 3-turn world the dense scan tests 3690 frames x 180
        # candidates; the pruned one keeps about 22 % of those pairs, and
        # finds the same ones.
        world = generate_corridor(WorldSpec(corridor_length=120, n_turns=3))
        ends = world.endpoints[row_norms(world.endpoints[:, 1] - world.endpoints[:, 0]) >= MIN_SEGMENT_LENGTH_M]
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        widths = []
        offsets = frontend._offsets

        def spy(mids_t, t):
            widths.append(len(t) * mids_t.shape[1])
            return offsets(mids_t, t)

        monkeypatch.setattr(frontend, "_offsets", spy)
        frames, cands = _visible(mids, *gt_poses(world))
        dense = world.n_frames * len(mids)
        assert dense == 664_200
        assert sum(widths) < 0.25 * dense
        want_frames, want_cands = reference_visible(mids, *gt_poses(world))
        assert np.array_equal(frames, want_frames) and np.array_equal(cands, want_cands)


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

    @pytest.mark.parametrize(
        "points, first_seen, observations, message",
        [
            (np.zeros((3, 4)), [0, 0, 0], [], r"points must have shape \(3, 3\), got \(3, 4\)"),
            (np.zeros(6), [0, 0], [], r"points must have shape \(6, 3\), got \(6,\)"),
            (np.zeros((3, 3)), [[0, 0, 1]], [], r"first_seen must have shape \(3,\), got \(1, 3\)"),
            (np.zeros((3, 3)), [0, 0, 1], np.zeros((4, 3)), r"observations must have shape \(4, 4\), got \(4, 3\)"),
            (np.zeros((3, 3)), [0, 0, 1], [0, 1, 0, 0], r"observations must have shape \(4, 4\), got \(4,\)"),
        ],
    )
    def test_wrong_shape_rejected_by_name(self, points, first_seen, observations, message):
        # A reshape would read a (3, 4) points array as 4 points and a
        # (4, 3) observation table as 3 rows.
        with pytest.raises(ValueError, match=message):
            EstimatedMap(points, first_seen, observations, identity_trajectory(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected_by_index(self, bad):
        points = np.zeros((3, 3))
        points[1, 2] = points[2, 0] = bad
        with pytest.raises(ValueError, match=re.escape(f"point 1 must be finite, got [0.0, 0.0, {bad}]")):
            EstimatedMap(points, [0, 0, 1], [], identity_trajectory(2))

    def test_zero_size_inputs_are_zero_rows(self):
        emap = EstimatedMap([], [], [], identity_trajectory(1))
        assert (emap.points.shape, emap.first_seen.shape, emap.observations.shape) == ((0, 3), (0,), (0, 4))


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

    @staticmethod
    def facing_world(endpoints, n_frames=3):
        """Segments seen from `n_frames` poses at the origin facing +x."""
        identity = np.tile([1.0, 0.0, 0.0, 0.0], (n_frames, 1))
        trajectory = Trajectory(np.arange(n_frames) / 30.0, np.zeros((n_frames, 3)), identity)
        return World(endpoints, np.zeros(len(endpoints), dtype=np.int64), trajectory, 0)

    def test_max_range_limits_visibility(self):
        # midpoints at MAX_RANGE_M and one float beyond, ahead of every pose
        x = [MAX_RANGE_M, np.nextafter(MAX_RANGE_M, np.inf), 0.5 * MAX_RANGE_M]
        world = self.facing_world([([d, -0.5, 0.0], [d, 0.5, 0.0]) for d in x])
        emap = simulate(world, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0))
        assert sorted(set(emap.observations[:, OBS_SEGMENT].tolist())) == [0, 2]
        assert len(emap.observations) == 2 * world.n_frames

    def test_short_segments_dropped(self):
        short = np.nextafter(MIN_SEGMENT_LENGTH_M, 0.0)
        lengths = [MIN_SEGMENT_LENGTH_M, short, 1.0]
        world = self.facing_world([([2.0, 0.0, 0.0], [2.0, length, 0.0]) for length in lengths])
        emap = simulate(world, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0))
        assert sorted(set(emap.observations[:, OBS_SEGMENT].tolist())) == [0, 2]
        # a world of short segments only has no candidate at all
        only_short = self.facing_world([([x, 0.0, 0.0], [x, short, 0.0]) for x in (2.0, 3.0)])
        true_points, first_seen, noise, observations = observe(only_short, ObservationConfig(detect_prob=0.5))
        assert (true_points.shape, first_seen.shape, noise, observations.shape) == ((0, 3), (0,), None, (0, 4))

    def test_observation_frames_in_range(self):
        w = make_world()
        emap = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0))
        frames = emap.observations[:, OBS_FRAME]
        assert frames.min() >= 0 and frames.max() < w.n_frames
        assert np.all(np.diff(frames) >= 0)
        assert np.all(emap.first_seen[emap.observations[:, [OBS_P1, OBS_P2]]] <= frames[:, None])
        assert emap.observations[:, OBS_SEGMENT].max() < len(w.endpoints)

    def test_holds_only_what_a_camera_reads(self):
        # the range is MAX_RANGE_M and the shortest segment MIN_SEGMENT_LENGTH_M
        assert [f.name for f in fields(ObservationConfig)] == [
            "detect_prob",
            "endpoint_noise_sigma",
            "rng_seed",
        ]

    def test_invalid_detect_prob_rejected(self):
        with pytest.raises(ValueError):
            ObservationConfig(detect_prob=1.5)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("detect_prob", [float("nan"), float("inf")]),
            ("endpoint_noise_sigma", [float("nan"), float("inf"), -0.1]),
            ("rng_seed", [0.5, -1, True, "3"]),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                ObservationConfig(**{name: value})
