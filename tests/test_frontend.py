"""Drifting front-end simulator."""

import numpy as np
import pytest

from segdrift.frontend import (
    DriftConfig,
    DriftState,
    ObservationConfig,
    simulate,
    step_drift,
)
from segdrift.worldgen import WorldSpec, generate_corridor


def make_world(**kw):
    base = dict(corridor_length=20, door_spacing=2)
    base.update(kw)
    return generate_corridor(WorldSpec(**base))


class TestDriftRandomWalk:
    def test_zero_sigmas_stay_identity(self):
        state = DriftState(DriftConfig(rng_seed=0))
        for _ in range(100):
            step_drift(state)
        c = state.cumulative
        assert c.scale == 1.0
        assert np.allclose(c.rotation, [1.0, 0.0, 0.0, 0.0])
        assert np.allclose(c.translation, 0.0)

    def test_log_scale_stddev_matches_random_walk(self):
        # After n steps of per-step stddev s, log(scale) ~ N(0, s^2 n):
        # stddev 0.001 * sqrt(1000) ~= 0.0316. Monte-Carlo over 200 seeds.
        samples = []
        for seed in range(200):
            state = DriftState(DriftConfig(scale_sigma=1e-3, rng_seed=seed))
            for _ in range(1000):
                state.step()
            samples.append(np.log(state.cumulative.scale))
        expected = 1e-3 * np.sqrt(1000)
        assert abs(np.std(samples) - expected) / expected < 0.2

    def test_deterministic_per_seed(self):
        a = DriftState(DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, trans_sigma=1e-3, rng_seed=5))
        b = DriftState(DriftConfig(scale_sigma=1e-3, rot_sigma=1e-4, trans_sigma=1e-3, rng_seed=5))
        for _ in range(50):
            a.step()
            b.step()
        assert a.cumulative.scale == b.cumulative.scale
        assert np.array_equal(a.cumulative.translation, b.cumulative.translation)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            DriftConfig(scale_sigma=-1.0).validate()

    @pytest.mark.parametrize("name", ["scale_sigma", "rot_sigma", "trans_sigma"])
    def test_non_finite_sigma_rejected(self, name):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                DriftConfig(**{name: bad}).validate()


class TestSimulate:
    def test_zero_drift_zero_noise_exact(self):
        w = make_world()
        emap = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0))
        for obs in emap.observations:
            seg = w.segments[obs.world_segment_index]
            p1 = emap.points[obs.p1_id].position
            p2 = emap.points[obs.p2_id].position
            assert np.array_equal(p1, seg.a) or np.array_equal(p1, seg.b)
            assert np.array_equal(p2, seg.a) or np.array_equal(p2, seg.b)
        for pose, gt in zip(emap.est_poses, w.poses):
            assert np.array_equal(pose.translation, gt.translation)
            assert np.array_equal(pose.rotation, gt.rotation)

    def test_pure_scale_drift_scales_first_sight_positions(self):
        w = make_world()
        cfg = DriftConfig(scale_sigma=1e-3, rng_seed=3)
        emap = simulate(w, cfg, ObservationConfig(rng_seed=0))
        # Replay the drift to know s at each frame.
        replay = DriftState(cfg)
        scales = [1.0]
        for _ in range(len(w.poses) - 1):
            scales.append(replay.step().scale)
        checked = 0
        for obs in emap.observations:
            seg = w.segments[obs.world_segment_index]
            for pid, true_pt in ((obs.p1_id, seg.a), (obs.p2_id, seg.b)):
                pt = emap.points[pid]
                s = scales[pt.first_seen_frame]
                assert np.linalg.norm(pt.position) == pytest.approx(
                    s * np.linalg.norm(true_pt), abs=1e-9
                )
                checked += 1
        assert checked > 0

    def test_same_frame_endpoints_share_drift(self):
        w = make_world()
        cfg = DriftConfig(scale_sigma=2e-3, rng_seed=1)
        emap = simulate(w, cfg, ObservationConfig(rng_seed=0))
        replay = DriftState(cfg)
        scales = [1.0]
        for _ in range(len(w.poses) - 1):
            scales.append(replay.step().scale)
        for obs in emap.observations:
            pt1, pt2 = emap.points[obs.p1_id], emap.points[obs.p2_id]
            if pt1.first_seen_frame != pt2.first_seen_frame:
                continue
            seg = w.segments[obs.world_segment_index]
            v_est = pt2.position - pt1.position
            s = scales[pt1.first_seen_frame]
            v_true = seg.vector
            match = np.allclose(v_est, s * v_true, atol=1e-9) or np.allclose(
                v_est, -s * v_true, atol=1e-9
            )
            assert match

    def test_detect_prob_zero_empty(self):
        w = make_world()
        emap = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(detect_prob=0.0, rng_seed=0))
        assert emap.observations == []
        assert emap.points == {}

    def test_reuses_map_points(self):
        w = make_world()
        emap = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0))
        # Far fewer points than observations: re-detections reuse ids.
        assert len(emap.points) < len(emap.observations)
        seen_pairs = {}
        for obs in emap.observations:
            key = obs.world_segment_index
            ids = frozenset((obs.p1_id, obs.p2_id))
            assert seen_pairs.setdefault(key, ids) == ids

    def test_endpoint_noise_perturbs_points(self):
        w = make_world()
        clean = simulate(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=3))
        noisy = simulate(
            w, DriftConfig(rng_seed=0), ObservationConfig(endpoint_noise_sigma=0.01, rng_seed=3)
        )
        deltas = [
            np.linalg.norm(noisy.points[pid].position - clean.points[pid].position)
            for pid in clean.points
        ]
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
        for obs in emap.observations:
            assert 0 <= obs.frame < len(w.poses)

    def test_invalid_detect_prob_rejected(self):
        with pytest.raises(ValueError):
            ObservationConfig(detect_prob=1.5).validate()

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("detect_prob", [float("nan"), float("inf")]),
            ("endpoint_noise_sigma", [float("nan"), float("inf"), -0.1]),
            ("max_range", [float("nan"), float("inf"), 0.0]),
            ("min_segment_length", [float("nan"), float("inf"), -0.1]),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                ObservationConfig(**{name: value}).validate()
