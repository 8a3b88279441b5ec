"""End-to-end pipeline: scheduling, optimization rounds, pose propagation."""

import numpy as np
import pytest

from segdrift.frontend import DriftConfig, ObservationConfig
from segdrift.geometry import PoseSE3, quat_from_axis_angle, quat_rotate
from segdrift.metrics import ate
from segdrift.pipeline import ScheduleConfig, propagate_to_poses, run
from segdrift.worldgen import WorldSpec, generate_corridor


def make_world(**kw):
    base = dict(corridor_length=20, door_spacing=2)
    base.update(kw)
    return generate_corridor(WorldSpec(**base))


class TestScheduleConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ScheduleConfig(mode="turbo").validate()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            ScheduleConfig(keyframe_interval=0).validate()

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("keyframe_interval", [float("nan"), float("inf")]),
            ("local_window", [0, float("nan")]),
            ("iteration_cap", [-3, 0, float("nan"), float("inf")]),
            ("rel_threshold", [-1.0, 0.0, float("nan"), float("inf")]),
            ("anchor_weight", [-1e-3, float("nan"), float("inf")]),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                ScheduleConfig(**{name: value}).validate()

    def test_defaults_and_zero_anchor_accepted(self):
        ScheduleConfig().validate()
        ScheduleConfig(anchor_weight=0.0, iteration_cap=1).validate()


class TestBaseline:
    def test_baseline_equals_raw_trajectory(self):
        w = make_world()
        r = run(w, DriftConfig(scale_sigma=1e-3, rng_seed=2), ObservationConfig(rng_seed=2),
                ScheduleConfig(mode="baseline"))
        assert np.array_equal(r.corrected_trajectory.positions, r.raw_trajectory.positions)
        assert np.array_equal(r.corrected_trajectory.quaternions, r.raw_trajectory.quaternions)
        assert r.reports == []
        assert len(r.store) == 0


class TestZeroDrift:
    def test_corrections_numerically_null(self):
        w = make_world()
        for mode in ("seg", "segglobal"):
            r = run(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0),
                    ScheduleConfig(mode=mode))
            # Objective is already zero, so nothing moves and the
            # trajectory stays on the ground truth.
            assert ate(r.corrected_trajectory, r.gt_trajectory, mode="none") < 1e-9
            for rep in r.reports:
                assert rep.final_objective < 1e-18

    def test_cluster_count_matches_archetypes(self):
        w = make_world()
        r = run(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0),
                ScheduleConfig(mode="seg"))
        n_archetypes = len({s.archetype for s in w.segments})
        assert len(r.store) == n_archetypes


class TestDeterminism:
    def test_identical_inputs_bit_identical_results(self):
        w = make_world()
        args = (
            DriftConfig(scale_sigma=1e-3, rng_seed=4),
            ObservationConfig(endpoint_noise_sigma=0.01, detect_prob=0.8, rng_seed=4),
            ScheduleConfig(mode="seg"),
        )
        a = run(w, *args)
        b = run(w, *args)
        assert np.array_equal(a.corrected_trajectory.positions, b.corrected_trajectory.positions)
        assert np.array_equal(a.corrected_trajectory.quaternions, b.corrected_trajectory.quaternions)
        assert a.propagation_log == b.propagation_log
        assert [r.objective_trace for r in a.reports] == [r.objective_trace for r in b.reports]


class TestRounds:
    def test_rounds_never_worsen_objective(self):
        w = make_world()
        r = run(w, DriftConfig(scale_sigma=1e-3, rng_seed=5),
                ObservationConfig(endpoint_noise_sigma=0.005, rng_seed=5),
                ScheduleConfig(mode="segglobal"))
        assert r.reports
        for rep in r.reports:
            assert rep.final_objective <= rep.initial_objective


class TestPropagation:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.n_points = 30
        self.pre = {pid: rng.uniform(-5, 5, size=3) for pid in range(self.n_points)}
        self.first_seen = {pid: pid for pid in range(self.n_points)}
        self.poses = [
            PoseSE3(np.array([1.0, 0.0, 0.0, 0.0]), rng.uniform(-5, 5, size=3))
            for _ in range(self.n_points)
        ]
        self.keyframes = [0, 10, 20, 29]

    def test_unmoved_map_gives_identity(self):
        post = {pid: p.copy() for pid, p in self.pre.items()}
        new_poses, plog = propagate_to_poses(
            self.pre, post, self.first_seen, self.poses, self.keyframes
        )
        assert plog == []
        for old, new in zip(self.poses, new_poses):
            assert np.array_equal(old.translation, new.translation)
            assert np.array_equal(old.rotation, new.rotation)

    def test_uniform_scaling_recovered_at_every_keyframe(self):
        s = 1.0 / 1.05
        post = {pid: s * p for pid, p in self.pre.items()}
        new_poses, plog = propagate_to_poses(
            self.pre, post, self.first_seen, self.poses, self.keyframes
        )
        scales = [float(e.split("scale ")[1].split(" ")[0]) for e in plog if "scale" in e]
        assert len(scales) == len(self.keyframes)
        for fitted in scales:
            assert fitted == pytest.approx(s, abs=1e-6)
        for old, new in zip(self.poses, new_poses):
            assert np.allclose(new.translation, s * old.translation, atol=1e-9)

    def test_two_moved_points_logged_identity(self):
        post = {pid: p.copy() for pid, p in self.pre.items()}
        post[0] = post[0] + 1.0
        post[1] = post[1] + 1.0
        keyframes = [0]
        new_poses, plog = propagate_to_poses(
            self.pre, post, self.first_seen, self.poses, keyframes, neighborhood=5
        )
        assert any("only 2 moved points, identity correction" in e for e in plog)
        for old, new in zip(self.poses, new_poses):
            assert np.array_equal(old.translation, new.translation)

    def test_rotation_recovered_and_applied_about_origin(self):
        q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.1)
        post = {pid: quat_rotate(q, p) for pid, p in self.pre.items()}
        new_poses, _ = propagate_to_poses(
            self.pre, post, self.first_seen, self.poses, self.keyframes
        )
        for old, new in zip(self.poses, new_poses):
            assert np.allclose(new.translation, quat_rotate(q, old.translation), atol=1e-6)


class TestNoiselessMonotoneScaleReduction:
    def test_last_frame_scale_error_smaller_for_seg_on_every_seed(self):
        # Pure scale drift, zero endpoint noise, full detection, doors
        # every 2 m: the corrected last-frame scale error must beat the
        # baseline on every seed. The correction is bounded by the 0.5%
        # cluster gate while the drift excursion regularly exceeds it, so
        # this strong per-seed form does not hold for this open-loop
        # pipeline; the failure is expected and documented.
        w = make_world(corridor_length=40)
        failures = []
        for seed in range(8):
            drift = DriftConfig(scale_sigma=1e-3, rng_seed=seed)
            obs = ObservationConfig(rng_seed=seed)
            base = run(w, drift, obs, ScheduleConfig(mode="baseline"))
            seg = run(w, drift, obs, ScheduleConfig(mode="seg"))
            t_true = np.linalg.norm(base.gt_trajectory.positions[-1])
            err_base = abs(
                np.linalg.norm(base.corrected_trajectory.positions[-1]) / t_true - 1
            )
            err_seg = abs(
                np.linalg.norm(seg.corrected_trajectory.positions[-1]) / t_true - 1
            )
            if not err_seg < err_base:
                failures.append((seed, err_base, err_seg))
        assert not failures, f"seg did not beat baseline on seeds {failures}"
