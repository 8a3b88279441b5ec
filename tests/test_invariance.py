"""Scores under a rigid motion of the whole world.

Today's drift scales each pose about the world origin, so a translation
of the world changes every score (README, "Where the world sits"). A
rotation about the vertical through the origin commutes with that drift:
the drifted trajectory of the rotated world is the rotated drifted
trajectory, so `baseline`'s ATE and RPE must not move beyond rounding.
"""

import math
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segdrift.frontend import DriftConfig, ObservationConfig
from segdrift.geometry import Trajectory, quat_from_axis_angle, quat_multiply, quat_rotate
from segdrift.metrics import ALIGN_MODES, MetricsConfig, evaluate
from segdrift.pipeline import ScheduleConfig, run
from segdrift.worldgen import World, WorldSpec, generate_corridor

REL_TOL = 1e-9  # rounding measured at up to 3e-15 relative
VERTICAL = np.array([0.0, 0.0, 1.0])


@lru_cache(maxsize=None)
def corridor():
    """The criterion-2 world: 40 m corridor, doors every 2 m."""
    return generate_corridor(WorldSpec(corridor_length=40.0, door_spacing=2.0))


def rotated(world, angle):
    """`world` rotated by `angle` radians about the vertical through the
    origin: segment endpoints, camera positions and camera orientations."""
    q = quat_from_axis_angle(VERTICAL, angle)
    gt = world.trajectory
    trajectory = Trajectory(gt.timestamps, quat_rotate(q, gt.positions), quat_multiply(q, gt.quaternions))
    endpoints = quat_rotate(q, world.endpoints.reshape(-1, 3)).reshape(world.endpoints.shape)
    return World(endpoints, world.archetypes, trajectory, world.rng_seed)


def baseline_scores(world, seed, align_mode):
    rr = run(
        world,
        DriftConfig(scale_sigma=1e-3, rng_seed=seed),
        ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=seed),
        ScheduleConfig(mode="baseline"),
    )
    report = evaluate(rr.corrected_trajectory, world.trajectory, MetricsConfig(align_mode))
    return report.ate_rmse, report.rpe_rmse


class TestRotationAboutTheVertical:
    @settings(max_examples=25)
    @given(st.floats(-math.pi, math.pi), st.integers(0, 2**16), st.sampled_from(ALIGN_MODES))
    @example(0.7, 0, "similarity")
    @example(2.1, 3, "none")
    def test_baseline_scores_unchanged(self, angle, seed, align_mode):
        # "none" aligns nothing, so there the estimate itself must turn with the world
        world = corridor()
        ate, rpe = baseline_scores(world, seed, align_mode)
        ate_rot, rpe_rot = baseline_scores(rotated(world, angle), seed, align_mode)
        assert math.isclose(ate_rot, ate, rel_tol=REL_TOL)
        assert math.isclose(rpe_rot, rpe, rel_tol=REL_TOL)

    def test_rotation_moves_the_world(self):
        # guards the helper: a quarter turn takes +x to +y and keeps heights
        world = corridor()
        moved = rotated(world, math.pi / 2)
        p, q = world.trajectory.positions, moved.trajectory.positions
        np.testing.assert_allclose(q[:, 0], -p[:, 1], atol=1e-12)
        np.testing.assert_allclose(q[:, 1], p[:, 0], atol=1e-12)
        assert q[:, 2].tobytes() == p[:, 2].tobytes()
        assert not np.allclose(moved.endpoints, world.endpoints)
