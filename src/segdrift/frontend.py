"""Simulated SLAM front end: visibility, detection and drift distortion.

Replaces image-domain segment detection with a geometric observation
model: a world segment is detected when it is in range, in front of the
camera and long enough, with a configurable detection probability.
Endpoint data association is given by the simulator. The estimated map is
the ground truth distorted by a per-frame similarity drift random walk,
plus optional endpoint noise at creation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PoseSE3, Sim3, quat_from_axis_angle, quat_multiply, quat_rotate
from .worldgen import World


@dataclass(frozen=True)
class DriftConfig:
    scale_sigma: float = 0.0  # stddev of log-scale increment per frame
    rot_sigma: float = 0.0  # radians per frame
    trans_sigma: float = 0.0  # meters per frame
    rng_seed: int = 0

    def validate(self) -> None:
        for name in ("scale_sigma", "rot_sigma", "trans_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class ObservationConfig:
    detect_prob: float = 1.0
    endpoint_noise_sigma: float = 0.0  # meters, isotropic, at point creation
    max_range: float = 8.0
    min_segment_length: float = 0.3
    rng_seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.detect_prob <= 1.0:
            raise ValueError("detect_prob must be in [0, 1]")
        for name in ("endpoint_noise_sigma", "min_segment_length"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0 < self.max_range < math.inf:
            raise ValueError("max_range must be finite and positive")


class DriftState:
    """Cumulative similarity distortion driven by a seeded random walk."""

    def __init__(self, cfg: DriftConfig):
        cfg.validate()
        self.cfg = cfg
        self.cumulative = Sim3.identity()
        self.rng = np.random.default_rng(cfg.rng_seed)

    def step(self) -> Sim3:
        """Advance one frame and return the new cumulative distortion."""
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


def step_drift(state: DriftState) -> Sim3:
    return state.step()


@dataclass
class MapPoint:
    id: int
    position: np.ndarray  # estimated, mutable by optimization
    first_seen_frame: int


@dataclass(frozen=True)
class SegmentObservation:
    p1_id: int
    p2_id: int
    frame: int
    world_segment_index: int  # simulation bookkeeping, hidden from the method

    def __post_init__(self):
        if self.p1_id == self.p2_id:
            raise ValueError("observation endpoints must be distinct")


@dataclass
class EstimatedMap:
    points: dict[int, MapPoint]
    observations: list[SegmentObservation]
    timestamps: np.ndarray
    est_poses: list[PoseSE3]

    def validate(self) -> None:
        for obs in self.observations:
            if obs.p1_id not in self.points or obs.p2_id not in self.points:
                raise ValueError(f"observation references unknown point ids {obs}")

    def positions(self) -> dict[int, np.ndarray]:
        return {pid: pt.position.copy() for pid, pt in self.points.items()}

    def position_array(self) -> np.ndarray:
        """(n, 3) positions indexed by point id; ids are dense by construction."""
        n = len(self.points)
        out = np.empty((n, 3))
        for pid, pt in self.points.items():
            out[pid] = pt.position
        return out

    def copy(self) -> "EstimatedMap":
        """Copy with fresh mutable points; observations are immutable and shared."""
        return EstimatedMap(
            {pid: MapPoint(pt.id, pt.position.copy(), pt.first_seen_frame) for pid, pt in self.points.items()},
            self.observations,
            self.timestamps.copy(),
            list(self.est_poses),
        )


def _visible_mask(midpoints: np.ndarray, pose: PoseSE3, max_range: float) -> np.ndarray:
    rel = midpoints - pose.translation
    in_range = np.linalg.norm(rel, axis=1) <= max_range
    forward = quat_rotate(pose.rotation, np.array([1.0, 0.0, 0.0]))
    facing = rel @ forward > 0.0
    return in_range & facing


def simulate(world: World, drift_cfg: DriftConfig, obs_cfg: ObservationConfig) -> EstimatedMap:
    """Run the observation model over every frame of the world trajectory.

    Map points are created at the drifted (and optionally noisy) position
    of the first detection and never re-triangulated; re-detections reuse
    the existing id. The estimated trajectory is the ground truth with the
    per-frame cumulative drift applied.
    """
    drift_cfg.validate()
    obs_cfg.validate()
    drift = DriftState(drift_cfg)
    obs_rng = np.random.default_rng(obs_cfg.rng_seed)

    points: dict[int, MapPoint] = {}
    observations: list[SegmentObservation] = []
    # Endpoint identity is keyed by the true world coordinates, so segments
    # meeting at a corner share one map point (oracle data association).
    endpoint_to_id: dict[bytes, int] = {}
    est_poses: list[PoseSE3] = []
    next_id = 0

    candidates = [
        (i, seg)
        for i, seg in enumerate(world.segments)
        if np.linalg.norm(seg.vector) >= obs_cfg.min_segment_length
    ]
    cand_mids = np.array([seg.midpoint for _, seg in candidates]).reshape(-1, 3)

    for frame, pose in enumerate(world.poses):
        if frame > 0:
            drift.step()
        d = drift.cumulative
        est_poses.append(
            PoseSE3(quat_multiply(d.rotation, pose.rotation), d.apply(pose.translation))
        )
        if not candidates:
            continue
        visible = np.flatnonzero(_visible_mask(cand_mids, pose, obs_cfg.max_range))
        if obs_cfg.detect_prob < 1.0 and len(visible):
            visible = visible[obs_rng.random(len(visible)) < obs_cfg.detect_prob]
        for ci in visible:
            seg_index, seg = candidates[ci]
            ids = []
            for true_pt in (seg.a, seg.b):
                key = true_pt.tobytes()
                pid = endpoint_to_id.get(key)
                if pid is None:
                    pos = d.apply(true_pt)
                    if obs_cfg.endpoint_noise_sigma > 0:
                        pos = pos + obs_rng.normal(0.0, obs_cfg.endpoint_noise_sigma, size=3)
                    pid = next_id
                    next_id += 1
                    endpoint_to_id[key] = pid
                    points[pid] = MapPoint(pid, pos, frame)
                ids.append(pid)
            observations.append(SegmentObservation(ids[0], ids[1], frame, seg_index))

    return EstimatedMap(points, observations, world.timestamps.copy(), est_poses)
