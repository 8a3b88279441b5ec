"""End-to-end experiment pipeline: simulate, cluster on arrival, optimize
on a keyframe schedule and propagate map corrections to the trajectory.

Pose propagation is a surrogate for the host SLAM system's bundle
adjustment: per keyframe, the similarity transform best explaining how
nearby map points moved during a solve round is estimated in closed form
and applied to the pose, with interpolation between keyframes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterStore, DEFAULT_REL_THRESHOLD, assign_all
from .clusteropt import OptReport, build_problem, solve
from .frontend import DriftConfig, EstimatedMap, ObservationConfig, simulate
from .geometry import PoseSE3, Sim3, quat_multiply, quat_rotate, quat_slerp, umeyama_alignment
from .metrics import Trajectory
from .worldgen import World

MODES = ("baseline", "seg", "segglobal")
MOVED_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ScheduleConfig:
    mode: str = "baseline"
    keyframe_interval: int = 10  # frames
    local_window: int = 5  # keyframes
    iteration_cap: int = 10
    anchor_weight: float = 1e-3
    rel_threshold: float = DEFAULT_REL_THRESHOLD

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("keyframe_interval", "local_window", "iteration_cap"):
            if not 1 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number >= 1")
        if not 0 < self.rel_threshold < math.inf:
            raise ValueError("rel_threshold must be finite and positive")
        if not 0 <= self.anchor_weight < math.inf:
            raise ValueError("anchor_weight must be finite and non-negative")


@dataclass
class RunResult:
    raw_trajectory: Trajectory  # drifted, no correction
    corrected_trajectory: Trajectory
    gt_trajectory: Trajectory
    emap: EstimatedMap  # final (post-optimization) map
    store: ClusterStore
    reports: list[OptReport]
    discarded_observations: int
    propagation_log: list[str]


def propagate_to_poses(
    pre_positions: dict[int, np.ndarray],
    post_positions: dict[int, np.ndarray],
    first_seen: dict[int, int],
    poses: list[PoseSE3],
    keyframes: list[int],
    min_moved: int = 3,
    neighborhood: int = 15,
) -> tuple[list[PoseSE3], list[str]]:
    """Apply per-keyframe similarity corrections derived from map movement.

    For each keyframe, the points first observed within `neighborhood`
    frames of it form its fit group; if at least `min_moved` of them moved,
    the group gets a closed-form similarity fit applied to the keyframe
    pose, otherwise the keyframe carries an identity correction (logged).
    Keyframes with identity corrections carry no information of their own:
    frames interpolate the correction between the bracketing *informative*
    keyframes (geometric in scale, slerp in rotation) and hold the nearest
    informative correction beyond the span.
    """
    plog: list[str] = []
    moved = sorted(
        pid
        for pid in pre_positions
        if pid in post_positions
        and np.linalg.norm(post_positions[pid] - pre_positions[pid]) > MOVED_TOLERANCE
    )

    kf_sorted = sorted(keyframes)
    moved_set = set(moved)
    shared = sorted(set(pre_positions) & set(post_positions))

    corrections: dict[int, Sim3] = {}
    for kf in kf_sorted:
        pids = [pid for pid in shared if abs(first_seen[pid] - kf) <= neighborhood]
        n_moved = sum(1 for p in pids if p in moved_set)
        if n_moved == 0:
            continue
        if n_moved < min_moved:
            plog.append(
                f"keyframe {kf}: only {n_moved} moved points, identity correction"
            )
            continue
        src = np.array([pre_positions[p] for p in pids])
        dst = np.array([post_positions[p] for p in pids])
        try:
            fit = umeyama_alignment(src, dst, with_scale=True)
            corrections[kf] = fit
            plog.append(
                f"keyframe {kf}: scale {fit.scale:.6f} from "
                f"{len(pids)} points ({n_moved} moved)"
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            plog.append(f"keyframe {kf}: degenerate point set ({exc}), identity correction")

    if not corrections:
        return list(poses), plog
    if 0 not in corrections:
        # The distortion is exactly identity at the first frame, so the
        # correction profile is anchored there rather than extrapolated.
        corrections[0] = Sim3.identity()

    # Apply the scale and rotation of each correction about the world
    # origin and discard the fitted translation. The drift being undone
    # acts about the origin (s R p + T), so a local map fix of scale c
    # means the pose position itself is off by the same factor; the
    # fitted translation merely re-anchors the fit at the local point
    # centroid and carries no correction signal (the cluster constraint
    # cannot observe translation). Frames between informative keyframes
    # interpolate geometrically in scale and by slerp in rotation; frames
    # beyond either end hold the nearest correction, since the drift at
    # those frames already contains the error the fit measured.
    kfs = sorted(corrections)
    new_poses = list(poses)
    for frame in range(len(poses)):
        if frame <= kfs[0]:
            scale, rot = corrections[kfs[0]].scale, corrections[kfs[0]].rotation
        elif frame >= kfs[-1]:
            scale, rot = corrections[kfs[-1]].scale, corrections[kfs[-1]].rotation
        else:
            hi = next(k for k in kfs if k >= frame)
            lo = max(k for k in kfs if k <= frame)
            a, b = corrections[lo], corrections[hi]
            if lo == hi:
                scale, rot = a.scale, a.rotation
            else:
                u = (frame - lo) / (hi - lo)
                scale = float(np.exp((1 - u) * np.log(a.scale) + u * np.log(b.scale)))
                rot = quat_slerp(a.rotation, b.rotation, u)
        pose = new_poses[frame]
        new_poses[frame] = PoseSE3(
            quat_multiply(rot, pose.rotation),
            scale * quat_rotate(rot, pose.translation),
        )
    return new_poses, plog


def run(
    world: World,
    drift_cfg: DriftConfig,
    obs_cfg: ObservationConfig,
    schedule: ScheduleConfig,
) -> RunResult:
    """Process the whole world under the chosen optimization schedule."""
    schedule.validate()
    emap = simulate(world, drift_cfg, obs_cfg)
    raw_poses = list(emap.est_poses)
    timestamps = emap.timestamps
    gt_traj = Trajectory.from_poses(world.timestamps, world.poses)
    raw_traj = Trajectory.from_poses(timestamps, raw_poses)

    store = ClusterStore()
    reports: list[OptReport] = []
    plog: list[str] = []
    discarded = 0

    if schedule.mode == "baseline":
        return RunResult(raw_traj, raw_traj, gt_traj, emap, store, reports, 0, plog)

    # Working copy: the optimizer mutates point positions in place.
    emap = emap.copy()
    first_seen = {pid: pt.first_seen_frame for pid, pt in emap.points.items()}
    by_frame: dict[int, list[int]] = {}
    for i, obs in enumerate(emap.observations):
        by_frame.setdefault(obs.frame, []).append(i)

    n_frames = len(raw_poses)
    poses = list(raw_poses)
    interval = schedule.keyframe_interval
    keyframes_so_far: list[int] = [0]

    round_frames = [f for f in range(n_frames) if f > 0 and f % interval == 0]
    if n_frames - 1 not in round_frames and n_frames > 1:
        round_frames.append(n_frames - 1)

    # Snapshot of every point's position before any optimization touched
    # it. Pose corrections are always refit against this baseline and
    # applied to the raw trajectory, so each round's propagation replaces
    # the previous one instead of compounding round-to-round fit noise.
    raw_map = {pid: pt.position.copy() for pid, pt in emap.points.items()}

    def solve_round(frames_in_scope: set[int] | None) -> None:
        nonlocal poses
        problem = build_problem(
            store,
            emap,
            frames=frames_in_scope,
            anchor_weight=schedule.anchor_weight,
            iteration_cap=schedule.iteration_cap,
        )
        if not problem.edges:
            return
        positions, report = solve(problem)
        reports.append(report)
        for pid, pos in positions.items():
            emap.points[pid].position = pos
        store.recompute_centers(emap)

    next_round = 0
    for frame in range(n_frames):
        discarded += assign_all(store, emap, by_frame.get(frame, ()), schedule.rel_threshold)
        if frame > 0 and frame % interval == 0 and frame not in keyframes_so_far:
            keyframes_so_far.append(frame)
        if next_round < len(round_frames) and frame == round_frames[next_round]:
            next_round += 1
            if frame not in keyframes_so_far:
                keyframes_so_far.append(frame)
            lo = max(0, frame - interval * schedule.local_window)
            solve_round(set(range(lo, frame + 1)))
            if schedule.mode == "segglobal":
                solve_round(None)

    # Pose corrections are refit against the pre-optimization map, so the
    # final fit subsumes every earlier round; propagating once at the end
    # yields the same trajectory as propagating after each round.
    if reports:
        current = {pid: pt.position for pid, pt in emap.points.items()}
        poses, entries = propagate_to_poses(
            raw_map, current, first_seen, raw_poses, keyframes_so_far
        )
        plog.extend(entries)

    corrected = Trajectory.from_poses(timestamps, poses)
    return RunResult(raw_traj, corrected, gt_traj, emap, store, reports, discarded, plog)
