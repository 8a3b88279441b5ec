"""End-to-end experiment pipeline: simulate, cluster on arrival, optimize
on a keyframe schedule and propagate map corrections to the trajectory.

Pose propagation is a surrogate for the host SLAM system's bundle
adjustment: per keyframe, the similarity transform best explaining how
nearby map points moved during a solve round is estimated in closed form
and applied to the pose, with interpolation between keyframes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterStore, DEFAULT_REL_THRESHOLD
from .clusteropt import OptReport, build_problem, solve
from .frontend import OBS_FRAME, DriftConfig, EstimatedMap, ObservationConfig, simulate
from .geometry import (
    Sim3, Trajectory, check_real, quat_multiply, quat_normalize, quat_rotate,
    quat_slerp, row_norms, umeyama_alignment,
)
from .worldgen import World

MODES = ("baseline", "seg", "segglobal")
MOVED_TOLERANCE = 1e-9
MIN_MOVED = 3  # moved points a keyframe's fit group needs for a fit
NEIGHBORHOOD = 15  # frames between a keyframe and its group's first sightings
KEYFRAME_INTERVAL = 10  # frames between solve rounds
LOCAL_WINDOW = 5  # keyframe intervals a local solve round reaches back


@dataclass(frozen=True)
class ScheduleConfig:
    mode: str = "baseline"
    rel_threshold: float = DEFAULT_REL_THRESHOLD

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_real("rel_threshold", self.rel_threshold, 0, strict=True)


@dataclass
class RunResult:
    corrected_trajectory: Trajectory  # emap.trajectory itself in baseline mode
    emap: EstimatedMap  # final (post-optimization) map; its trajectory is the raw, drifted one
    store: ClusterStore
    reports: list[OptReport]
    discarded_observations: int
    propagation_log: list[str]


def propagate_to_poses(
    pre_points: np.ndarray,
    post_points: np.ndarray,
    first_seen: np.ndarray,
    rotations: np.ndarray,
    translations: np.ndarray,
    keyframes: list[int],
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Apply per-keyframe similarity corrections derived from map movement.

    `pre_points` and `post_points` are (points, 3) positions before and
    after optimization, `first_seen` each point's first frame, and
    `rotations` (frames, 4) and `translations` (frames, 3) the poses to
    correct; returns the corrected rotations and translations and a log.

    For each keyframe, the points first observed within NEIGHBORHOOD (15)
    frames of it form its fit group; if at least MIN_MOVED (3) of them moved,
    the group gets a closed-form similarity fit applied to the keyframe
    pose, otherwise the keyframe carries an identity correction (logged).
    Keyframes with identity corrections carry no information of their own:
    frames interpolate the correction between the bracketing *informative*
    keyframes (geometric in scale, slerp in rotation) and hold the nearest
    informative correction beyond the span.
    """
    plog: list[str] = []
    moved = row_norms(post_points - pre_points) > MOVED_TOLERANCE

    corrections: dict[int, Sim3] = {}
    for kf in sorted(keyframes):
        group = np.flatnonzero(np.abs(first_seen - kf) <= NEIGHBORHOOD)
        n_moved = int(np.count_nonzero(moved[group]))
        if n_moved == 0:
            continue
        if n_moved < MIN_MOVED:
            plog.append(
                f"keyframe {kf}: only {n_moved} moved points, identity correction"
            )
            continue
        try:
            fit = umeyama_alignment(pre_points[group], post_points[group], with_scale=True)
            corrections[kf] = fit
            plog.append(
                f"keyframe {kf}: scale {fit.scale:.6f} from "
                f"{len(group)} points ({n_moved} moved)"
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            plog.append(f"keyframe {kf}: degenerate point set ({exc}), identity correction")

    if not corrections:
        return rotations, translations, plog
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
    kfs = np.array(sorted(corrections))
    kf_scale = np.array([corrections[k].scale for k in kfs.tolist()])
    kf_rot = np.array([corrections[k].rotation for k in kfs.tolist()])
    frames = np.arange(len(rotations))
    # The last keyframe at or before each frame and the first at or after
    # it; clipping makes both the nearest end beyond the span.
    lo = (np.searchsorted(kfs, frames, side="right") - 1).clip(min=0)
    hi = np.searchsorted(kfs, frames).clip(max=len(kfs) - 1)
    scale, rot = kf_scale[lo], kf_rot[lo]
    between = np.flatnonzero(lo != hi)
    a, b = lo[between], hi[between]
    u = (frames[between] - kfs[a]) / (kfs[b] - kfs[a])
    scale[between] = np.exp((1 - u) * np.log(kf_scale[a]) + u * np.log(kf_scale[b]))
    rot[between] = quat_slerp(kf_rot[a], kf_rot[b], u)
    return (
        quat_normalize(quat_multiply(rot, rotations)),
        scale[:, None] * quat_rotate(rot, translations),
        plog,
    )


def run(
    world: World,
    drift_cfg: DriftConfig,
    obs_cfg: ObservationConfig,
    schedule: ScheduleConfig,
) -> RunResult:
    """Process the whole world under the chosen optimization schedule."""
    emap = simulate(world, drift_cfg, obs_cfg)
    raw = emap.trajectory

    store = ClusterStore(emap, schedule.rel_threshold)
    reports: list[OptReport] = []
    plog: list[str] = []
    discarded = 0

    if schedule.mode == "baseline":
        return RunResult(raw, emap, store, reports, 0, plog)

    n_frames = len(raw)
    # Observations are in frame order: frame f's rows are bounds[f]..bounds[f+1].
    bounds = np.searchsorted(emap.observations[:, OBS_FRAME], np.arange(n_frames + 1)).tolist()
    round_frames = list(range(KEYFRAME_INTERVAL, n_frames, KEYFRAME_INTERVAL))
    if n_frames - 1 not in round_frames and n_frames > 1:
        round_frames.append(n_frames - 1)

    # Snapshot of every point's position before any optimization touched
    # it. Pose corrections are always refit against this baseline and
    # applied to the raw trajectory, so each round's propagation replaces
    # the previous one instead of compounding round-to-round fit noise.
    raw_points = emap.points.copy()

    def solve_round(frames_in_scope: range) -> None:
        problem = build_problem(store, frames_in_scope)
        if not len(problem.edges):
            return
        emap.points[problem.point_ids], report = solve(problem)
        reports.append(report)
        store.recompute_centers()

    def assign_frames(first: int, end: int) -> int:
        return len(store.assign_batch(np.arange(bounds[first], bounds[end])))

    # Points move only in solve rounds, and a batch assigns exactly as its
    # observations one at a time would, so each solve interval is one batch.
    done = 0  # frames assigned so far
    for frame in round_frames:
        discarded += assign_frames(done, frame + 1)
        done = frame + 1
        solve_round(range(max(0, frame - KEYFRAME_INTERVAL * LOCAL_WINDOW), frame + 1))
        if schedule.mode == "segglobal":
            solve_round(range(frame + 1))  # every member assigned so far
    if done < n_frames:  # a one-frame world has no solve round
        discarded += assign_frames(done, n_frames)

    # Pose corrections are refit against the pre-optimization map, so the
    # final fit subsumes every earlier round; propagating once at the end
    # yields the same trajectory as propagating after each round.
    corrected = raw
    if reports:
        rotations, translations, entries = propagate_to_poses(
            raw_points,
            emap.points,
            emap.first_seen,
            raw.quaternions,
            raw.positions,
            [0, *round_frames],
        )
        plog.extend(entries)
        corrected = Trajectory(raw.timestamps, translations, rotations)
    return RunResult(corrected, emap, store, reports, discarded, plog)
