"""Trajectory alignment and error metrics (ATE, RPE), plus TUM-format I/O
and natural cubic spline interpolation of sparse ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .geometry import PoseSE3, Sim3, quat_multiply, umeyama_alignment

DEFAULT_MATCH_TOLERANCE_S = 0.01
DEFAULT_RPE_DELTA = 30
ALIGN_MODES = ("similarity", "rigid", "none")


@dataclass(frozen=True)
class Trajectory:
    timestamps: np.ndarray  # (n,), seconds, strictly increasing
    positions: np.ndarray  # (n, 3)
    quaternions: np.ndarray  # (n, 4), [w, x, y, z]

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        ps = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        qs = np.asarray(self.quaternions, dtype=float).reshape(-1, 4)
        if not (len(ts) == len(ps) == len(qs)):
            raise ValueError("trajectory arrays must have matching lengths")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("trajectory timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "positions", ps)
        object.__setattr__(self, "quaternions", qs)

    def __len__(self) -> int:
        return len(self.timestamps)

    def pose(self, i: int) -> PoseSE3:
        return PoseSE3(self.quaternions[i], self.positions[i])

    @staticmethod
    def from_poses(timestamps, poses) -> "Trajectory":
        return Trajectory(
            np.asarray(timestamps, dtype=float),
            np.array([p.translation for p in poses]).reshape(-1, 3),
            np.array([p.rotation for p in poses]).reshape(-1, 4),
        )

    def transformed(self, t: Sim3) -> "Trajectory":
        qs = np.array([quat_multiply(t.rotation, q) for q in self.quaternions]).reshape(-1, 4)
        ps = np.array([t.apply(p) for p in self.positions]).reshape(-1, 3)
        return Trajectory(self.timestamps.copy(), ps, qs)


def write_tum(traj: Trajectory, path) -> None:
    """TUM format: `timestamp tx ty tz qx qy qz qw`, 9 significant digits."""
    with open(path, "w") as f:
        for t, p, q in zip(traj.timestamps, traj.positions, traj.quaternions):
            fields = [t, p[0], p[1], p[2], q[1], q[2], q[3], q[0]]
            f.write(" ".join(f"{v:.9g}" for v in fields) + "\n")


def read_tum(path) -> Trajectory:
    timestamps, positions, quaternions = [], [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 8:
                raise ValueError(
                    f"{path}:{lineno}: expected 8 fields "
                    f"(timestamp tx ty tz qx qy qz qw), got {len(parts)}"
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field: {exc}") from exc
            timestamps.append(vals[0])
            positions.append(vals[1:4])
            qx, qy, qz, qw = vals[4:8]
            quaternions.append([qw, qx, qy, qz])
    if not timestamps:
        raise ValueError(f"{path}: empty trajectory file")
    return Trajectory(np.array(timestamps), np.array(positions), np.array(quaternions))


def associate(
    est: Trajectory, gt: Trajectory, tolerance: float = DEFAULT_MATCH_TOLERANCE_S
) -> list[tuple[int, int]]:
    """Greedy one-to-one nearest-timestamp matching in time order."""
    pairs: list[tuple[int, int]] = []
    j = 0
    for i, t in enumerate(est.timestamps):
        while j + 1 < len(gt) and abs(gt.timestamps[j + 1] - t) <= abs(gt.timestamps[j] - t):
            j += 1
        if abs(gt.timestamps[j] - t) <= tolerance:
            pairs.append((i, j))
            j += 1
            if j >= len(gt):
                break
    return pairs


def align(
    est: Trajectory,
    gt: Trajectory,
    mode: str = "similarity",
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> Sim3:
    """Least-squares transform taking est positions onto gt positions."""
    if mode not in ALIGN_MODES:
        raise ValueError(f"unknown alignment mode {mode!r}; choose from {ALIGN_MODES}")
    if mode == "none":
        return Sim3.identity()
    pairs = associate(est, gt, tolerance)
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 matched pose pairs to align, got {len(pairs)}")
    ei = np.array([i for i, _ in pairs])
    gi = np.array([j for _, j in pairs])
    return umeyama_alignment(est.positions[ei], gt.positions[gi], with_scale=(mode == "similarity"))


def ate(
    est: Trajectory,
    gt: Trajectory,
    mode: str = "similarity",
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> float:
    """RMSE of aligned position differences over matched pairs (meters)."""
    t = align(est, gt, mode, tolerance)
    pairs = associate(est, gt, tolerance)
    if not pairs:
        raise ValueError("no matched pose pairs")
    errs = [np.linalg.norm(gt.positions[j] - t.apply(est.positions[i])) for i, j in pairs]
    return float(np.sqrt(np.mean(np.square(errs))))


def rpe(
    est: Trajectory,
    gt: Trajectory,
    delta: int = DEFAULT_RPE_DELTA,
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> float:
    """RMSE of the translational magnitude of relative-pose discrepancies
    over a fixed frame delta (meters)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    pairs = associate(est, gt, tolerance)
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 matched poses for RPE, got {len(pairs)}")
    errs = []
    for k in range(len(pairs) - delta):
        i0, j0 = pairs[k]
        i1, j1 = pairs[k + delta]
        rel_gt = gt.pose(j0).inverse().compose(gt.pose(j1))
        rel_est = est.pose(i0).inverse().compose(est.pose(i1))
        err = rel_gt.inverse().compose(rel_est)
        errs.append(np.linalg.norm(err.translation))
    if not errs:
        raise ValueError(f"no index pairs at delta={delta}")
    return float(np.sqrt(np.mean(np.square(errs))))


def spline_interpolate(
    times: np.ndarray, positions: np.ndarray, query_times: np.ndarray
) -> np.ndarray:
    """Natural cubic spline per coordinate; exact at control points.

    Requires >= 4 control points; refuses to extrapolate.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float).reshape(len(times), -1)
    query_times = np.asarray(query_times, dtype=float)
    if len(times) < 4:
        raise ValueError(f"need at least 4 control points, got {len(times)}")
    if not np.all(np.diff(times) > 0):
        raise ValueError("control timestamps must be strictly increasing")
    if query_times.size and (
        query_times.min() < times[0] or query_times.max() > times[-1]
    ):
        raise ValueError("query timestamps outside the control range (no extrapolation)")
    spline = CubicSpline(times, positions, axis=0, bc_type="natural")
    return spline(query_times)


@dataclass(frozen=True)
class MetricsReport:
    ate_rmse: float
    rpe_rmse: float
    align_mode: str
    rpe_delta: int
    n_matched: int
    alignment: Sim3

    def to_json(self) -> dict:
        return {
            "ate_rmse": self.ate_rmse,
            "rpe_rmse": self.rpe_rmse,
            "align_mode": self.align_mode,
            "rpe_delta": self.rpe_delta,
            "n_matched": self.n_matched,
            "alignment": {
                "scale": self.alignment.scale,
                "rotation_wxyz": list(self.alignment.rotation),
                "translation": list(self.alignment.translation),
            },
        }


def evaluate(
    est: Trajectory,
    gt: Trajectory,
    mode: str = "similarity",
    delta: int = DEFAULT_RPE_DELTA,
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> MetricsReport:
    pairs = associate(est, gt, tolerance)
    return MetricsReport(
        ate_rmse=ate(est, gt, mode, tolerance),
        rpe_rmse=rpe(est, gt, delta, tolerance),
        align_mode=mode,
        rpe_delta=delta,
        n_matched=len(pairs),
        alignment=align(est, gt, mode, tolerance),
    )
