"""Trajectory alignment and error metrics (ATE, RPE), plus TUM-format I/O
and interpolation of sparse ground truth: a natural cubic spline for
positions, slerp for orientations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PoseSE3, Sim3, quat_slerp, row_norms, umeyama_alignment

DEFAULT_MATCH_TOLERANCE_S = 0.01
DEFAULT_RPE_DELTA = 30
ALIGN_MODES = ("similarity", "rigid", "none")


class BadRowError(ValueError):
    """A trajectory row failed an input check; `row` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"trajectory row {row}: {reason}")
        self.row = row
        self.reason = reason


@dataclass(frozen=True)
class Trajectory:
    timestamps: np.ndarray  # (n,), seconds, strictly increasing
    positions: np.ndarray  # (n, 3)
    quaternions: np.ndarray  # (n, 4), [w, x, y, z], any nonzero norm

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        ps = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        qs = np.asarray(self.quaternions, dtype=float).reshape(-1, 4)
        if not (len(ts) == len(ps) == len(qs)):
            raise ValueError("trajectory arrays must have matching lengths")
        for name, values in (("timestamp", ts), ("position", ps), ("quaternion", qs)):
            bad = ~np.isfinite(values)
            if bad.any():
                row = int(np.argmax(bad.reshape(len(values), -1).any(axis=1)))
                raise BadRowError(row, f"non-finite {name}")
        zero = row_norms(qs) == 0.0
        if zero.any():
            raise BadRowError(int(np.argmax(zero)), "zero-norm quaternion")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("trajectory timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "positions", ps)
        object.__setattr__(self, "quaternions", qs)

    def __len__(self) -> int:
        return len(self.timestamps)

    def pose(self, i) -> PoseSE3:
        """Pose i; an index array gives the stack of those poses."""
        return PoseSE3(self.quaternions[i], self.positions[i])


_TUM_ROW = "%.9g " * 7 + "%.9g\n"


def write_tum(traj: Trajectory, path) -> str:
    """TUM format: `timestamp tx ty tz qx qy qz qw`, 9 significant digits.
    Returns the text written, for writing the same trajectory elsewhere."""
    q = traj.quaternions
    rows = np.column_stack([traj.timestamps, traj.positions, q[:, 1:], q[:, :1]])
    text = (_TUM_ROW * len(rows)) % tuple(rows.ravel().tolist())
    with open(path, "w") as f:
        f.write(text)
    return text


def read_tum(path) -> Trajectory:
    timestamps, positions, quaternions, linenos = [], [], [], []
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
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
        linenos.append(lineno)
    if not timestamps:
        raise ValueError(f"{path}: empty trajectory file")
    try:
        return Trajectory(np.array(timestamps), np.array(positions), np.array(quaternions))
    except BadRowError as exc:
        raise ValueError(f"{path}:{linenos[exc.row]}: {exc.reason}") from None


def associate(
    est: Trajectory, gt: Trajectory, tolerance: float = DEFAULT_MATCH_TOLERANCE_S
) -> list[tuple[int, int]]:
    """Greedy one-to-one nearest-timestamp matching in time order."""
    gts = gt.timestamps.tolist()
    pairs: list[tuple[int, int]] = []
    j = 0
    for i, t in enumerate(est.timestamps.tolist()):
        while j + 1 < len(gts) and abs(gts[j + 1] - t) <= abs(gts[j] - t):
            j += 1
        if abs(gts[j] - t) <= tolerance:
            pairs.append((i, j))
            j += 1
            if j >= len(gts):
                break
    return pairs


# Scoring runs on matched index arrays: `ei[k]`, `gi[k]` are the est and gt
# rows of the k-th associated pair. `evaluate` associates once and hands the
# same arrays to all three helpers; the public `align`, `ate` and `rpe` are
# thin wrappers that associate for themselves.


def _pair_indices(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return idx[:, 0], idx[:, 1]


def _align(est: Trajectory, gt: Trajectory, ei: np.ndarray, gi: np.ndarray, mode: str) -> Sim3:
    if mode not in ALIGN_MODES:
        raise ValueError(f"unknown alignment mode {mode!r}; choose from {ALIGN_MODES}")
    if mode == "none":
        return Sim3.identity()
    if len(ei) < 3:
        raise ValueError(f"need at least 3 matched pose pairs to align, got {len(ei)}")
    return umeyama_alignment(est.positions[ei], gt.positions[gi], with_scale=(mode == "similarity"))


def _rmse(errs: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(errs))))


def _ate(est: Trajectory, gt: Trajectory, ei: np.ndarray, gi: np.ndarray, t: Sim3) -> float:
    if not len(ei):
        raise ValueError("no matched pose pairs")
    return _rmse(row_norms(gt.positions[gi] - t.apply(est.positions[ei])))


def _rpe(est: Trajectory, gt: Trajectory, ei: np.ndarray, gi: np.ndarray, delta: int) -> float:
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if len(ei) < 2:
        raise ValueError(f"need at least 2 matched poses for RPE, got {len(ei)}")
    if len(ei) <= delta:
        raise ValueError(f"no index pairs at delta={delta}")
    # Stacks of poses through the same PoseSE3 chain as one pair at a time.
    rel_gt = gt.pose(gi[:-delta]).inverse().compose(gt.pose(gi[delta:]))
    rel_est = est.pose(ei[:-delta]).inverse().compose(est.pose(ei[delta:]))
    err = rel_gt.inverse().compose(rel_est)
    return _rmse(row_norms(err.translation))


def align(
    est: Trajectory,
    gt: Trajectory,
    mode: str = "similarity",
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> Sim3:
    """Least-squares transform taking est positions onto gt positions."""
    return _align(est, gt, *_pair_indices(associate(est, gt, tolerance)), mode)


def ate(
    est: Trajectory,
    gt: Trajectory,
    mode: str = "similarity",
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> float:
    """RMSE of aligned position differences over matched pairs (meters)."""
    ei, gi = _pair_indices(associate(est, gt, tolerance))
    return _ate(est, gt, ei, gi, _align(est, gt, ei, gi, mode))


def rpe(
    est: Trajectory,
    gt: Trajectory,
    delta: int = DEFAULT_RPE_DELTA,
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> float:
    """RMSE of the translational magnitude of relative-pose discrepancies
    over a fixed frame delta (meters)."""
    return _rpe(est, gt, *_pair_indices(associate(est, gt, tolerance)), delta)


def _spans(times: np.ndarray, query_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Span k of each query time t, times[k] <= t <= times[k + 1] (the last
    knot takes the last span), and u = (t - times[k]) / (times[k + 1] - times[k])."""
    k = np.clip(np.searchsorted(times, query_times, side="right") - 1, 0, len(times) - 2)
    return k, (query_times - times[k]) / (times[k + 1] - times[k])


def spline_interpolate(
    times: np.ndarray, positions: np.ndarray, query_times: np.ndarray
) -> np.ndarray:
    """Natural cubic spline per coordinate; exact at control points.

    Requires >= 4 finite control points; refuses non-finite query times and
    extrapolation. (n, d) positions give (q, d); (n,) positions give (q, 1).
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float).reshape(len(times), -1)
    query_times = np.asarray(query_times, dtype=float)
    if len(times) < 4:
        raise ValueError(f"need at least 4 control points, got {len(times)}")
    if not (np.isfinite(times).all() and np.isfinite(positions).all()):
        raise ValueError("control timestamps and positions must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError("control timestamps must be strictly increasing")
    if not np.isfinite(query_times).all():
        raise ValueError("query timestamps must be finite")
    if query_times.size and (
        query_times.min() < times[0] or query_times.max() > times[-1]
    ):
        raise ValueError("query timestamps outside the control range (no extrapolation)")
    # Second derivatives m at the knots: zero at both ends, the interior from
    # h[i] m[i] + 2 (h[i] + h[i+1]) m[i+1] + h[i+1] m[i+2] = 6 (slope[i+1] - slope[i]),
    # solved by one Thomas sweep down and back, all columns at once.
    h = np.diff(times)
    rhs = 6.0 * np.diff(np.diff(positions, axis=0) / h[:, None], axis=0)
    sub, diag, ratio = h[:-1].tolist(), (2.0 * (h[:-1] + h[1:])).tolist(), h[1:].tolist()
    prev_ratio, prev_rhs = 0.0, 0.0
    for i in range(len(rhs)):
        w = diag[i] - sub[i] * prev_ratio
        prev_ratio = ratio[i] = ratio[i] / w
        prev_rhs = rhs[i] = (rhs[i] - sub[i] * prev_rhs) / w
    m = np.zeros_like(positions)
    for i in range(len(rhs) - 1, -1, -1):
        m[i + 1] = rhs[i] - ratio[i] * m[i + 2]
    # On its span, with v = 1 - u: v y[k] + u y[k+1] + h^2/6 ((v^3 - v) m[k] + (u^3 - u) m[k+1]).
    k, u = _spans(times, query_times)
    u = u[..., None]
    v = 1.0 - u
    curve = (h[k] ** 2 / 6.0)[..., None] * ((v**3 - v) * m[k] + (u**3 - u) * m[k + 1])
    return v * positions[k] + u * positions[k + 1] + curve


def interpolate_trajectory(traj: Trajectory, timestamps: np.ndarray) -> Trajectory:
    """`traj` at `timestamps`: positions from `spline_interpolate`, orientations
    slerped between the two poses that bracket each timestamp."""
    timestamps = np.array(timestamps, dtype=float)
    positions = spline_interpolate(traj.timestamps, traj.positions, timestamps)
    k, u = _spans(traj.timestamps, timestamps)
    q = traj.quaternions
    return Trajectory(timestamps, positions, quat_slerp(q[k], q[k + 1], u))


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
    """ATE and RPE from one association and one alignment."""
    ei, gi = _pair_indices(associate(est, gt, tolerance))
    t = _align(est, gt, ei, gi, mode)
    return MetricsReport(
        ate_rmse=_ate(est, gt, ei, gi, t),
        rpe_rmse=_rpe(est, gt, ei, gi, delta),
        align_mode=mode,
        rpe_delta=delta,
        n_matched=len(ei),
        alignment=t,
    )
