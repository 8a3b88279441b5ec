"""Trajectory alignment and error metrics (ATE, RPE), plus TUM-format I/O
and interpolation of sparse ground truth: a natural cubic spline for
positions, slerp for orientations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import (
    BadRowError, Sim3, Trajectory, check_int, quat_slerp, row_norms, umeyama_alignment,
)

MATCH_TOLERANCE_S = 0.01
ALIGN_MODES = ("similarity", "rigid", "none")


@dataclass(frozen=True)
class MetricsConfig:
    """How a run scores each cell: `evaluate`'s alignment mode and RPE delta."""

    align_mode: str = "similarity"
    rpe_delta: int = 30

    def __post_init__(self):
        if self.align_mode not in ALIGN_MODES:
            raise ValueError(f"align_mode must be one of {ALIGN_MODES}, got {self.align_mode!r}")
        check_int("rpe_delta", self.rpe_delta, 1)

    def check_frames(self, n_frames: int) -> None:
        """Refuse a world of `n_frames` frames, whose trajectories match one
        pose per frame: RPE needs `rpe_delta` below the frame count, and an
        `align_mode` other than "none" needs at least 3 frames."""
        if self.rpe_delta >= n_frames:
            raise ValueError(
                f"metrics rpe_delta {self.rpe_delta} must be below the world's frame count {n_frames}"
            )
        if self.align_mode != "none" and n_frames < 3:
            raise ValueError(
                f"metrics align_mode {self.align_mode!r} needs at least 3 frames, "
                f"the world has {n_frames}"
            )


def write_tum(traj: Trajectory, path, reference=None) -> list[tuple[np.ndarray, list[str]]]:
    """TUM format: `timestamp tx ty tz qx qy qz qw`, 9 significant digits.
    Returns the columns written, as (values, fields) pairs; passed back as
    `reference` to write another trajectory, they lend the fields of every
    column it shares bit for bit."""
    columns = _tum_columns(traj, reference)
    with open(path, "w") as f:
        f.write("".join(chain.from_iterable(zip(*(fields for _, fields in columns)))))
    return columns


def _tum_columns(traj: Trajectory, reference=None) -> list[tuple[np.ndarray, list[str]]]:
    """The eight TUM columns of `traj` as (values, fields) pairs; each field
    is its value in `%.9g` and the separator after it. A column whose float
    bits equal the `reference` column at the same place takes its fields,
    and only the others are formatted."""
    q = traj.quaternions
    values = [traj.timestamps, *traj.positions.T, *q[:, 1:].T, q[:, 0]]
    columns = []
    for k, column in enumerate(values):
        if reference is not None and _same_bits(column, reference[k][0]):
            columns.append(reference[k])
        else:
            template = "%.9g\n" if k == len(values) - 1 else "%.9g "
            columns.append((column, _column_fields(column, template)))
    return columns


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal float bits, so -0.0 and 0.0 differ, as `%.9g` writes them."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _column_fields(values: np.ndarray, template: str) -> list[str]:
    """`template % v` for each value, formatted once per run of equal values
    (equal float bits, so -0.0 and 0.0 stay apart): the TUM columns of a
    ground truth hold long runs. Column by column: temporaries that span
    the whole table raised a run's peak RSS by several MiB."""
    bits = values.view(np.int64)
    run_start = np.ones(len(values), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    # One format call for all runs; formatted floats hold no NUL.
    fields = ((template + "\0") * len(starts) % tuple(values[starts].tolist())).split("\0")
    fields.pop()
    if len(starts) < len(values):
        run_lengths = np.diff(starts, append=len(values))
        fields = np.repeat(np.array(fields, dtype=object), run_lengths).tolist()
    return fields


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


def associate(est: Trajectory, gt: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Greedy one-to-one nearest-timestamp matching in time order, as two
    index arrays: `ei[k]`, `gi[k]` are the est and gt rows of the k-th pair.

    Trajectories on equal timestamps pair row for row: that is the walk's
    answer, since each row is at distance 0 and the next gt row is strictly
    farther. Any other input runs the walk, `_match_walk`. An empty gt,
    which the walk cannot start on, is a ValueError.
    """
    if not len(gt):
        raise ValueError("ground truth trajectory is empty: no poses to match")
    if np.array_equal(est.timestamps, gt.timestamps):
        rows = np.arange(len(gt), dtype=np.intp)
        return rows, rows
    return _match_walk(est.timestamps.tolist(), gt.timestamps.tolist())


def _match_walk(est_times: list[float], gt_times: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The greedy walk: a pointer j into gt starts at row 0; for each est
    time t it steps on while the next row is no farther from t, and on a
    match (distance <= MATCH_TOLERANCE_S) it pairs (i, j) and moves past j."""
    ei: list[int] = []
    gi: list[int] = []
    j = 0
    for i, t in enumerate(est_times):
        while j + 1 < len(gt_times) and abs(gt_times[j + 1] - t) <= abs(gt_times[j] - t):
            j += 1
        if abs(gt_times[j] - t) <= MATCH_TOLERANCE_S:
            ei.append(i)
            gi.append(j)
            j += 1
            if j >= len(gt_times):
                break
    return np.array(ei, dtype=np.intp), np.array(gi, dtype=np.intp)


def _align(est: Trajectory, gt: Trajectory, ei: np.ndarray, gi: np.ndarray, mode: str) -> Sim3:
    """Least-squares transform taking est positions onto gt positions;
    `mode` is one of ALIGN_MODES."""
    if mode == "none":
        return Sim3.identity()
    if len(ei) < 3:
        raise ValueError(f"need at least 3 matched pose pairs to align, got {len(ei)}")
    src, dst = np.take(est.positions, ei, axis=0), np.take(gt.positions, gi, axis=0)
    return umeyama_alignment(src, dst, with_scale=(mode == "similarity"))


def _rmse(errs: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(errs))))


def ate(est: Trajectory, gt: Trajectory, ei: np.ndarray, gi: np.ndarray, alignment: Sim3) -> float:
    """RMSE of matched position differences after `alignment` (meters)."""
    if not len(ei):
        raise ValueError("no matched pose pairs")
    moved = alignment.apply(np.take(est.positions, ei, axis=0))
    return _rmse(row_norms(np.take(gt.positions, gi, axis=0) - moved))


def rpe(est: Trajectory, gt: Trajectory, ei: np.ndarray, gi: np.ndarray, delta: int) -> float:
    """RMSE of the translational magnitude of relative-pose discrepancies
    between matched rows `delta` pairs apart (meters)."""
    check_int("rpe_delta", delta, 1)
    if len(ei) < 2:
        raise ValueError(f"need at least 2 matched poses for RPE, got {len(ei)}")
    if len(ei) <= delta:
        raise ValueError(f"no index pairs at delta={delta}")
    # Stacks of poses through the same Sim3 chain as one pair at a time.
    rel_gt = gt.pose(gi[:-delta]).inverse().compose(gt.pose(gi[delta:]))
    rel_est = est.pose(ei[:-delta]).inverse().compose(est.pose(ei[delta:]))
    # The translation of `rel_gt.inverse().compose(rel_est)`, the one part
    # scored, by the expression `compose` forms it with, and no rotation.
    return _rmse(row_norms(rel_gt.inverse().apply(rel_est.translation)))


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
    config: MetricsConfig  # the settings scored under
    n_matched: int
    alignment: Sim3

    def to_json(self) -> dict:
        return {
            "ate_rmse": self.ate_rmse,
            "rpe_rmse": self.rpe_rmse,
            "align_mode": self.config.align_mode,
            "rpe_delta": self.config.rpe_delta,
            "n_matched": self.n_matched,
            "alignment": {
                "scale": self.alignment.scale,
                "rotation_wxyz": list(self.alignment.rotation),
                "translation": list(self.alignment.translation),
            },
        }


def evaluate(
    est: Trajectory, gt: Trajectory, config: MetricsConfig = MetricsConfig()
) -> MetricsReport:
    """ATE and RPE under `config` from one association and one alignment."""
    ei, gi = associate(est, gt)
    t = _align(est, gt, ei, gi, config.align_mode)
    return MetricsReport(
        ate_rmse=ate(est, gt, ei, gi, t),
        rpe_rmse=rpe(est, gt, ei, gi, config.rpe_delta),
        config=config,
        n_matched=len(ei),
        alignment=t,
    )
