"""Trajectory alignment and error metrics (ATE, RPE), plus TUM-format I/O
and interpolation of sparse ground truth: a natural cubic spline for
positions, slerp for orientations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import BadRowError, Sim3, Trajectory, quat_slerp, row_norms, umeyama_alignment
from .worldgen import check_int, check_real

DEFAULT_MATCH_TOLERANCE_S = 0.01
DEFAULT_RPE_DELTA = 30
ALIGN_MODES = ("similarity", "rigid", "none")


@dataclass(frozen=True)
class MetricsConfig:
    """How a run scores each cell: `evaluate`'s alignment mode and RPE delta."""

    align_mode: str = "similarity"
    rpe_delta: int = DEFAULT_RPE_DELTA

    def __post_init__(self):
        if self.align_mode not in ALIGN_MODES:
            raise ValueError(f"align_mode must be one of {ALIGN_MODES}, got {self.align_mode!r}")
        check_int("rpe_delta", self.rpe_delta, 1)


def write_tum(traj: Trajectory, path) -> str:
    """TUM format: `timestamp tx ty tz qx qy qz qw`, 9 significant digits.
    Returns the text written, for writing the same trajectory elsewhere."""
    q = traj.quaternions
    columns = [traj.timestamps, *traj.positions.T, *q[:, 1:].T, q[:, 0]]
    fields = [_column_fields(c, "%.9g ") for c in columns[:-1]]
    fields.append(_column_fields(columns[-1], "%.9g\n"))
    text = "".join(chain.from_iterable(zip(*fields)))
    with open(path, "w") as f:
        f.write(text)
    return text


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


def associate(
    est: Trajectory, gt: Trajectory, tolerance: float = DEFAULT_MATCH_TOLERANCE_S
) -> list[tuple[int, int]]:
    """Greedy one-to-one nearest-timestamp matching in time order."""
    ei, gi = _match(est, gt, tolerance)
    return list(zip(ei.tolist(), gi.tolist()))


# Scoring runs on matched index arrays: `ei[k]`, `gi[k]` are the est and gt
# rows of the k-th associated pair. `evaluate` matches once and hands the
# same arrays to all three helpers; the public `align`, `ate` and `rpe` are
# thin wrappers that match for themselves.


def _match(est: Trajectory, gt: Trajectory, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """`associate` as two index arrays, est rows then gt rows.

    `associate` is a greedy walk: a pointer j into gt starts at row 0; for
    each est time t it steps on while the next row is no farther from t,
    and on a match (distance <= tolerance) it pairs (i, j) and moves past j.
    With d(j) = |g[j] - t| as computed in floats, the walk is answered with
    array operations whenever they can prove where it stops:

    - With G gt rows, let k = searchsorted(g, t, "right") - 1, clipped to
      [0, G - 2], and the landing L = k + 1 if d(k + 1) <= d(k), else k.
      For j < k, g[j] < g[j + 1] <= t, and rounding is monotone, so
      d(j) >= d(j + 1): a walk that starts at or before L passes to L.
    - It stops at L if L is the last row or d(L + 1) > d(L) (no rounding
      plateau after L); for L = k that holds by the choice of L.
    - If the landings strictly increase from one est row to the next, the
      pointer after row i (L_i, or L_i + 1 on a match) is at or before
      L_{i + 1}, and only the last est row can land on the last gt row, so
      the walk's early exit skips no row. The pointer then equals the
      landing on every row, and a row matches when d(L) <= tolerance.

    Any other input (a dense estimate, a one-row gt, est times before or
    after all of gt, timestamps so large that neighbouring distances round
    equal) runs the walk itself, `_match_walk`. An empty gt, which the
    walk cannot start on, is a ValueError.
    """
    check_real("tolerance", tolerance, 0)
    te, tg = est.timestamps, gt.timestamps
    if not len(tg):
        raise ValueError("ground truth trajectory is empty: no poses to match")
    if len(tg) >= 2:
        last = len(tg) - 1
        k = np.clip(np.searchsorted(tg, te, "right") - 1, 0, last - 1)
        near, far = np.abs(tg[k] - te), np.abs(tg[k + 1] - te)
        landing = k + (far <= near)
        dist = np.minimum(near, far)
        after = np.abs(tg[np.minimum(landing + 1, last)] - te)
        if ((landing == last) | (after > dist)).all() and (landing[1:] > landing[:-1]).all():
            hit = dist <= tolerance
            return np.flatnonzero(hit), landing[hit]
    return _match_walk(te.tolist(), tg.tolist(), tolerance)


def _match_walk(
    est_times: list[float], gt_times: list[float], tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """The greedy walk of `_match`, one est row at a time."""
    ei: list[int] = []
    gi: list[int] = []
    j = 0
    for i, t in enumerate(est_times):
        while j + 1 < len(gt_times) and abs(gt_times[j + 1] - t) <= abs(gt_times[j] - t):
            j += 1
        if abs(gt_times[j] - t) <= tolerance:
            ei.append(i)
            gi.append(j)
            j += 1
            if j >= len(gt_times):
                break
    return np.array(ei, dtype=np.intp), np.array(gi, dtype=np.intp)


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
    return _align(est, gt, *_match(est, gt, tolerance), mode)


def ate(
    est: Trajectory,
    gt: Trajectory,
    mode: str = "similarity",
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> float:
    """RMSE of aligned position differences over matched pairs (meters)."""
    ei, gi = _match(est, gt, tolerance)
    return _ate(est, gt, ei, gi, _align(est, gt, ei, gi, mode))


def rpe(
    est: Trajectory,
    gt: Trajectory,
    delta: int = DEFAULT_RPE_DELTA,
    tolerance: float = DEFAULT_MATCH_TOLERANCE_S,
) -> float:
    """RMSE of the translational magnitude of relative-pose discrepancies
    over a fixed frame delta (meters)."""
    check_int("delta", delta, 1)
    return _rpe(est, gt, *_match(est, gt, tolerance), delta)


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
    check_int("delta", delta, 1)
    ei, gi = _match(est, gt, tolerance)
    t = _align(est, gt, ei, gi, mode)
    return MetricsReport(
        ate_rmse=_ate(est, gt, ei, gi, t),
        rpe_rmse=_rpe(est, gt, ei, gi, delta),
        align_mode=mode,
        rpe_delta=delta,
        n_matched=len(ei),
        alignment=t,
    )
