"""Quaternion and similarity transform arithmetic, `Trajectory`, the one
checked container of a timed pose sequence, and the input checks every
settings class shares.

Rotations are stored as unit quaternions in [w, x, y, z] order and
converted to matrices on demand; quaternion composition stays numerically
stable over long chains of small increments, which matters for the drift
random walks simulated elsewhere.

The quaternion helpers broadcast over leading axes (`q[..., k]`), so
`Sim3` also works on stacks of poses and points with the same float
operations, in the same order, as one at a time. A rigid camera pose is a
`Sim3` of scale 1.0, whose `1.0 *` and `/ 1.0` are exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is an integer, not a bool, >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, minimum=None, strict: bool = False) -> None:
    """Raise ValueError unless value is a finite real number, not a bool,
    and, given a minimum, above it (strict) or at least it. An int too
    large for a float is not finite."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and not (value > minimum if strict else value >= minimum):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {minimum}, got {value!r}")


def refuse_first(bad: np.ndarray, message) -> None:
    """Raise ValueError(message(i)) at the first index i where `bad` holds."""
    if bad.any():
        raise ValueError(message(int(np.argmax(bad))))


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def _split(q: np.ndarray):
    """The components along the last axis: numpy scalars for one vector,
    views for a stack. A benchmark cell takes the one-vector path 6-16
    times and `_join`'s scalar branch never; the tests' frame-by-frame
    references take both, and without them the front-end, metrics and
    geometry tests ran 20-30 % slower."""
    return q if q.ndim == 1 else [q[..., k] for k in range(q.shape[-1])]


def _join(parts: list) -> np.ndarray:
    """Inverse of `_split`: the equal-shape components side by side along a
    new last axis, as `np.stack(parts, axis=-1)` lays them out."""
    if not isinstance(parts[0], np.ndarray):
        return np.array(parts)
    out = np.empty(parts[0].shape + (len(parts),))
    for k, part in enumerate(parts):
        out[..., k] = part
    return out


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, equal bit for bit to
    `np.linalg.norm` of each row: both reduce through a dot product.
    (`einsum` or `xyz_norms`' explicit squares round differently.)"""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return np.sqrt(v.dot(v))
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def xyz_norms(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Norms of the vectors with equal-shape coordinate arrays x, y, z, as
    sqrt((x*x + y*y) + z*z) in one buffer: `np.linalg.norm(v, axis=-1)`."""
    sq = x * x
    sq += y * y
    sq += z * z
    return np.sqrt(sq, out=sq)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = row_norms(q)
    if q.ndim == 1:
        if n == 0.0:
            raise ValueError("cannot normalize zero quaternion")
        return q / n
    if not n.all():
        raise ValueError("cannot normalize zero quaternion")
    return q / n[..., None]


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = _split(np.asarray(a, dtype=float))
    bw, bx, by, bz = _split(np.asarray(b, dtype=float))
    return _join(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


_CONJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) * _CONJUGATE_SIGNS


def quat_from_axis_angle(axis: np.ndarray, angle) -> np.ndarray:
    """The rotation by `angle` radians about `axis`. Axes (n, 3) and angles
    (n,) broadcast to n quaternions, each the bits of a one-vector call."""
    axis = np.asarray(axis, dtype=float)
    n = row_norms(axis)
    if not np.all(n):
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * np.asarray(angle, dtype=float)[..., None]
    return np.concatenate([np.cos(half), np.sin(half) * axis / n[..., None]], axis=-1)


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Shepperd's method, branching on the largest diagonal combination."""
    m = np.asarray(m, dtype=float)
    t = np.trace(m)
    if t > 0:
        r = np.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array(
            [0.5 * r, (m[2, 1] - m[1, 2]) * s, (m[0, 2] - m[2, 0]) * s, (m[1, 0] - m[0, 1]) * s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(1.0 + m[i, i] - m[j, j] - m[k, k])
        s = 0.5 / r
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) * s
        q[1 + i] = 0.5 * r
        q[1 + j] = (m[j, i] + m[i, j]) * s
        q[1 + k] = (m[k, i] + m[i, k]) * s
    return quat_normalize(q)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    # q v q* expanded; cheaper and as accurate as forming the matrix.
    # Cross products written out component-wise: np.cross dominates the
    # profile when this is called once per frame per correction round.
    w, ux, uy, uz = _split(np.asarray(q, dtype=float))
    vx, vy, vz = _split(np.asarray(v, dtype=float))
    ax = uy * vz - uz * vy + w * vx
    ay = uz * vx - ux * vz + w * vy
    az = ux * vy - uy * vx + w * vz
    return _join(
        [
            vx + 2.0 * (uy * az - uz * ay),
            vy + 2.0 * (uz * ax - ux * az),
            vz + 2.0 * (ux * ay - uy * ax),
        ]
    )


def quat_slerp(a: np.ndarray, b: np.ndarray, u: float | np.ndarray) -> np.ndarray:
    """Spherical interpolation from a (u = 0) to b (u = 1) along the shorter
    arc, one pair or row-wise over equal-length stacks of a, b and u: row k
    gives the same bits as one call on row k."""
    a = quat_normalize(a)
    b = quat_normalize(b)
    dot = (a[..., None, :] @ b[..., :, None])[..., 0, 0]
    flip = dot < 0.0
    b = np.where(flip[..., None], -b, b)
    dot = np.where(flip, -dot, dot)
    u = np.asarray(u, dtype=float)[..., None]
    lerp = quat_normalize(a + u * (b - a))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # theta 0 takes the lerp
        arc = (np.sin((1 - u) * theta) * a + np.sin(u * theta) * b) / np.sin(theta)
    return np.where((dot > 1.0 - 1e-12)[..., None], lerp, arc)


@dataclass(frozen=True)
class Sim3:
    """Similarity transform p -> scale * R(rotation) * p + translation.

    A transform built from (n, 4) / (n, 3) arrays is a stack of n."""

    scale: float
    rotation: np.ndarray  # unit quaternion [w, x, y, z]
    translation: np.ndarray

    def __post_init__(self):
        check_real("scale", self.scale, 0, strict=True)
        object.__setattr__(self, "rotation", quat_normalize(self.rotation))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))

    @staticmethod
    def identity() -> "Sim3":
        return Sim3(1.0, quat_identity(), np.zeros(3))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.scale * quat_rotate(self.rotation, np.asarray(p, dtype=float)) + self.translation

    def compose(self, other: "Sim3") -> "Sim3":
        """Returns t with t.apply(p) == self.apply(other.apply(p))."""
        return Sim3(
            self.scale * other.scale,
            quat_multiply(self.rotation, other.rotation),
            self.scale * quat_rotate(self.rotation, other.translation) + self.translation,
        )

    def inverse(self) -> "Sim3":
        qinv = quat_conjugate(self.rotation)
        return Sim3(
            1.0 / self.scale,
            qinv,
            -quat_rotate(qinv, self.translation) / self.scale,
        )


class BadRowError(ValueError):
    """A trajectory row failed an input check; `row` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"trajectory row {row}: {reason}")
        self.row = row
        self.reason = reason


@dataclass(frozen=True)
class Trajectory:
    """A timed pose sequence, held as read-only copies of its arrays."""

    timestamps: np.ndarray  # (n,), seconds, strictly increasing
    positions: np.ndarray  # (n, 3)
    quaternions: np.ndarray  # (n, 4), [w, x, y, z], any nonzero finite norm

    def __post_init__(self):
        ts = np.array(self.timestamps, dtype=float)
        ps = np.array(self.positions, dtype=float)
        qs = np.array(self.quaternions, dtype=float)
        n = len(ts) if ts.ndim else -1
        arrays = {"timestamps": ts, "positions": ps, "quaternions": qs}
        for (name, array), shape in zip(arrays.items(), [(n,), (n, 3), (n, 4)]):
            if array.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
        # Whole-array tests first: the per-row masks cost ten times as much.
        valid = np.isfinite(ts).all() and np.isfinite(ps).all() and np.isfinite(qs).all()
        if valid:
            with np.errstate(over="ignore"):
                norms = row_norms(qs)
            valid = np.isfinite(norms).all() and norms.all() and (ts[1:] > ts[:-1]).all()
        if not valid:
            raise _first_bad_row(ts, ps, qs)
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.timestamps)

    def pose(self, i) -> Sim3:
        """Pose i, the rigid transform taking camera to world coordinates;
        an integer index array gives the stack of those poses. The rows are
        gathered by `np.take`, which reads a boolean mask as rows 0 and 1,
        so a mask is refused."""
        if np.asarray(i).dtype == bool:
            raise ValueError("pose index must be an int or an integer index array, got a boolean index")
        return Sim3(1.0, np.take(self.quaternions, i, axis=0), np.take(self.positions, i, axis=0))


def _first_bad_row(ts: np.ndarray, ps: np.ndarray, qs: np.ndarray) -> BadRowError:
    """The error for the first row that fails any check. Within a row the
    checks run in this order: timestamp, position, quaternion, zero norm,
    overflowing norm, time not after the previous row's."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = row_norms(qs)
    late = np.zeros(len(ts), dtype=bool)
    late[1:] = ~(ts[1:] > ts[:-1])
    checks = {
        "non-finite timestamp": ~np.isfinite(ts),
        "non-finite position": ~np.isfinite(ps).all(axis=1),
        "non-finite quaternion": ~np.isfinite(qs).all(axis=1),
        "zero-norm quaternion": norms == 0.0,
        "quaternion norm overflows": ~np.isfinite(norms),
        "timestamps must be strictly increasing": late,
    }
    row = int(np.argmax(np.logical_or.reduce(list(checks.values()))))
    reason = next(reason for reason, bad in checks.items() if bad[row])
    if reason.startswith("timestamps"):
        before, after = ts[row - 1 : row + 1].tolist()
        reason += f", got {after!r} after {before!r}"
    return BadRowError(row, reason)


def umeyama_alignment(src: np.ndarray, dst: np.ndarray, with_scale: bool = True) -> Sim3:
    """Closed-form least-squares similarity (or rigid) transform src -> dst.

    src, dst: (n, 3) matched point sets, n >= 3. with_scale=False forces
    scale 1. Raises on degenerate (zero-variance) source sets.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("point sets must be matched (n, 3) arrays")
    n = src.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 point pairs, got {n}")

    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    cov = xd.T @ xs / n
    var_s = (xs * xs).sum() / n
    if var_s == 0.0:
        raise ValueError("source points are coincident; transform is undetermined")

    u, d, vt = np.linalg.svd(cov)
    sgn = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sgn[2] = -1.0
    rot = u @ np.diag(sgn) @ vt
    scale = float((d * sgn).sum() / var_s) if with_scale else 1.0
    if not scale > 0:
        raise ValueError("recovered non-positive scale; point sets are degenerate")
    trans = mu_d - scale * rot @ mu_s
    return Sim3(scale, quat_from_matrix(rot), trans)
