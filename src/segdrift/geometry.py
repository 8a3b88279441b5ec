"""Quaternion, rigid-body and similarity transform arithmetic.

Rotations are stored as unit quaternions in [w, x, y, z] order and
converted to matrices on demand; quaternion composition stays numerically
stable over long chains of small increments, which matters for the drift
random walks simulated elsewhere.

The quaternion helpers broadcast over leading axes (`q[..., k]`), so
`PoseSE3` and `Sim3.apply` also work on stacks of poses and points with
the same float operations, in the same order, as one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def _split(q: np.ndarray):
    """The components along the last axis: numpy scalars for one vector
    (the cheap case, taken thousands of times per run), arrays for a stack."""
    return q if q.ndim == 1 else np.moveaxis(q, -1, 0)


def _join(parts: list) -> np.ndarray:
    """Inverse of `_split`: stack the components along a new last axis."""
    return np.stack(parts, axis=-1) if isinstance(parts[0], np.ndarray) else np.array(parts)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, equal bit for bit to
    `np.linalg.norm` of each row: both reduce through a dot product.
    (`einsum` or an explicit sum of squares round differently.)"""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return np.sqrt(v.dot(v))
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


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


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis / n])


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
    """Similarity transform p -> scale * R(rotation) * p + translation."""

    scale: float
    rotation: np.ndarray  # unit quaternion [w, x, y, z]
    translation: np.ndarray

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
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


@dataclass(frozen=True)
class PoseSE3:
    """Rigid camera pose: world point of a camera-frame point v is R v + t.

    A pose built from (n, 4) / (n, 3) arrays is a stack of n poses."""

    rotation: np.ndarray  # unit quaternion [w, x, y, z]
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", quat_normalize(self.rotation))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))

    def apply(self, p: np.ndarray) -> np.ndarray:
        return quat_rotate(self.rotation, np.asarray(p, dtype=float)) + self.translation

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        return PoseSE3(
            quat_multiply(self.rotation, other.rotation),
            quat_rotate(self.rotation, other.translation) + self.translation,
        )

    def inverse(self) -> "PoseSE3":
        qinv = quat_conjugate(self.rotation)
        return PoseSE3(qinv, -quat_rotate(qinv, self.translation))


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
