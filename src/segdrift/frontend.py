"""Simulated SLAM front end in two stages: observation, then drift.

`observe` replaces image-domain segment detection with a geometric
observation model: a world segment is detected when it is within
MAX_RANGE_M, in front of the camera and at least MIN_SEGMENT_LENGTH_M
long, with a configurable detection probability. Endpoint data
association is given by the simulator. The drift stage, `drift_walk`, is
a per-frame similarity random walk, and `simulate` moves the poses and
each point's true position by it, then adds the optional endpoint noise
drawn at creation time.

The whole trajectory is simulated as arrays, with every float operation
and every random draw in the order of a frame-by-frame loop, so the map
and poses equal that loop's bit for bit (README, `segdrift.frontend`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Trajectory, check_int, check_real, quat_from_axis_angle, quat_multiply, quat_normalize,
    quat_rotate, refuse_first, row_norms, xyz_norms,
)
from .worldgen import World

OBSERVATION_COLUMNS = ("p1", "p2", "frame", "segment")
OBS_P1, OBS_P2, OBS_FRAME, OBS_SEGMENT = range(len(OBSERVATION_COLUMNS))

MAX_RANGE_M = 8.0  # the camera sees a segment whose midpoint is this close
MIN_SEGMENT_LENGTH_M = 0.3  # shorter world segments are never detected

# Frames per block of the visibility scan; bounds its (frames, candidates, 3)
# temporaries to a few MiB.
_VISIBILITY_BLOCK = 256
# A candidate farther than MAX_RANGE_M * (1 + _RANGE_MARGIN) from a block's
# bounding box on some axis is out of range of all its frames (proof in
# `_visible`).
_RANGE_MARGIN = 2.0**-20
# Visible (frame, candidate) pairs read per look-ahead for the next frame
# that can create a map point: a wider look-ahead reads more keys per step,
# a narrower one takes more steps; 256 was about the fastest on the three
# benchmark worlds.
_LOOKAHEAD = 256


@dataclass(frozen=True)
class DriftConfig:
    scale_sigma: float = 0.0  # stddev of log-scale increment per frame
    rot_sigma: float = 0.0  # radians per frame
    trans_sigma: float = 0.0  # meters per frame
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("scale_sigma", "rot_sigma", "trans_sigma"):
            check_real(name, getattr(self, name), 0)
        check_int("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class ObservationConfig:
    detect_prob: float = 1.0
    endpoint_noise_sigma: float = 0.0  # meters, isotropic, at point creation
    rng_seed: int = 0

    def __post_init__(self):
        check_real("detect_prob", self.detect_prob, 0)
        if not self.detect_prob <= 1:
            raise ValueError(f"detect_prob must be <= 1, got {self.detect_prob!r}")
        check_real("endpoint_noise_sigma", self.endpoint_noise_sigma, 0)
        check_int("rng_seed", self.rng_seed, 0)


@dataclass
class EstimatedMap:
    """The front end's output as arrays.

    `points` row i is the estimated position of map point i (mutable by
    optimization), first created in frame `first_seen[i]`. Each row of
    `observations` is one detected segment, columns OBSERVATION_COLUMNS:
    its two point ids, its frame and the index of the world segment it
    came from (simulation bookkeeping, hidden from the method); rows are in
    frame order. `trajectory` holds the drifted camera poses.
    """

    points: np.ndarray  # (n, 3) float
    first_seen: np.ndarray  # (n,) int64
    observations: np.ndarray  # (m, 4) int64
    trajectory: Trajectory

    def __post_init__(self):
        def rows(value, dtype, *width):  # a zero-size input, such as [], has no rows
            array = np.asarray(value, dtype=dtype)
            return array.reshape(0, *width) if array.size == 0 else array

        self.points = rows(self.points, float, 3)
        self.first_seen = rows(self.first_seen, np.int64)
        self.observations = rows(self.observations, np.int64, len(OBSERVATION_COLUMNS))
        n, m = (len(a) if a.ndim else -1 for a in (self.points, self.observations))
        shapes = {"points": (n, 3), "first_seen": (n,), "observations": (m, len(OBSERVATION_COLUMNS))}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {getattr(self, name).shape}")
        ends = self.observations[:, [OBS_P1, OBS_P2]]
        bad = (ends < 0).any(axis=1) | (ends >= len(self.points)).any(axis=1)
        bad |= ends[:, 0] == ends[:, 1]
        refuse_first(
            bad, lambda i: f"observation {i} has unknown or coincident point ids {ends[i].tolist()}"
        )
        bad = ~np.isfinite(self.points).all(axis=1)
        refuse_first(bad, lambda i: f"point {i} must be finite, got {self.points[i].tolist()}")


def drift_walk(cfg: DriftConfig, n_frames: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cumulative similarity drift of every frame of a seeded random walk.

    Returns (scale (n,), rotation (n, 4), translation (n, 3)); frame 0 is
    the identity and frame k is frame k-1 composed with one increment: a
    log-normal scale, a rotation by a normal angle about a normal random
    axis, and a normal translation, each drawn only when its sigma is
    positive. Raises ValueError at the first non-finite increment, else
    at the first scale that is not positive and finite, else at the first
    translation that is not finite.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    steps = max(n_frames - 1, 0)
    columns: list[tuple[str, float]] = []  # (name, sigma) of each draw of a frame
    if cfg.scale_sigma > 0:
        columns.append(("log-scale step", cfg.scale_sigma))
    axis = len(columns) if cfg.rot_sigma > 0 else None
    if axis is not None:
        columns += [("rotation axis", 1.0)] * 3 + [("rotation angle", cfg.rot_sigma)]
    if cfg.trans_sigma > 0:
        columns += [(f"translation step {c}", cfg.trans_sigma) for c in "xyz"]
    draws = _draw_rows(rng, steps, [sigma for _, sigma in columns], axis)
    bad = ~np.isfinite(draws)
    if bad.any():
        k, j = divmod(int(np.argmax(bad)), len(columns))
        raise ValueError(f"drift {columns[j][0]} of frame {k + 1} must be finite, got {draws[k, j]}")

    scale = np.ones(n_frames)
    if cfg.scale_sigma > 0:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by frame
            scale[1:] = np.exp(draws[:, 0])
            scale = np.cumprod(scale)
        refuse_first(
            ~((scale > 0) & (scale < np.inf)),
            lambda k: f"drift scale of frame {k} must be positive and finite, got {scale[k]}",
        )

    rotation = np.zeros((n_frames, 4))
    rotation[:, 0] = 1.0
    if axis is not None:
        increment = quat_normalize(quat_from_axis_angle(draws[:, axis : axis + 3], draws[:, axis + 3]))
        # The one true recurrence: each frame re-normalises the product.
        for k in range(1, n_frames):
            rotation[k] = quat_normalize(quat_multiply(rotation[k - 1], increment[k - 1]))

    translation = np.zeros((n_frames, 3))
    if cfg.trans_sigma > 0:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by frame
            translation[1:] = scale[:-1, None] * quat_rotate(rotation[:-1], draws[:, -3:])
            translation = np.cumsum(translation, axis=0)
        refuse_first(
            ~np.isfinite(translation).all(axis=1),
            lambda k: f"drift translation of frame {k} must be finite, got {translation[k].tolist()}",
        )
    return scale, rotation, translation


def _draw_rows(rng, steps: int, sigmas: list[float], axis: int | None) -> np.ndarray:
    """`steps` rows of normal draws, column j scaled as `Generator.normal(0.0,
    sigmas[j])` scales one draw (`0.0 + sigma * z`), inf where that overflows.

    Columns axis..axis+2 hold a rotation axis. An axis of exactly zero norm
    is drawn again from the next three draws, which moves every later draw
    back three places, as a frame-by-frame loop would. (A zero axis needs
    three standard normals of exactly 0.0, each with chance 2^-52.)
    """
    k = len(sigmas)
    flat = rng.standard_normal(steps * k)
    while axis is not None:
        zero = np.flatnonzero(row_norms(flat.reshape(steps, k)[:, axis : axis + 3]) == 0.0)
        if not len(zero):
            break
        start = zero[0] * k + axis
        flat = np.concatenate([flat[:start], flat[start + 3 :], rng.standard_normal(3)])
    with np.errstate(over="ignore"):
        return 0.0 + np.array(sigmas) * flat.reshape(steps, k)


def _offsets(mids_t: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`mids - t[:, None, :]`, (frames, candidates, 3), filled one coordinate
    column at a time from `mids_t`, the contiguous transpose of `mids`: an
    inner axis of length 3 makes the broadcast slow. Same bytes."""
    rel = np.empty((len(t), mids_t.shape[1], 3))
    for k in range(3):
        np.subtract(mids_t[k], t[:, k, None], out=rel[..., k])
    return rel


def _visible(mids: np.ndarray, rotations: np.ndarray, positions: np.ndarray):
    """(frame, candidate) index pairs of every forward-facing candidate
    midpoint within MAX_RANGE_M, in frame order, then candidate order.

    Each block of frames tests only the candidates near it, with the same
    float operations per pair as a test of every pair. With lo_k and hi_k
    the block's least and greatest camera coordinate on axis k and
    R = MAX_RANGE_M * (1 + 2**-20), a candidate m is skipped when
    `m_k - hi_k > R` or `lo_k - m_k > R` on some axis, each one rounded
    subtraction. No skipped pair would have been in range:
    - Rounding is monotone and symmetric, and every frame t of the block
      has lo_k <= t_k <= hi_k, so its offset rel_k = fl(m_k - t_k) has
      |rel_k| > R >= MAX_RANGE_M * (1 + 2**-20) * (1 - 2**-53).
    - Its square then rounds to more than MAX_RANGE_M**2 * (1 + 2**-20),
      or to inf if it overflows.
    - `xyz_norms` adds the other, non-negative squares to it, which
      cannot round the sum below it, and the rounded square root of a sum
      above MAX_RANGE_M**2 * (1 + 2**-20) is above MAX_RANGE_M.
    A bound such as `lo_k - R` must not be precomputed instead: far from
    the origin its rounding error exceeds the 2**-20 margin.
    """
    frames, cands = [], []
    mids_t = np.ascontiguousarray(mids.T)
    reach = MAX_RANGE_M * (1.0 + _RANGE_MARGIN)
    # Elementwise, so a block's rows are the bits of a call on that block.
    forward = quat_rotate(rotations, np.array([1.0, 0.0, 0.0]))
    for lo in range(0, len(positions), _VISIBILITY_BLOCK):
        t = positions[lo : lo + _VISIBILITY_BLOCK]
        far = np.zeros(len(mids), dtype=bool)
        for k in range(3):
            far |= mids_t[k] - t[:, k].max() > reach
            far |= t[:, k].min() - mids_t[k] > reach
        near = np.flatnonzero(~far)
        rel = _offsets(mids_t[:, near], t)
        in_range = xyz_norms(rel[..., 0], rel[..., 1], rel[..., 2]) <= MAX_RANGE_M
        facing = (rel @ forward[lo : lo + _VISIBILITY_BLOCK, :, None])[..., 0] > 0.0
        f, c = np.nonzero(in_range & facing)
        frames.append(f + lo)
        cands.append(near[c])
    return np.concatenate(frames), np.concatenate(cands)


def observe(world: World, obs_cfg: ObservationConfig):
    """The drift-free stage: (true_points (n, 3), first_seen (n,), noise
    (n, 3) or None, observations (m, 4)), a map point made at each endpoint's
    first detection, as true position, frame and noise, and its detections."""
    gt = world.trajectory
    n_frames = len(gt)
    ends = world.endpoints
    long_enough = row_norms(ends[:, 1] - ends[:, 0]) >= MIN_SEGMENT_LENGTH_M
    cand_segment = np.flatnonzero(long_enough)
    ends = ends[cand_segment]
    # Endpoint identity is keyed by the bits of the true world coordinates,
    # so segments meeting at a corner share one map point (oracle data
    # association). Key k's true position is key_point[k].
    bits = ends.reshape(-1, 3).view(np.int64)
    key_bits, cand_keys = np.unique(bits, axis=0, return_inverse=True)
    key_point = key_bits.view(float)
    cand_keys = cand_keys.reshape(-1, 2)

    vis_frame = vis_cand = np.zeros(0, dtype=np.int64)
    if len(ends) and n_frames:
        mids = 0.5 * (ends[:, 0] + ends[:, 1])
        vis_frame, vis_cand = _visible(mids, gt.quaternions, gt.positions)

    obs_rng = np.random.default_rng(obs_cfg.rng_seed)
    sigma = obs_cfg.endpoint_noise_sigma
    detected = np.ones(len(vis_cand), dtype=bool)
    drawn = 0  # visible pairs [0, drawn) have drawn their detections

    def draw_detections(stop: int) -> None:
        nonlocal drawn
        if obs_cfg.detect_prob < 1.0 and stop > drawn:
            detected[drawn:stop] = obs_rng.random(stop - drawn) < obs_cfg.detect_prob
        drawn = stop

    # Each visible pair's two keys, a before b, and each frame's visible
    # pairs [frame_start[f], frame_start[f + 1]).
    pair_keys = np.take(cand_keys, vis_cand, axis=0)
    frame_start = np.searchsorted(vis_frame, np.arange(n_frames + 1)).tolist()
    unseen = np.ones(len(key_point), dtype=np.uint8)
    point_keys: list[int] = []
    point_frames: list[int] = []
    noise_blocks: list[np.ndarray] = []
    # Detection and endpoint noise share one generator: a frame draws its
    # detections, then the noise of the points it creates. Only a frame
    # with a visible candidate of an unseen key can create a point, so the
    # frames up to the next such frame draw their detections in one block
    # (`random(a)` then `random(b)` are the values of `random(a + b)`), and
    # each such frame then steps alone.
    lo = 0
    while lo < len(vis_cand):
        flags = unseen[pair_keys[lo : lo + _LOOKAHEAD]]
        first = int(flags.argmax())  # flat index of the first unseen key
        if not flags.flat[first]:
            lo += len(flags)
            continue
        frame = int(vis_frame[lo + first // 2])
        start, lo = frame_start[frame], frame_start[frame + 1]
        draw_detections(lo)
        keys = pair_keys[start:lo][detected[start:lo]].ravel()  # segment order, a before b
        fresh = keys[unseen[keys].view(bool)]
        if len(fresh):
            fresh = list(dict.fromkeys(fresh.tolist()))
            unseen[fresh] = 0
            point_keys += fresh
            point_frames += [frame] * len(fresh)
            if sigma > 0:
                noise_blocks.append(obs_rng.normal(0.0, sigma, (len(fresh), 3)))
    draw_detections(len(vis_cand))

    point_of_key = np.empty(len(key_point), dtype=np.int64)
    point_of_key[point_keys] = np.arange(len(point_keys))
    # Filled a column at a time, each a gather through the detected pairs,
    # with the visible-pair arrays freed before the point columns.
    kept = np.flatnonzero(detected)
    observations = np.empty((len(kept), len(OBSERVATION_COLUMNS)), dtype=np.int64)
    observations[:, OBS_FRAME] = vis_frame[kept]
    observations[:, OBS_SEGMENT] = cand_segment[vis_cand[kept]]
    del vis_frame, vis_cand
    kept_keys = np.take(pair_keys, kept, axis=0)
    del pair_keys
    observations[:, OBS_P1] = point_of_key[kept_keys[:, 0]]
    observations[:, OBS_P2] = point_of_key[kept_keys[:, 1]]
    true_points = key_point[point_keys].reshape(-1, 3)
    noise = np.concatenate(noise_blocks) if noise_blocks else None
    return true_points, np.array(point_frames, dtype=np.int64), noise, observations


def simulate(world: World, drift_cfg: DriftConfig, obs_cfg: ObservationConfig) -> EstimatedMap:
    """`observe`'s map and the ground-truth poses, moved by `drift_walk`:
    a pose by its frame's similarity, a point by that of its creation
    frame, before its endpoint noise is added."""
    gt = world.trajectory
    scale, rotation, translation = drift_walk(drift_cfg, len(gt))
    true_points, first_seen, noise, observations = observe(world, obs_cfg)

    def drifted(k, x):  # frame k's drift similarity applied to x
        return scale[k, None] * quat_rotate(rotation[k], x) + translation[k]

    with np.errstate(over="ignore"):  # an overflow is refused by row, below
        positions, points = drifted(slice(None), gt.positions), drifted(first_seen, true_points)
        if noise is not None:  # -0.0 + 0.0 would flip a signed zero
            points += noise
    rotated = quat_normalize(quat_multiply(rotation, gt.quaternions))
    return EstimatedMap(points, first_seen, observations, Trajectory(gt.timestamps, positions, rotated))
