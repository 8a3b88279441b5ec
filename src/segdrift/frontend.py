"""Simulated SLAM front end: visibility, detection and drift distortion.

Replaces image-domain segment detection with a geometric observation
model: a world segment is detected when it is in range, in front of the
camera and long enough, with a configurable detection probability.
Endpoint data association is given by the simulator. The estimated map is
the ground truth distorted by a per-frame similarity drift random walk,
plus optional endpoint noise at creation time.

The whole trajectory is simulated as arrays, with every float operation
and every random draw in the order of a frame-by-frame loop, so the map
and poses equal that loop's bit for bit (README, `segdrift.frontend`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Trajectory, check_int, check_real, quat_multiply, quat_normalize, quat_rotate, row_norms,
)
from .worldgen import World

OBSERVATION_COLUMNS = ("p1", "p2", "frame", "segment")
OBS_P1, OBS_P2, OBS_FRAME, OBS_SEGMENT = range(len(OBSERVATION_COLUMNS))

# Frames per block of the visibility scan; bounds its (frames, candidates, 3)
# temporaries to a few MiB.
_VISIBILITY_BLOCK = 256
# A candidate farther than max_range * (1 + _RANGE_MARGIN) from a block's
# bounding box on some axis is out of range of all its frames; below
# _MIN_SKIP_RANGE that bound could underflow, so no candidate is skipped
# (proof in `_visible`).
_RANGE_MARGIN = 2.0**-20
_MIN_SKIP_RANGE = 2.0**-500
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
    max_range: float = 8.0
    min_segment_length: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        check_real("detect_prob", self.detect_prob, 0)
        if not self.detect_prob <= 1:
            raise ValueError(f"detect_prob must be <= 1, got {self.detect_prob!r}")
        check_real("endpoint_noise_sigma", self.endpoint_noise_sigma, 0)
        check_real("max_range", self.max_range, 0, strict=True)
        check_real("min_segment_length", self.min_segment_length, 0)
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
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.first_seen = np.asarray(self.first_seen, dtype=np.int64)
        self.observations = np.asarray(self.observations, dtype=np.int64).reshape(
            -1, len(OBSERVATION_COLUMNS)
        )
        if self.first_seen.shape != (len(self.points),):
            raise ValueError("first_seen must hold one frame per point")
        ends = self.observations[:, [OBS_P1, OBS_P2]]
        bad = (ends < 0).any(axis=1) | (ends >= len(self.points)).any(axis=1)
        bad |= ends[:, 0] == ends[:, 1]
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(
                f"observation {row} has unknown or coincident point ids {ends[row].tolist()}"
            )


def drift_walk(cfg: DriftConfig, n_frames: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cumulative similarity drift of every frame of a seeded random walk.

    Returns (scale (n,), rotation (n, 4), translation (n, 3)); frame 0 is
    the identity and frame k is frame k-1 composed with one increment: a
    log-normal scale, a rotation by a normal angle about a normal random
    axis, and a normal translation, each drawn only when its sigma is
    positive. Raises ValueError if the scale leaves the positive floats.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    steps = max(n_frames - 1, 0)
    # One row of draws per frame, in the order a frame draws them.
    sigmas: list[float] = []
    if cfg.scale_sigma > 0:
        sigmas.append(cfg.scale_sigma)
    axis = len(sigmas) if cfg.rot_sigma > 0 else None
    if axis is not None:
        sigmas += [1.0, 1.0, 1.0, cfg.rot_sigma]
    if cfg.trans_sigma > 0:
        sigmas += [cfg.trans_sigma] * 3
    draws = _draw_rows(rng, steps, sigmas, axis)

    scale = np.ones(n_frames)
    if cfg.scale_sigma > 0:
        scale[1:] = np.exp(draws[:, 0])
        scale = np.cumprod(scale)
        bad = ~(scale > 0)
        if bad.any():
            raise ValueError(f"scale must be positive, got {scale[np.argmax(bad)]}")

    rotation = np.zeros((n_frames, 4))
    rotation[:, 0] = 1.0
    if axis is not None:
        u, angle = draws[:, axis : axis + 3], draws[:, axis + 3]
        half = 0.5 * angle
        increment = quat_normalize(
            np.column_stack([np.cos(half), np.sin(half)[:, None] * u / row_norms(u)[:, None]])
        )
        # The one true recurrence: each frame re-normalises the product.
        for k in range(1, n_frames):
            rotation[k] = quat_normalize(quat_multiply(rotation[k - 1], increment[k - 1]))

    translation = np.zeros((n_frames, 3))
    if cfg.trans_sigma > 0:
        t = draws[:, len(sigmas) - 3 :]
        translation[1:] = scale[:-1, None] * quat_rotate(rotation[:-1], t)
        translation = np.cumsum(translation, axis=0)
    return scale, rotation, translation


def _draw_rows(rng, steps: int, sigmas: list[float], axis: int | None) -> np.ndarray:
    """`steps` rows of normal draws, column j scaled as `Generator.normal(0.0,
    sigmas[j])` scales one draw (`0.0 + sigma * z`).

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
    return 0.0 + np.array(sigmas) * flat.reshape(steps, k)


def _offsets(mids_t: np.ndarray, t: np.ndarray) -> np.ndarray:
    """`mids - t[:, None, :]`, (frames, candidates, 3), filled one coordinate
    column at a time from `mids_t`, the contiguous transpose of `mids`: an
    inner axis of length 3 makes the broadcast slow. Same bytes."""
    rel = np.empty((len(t), mids_t.shape[1], 3))
    for k in range(3):
        np.subtract(mids_t[k], t[:, k, None], out=rel[..., k])
    return rel


def _distances(rel: np.ndarray) -> np.ndarray:
    """`np.linalg.norm(rel, axis=-1)` bit for bit: it sums the squares in
    this order, (x*x + y*y) + z*z. In place, to skip two temporaries."""
    sq = rel[..., 0] * rel[..., 0]
    sq += rel[..., 1] * rel[..., 1]
    sq += rel[..., 2] * rel[..., 2]
    return np.sqrt(sq, out=sq)


def _visible(mids: np.ndarray, rotations: np.ndarray, positions: np.ndarray, max_range: float):
    """(frame, candidate) index pairs of every in-range, forward-facing
    candidate midpoint, in frame order, then candidate order.

    Each block of frames tests only the candidates near it, with the same
    float operations per pair as a test of every pair. With lo_k and hi_k
    the block's least and greatest camera coordinate on axis k and
    R = max_range * (1 + 2**-20), a candidate m is skipped when
    `m_k - hi_k > R` or `lo_k - m_k > R` on some axis, each one rounded
    subtraction. No skipped pair would have been in range:
    - Rounding is monotone and symmetric, and every frame t of the block
      has lo_k <= t_k <= hi_k, so its offset rel_k = fl(m_k - t_k) has
      |rel_k| > R >= max_range * (1 + 2**-20) * (1 - 2**-53).
    - Its square then rounds to more than max_range**2 * (1 + 2**-20), or
      to inf if it overflows. That needs R*R to be a normal float, which
      is why nothing is skipped when max_range < 2**-500.
    - `_distances` adds the other, non-negative squares to it, which
      cannot round the sum below it, and the rounded square root of a sum
      above max_range**2 * (1 + 2**-20) is above max_range.
    A bound such as `lo_k - R` must not be precomputed instead: far from
    the origin its rounding error exceeds the 2**-20 margin.
    """
    frames, cands = [], []
    x_axis = np.array([1.0, 0.0, 0.0])
    mids_t = np.ascontiguousarray(mids.T)
    reach = max_range * (1.0 + _RANGE_MARGIN)
    for lo in range(0, len(positions), _VISIBILITY_BLOCK):
        t = positions[lo : lo + _VISIBILITY_BLOCK]
        far = np.zeros(len(mids), dtype=bool)
        if max_range >= _MIN_SKIP_RANGE:
            for k in range(3):
                far |= mids_t[k] - t[:, k].max() > reach
                far |= t[:, k].min() - mids_t[k] > reach
        near = np.flatnonzero(~far)
        rel = _offsets(mids_t[:, near], t)
        in_range = _distances(rel) <= max_range
        forward = quat_rotate(rotations[lo : lo + _VISIBILITY_BLOCK], x_axis)
        facing = (rel @ forward[:, :, None])[..., 0] > 0.0
        f, c = np.nonzero(in_range & facing)
        frames.append(f + lo)
        cands.append(near[c])
    return np.concatenate(frames), np.concatenate(cands)


def simulate(world: World, drift_cfg: DriftConfig, obs_cfg: ObservationConfig) -> EstimatedMap:
    """Run the observation model over every frame of the world trajectory.

    Map points are created at the drifted (and optionally noisy) position
    of the first detection and never re-triangulated; re-detections reuse
    the existing id. The estimated trajectory is the ground truth with the
    per-frame cumulative drift applied.
    """
    gt = world.trajectory
    n_frames = len(gt)
    scale, rotation, translation = drift_walk(drift_cfg, n_frames)
    trajectory = Trajectory(
        gt.timestamps,
        scale[:, None] * quat_rotate(rotation, gt.positions) + translation,
        quat_normalize(quat_multiply(rotation, gt.quaternions)),
    )

    ends = world.endpoints
    long_enough = row_norms(ends[:, 1] - ends[:, 0]) >= obs_cfg.min_segment_length
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
        vis_frame, vis_cand = _visible(mids, gt.quaternions, gt.positions, obs_cfg.max_range)

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
    pair_keys = cand_keys[vis_cand]
    frame_start = np.searchsorted(vis_frame, np.arange(n_frames + 1)).tolist()
    unseen = np.ones(len(key_point), dtype=np.uint8)
    point_keys: list[int] = []
    point_frames: list[int] = []
    noise: list[np.ndarray] = []
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
                noise.append(obs_rng.normal(0.0, sigma, (len(fresh), 3)))
    draw_detections(len(vis_cand))

    first_seen = np.array(point_frames, dtype=np.int64)
    points = scale[first_seen, None] * quat_rotate(
        rotation[first_seen], key_point[point_keys].reshape(-1, 3)
    ) + translation[first_seen]
    if noise:
        points = points + np.concatenate(noise)
    point_of_key = np.empty(len(key_point), dtype=np.int64)
    point_of_key[point_keys] = np.arange(len(point_keys))
    # Filled a column at a time, each a gather through the detected pairs,
    # with the visible-pair arrays freed before the point columns.
    kept = np.flatnonzero(detected)
    observations = np.empty((len(kept), len(OBSERVATION_COLUMNS)), dtype=np.int64)
    observations[:, OBS_FRAME] = vis_frame[kept]
    observations[:, OBS_SEGMENT] = cand_segment[vis_cand[kept]]
    del vis_frame, vis_cand
    observations[:, OBS_P1] = point_of_key[pair_keys[kept, 0]]
    observations[:, OBS_P2] = point_of_key[pair_keys[kept, 1]]
    return EstimatedMap(points, first_seen, observations, trajectory)
