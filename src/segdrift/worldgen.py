"""Synthetic indoor corridor worlds with repeated, standardized line segments.

A corridor is a chain of straight legs joined by in-place turns. Door
frames (two vertical jambs + one lintel) repeat along each leg, so jamb
edges form one repeated archetype and the lintels of each leg another.
Generation is a pure function of the WorldSpec: same seed, same world.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    BadRowError, Trajectory, check_int, check_real, quat_from_axis_angle, quat_normalize, refuse_first,
)

FRAME_RATE_HZ = 30.0
WALK_SPEED_MPS = 1.0
TURN_RATE_DPS = 90.0
CAMERA_HEIGHT_M = 1.5
WALL_OFFSET_M = 1.0

# Generation allocates per leg, frame and segment: a spec whose world would
# hold more of any of them is refused before anything is built.
MAX_WORLD_SIZE = 10**6

# Segment endpoints are snapped to this grid so that repeated elements are
# bit-identical: dyadic coordinates with a common LSB add without rounding.
COORD_QUANTUM = 2.0 ** -20


def _snap(v: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(v, dtype=float) / COORD_QUANTUM) * COORD_QUANTUM


@dataclass(frozen=True)
class WorldSpec:
    corridor_length: float = 40.0
    door_spacing: float = 2.0
    door_height: float = 2.0
    door_width: float = 0.9
    n_turns: int = 0
    turn_angle: float = 90.0
    extra_unique_segments: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("corridor_length", "door_spacing", "door_height", "door_width"):
            check_real(name, getattr(self, name), 0, strict=True)
        check_real("turn_angle", self.turn_angle)
        if self.door_spacing >= self.corridor_length:
            raise ValueError("door_spacing must be smaller than corridor_length")
        for name in ("n_turns", "extra_unique_segments", "rng_seed"):
            check_int(name, getattr(self, name), 0)

        def check_budget(name: str, count: int, what: str) -> None:
            if count > MAX_WORLD_SIZE:
                raise ValueError(
                    f"{name} {getattr(self, name)} gives a world of {count} {what}, "
                    f"over the budget of {MAX_WORLD_SIZE} {what}"
                )

        # Counted before anything divides by it: a Python int, so any count fits.
        legs = int(self.n_turns) + 1
        check_budget("n_turns", legs, "legs")
        # Every snapped coordinate and count must be finite. corridor_length
        # bounds each coordinate along the walk, and so each leg's frame count.
        for name in ("corridor_length", "door_height", "door_width"):
            value = getattr(self, name)
            if not math.isfinite(float(value) / COORD_QUANTUM):
                raise ValueError(f"{name} {value} is too large to snap to a {COORD_QUANTUM} m grid")
        leg = float(self.leg_length)
        if not math.isfinite(leg / float(self.door_spacing)):
            raise ValueError(
                f"door_spacing {self.door_spacing} is too small to count doors in legs of {leg} m"
            )
        if self.doors_per_leg < 1:  # no door, so no repeated archetype
            raise ValueError(
                f"door_spacing {self.door_spacing} must fit a door in each leg: "
                f"corridor_length {self.corridor_length} over n_turns {self.n_turns} + 1 legs "
                f"gives legs of {self.leg_length} m"
            )
        walking, turning = legs * self.frames_per_leg, (legs - 1) * self.frames_per_turn
        doors, extra = 3 * legs * self.doors_per_leg, int(self.extra_unique_segments)
        check_budget("corridor_length" if walking >= turning else "turn_angle", walking + turning, "frames")
        check_budget("door_spacing" if doors >= extra else "extra_unique_segments", doors + extra, "segments")

    @property
    def leg_length(self) -> float:
        return self.corridor_length / (int(self.n_turns) + 1)  # int: a numpy integer could wrap

    @property
    def doors_per_leg(self) -> int:
        return int(np.floor(self.leg_length / self.door_spacing))

    @property
    def frames_per_leg(self) -> int:
        return int(np.floor(self.leg_length / (WALK_SPEED_MPS * (1.0 / FRAME_RATE_HZ))))

    @property
    def frames_per_turn(self) -> int:
        turn_step = np.deg2rad(TURN_RATE_DPS) * (1.0 / FRAME_RATE_HZ)
        return max(1, int(round(abs(np.deg2rad(self.turn_angle)) / turn_step)))


@dataclass(frozen=True)
class World:
    """Segments and a ground-truth trajectory: segment `endpoints` (s, 2, 3)
    and `archetypes` (s,) int64, held as read-only arrays, and the camera
    `trajectory`, its quaternions normalised."""

    endpoints: np.ndarray
    archetypes: np.ndarray
    trajectory: Trajectory
    rng_seed: int

    def __post_init__(self):
        archetypes = np.asarray(self.archetypes)
        if archetypes.size and archetypes.dtype.kind not in "iu":
            raise ValueError(f"archetypes must be integers, got dtype {archetypes.dtype}")
        ends = np.array(self.endpoints, dtype=float)
        archetypes = archetypes.astype(np.int64)
        s = len(ends) if ends.ndim else -1
        for name, array, shape in ("endpoints", ends, (s, 2, 3)), ("archetypes", archetypes, (s,)):
            if array.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
        bad = ~np.isfinite(ends).all(axis=(1, 2))
        refuse_first(bad, lambda i: f"segment {i} has a non-finite endpoint")
        same = (ends[:, 0] == ends[:, 1]).all(axis=1)
        refuse_first(same, lambda i: f"segment {i} endpoints must differ")
        if not (np.unique(archetypes, return_counts=True)[1] >= 2).any():
            raise ValueError("world must contain at least one repeated archetype")
        ends.flags.writeable = archetypes.flags.writeable = False
        object.__setattr__(self, "endpoints", ends)
        object.__setattr__(self, "archetypes", archetypes)
        given = self.trajectory.quaternions
        q = quat_normalize(given)
        # A trajectory already normalised to the bit is kept, not checked again.
        if (q.view(np.int64) != given.view(np.int64)).any():
            object.__setattr__(self, "trajectory", replace(self.trajectory, quaternions=q))

    @property
    def n_frames(self) -> int:
        return len(self.trajectory)


def generate_corridor(spec: WorldSpec) -> World:
    n_legs = spec.n_turns + 1
    leg_len = spec.leg_length
    turn_rad = np.deg2rad(spec.turn_angle)

    jamb_delta = _snap(np.array([0.0, 0.0, spec.door_height]))

    leg_starts: list[np.ndarray] = []
    leg_dirs: list[np.ndarray] = []
    start = np.zeros(3)
    heading = 0.0
    for leg in range(n_legs):
        direction = np.array([np.cos(heading), np.sin(heading), 0.0])
        leg_starts.append(start)
        leg_dirs.append(direction)
        start = start + leg_len * direction
        heading += turn_rad

    # Per door: two jambs (archetype 0) and the lintel joining their tops.
    ends: list[np.ndarray] = []
    archetypes: list[np.ndarray] = []
    for leg, (origin, direction) in enumerate(zip(leg_starts, leg_dirs)):
        left = np.array([-direction[1], direction[0], 0.0])
        lintel_delta = _snap(spec.door_width * direction)
        k = np.arange(spec.doors_per_leg)
        jamb1 = _snap(origin + (k * spec.door_spacing)[:, None] * direction + WALL_OFFSET_M * left)
        jamb2 = jamb1 + lintel_delta  # exact: both on the dyadic grid
        top1, top2 = jamb1 + jamb_delta, jamb2 + jamb_delta
        ends.append(np.stack([jamb1, top1, jamb2, top2, top1, top2], axis=1).reshape(-1, 2, 3))
        archetypes.append(np.tile([0, 0, 1 + leg], len(k)))

    # Only clutter draws, so a plain corridor neither seeds nor imports a generator.
    rng = np.random.default_rng(spec.rng_seed) if spec.extra_unique_segments else None
    for j in range(spec.extra_unique_segments):
        leg = int(rng.integers(n_legs))
        along = rng.uniform(0.0, leg_len)
        mid = leg_starts[leg] + along * leg_dirs[leg]
        mid = mid + np.array([0.0, 0.0, rng.uniform(0.3, 2.2)])
        mid = mid + rng.uniform(-0.8, 0.8) * np.array(
            [-leg_dirs[leg][1], leg_dirs[leg][0], 0.0]
        )
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        half = 0.5 * rng.uniform(0.5, 2.0) * direction
        ends.append(np.stack([_snap(mid - half), _snap(mid + half)])[None])
        archetypes.append(np.array([1 + n_legs + j]))

    # Walk the centerline at constant speed; turn in place at each corner.
    dt = 1.0 / FRAME_RATE_HZ
    step = WALK_SPEED_MPS * dt
    camera = np.array([0.0, 0.0, CAMERA_HEIGHT_M])
    up = np.array([0.0, 0.0, 1.0])  # headings turn about it
    rotations: list[np.ndarray] = []
    translations: list[np.ndarray] = []
    heading = 0.0
    for leg in range(n_legs):
        origin, direction = leg_starts[leg], leg_dirs[leg]
        k = np.arange(spec.frames_per_leg)
        translations.append(origin + (k * step)[:, None] * direction + camera)
        rotations.append(np.tile(quat_from_axis_angle(up, heading), (len(k), 1)))
        if leg < n_legs - 1:
            n_turn = spec.frames_per_turn
            target = heading + turn_rad
            turn = heading + np.arange(1, n_turn + 1) * (target - heading) / n_turn
            translations.append(np.tile(leg_starts[leg + 1] + camera, (n_turn, 1)))
            rotations.append(quat_from_axis_angle(up, turn))
            heading = target

    n_frames = sum(len(r) for r in rotations)
    trajectory = Trajectory(
        np.arange(n_frames) * dt, np.concatenate(translations), np.concatenate(rotations)
    )
    return World(np.concatenate(ends), np.concatenate(archetypes), trajectory, spec.rng_seed)


def world_to_json(world: World) -> dict:
    """The world as a world file's JSON document: each section an object of
    columns, each field one flat list (3 numbers per entry for `a`, `b` and
    `p`, 4 for `q`)."""
    return {
        "seed": world.rng_seed,
        "segments": {
            "a": world.endpoints[:, 0].ravel().tolist(),
            "b": world.endpoints[:, 1].ravel().tolist(),
            "archetype": world.archetypes.tolist(),
        },
        "trajectory": {
            "t": world.trajectory.timestamps.tolist(),
            "q": world.trajectory.quaternions.ravel().tolist(),
            "p": world.trajectory.positions.ravel().tolist(),
        },
    }


# (field, numbers per entry or None for one bare number, integer) per section
_SEGMENT_FIELDS = (("a", 3, False), ("b", 3, False), ("archetype", None, True))
_POSE_FIELDS = (("t", None, False), ("q", 4, False), ("p", 3, False))


def _convert(flat: list, name: str, key: str, width: int | None, integer: bool) -> np.ndarray:
    """Field `key` of section `name`, a flat list of `width` numbers per
    entry (one bare number if width is None), as an (n,) or (n, width)
    array. Only JSON numbers pass, and only integers for an integer field:
    a bool, a numeric string or a float archetype is an error, as is an
    integer too large for the dtype. An error names the first bad entry."""
    kinds = {int} if integer else {int, float}
    dtype = np.int64 if integer else float
    if set(map(type, flat)) <= kinds:
        try:
            array = np.array(flat, dtype=dtype)
            return array if width is None else array.reshape(-1, width)
        except OverflowError:
            pass  # find and name the entry below
    what = "an integer" if integer else "a number" if width is None else f"{width} numbers"
    w = width or 1
    for i in range(len(flat) // w):
        value = flat[i * w : (i + 1) * w] if width else flat[i]
        numbers = value if width else [value]
        label = f"{name} field '{key}' entry {i}"
        if not set(map(type, numbers)) <= kinds:
            raise ValueError(f"{label} must be {what}, got {value!r}")
        try:
            np.array(numbers, dtype=dtype)
        except OverflowError:
            raise ValueError(f"{label} holds a number out of range") from None
    raise AssertionError("unreachable: some entry failed the checks above")


def _columns(section, name: str, fields) -> list[np.ndarray]:
    """A section, an object holding each field as one flat list, every
    field holding the same number of entries."""
    if type(section) is not dict:
        raise ValueError(f"world file section '{name}' must be an object, got {type(section).__name__}")
    counts = []
    for key, width, _ in fields:
        if key not in section:
            raise ValueError(f"world file section '{name}' missing field '{key}'")
        values = section[key]
        if type(values) is not list:
            raise ValueError(f"{name} field '{key}' must be a list, got {type(values).__name__}")
        n, rest = divmod(len(values), width or 1)
        if rest:
            raise ValueError(f"{name} field '{key}' entry {n} has {rest} of {width} numbers")
        counts.append(n)
    first = fields[0][0]
    for (key, _, _), n in zip(fields, counts):
        if n != counts[0]:
            lacking = key if n < counts[0] else first
            raise ValueError(
                f"{name} field '{key}' has {n} entries, field '{first}' {counts[0]}: "
                f"entry {min(n, counts[0])} has no '{lacking}'"
            )
    return [_convert(section[key], name, key, width, integer) for key, width, integer in fields]


def world_from_json(data: dict) -> World:
    """A World from a world file's JSON document, laid out as
    `world_to_json` writes it: each section an object of columns."""
    if not isinstance(data, dict):
        raise ValueError("world file must be a JSON object")
    for key in ("segments", "trajectory", "seed"):
        if key not in data:
            raise ValueError(f"world file missing section '{key}'")
    if type(data["seed"]) is not int:
        raise ValueError(f"world file field 'seed' must be an integer, got {data['seed']!r}")
    a, b, archetypes = _columns(data["segments"], "segments", _SEGMENT_FIELDS)
    t, q, p = _columns(data["trajectory"], "trajectory", _POSE_FIELDS)
    try:
        trajectory = Trajectory(t, p, q)
    except BadRowError as exc:
        raise ValueError(f"trajectory entry {exc.row}: {exc.reason}") from None
    return World(np.stack([a, b], axis=1), archetypes, trajectory, data["seed"])


# `world_to_json`'s document, one line per field. Each list is the text
# `json.dumps` gives it.
_WORLD_JSON = """{
 "seed": %d,
 "segments": {
  "a": [%s],
  "b": [%s],
  "archetype": [%s]
 },
 "trajectory": {
  "t": [%s],
  "q": [%s],
  "p": [%s]
 }
}
"""


def _json_floats(*arrays: np.ndarray) -> list[str]:
    """The inside of a JSON list of each array's floats, in C order. Each
    distinct float is formatted once, by `repr` keyed by its bits, so -0.0
    keeps its sign."""
    flat = np.concatenate([a.ravel() for a in arrays])
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[inverse].tolist()
    ends = np.cumsum([a.size for a in arrays]).tolist()
    return [", ".join(text[end - a.size : end]) for a, end in zip(arrays, ends)]


def world_to_file(world: World, path) -> None:
    """Write `world_to_json(world)` as JSON, one line per field. A World
    holds only finite floats, whose `repr` is their JSON form."""
    ends, traj = world.endpoints, world.trajectory
    a, b, t, q, p = _json_floats(
        ends[:, 0], ends[:, 1], traj.timestamps, traj.quaternions, traj.positions
    )
    archetypes = ", ".join(map(str, world.archetypes.tolist()))
    with open(path, "w") as f:
        f.write(_WORLD_JSON % (world.rng_seed, a, b, archetypes, t, q, p))


def world_from_file(path) -> World:
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"malformed world file {path}: {exc}") from exc
    return world_from_json(data)
