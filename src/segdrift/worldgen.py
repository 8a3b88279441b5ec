"""Synthetic indoor corridor worlds with repeated, standardized line segments.

A corridor is a chain of straight legs joined by in-place turns. Door
frames (two vertical jambs + one lintel) repeat along each leg, so jamb
edges form one repeated archetype and the lintels of each leg another.
Generation is a pure function of the WorldSpec: same seed, same world.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import quat_from_axis_angle, row_norms

FRAME_RATE_HZ = 30.0
WALK_SPEED_MPS = 1.0
TURN_RATE_DPS = 90.0
CAMERA_HEIGHT_M = 1.5
WALL_OFFSET_M = 1.0

# Segment endpoints are snapped to this grid so that repeated elements are
# bit-identical: dyadic coordinates with a common LSB add without rounding.
COORD_QUANTUM = 2.0 ** -20


def _snap(v: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(v, dtype=float) / COORD_QUANTUM) * COORD_QUANTUM


def check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless value is an integer, not a bool, >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number, not a bool.
    An int too large for a float is not finite."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")


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

    def validate(self) -> None:
        for name in ("corridor_length", "door_spacing", "door_height", "door_width", "turn_angle"):
            check_real(name, getattr(self, name))
        for name in ("corridor_length", "door_spacing", "door_height", "door_width"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be finite and positive")
        if self.door_spacing >= self.corridor_length:
            raise ValueError("door_spacing must be smaller than corridor_length")
        for name in ("n_turns", "extra_unique_segments", "rng_seed"):
            check_int(name, getattr(self, name), 0)


@dataclass(frozen=True)
class World:
    """Segments and a ground-truth trajectory, held as read-only arrays:
    segment `endpoints` (s, 2, 3) and `archetypes` (s,) int64; frame
    `timestamps` (n,), `rotations` (n, 4, unit quaternions [w, x, y, z])
    and `translations` (n, 3)."""

    endpoints: np.ndarray
    archetypes: np.ndarray
    timestamps: np.ndarray  # seconds, strictly increasing
    rotations: np.ndarray
    translations: np.ndarray
    rng_seed: int

    def __post_init__(self):
        archetypes = np.asarray(self.archetypes)
        if archetypes.size and archetypes.dtype.kind not in "iu":
            raise ValueError(f"archetypes must be integers, got dtype {archetypes.dtype}")
        arrays = {
            "endpoints": np.array(self.endpoints, dtype=float),
            "archetypes": archetypes.astype(np.int64),
            "timestamps": np.array(self.timestamps, dtype=float),
            "rotations": np.array(self.rotations, dtype=float),
            "translations": np.array(self.translations, dtype=float),
        }
        ends, ts, rot = arrays["endpoints"], arrays["timestamps"], arrays["rotations"]
        s, n = (len(a) if a.ndim else -1 for a in (ends, ts))
        for name, shape in zip(arrays, [(s, 2, 3), (s,), (n,), (n, 4), (n, 3)]):
            if arrays[name].shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arrays[name].shape}")
        bad = ~np.isfinite(ends).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"segment {int(np.argmax(bad))} has a non-finite endpoint")
        same = (ends[:, 0] == ends[:, 1]).all(axis=1)
        if same.any():
            raise ValueError(f"segment {int(np.argmax(same))} endpoints must differ")
        bad_t = ~np.isfinite(ts)
        bad = bad_t | ~np.isfinite(np.column_stack([rot, arrays["translations"]])).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            what = "timestamp" if bad_t[i] else "pose"
            raise ValueError(f"trajectory entry {i} has a non-finite {what}")
        with np.errstate(over="ignore"):
            norms = row_norms(rot)
        bad = (norms == 0.0) | ~np.isfinite(norms)
        if bad.any():
            i = int(np.argmax(bad))
            what = "a zero quaternion" if norms[i] == 0.0 else "a quaternion whose norm overflows"
            raise ValueError(f"trajectory entry {i} has {what}")
        arrays["rotations"] = rot / norms[:, None]  # `quat_normalize`, from the norms at hand
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not (np.unique(arrays["archetypes"], return_counts=True)[1] >= 2).any():
            raise ValueError("world must contain at least one repeated archetype")
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_frames(self) -> int:
        return len(self.timestamps)


def _heading_quat(heading_rad: float) -> np.ndarray:
    return quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), heading_rad)


def generate_corridor(spec: WorldSpec) -> World:
    spec.validate()
    rng = np.random.default_rng(spec.rng_seed)

    n_legs = spec.n_turns + 1
    leg_len = spec.corridor_length / n_legs
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
        k = np.arange(int(np.floor(leg_len / spec.door_spacing)))
        jamb1 = _snap(origin + (k * spec.door_spacing)[:, None] * direction + WALL_OFFSET_M * left)
        jamb2 = jamb1 + lintel_delta  # exact: both on the dyadic grid
        top1, top2 = jamb1 + jamb_delta, jamb2 + jamb_delta
        ends.append(np.stack([jamb1, top1, jamb2, top2, top1, top2], axis=1).reshape(-1, 2, 3))
        archetypes.append(np.tile([0, 0, 1 + leg], len(k)))

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
    turn_step = np.deg2rad(TURN_RATE_DPS) * dt
    camera = np.array([0.0, 0.0, CAMERA_HEIGHT_M])
    rotations: list[np.ndarray] = []
    translations: list[np.ndarray] = []
    heading = 0.0
    for leg in range(n_legs):
        origin, direction = leg_starts[leg], leg_dirs[leg]
        k = np.arange(int(np.floor(leg_len / step)))
        translations.append(origin + (k * step)[:, None] * direction + camera)
        rotations.append(np.tile(_heading_quat(heading), (len(k), 1)))
        if leg < n_legs - 1:
            n_turn = max(1, int(round(abs(turn_rad) / turn_step)))
            target = heading + turn_rad
            turn = heading + np.arange(1, n_turn + 1) * (target - heading) / n_turn
            translations.append(np.tile(leg_starts[leg + 1] + camera, (n_turn, 1)))
            rotations.append(np.array([_heading_quat(h) for h in turn]))
            heading = target

    n_frames = sum(len(r) for r in rotations)
    return World(
        np.concatenate(ends),
        np.concatenate(archetypes),
        np.arange(n_frames) * dt,
        np.concatenate(rotations),
        np.concatenate(translations),
        spec.rng_seed,
    )


def world_to_json(world: World) -> dict:
    segments = zip(world.endpoints.tolist(), world.archetypes.tolist())
    poses = zip(world.timestamps.tolist(), world.rotations.tolist(), world.translations.tolist())
    return {
        "segments": [{"a": a, "b": b, "archetype": k} for (a, b), k in segments],
        "trajectory": [{"t": t, "q": q, "p": p} for t, q, p in poses],
        "seed": world.rng_seed,
    }


def _field(entries: list, where: str, key: str, width: int | None, integer: bool = False):
    """Field `key` of every entry as an array: (n,) for one number each
    (width None), (n, width) for a list of `width` numbers. Anything else,
    bools and numeric strings included, is an error naming the entry."""
    kinds = {int} if integer else {int, float}
    dtype = np.int64 if integer else float
    try:
        values = [e[key] for e in entries]
        # One flat list converts faster than nested lists, whose shape numpy
        # would have to discover.
        if width is None:
            flat = values
        elif set(map(type, values)) <= {list} and set(map(len, values)) <= {width}:
            flat = list(chain.from_iterable(values))
        else:
            flat = None
        if flat is not None and set(map(type, flat)) <= kinds:
            array = np.array(flat, dtype=dtype)
            return array if width is None else array.reshape(-1, width)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass  # find and name the bad entry below
    what = "an integer" if integer else "a number" if width is None else f"{width} numbers"
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or key not in e:
            raise ValueError(f"{where} {i} missing field '{key}'")
        v = e[key]
        if width is None:
            good = type(v) in kinds
        else:
            good = type(v) is list and len(v) == width and all(type(x) in kinds for x in v)
        if not good:
            raise ValueError(f"{where} {i} field '{key}' must be {what}, got {v!r}")
        try:
            np.array(v, dtype=dtype)
        except OverflowError:
            raise ValueError(f"{where} {i} field '{key}' holds a number out of range") from None


def world_from_json(data: dict) -> World:
    if not isinstance(data, dict):
        raise ValueError("world file must be a JSON object")
    for key in ("segments", "trajectory", "seed"):
        if key not in data:
            raise ValueError(f"world file missing section '{key}'")
    if type(data["seed"]) is not int:
        raise ValueError(f"world file field 'seed' must be an integer, got {data['seed']!r}")
    segments, trajectory = data["segments"], data["trajectory"]
    for key, section in (("segments", segments), ("trajectory", trajectory)):
        if type(section) is not list:
            raise ValueError(f"world file section '{key}' must be a list, got {type(section).__name__}")
    return World(
        np.stack([_field(segments, "segment", k, 3) for k in ("a", "b")], axis=1),
        _field(segments, "segment", "archetype", None, integer=True),
        _field(trajectory, "trajectory entry", "t", None),
        _field(trajectory, "trajectory entry", "q", 4),
        _field(trajectory, "trajectory entry", "p", 3),
        data["seed"],
    )


# `json.dumps(world_to_json(world), indent=1)`, one segment or pose at a time.
_SEGMENT_JSON = (
    '  {\n   "a": [\n    %s,\n    %s,\n    %s\n   ],\n'
    '   "b": [\n    %s,\n    %s,\n    %s\n   ],\n   "archetype": %d\n  }'
)
_POSE_JSON = (
    '  {\n   "t": %s,\n   "q": [\n    %s,\n    %s,\n    %s,\n    %s\n   ],\n'
    '   "p": [\n    %s,\n    %s,\n    %s\n   ]\n  }'
)


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def _reprs(rows: np.ndarray) -> list[list[str]]:
    """`repr` of every float of a 2-D array, as nested lists. Each distinct
    float is formatted once, keyed by its bits, so -0.0 keeps its sign."""
    bits, inverse = np.unique(np.ascontiguousarray(rows).view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return text[inverse.reshape(rows.shape)].tolist()


def world_to_file(world: World, path) -> None:
    """Write `json.dumps(world_to_json(world), indent=1)` and a newline, byte
    for byte, from fixed templates: the indenting JSON encoder is pure
    Python and slow. A World holds only finite floats, whose `repr` is
    their JSON form."""
    ends = _reprs(world.endpoints.reshape(-1, 6))
    segments = [_SEGMENT_JSON % (*e, k) for e, k in zip(ends, world.archetypes.tolist())]
    rows = _reprs(np.column_stack([world.timestamps, world.rotations, world.translations]))
    poses = [_POSE_JSON % tuple(r) for r in rows]
    with open(path, "w") as f:
        f.write(
            '{\n "segments": %s,\n "trajectory": %s,\n "seed": %d\n}\n'
            % (_json_list(segments), _json_list(poses), world.rng_seed)
        )


def world_from_file(path) -> World:
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"malformed world file {path}: {exc}") from exc
    return world_from_json(data)
