"""Synthetic indoor corridor worlds with repeated, standardized line segments.

A corridor is a chain of straight legs joined by in-place turns. Door
frames (two vertical jambs + one lintel) repeat along each leg, so jamb
edges form one repeated archetype and the lintels of each leg another.
Generation is a pure function of the WorldSpec: same seed, same world.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PoseSE3, quat_from_axis_angle, quat_identity

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


@dataclass(frozen=True)
class WorldSegment:
    a: np.ndarray
    b: np.ndarray
    archetype: int

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if np.array_equal(self.a, self.b):
            raise ValueError("segment endpoints must differ")

    @property
    def vector(self) -> np.ndarray:
        return self.b - self.a

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.a + self.b)


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
        for name in ("corridor_length", "door_spacing", "door_height", "door_width"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.door_spacing >= self.corridor_length:
            raise ValueError("door_spacing must be smaller than corridor_length")
        if not math.isfinite(self.turn_angle):
            raise ValueError("turn_angle must be finite")
        for name in ("n_turns", "extra_unique_segments"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class World:
    """Segments and a ground-truth trajectory. `endpoints` (segments, 2, 3),
    `rotations` (frames, 4) and `translations` (frames, 3) are read-only
    stacks of the same values, built once."""

    segments: tuple[WorldSegment, ...]
    timestamps: np.ndarray  # seconds, strictly increasing
    poses: tuple[PoseSE3, ...]
    rng_seed: int
    endpoints: np.ndarray = field(init=False, repr=False, compare=False)
    rotations: np.ndarray = field(init=False, repr=False, compare=False)
    translations: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "poses", tuple(self.poses))
        if len(ts) != len(self.poses):
            raise ValueError("timestamps and poses must have equal length")
        stacks = {
            "endpoints": np.array([(s.a, s.b) for s in self.segments]).reshape(-1, 2, 3),
            "rotations": np.array([p.rotation for p in self.poses]).reshape(-1, 4),
            "translations": np.array([p.translation for p in self.poses]).reshape(-1, 3),
        }
        for name, stack in stacks.items():
            stack.flags.writeable = False
            object.__setattr__(self, name, stack)
        bad = ~np.isfinite(self.endpoints).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"segment {int(np.argmax(bad))} has a non-finite endpoint")
        bad_t = ~np.isfinite(ts)
        bad = bad_t | ~np.isfinite(np.column_stack([self.rotations, self.translations])).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            what = "timestamp" if bad_t[i] else "pose"
            raise ValueError(f"trajectory entry {i} has a non-finite {what}")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        if not any(c >= 2 for c in self.archetype_counts().values()):
            raise ValueError("world must contain at least one repeated archetype")

    @property
    def n_frames(self) -> int:
        return len(self.poses)

    def archetype_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for seg in self.segments:
            counts[seg.archetype] = counts.get(seg.archetype, 0) + 1
        return counts


def _heading_quat(heading_rad: float) -> np.ndarray:
    return quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), heading_rad)


def generate_corridor(spec: WorldSpec) -> World:
    spec.validate()
    rng = np.random.default_rng(spec.rng_seed)

    n_legs = spec.n_turns + 1
    leg_len = spec.corridor_length / n_legs
    turn_rad = np.deg2rad(spec.turn_angle)

    segments: list[WorldSegment] = []
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

    for leg, (origin, direction) in enumerate(zip(leg_starts, leg_dirs)):
        left = np.array([-direction[1], direction[0], 0.0])
        lintel_delta = _snap(spec.door_width * direction)
        n_doors = int(np.floor(leg_len / spec.door_spacing))
        for k in range(n_doors):
            base = _snap(origin + k * spec.door_spacing * direction + WALL_OFFSET_M * left)
            jamb1_a = base
            jamb2_a = base + lintel_delta  # exact: both on the dyadic grid
            segments.append(WorldSegment(jamb1_a, jamb1_a + jamb_delta, archetype=0))
            segments.append(WorldSegment(jamb2_a, jamb2_a + jamb_delta, archetype=0))
            segments.append(
                WorldSegment(jamb1_a + jamb_delta, jamb2_a + jamb_delta, archetype=1 + leg)
            )

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
        segments.append(
            WorldSegment(_snap(mid - half), _snap(mid + half), archetype=1 + n_legs + j)
        )

    # Walk the centerline at constant speed; turn in place at each corner.
    dt = 1.0 / FRAME_RATE_HZ
    step = WALK_SPEED_MPS * dt
    turn_step = np.deg2rad(TURN_RATE_DPS) * dt
    poses: list[PoseSE3] = []
    heading = 0.0
    for leg in range(n_legs):
        origin, direction = leg_starts[leg], leg_dirs[leg]
        n_steps = int(np.floor(leg_len / step))
        for k in range(n_steps):
            pos = origin + k * step * direction + np.array([0.0, 0.0, CAMERA_HEIGHT_M])
            poses.append(PoseSE3(_heading_quat(heading), pos))
        if leg < n_legs - 1:
            corner = leg_starts[leg + 1] + np.array([0.0, 0.0, CAMERA_HEIGHT_M])
            n_turn = max(1, int(round(abs(turn_rad) / turn_step)))
            target = heading + turn_rad
            for k in range(1, n_turn + 1):
                poses.append(PoseSE3(_heading_quat(heading + k * (target - heading) / n_turn), corner))
            heading = target

    timestamps = np.arange(len(poses)) * dt
    return World(tuple(segments), timestamps, tuple(poses), spec.rng_seed)


def world_to_json(world: World) -> dict:
    return {
        "segments": [
            {"a": list(s.a), "b": list(s.b), "archetype": s.archetype} for s in world.segments
        ],
        "trajectory": [
            {"t": float(t), "q": list(p.rotation), "p": list(p.translation)}
            for t, p in zip(world.timestamps, world.poses)
        ],
        "seed": world.rng_seed,
    }


def world_from_json(data: dict) -> World:
    for key in ("segments", "trajectory", "seed"):
        if key not in data:
            raise ValueError(f"world file missing section '{key}'")
    segments = []
    for i, s in enumerate(data["segments"]):
        for key in ("a", "b", "archetype"):
            if key not in s:
                raise ValueError(f"segment {i} missing field '{key}'")
        segments.append(WorldSegment(np.array(s["a"]), np.array(s["b"]), int(s["archetype"])))
    timestamps = []
    poses = []
    for i, entry in enumerate(data["trajectory"]):
        for key in ("t", "q", "p"):
            if key not in entry:
                raise ValueError(f"trajectory entry {i} missing field '{key}'")
        timestamps.append(float(entry["t"]))
        poses.append(PoseSE3(np.array(entry["q"]), np.array(entry["p"])))
    return World(tuple(segments), np.array(timestamps), tuple(poses), int(data["seed"]))


# `json.dumps(world_to_json(world), indent=1)`, one segment or pose at a time.
_SEGMENT_JSON = (
    '  {\n   "a": [\n    %r,\n    %r,\n    %r\n   ],\n'
    '   "b": [\n    %r,\n    %r,\n    %r\n   ],\n   "archetype": %d\n  }'
)
_POSE_JSON = (
    '  {\n   "t": %r,\n   "q": [\n    %r,\n    %r,\n    %r,\n    %r\n   ],\n'
    '   "p": [\n    %r,\n    %r,\n    %r\n   ]\n  }'
)


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n ]" if items else "[]"


def world_to_file(world: World, path) -> None:
    """Write `json.dumps(world_to_json(world), indent=1)` and a newline, byte
    for byte, from fixed templates: the indenting JSON encoder is pure
    Python and slow. A World holds only finite floats, whose `%r` is their
    JSON form."""
    ends = world.endpoints.reshape(-1, 6).tolist()
    segments = [_SEGMENT_JSON % (*e, s.archetype) for e, s in zip(ends, world.segments)]
    rows = np.column_stack([world.timestamps, world.rotations, world.translations]).tolist()
    poses = [_POSE_JSON % tuple(r) for r in rows]
    with open(path, "w") as f:
        f.write(
            '{\n "segments": %s,\n "trajectory": %s,\n "seed": %d\n}\n'
            % (_json_list(segments), _json_list(poses), world.rng_seed)
        )


def world_from_file(path) -> World:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed world file {path}: {exc}") from exc
    return world_from_json(data)
