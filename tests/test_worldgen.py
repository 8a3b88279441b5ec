"""Synthetic corridor world generation."""

import json

import numpy as np
import pytest

from segdrift.geometry import PoseSE3, quat_rotate
from segdrift.worldgen import (
    FRAME_RATE_HZ,
    World,
    WorldSegment,
    WorldSpec,
    generate_corridor,
    world_from_file,
    world_from_json,
    world_to_file,
    world_to_json,
)


def spec(**kw):
    base = dict(corridor_length=20, door_spacing=2)
    base.update(kw)
    return WorldSpec(**base)


class TestSpecValidation:
    def test_spacing_must_fit(self):
        with pytest.raises(ValueError):
            WorldSpec(corridor_length=2, door_spacing=5).validate()

    def test_positive_lengths(self):
        with pytest.raises(ValueError):
            WorldSpec(corridor_length=-1, door_spacing=2).validate()
        with pytest.raises(ValueError):
            WorldSpec(corridor_length=10, door_spacing=2, door_height=0).validate()


    @pytest.mark.parametrize(
        "name, bad",
        [
            ("corridor_length", [float("nan"), float("inf")]),
            ("door_spacing", [float("nan"), float("inf")]),
            ("door_height", [float("nan"), float("inf")]),
            ("door_width", [float("nan"), float("inf")]),
            ("turn_angle", [float("nan"), float("inf")]),
            ("n_turns", [-1, float("nan")]),
            ("extra_unique_segments", [-1, float("nan")]),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                WorldSpec(**{name: value}).validate()


class TestCorridorStructure:
    def test_door_count_straight(self):
        w = generate_corridor(spec())
        jambs = [s for s in w.segments if s.archetype == 0]
        # 10 doors -> 20 vertical edges.
        assert len(jambs) == 20

    def test_jamb_vectors_identical_up_to_sign(self):
        w = generate_corridor(spec())
        expected = np.array([0.0, 0.0, 2.0])
        for s in w.segments:
            if s.archetype == 0:
                v = s.vector
                assert np.array_equal(v, expected) or np.array_equal(-v, expected)

    def test_archetype_vectors_bitwise_equal(self):
        w = generate_corridor(spec(n_turns=1, extra_unique_segments=2))
        by_arch = {}
        for s in w.segments:
            by_arch.setdefault(s.archetype, []).append(s.vector)
        for vs in by_arch.values():
            ref = vs[0]
            for v in vs[1:]:
                assert np.array_equal(v, ref) or np.array_equal(-v, ref)

    def test_clutter_archetypes_unique(self):
        w = generate_corridor(spec(extra_unique_segments=4))
        clutter = [s.archetype for s in w.segments if s.archetype >= 2]
        assert len(clutter) == 4
        assert len(set(clutter)) == 4

    def test_single_turn_changes_heading_once(self):
        w = generate_corridor(spec(n_turns=1, turn_angle=90))
        fwd = np.array([1.0, 0.0, 0.0])
        headings = [quat_rotate(p.rotation, fwd) for p in w.poses]
        angles = [
            np.degrees(np.arccos(np.clip(np.dot(a, b), -1, 1)))
            for a, b in zip(headings[:-1], headings[1:])
        ]
        total = sum(angles)
        assert abs(total - 90) < 1e-6
        # The turn is contiguous: nonzero heading increments form one block.
        moving = [i for i, a in enumerate(angles) if a > 1e-9]
        assert moving == list(range(moving[0], moving[-1] + 1))

    def test_trajectory_timestamps_frame_rate(self):
        w = generate_corridor(spec())
        dt = np.diff(w.timestamps)
        assert np.allclose(dt, 1.0 / FRAME_RATE_HZ)
        assert all(d > 0 for d in dt)

    def test_deterministic(self):
        a = generate_corridor(spec(extra_unique_segments=3, rng_seed=7))
        b = generate_corridor(spec(extra_unique_segments=3, rng_seed=7))
        assert json.dumps(world_to_json(a)) == json.dumps(world_to_json(b))

    def test_seed_changes_clutter(self):
        a = generate_corridor(spec(extra_unique_segments=3, rng_seed=1))
        b = generate_corridor(spec(extra_unique_segments=3, rng_seed=2))
        assert json.dumps(world_to_json(a)) != json.dumps(world_to_json(b))


class TestWorldValidation:
    def test_requires_repeated_archetype(self):
        w = generate_corridor(spec())
        with pytest.raises(ValueError):
            World(w.segments[:1], w.timestamps, w.poses, 0)

    def test_requires_increasing_timestamps(self):
        w = generate_corridor(spec())
        bad_ts = w.timestamps.copy()
        bad_ts[1] = bad_ts[0]
        with pytest.raises(ValueError):
            World(w.segments, bad_ts, w.poses, 0)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_segment_endpoint_rejected(self, bad):
        w = generate_corridor(spec())
        segments = list(w.segments)
        a = segments[3].a.copy()
        a[1] = bad
        segments[3] = WorldSegment(a, segments[3].b, segments[3].archetype)
        with pytest.raises(ValueError, match="segment 3 has a non-finite endpoint"):
            World(segments, w.timestamps, w.poses, 0)

    @pytest.mark.parametrize("field", ["t", "q", "p"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf / inf
    def test_non_finite_trajectory_entry_rejected(self, field, bad):
        doc = world_to_json(generate_corridor(spec()))
        if field == "t":
            doc["trajectory"][-1]["t"] = bad  # the last one, so timestamps still increase
            entry, what = len(doc["trajectory"]) - 1, "timestamp"
        else:
            doc["trajectory"][7][field][2] = bad
            entry, what = 7, "pose"
        with pytest.raises(ValueError, match=f"trajectory entry {entry} has a non-finite {what}"):
            world_from_json(doc)


def odd_world():
    """A turning, cluttered world with -0.0 coordinates in a segment and a pose."""
    w = generate_corridor(spec(n_turns=2, turn_angle=-60.0, extra_unique_segments=5, rng_seed=4))
    segments = list(w.segments)
    segments.append(WorldSegment(np.array([-0.0, 1.5, -0.0]), np.array([0.25, -0.0, 2.0]), 99))
    poses = list(w.poses)
    poses[2] = PoseSE3(poses[2].rotation, np.array([-0.0, 0.5, 1.5]))
    return World(segments, w.timestamps, poses, 12)


class TestSerialization:
    @pytest.mark.parametrize(
        "world",
        [
            lambda: generate_corridor(spec()),
            lambda: generate_corridor(spec(corridor_length=60, n_turns=2, extra_unique_segments=150)),
            odd_world,
        ],
    )
    def test_file_bytes_equal_indented_json(self, tmp_path, world):
        w = world()
        path = tmp_path / "world.json"
        world_to_file(w, path)
        assert path.read_text() == json.dumps(world_to_json(w), indent=1) + "\n"

    def test_empty_trajectory_bytes_equal_indented_json(self, tmp_path):
        w = generate_corridor(spec())
        empty = World(w.segments, np.zeros(0), (), 3)
        world_to_file(empty, tmp_path / "world.json")
        assert (tmp_path / "world.json").read_text() == json.dumps(world_to_json(empty), indent=1) + "\n"

    def test_negative_zero_round_trips(self, tmp_path):
        w = odd_world()
        world_to_file(w, tmp_path / "world.json")
        back = world_from_file(tmp_path / "world.json")
        assert back.segments[-1].a.tobytes() == w.segments[-1].a.tobytes()
        assert back.poses[2].translation.tobytes() == w.poses[2].translation.tobytes()

    def test_json_round_trip(self, tmp_path):
        w = generate_corridor(spec(n_turns=1, extra_unique_segments=2, rng_seed=3))
        path = tmp_path / "world.json"
        world_to_file(w, path)
        back = world_from_file(path)
        assert json.dumps(world_to_json(back)) == json.dumps(world_to_json(w))

    def test_missing_section_rejected(self):
        doc = world_to_json(generate_corridor(spec()))
        del doc["segments"]
        with pytest.raises(ValueError, match="segments"):
            world_from_json(doc)

    def test_missing_field_rejected(self):
        doc = world_to_json(generate_corridor(spec()))
        del doc["segments"][0]["a"]
        with pytest.raises(ValueError):
            world_from_json(doc)
