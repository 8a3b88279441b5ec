"""Synthetic corridor world generation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from segdrift.geometry import quat_rotate
from segdrift.worldgen import (
    FRAME_RATE_HZ,
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


def vectors(w):
    """Each segment's b - a."""
    return w.endpoints[:, 1] - w.endpoints[:, 0]


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
            ("n_turns", [-1, float("nan"), 1.5, True]),
            ("extra_unique_segments", [-1, float("nan"), 2.5, 3.0]),
            ("rng_seed", [-1, 0.5, True]),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                WorldSpec(**{name: value}).validate()


class TestCorridorStructure:
    def test_door_count_straight(self):
        w = generate_corridor(spec())
        jambs = [k for k in w.archetypes.tolist() if k == 0]
        # 10 doors -> 20 vertical edges.
        assert len(jambs) == 20

    def test_jamb_vectors_identical_up_to_sign(self):
        w = generate_corridor(spec())
        expected = np.array([0.0, 0.0, 2.0])
        for v, k in zip(vectors(w), w.archetypes.tolist()):
            if k == 0:
                assert np.array_equal(v, expected) or np.array_equal(-v, expected)

    def test_archetype_vectors_bitwise_equal(self):
        w = generate_corridor(spec(n_turns=1, extra_unique_segments=2))
        by_arch = {}
        for v, k in zip(vectors(w), w.archetypes.tolist()):
            by_arch.setdefault(k, []).append(v)
        for vs in by_arch.values():
            ref = vs[0]
            for v in vs[1:]:
                assert np.array_equal(v, ref) or np.array_equal(-v, ref)

    def test_clutter_archetypes_unique(self):
        w = generate_corridor(spec(extra_unique_segments=4))
        clutter = [k for k in w.archetypes.tolist() if k >= 2]
        assert len(clutter) == 4
        assert len(set(clutter)) == 4

    def test_single_turn_changes_heading_once(self):
        w = generate_corridor(spec(n_turns=1, turn_angle=90))
        fwd = np.array([1.0, 0.0, 0.0])
        headings = [quat_rotate(q, fwd) for q in w.rotations]
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
            replace(w, endpoints=w.endpoints[:1], archetypes=w.archetypes[:1])

    def test_requires_increasing_timestamps(self):
        w = generate_corridor(spec())
        bad_ts = w.timestamps.copy()
        bad_ts[1] = bad_ts[0]
        with pytest.raises(ValueError):
            replace(w, timestamps=bad_ts)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_segment_endpoint_rejected(self, bad):
        w = generate_corridor(spec())
        ends = w.endpoints.copy()
        ends[3, 0, 1] = bad
        with pytest.raises(ValueError, match="segment 3 has a non-finite endpoint"):
            replace(w, endpoints=ends)

    @pytest.mark.parametrize("field", ["t", "q", "p"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
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


class TestWorldArrays:
    def test_zero_length_segment_rejected(self):
        w = generate_corridor(spec())
        ends = w.endpoints.copy()
        ends[3, 1] = ends[3, 0]
        with pytest.raises(ValueError, match="segment 3 endpoints must differ"):
            replace(w, endpoints=ends)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("endpoints", lambda w: w.endpoints[:, :, :2], "endpoints must have shape"),
            ("endpoints", lambda w: w.endpoints.reshape(-1, 3), "endpoints must have shape"),
            ("archetypes", lambda w: w.archetypes[1:], "archetypes must have shape"),
            ("archetypes", lambda w: w.archetypes + 0.7, "archetypes must be integers"),
            ("rotations", lambda w: w.rotations[:, :3], "rotations must have shape"),
            ("translations", lambda w: w.translations[1:], "translations must have shape"),
            ("timestamps", lambda w: 0.0, "timestamps must have shape"),
        ],
    )
    def test_bad_shape_or_dtype_rejected(self, field, value, named):
        w = generate_corridor(spec())
        with pytest.raises(ValueError, match=named):
            replace(w, **{field: value(w)})

    def test_zero_quaternion_rejected(self):
        w = generate_corridor(spec())
        rotations = w.rotations.copy()
        rotations[4] = 0.0
        with pytest.raises(ValueError, match="trajectory entry 4 has a zero quaternion"):
            replace(w, rotations=rotations)

    def test_rotations_normalised_and_arrays_read_only(self):
        w = generate_corridor(spec())
        doubled = replace(w, rotations=2.0 * w.rotations)
        assert np.array_equal(doubled.rotations, w.rotations)
        assert w.archetypes.dtype == np.int64
        for name in ("endpoints", "archetypes", "timestamps", "rotations", "translations"):
            with pytest.raises(ValueError):
                getattr(w, name)[0] = 0


class TestWorldFileFields:
    @pytest.mark.parametrize(
        "section, field, value, named",
        [
            ("segments", "a", [1.0, 2.0], "segment 5 field 'a' must be 3 numbers"),
            ("segments", "b", [1.0, 2.0, 3.0, 4.0], "segment 5 field 'b' must be 3 numbers"),
            ("segments", "a", [1.0, "2.0", 3.0], "segment 5 field 'a' must be 3 numbers"),
            ("segments", "b", [1.0, None, 3.0], "segment 5 field 'b' must be 3 numbers"),
            ("segments", "a", 1.0, "segment 5 field 'a' must be 3 numbers"),
            ("segments", "archetype", 0.7, "segment 5 field 'archetype' must be an integer"),
            ("segments", "archetype", 1.0, "segment 5 field 'archetype' must be an integer"),
            ("segments", "archetype", True, "segment 5 field 'archetype' must be an integer"),
            ("trajectory", "q", [1.0, 0.0, 0.0], "trajectory entry 5 field 'q' must be 4 numbers"),
            ("trajectory", "q", [True, 0, 0, 0], "trajectory entry 5 field 'q' must be 4 numbers"),
            ("trajectory", "p", [0.0, 0.5, 1.5, 0.0], "trajectory entry 5 field 'p' must be 3 numbers"),
            ("trajectory", "p", {"x": 0.0}, "trajectory entry 5 field 'p' must be 3 numbers"),
            ("trajectory", "t", "0.5", "trajectory entry 5 field 't' must be a number"),
            # JSON integers too large for int64 or float
            ("segments", "archetype", 2**63, "segment 5 field 'archetype' holds a number out of range"),
            ("segments", "archetype", -(2**63) - 1, "segment 5 field 'archetype' holds a number out of range"),
            ("segments", "a", [0.0, 10**400, 1.0], "segment 5 field 'a' holds a number out of range"),
            ("trajectory", "t", 10**400, "trajectory entry 5 field 't' holds a number out of range"),
        ],
    )
    def test_bad_field_named(self, section, field, value, named):
        doc = world_to_json(generate_corridor(spec()))
        doc[section][5][field] = value
        with pytest.raises(ValueError, match=named):
            world_from_json(doc)

    @pytest.mark.parametrize("seed", [0.7, 3.0, "3", True])
    def test_non_integer_seed_rejected(self, seed):
        doc = world_to_json(generate_corridor(spec()))
        doc["seed"] = seed
        with pytest.raises(ValueError, match="field 'seed' must be an integer"):
            world_from_json(doc)

    @pytest.mark.parametrize(
        "doc, named",
        [
            ([], "must be a JSON object"),
            ({"segments": 5, "trajectory": [], "seed": 0}, "section 'segments' must be a list, got int"),
            ({"segments": [], "trajectory": "abc", "seed": 0}, "section 'trajectory' must be a list, got str"),
        ],
    )
    def test_bad_section_named(self, doc, named):
        with pytest.raises(ValueError, match=named):
            world_from_json(doc)

    def test_two_d_endpoints_rejected_not_rechunked(self):
        doc = world_to_json(generate_corridor(spec(corridor_length=8)))
        assert len(doc["segments"]) == 12
        for seg in doc["segments"]:  # keep x and z: no segment collapses
            seg["a"], seg["b"] = seg["a"][::2], seg["b"][::2]
        with pytest.raises(ValueError, match="segment 0 field 'a' must be 3 numbers"):
            world_from_json(doc)

    def test_integer_coordinates_accepted(self):
        doc = world_to_json(generate_corridor(spec()))
        doc["segments"][0]["a"] = [int(x) for x in doc["segments"][0]["a"]]
        doc["trajectory"][0]["t"] = 0
        w = world_from_json(doc)
        assert w.endpoints[0, 0].tolist() == doc["segments"][0]["a"]
        assert w.timestamps[0] == 0.0


def odd_world():
    """A turning, cluttered world with -0.0 coordinates in a segment and a pose."""
    w = generate_corridor(spec(n_turns=2, turn_angle=-60.0, extra_unique_segments=5, rng_seed=4))
    ends = np.append(w.endpoints, [[[-0.0, 1.5, -0.0], [0.25, -0.0, 2.0]]], axis=0)
    translations = w.translations.copy()
    translations[2] = [-0.0, 0.5, 1.5]
    return replace(
        w, endpoints=ends, archetypes=np.append(w.archetypes, 99), translations=translations, rng_seed=12
    )


def signed_zero_column_world():
    """A world whose pose column z holds both 0.0 and -0.0: the writer keys
    floats by their bits, so each must keep its sign."""
    w = generate_corridor(spec(n_turns=1))
    translations = w.translations.copy()
    translations[1::2, 2] = -0.0
    assert np.signbit(translations[:, 2]).any() and not np.signbit(translations[:, 2]).all()
    return replace(w, translations=translations)


class TestSerialization:
    @pytest.mark.parametrize(
        "world",
        [
            lambda: generate_corridor(spec()),
            lambda: generate_corridor(spec(corridor_length=60, n_turns=2, extra_unique_segments=150)),
            lambda: generate_corridor(spec(corridor_length=120, n_turns=3)),
            odd_world,
            signed_zero_column_world,
        ],
    )
    def test_file_bytes_equal_indented_json(self, tmp_path, world):
        w = world()
        path = tmp_path / "world.json"
        world_to_file(w, path)
        assert path.read_text() == json.dumps(world_to_json(w), indent=1) + "\n"

    def test_empty_trajectory_bytes_equal_indented_json(self, tmp_path):
        w = generate_corridor(spec())
        empty = replace(w, timestamps=[], rotations=np.zeros((0, 4)), translations=np.zeros((0, 3)), rng_seed=3)
        world_to_file(empty, tmp_path / "world.json")
        assert (tmp_path / "world.json").read_text() == json.dumps(world_to_json(empty), indent=1) + "\n"

    def test_negative_zero_round_trips(self, tmp_path):
        w = odd_world()
        world_to_file(w, tmp_path / "world.json")
        back = world_from_file(tmp_path / "world.json")
        assert back.endpoints[-1, 0].tobytes() == w.endpoints[-1, 0].tobytes()
        assert back.translations[2].tobytes() == w.translations[2].tobytes()

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
