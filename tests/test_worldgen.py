"""Synthetic corridor world generation."""

import json
import math
import re
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from segdrift import worldgen
from segdrift.geometry import Trajectory, quat_rotate
from segdrift.worldgen import (
    COORD_QUANTUM,
    FRAME_RATE_HZ,
    MAX_WORLD_SIZE,
    World,
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


# Specs whose generation would overflow a float, each with the field it
# names: a leg count too large for a float (refused by the leg budget), a
# frame count or door count that is not finite, or a coordinate that snaps
# to inf.
OVERFLOWING_SPECS = [
    ({"corridor_length": 40.0, "n_turns": 10**400}, "n_turns"),
    ({"corridor_length": 40, "n_turns": 10**400}, "n_turns"),
    ({"corridor_length": 1e308, "door_spacing": 1e307}, "corridor_length"),
    ({"corridor_length": 1e303, "door_spacing": 1e302}, "corridor_length"),
    ({"door_spacing": 1e-320}, "door_spacing"),
    ({"door_height": 1e308}, "door_height"),
    ({"door_width": 1e308}, "door_width"),
]

# Finite specs whose world would hold more legs, frames or segments than
# MAX_WORLD_SIZE, each with the field it names. Generating any of them
# would take gigabytes or hours, so they are only ever refused.
HUGE_SPECS = [
    ({"corridor_length": 1e9}, "corridor_length"),  # 3e10 frames
    ({"corridor_length": 40.0, "door_spacing": 1e-6}, "door_spacing"),  # 4e7 doors per leg
    ({"corridor_length": 1e7, "n_turns": 10**6}, "n_turns"),
    ({"extra_unique_segments": 10**9}, "extra_unique_segments"),
]


class TestSpecValidation:
    @pytest.mark.parametrize("fields, named", OVERFLOWING_SPECS)
    def test_overflowing_spec_refused_naming_its_field(self, fields, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{named} "):
                WorldSpec(**fields)

    @pytest.mark.parametrize("fields", [fields for fields, named in OVERFLOWING_SPECS if named == "n_turns"])
    def test_leg_count_beyond_a_float_is_over_the_budget(self, fields):
        legs = fields["n_turns"] + 1
        with pytest.raises(ValueError, match=rf"^n_turns \d+ gives a world of {legs} legs, over the budget "):
            WorldSpec(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"n_turns": 2**63 - 1},
            {"corridor_length": 1e9},
            {"corridor_length": 40.0, "door_spacing": 1e-6},
            {"extra_unique_segments": 10**9},
            {"door_height": 1e308},
            {"door_spacing": 5e-324},
        ],
        ids=["legs", "frames", "doors", "extra-segments", "snap", "door-count"],
    )
    def test_numpy_scalar_message_equals_python_number_message(self, fields):
        twin = {k: np.int64(v) if isinstance(v, int) else np.float64(v) for k, v in fields.items()}
        messages = []
        for spec_fields in (fields, twin):
            with pytest.raises(ValueError) as refused:
                WorldSpec(**spec_fields)
            messages.append(str(refused.value))
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("fields, named", HUGE_SPECS)
    def test_huge_spec_refused_naming_its_field(self, fields, named):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^{named} .* over the budget of {MAX_WORLD_SIZE} "):
            WorldSpec(**fields)
        assert time.perf_counter() - start < 0.5

    def test_world_at_the_budget_accepted(self):
        # the default spec has 20 doors of 3 segments; the budget counts them
        at_budget = MAX_WORLD_SIZE - 60
        assert WorldSpec(extra_unique_segments=at_budget).extra_unique_segments == at_budget
        with pytest.raises(ValueError, match=rf"^extra_unique_segments .* {MAX_WORLD_SIZE + 1} segments"):
            WorldSpec(extra_unique_segments=at_budget + 1)
        with pytest.raises(ValueError, match=r"^turn_angle .* frames"):
            WorldSpec(n_turns=3, turn_angle=1e9)

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"n_turns": 3, "turn_angle": 45.0},
            {"corridor_length": 60.0, "n_turns": 2, "turn_angle": -135.0, "extra_unique_segments": 7},
        ],
    )
    def test_budget_counts_what_the_generator_builds(self, fields):
        s = WorldSpec(**fields)
        w = generate_corridor(s)
        legs = s.n_turns + 1
        assert w.n_frames == legs * s.frames_per_leg + s.n_turns * s.frames_per_turn
        assert len(w.endpoints) == 3 * legs * s.doors_per_leg + s.extra_unique_segments

    def test_largest_snappable_door_height_generates(self):
        # The snap divides by COORD_QUANTUM, a power of two: the largest
        # height it keeps finite is accepted and one float above is not.
        edge = sys.float_info.max * COORD_QUANTUM
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            world = generate_corridor(spec(door_height=edge))
            with pytest.raises(ValueError, match="^door_height "):
                spec(door_height=math.nextafter(edge, math.inf))
        assert vectors(world)[0, 2] == edge

    def test_spacing_must_fit(self):
        with pytest.raises(ValueError):
            WorldSpec(corridor_length=2, door_spacing=5)

    def test_spacing_must_fit_a_door_in_each_leg(self):
        # 2 m legs hold no door 3 m apart, so no archetype would repeat
        with pytest.raises(ValueError, match=r"door_spacing 3 .* n_turns 4 .* legs of 2\.0 m"):
            WorldSpec(corridor_length=10, n_turns=4, door_spacing=3)
        # a leg exactly one spacing long holds one door
        assert WorldSpec(corridor_length=6, n_turns=2, door_spacing=2).doors_per_leg == 1
        # the largest int64 count of turns is a count of legs, not wrapped below 0
        with pytest.raises(ValueError, match=rf"^n_turns .* gives a world of {2**63} legs, over the budget "):
            WorldSpec(n_turns=np.int64(2**63 - 1))

    @pytest.mark.parametrize(
        "length, turns, spacing", [(6, 2, 2), (10, 4, 2), (20, 0, 2), (20, 1, 3)]
    )
    def test_generator_places_doors_per_leg_in_each_leg(self, length, turns, spacing):
        # the spec's check and the generator read the same door count
        s = WorldSpec(corridor_length=length, n_turns=turns, door_spacing=spacing)
        w = generate_corridor(s)
        assert np.count_nonzero(w.archetypes == 0) == 2 * s.doors_per_leg * (turns + 1)
        for leg in range(turns + 1):
            assert np.count_nonzero(w.archetypes == 1 + leg) == s.doors_per_leg

    def test_positive_lengths(self):
        with pytest.raises(ValueError):
            WorldSpec(corridor_length=-1, door_spacing=2)
        with pytest.raises(ValueError):
            WorldSpec(corridor_length=10, door_spacing=2, door_height=0)


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
                WorldSpec(**{name: value})


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
        headings = [quat_rotate(q, fwd) for q in w.trajectory.quaternions]
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
        dt = np.diff(w.trajectory.timestamps)
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
        bad_ts = w.trajectory.timestamps.copy()
        bad_ts[1] = bad_ts[0]
        with pytest.raises(ValueError):
            replace(w.trajectory, timestamps=bad_ts)

    def test_first_non_increasing_timestamp_named(self):
        w = generate_corridor(spec())
        bad_ts = w.trajectory.timestamps.copy()
        bad_ts[7] = bad_ts[6]  # equal
        bad_ts[9] = bad_ts[3]  # and later a step back
        t = bad_ts[7].item()
        reason = re.escape(f"7: timestamps must be strictly increasing, got {t!r} after {t!r}")
        with pytest.raises(ValueError, match="trajectory row " + reason):
            replace(w.trajectory, timestamps=bad_ts)
        message = "trajectory entry " + reason
        doc = world_to_json(w)
        doc["trajectory"]["t"] = bad_ts.tolist()
        with pytest.raises(ValueError, match=message):
            world_from_json(doc)


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_segment_endpoint_rejected(self, bad):
        w = generate_corridor(spec())
        ends = w.endpoints.copy()
        ends[3, 0, 1] = bad
        with pytest.raises(ValueError, match="segment 3 has a non-finite endpoint"):
            replace(w, endpoints=ends)

    @pytest.mark.parametrize("field, width", [("t", 1), ("q", 4), ("p", 3)])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_trajectory_column_entry_rejected(self, field, width, bad):
        doc = world_to_json(generate_corridor(spec()))
        column = doc["trajectory"][field]
        if field == "t":
            column[-1] = bad  # the last one, so timestamps still increase
            entry, what = len(column) - 1, "timestamp"
        else:
            column[7 * width + 2] = bad
            entry, what = 7, {"q": "quaternion", "p": "position"}[field]
        with pytest.raises(ValueError, match=f"trajectory entry {entry}: non-finite {what}"):
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
            ("quaternions", lambda t: t.quaternions[:, :3], "quaternions must have shape"),
            ("positions", lambda t: t.positions[1:], "positions must have shape"),
            ("positions", lambda t: t.positions.ravel(), r"positions must have shape \(600, 3\), got \(1800,\)"),
            ("timestamps", lambda t: 0.0, "timestamps must have shape"),
        ],
    )
    def test_bad_shape_or_dtype_rejected(self, field, value, named):
        # World's own arrays, and the arrays of its trajectory
        w = generate_corridor(spec())
        owner = w if field in ("endpoints", "archetypes") else w.trajectory
        with pytest.raises(ValueError, match=named):
            replace(owner, **{field: value(owner)})

    def test_zero_quaternion_rejected(self):
        t = generate_corridor(spec()).trajectory
        rotations = t.quaternions.copy()
        rotations[4] = 0.0
        with pytest.raises(ValueError, match="trajectory row 4: zero-norm quaternion"):
            replace(t, quaternions=rotations)

    def test_overflowing_quaternion_norm_rejected(self):
        w = generate_corridor(spec())
        rotations = w.trajectory.quaternions.copy()
        rotations[3] = [1e300, 0.0, 0.0, 1e300]
        with pytest.raises(ValueError, match="trajectory row 3: quaternion norm overflows"):
            replace(w.trajectory, quaternions=rotations)
        doc = world_to_json(w)
        doc["trajectory"]["q"][12:16] = [1e300, 0.0, 0.0, 1e300]
        with pytest.raises(ValueError, match="trajectory entry 3: quaternion norm overflows"):
            world_from_json(doc)

    def test_first_bad_entry_of_several_named(self):
        # a zero quaternion at entry 2, then a NaN position at entry 4
        doc = world_to_json(generate_corridor(spec()))
        doc["trajectory"]["q"][8:12] = [0.0] * 4
        doc["trajectory"]["p"][13] = float("nan")
        with pytest.raises(ValueError, match="^trajectory entry 2: zero-norm quaternion$"):
            world_from_json(doc)

    def test_first_bad_quaternion_named(self):
        t = generate_corridor(spec()).trajectory
        rotations = t.quaternions.copy()
        rotations[5] = 0.0
        rotations[6] = [1e300, 0.0, 0.0, 1e300]
        with pytest.raises(ValueError, match="trajectory row 5: zero-norm quaternion"):
            replace(t, quaternions=rotations)

    def test_rotations_normalised_and_arrays_read_only(self):
        w = generate_corridor(spec())
        t = w.trajectory
        doubled_input = replace(t, quaternions=2.0 * t.quaternions)
        doubled = replace(w, trajectory=doubled_input)
        assert np.array_equal(doubled.trajectory.quaternions, t.quaternions)
        assert doubled.trajectory is not doubled_input
        assert replace(w, trajectory=t).trajectory is t  # already unit to the bit
        assert w.archetypes.dtype == np.int64
        for array in (w.endpoints, w.archetypes, t.timestamps, t.quaternions, t.positions):
            with pytest.raises(ValueError):
                array[0] = 0


class TestWorldFileFields:
    @pytest.mark.parametrize("seed", [0.7, 3.0, "3", True])
    def test_non_integer_seed_rejected(self, seed):
        doc = world_to_json(generate_corridor(spec()))
        doc["seed"] = seed
        with pytest.raises(ValueError, match="field 'seed' must be an integer"):
            world_from_json(doc)

    @pytest.mark.parametrize(
        "section, value, named",
        [
            (None, [], "world file must be a JSON object"),
            (None, None, "world file must be a JSON object"),
            ("segments", None, "world file section 'segments' must be an object, got NoneType"),
            ("trajectory", None, "world file section 'trajectory' must be an object, got NoneType"),
            ("segments", True, "world file section 'segments' must be an object, got bool"),
            ("trajectory", False, "world file section 'trajectory' must be an object, got bool"),
            ("segments", 5, "world file section 'segments' must be an object, got int"),
            ("trajectory", 5, "world file section 'trajectory' must be an object, got int"),
            ("segments", 0.5, "world file section 'segments' must be an object, got float"),
            ("trajectory", 0.5, "world file section 'trajectory' must be an object, got float"),
            ("segments", "abc", "world file section 'segments' must be an object, got str"),
            ("trajectory", "abc", "world file section 'trajectory' must be an object, got str"),
            # the layout of files written before the columnar one: an object per segment or pose
            (
                "segments", [{"a": [0.0, 0.0, 0.0], "b": [0.0, 0.0, 2.0], "archetype": 0}],
                "world file section 'segments' must be an object, got list",
            ),
            (
                "trajectory", [{"t": 0.0, "q": [1.0, 0.0, 0.0, 0.0], "p": [0.0, 0.0, 1.5]}],
                "world file section 'trajectory' must be an object, got list",
            ),
        ],
    )
    def test_bad_section_named(self, tmp_path, section, value, named):
        doc = value if section is None else {**columns(), section: value}
        (tmp_path / "world.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{named}$"):
            world_from_file(tmp_path / "world.json")


def columns(**kw):
    return world_to_json(generate_corridor(spec(**kw)))


class TestWorldFileColumns:
    """Each field of a columnar section is one flat list; an error names
    section, field and entry."""

    @pytest.mark.parametrize(
        "section, field, index, value, named",
        [
            ("segments", "a", 16, True, r"segments field 'a' entry 5 must be 3 numbers, got \[.*True"),
            ("segments", "a", 15, "2.0", "segments field 'a' entry 5 must be 3 numbers, got \\['2.0'"),
            ("segments", "b", 17, None, "segments field 'b' entry 5 must be 3 numbers, got .*None"),
            ("segments", "a", 15, [1.0], "segments field 'a' entry 5 must be 3 numbers"),
            ("segments", "archetype", 5, 0.7, "segments field 'archetype' entry 5 must be an integer, got 0.7"),
            ("segments", "archetype", 5, 1.0, "segments field 'archetype' entry 5 must be an integer, got 1.0"),
            ("segments", "archetype", 5, True, "segments field 'archetype' entry 5 must be an integer, got True"),
            ("segments", "archetype", 5, "1", "segments field 'archetype' entry 5 must be an integer, got '1'"),
            ("trajectory", "q", 21, False, "trajectory field 'q' entry 5 must be 4 numbers"),
            ("trajectory", "p", 17, "0.5", "trajectory field 'p' entry 5 must be 3 numbers"),
            ("trajectory", "t", 5, "0.5", "trajectory field 't' entry 5 must be a number, got '0.5'"),
            ("trajectory", "t", 5, [0.5], r"trajectory field 't' entry 5 must be a number, got \[0.5\]"),
            # JSON integers too large for int64 or float
            ("segments", "archetype", 5, 2**63, "segments field 'archetype' entry 5 holds a number out of range"),
            (
                "segments", "archetype", 5, -(2**63) - 1,
                "segments field 'archetype' entry 5 holds a number out of range",
            ),
            ("segments", "a", 16, 10**400, "segments field 'a' entry 5 holds a number out of range"),
            ("trajectory", "t", 5, 10**400, "trajectory field 't' entry 5 holds a number out of range"),
            ("trajectory", "q", 23, -(10**400), "trajectory field 'q' entry 5 holds a number out of range"),
        ],
    )
    def test_bad_number_named(self, section, field, index, value, named):
        doc = columns()
        doc[section][field][index] = value
        with pytest.raises(ValueError, match=named):
            world_from_json(doc)

    def test_first_bad_entry_named(self):
        doc = columns()
        doc["trajectory"]["p"][20] = 10**400  # entry 6
        doc["trajectory"]["p"][9] = True  # entry 3
        with pytest.raises(ValueError, match="trajectory field 'p' entry 3 must be 3 numbers"):
            world_from_json(doc)

    @pytest.mark.parametrize(
        "section, field, cut, named",
        [
            ("segments", "a", 1, "segments field 'a' entry 29 has 2 of 3 numbers"),
            ("segments", "b", 2, "segments field 'b' entry 29 has 1 of 3 numbers"),
            ("trajectory", "q", 1, "trajectory field 'q' entry 599 has 3 of 4 numbers"),
            ("trajectory", "p", 2, "trajectory field 'p' entry 599 has 1 of 3 numbers"),
        ],
    )
    def test_length_not_a_multiple_of_the_width_named(self, section, field, cut, named):
        doc = columns()
        assert len(doc["segments"]["archetype"]) == 30 and len(doc["trajectory"]["t"]) == 600
        del doc[section][field][-cut:]
        with pytest.raises(ValueError, match=named):
            world_from_json(doc)

    @pytest.mark.parametrize(
        "section, field, change, named",
        [
            (
                "trajectory", "q", lambda v: v[:-4],
                "trajectory field 'q' has 599 entries, field 't' 600: entry 599 has no 'q'",
            ),
            (
                "trajectory", "p", lambda v: v + [0.0] * 6,
                "trajectory field 'p' has 602 entries, field 't' 600: entry 600 has no 't'",
            ),
            (
                "trajectory", "t", lambda v: v[:-1],
                "trajectory field 'q' has 600 entries, field 't' 599: entry 599 has no 't'",
            ),
            (
                "segments", "archetype", lambda v: v + [0],
                "segments field 'archetype' has 31 entries, field 'a' 30: entry 30 has no 'a'",
            ),
            (
                "segments", "b", lambda v: v[:-3],
                "segments field 'b' has 29 entries, field 'a' 30: entry 29 has no 'b'",
            ),
        ],
    )
    def test_unequal_entry_counts_named(self, section, field, change, named):
        doc = columns()
        doc[section][field] = change(doc[section][field])
        with pytest.raises(ValueError, match=named):
            world_from_json(doc)

    def test_two_d_endpoints_rejected_not_rechunked(self):
        doc = columns(corridor_length=8)
        assert len(doc["segments"]["archetype"]) == 12
        for key in ("a", "b"):  # keep x and z: 24 numbers, 8 three-D entries
            doc["segments"][key] = [x for i, x in enumerate(doc["segments"][key]) if i % 3 != 1]
        with pytest.raises(ValueError, match="segments field 'archetype' has 12 entries, field 'a' 8"):
            world_from_json(doc)

    @pytest.mark.parametrize(
        "section, field, value, named",
        [
            ("segments", "a", {"x": 0.0}, "segments field 'a' must be a list, got dict"),
            ("segments", "b", None, "segments field 'b' must be a list, got NoneType"),
            ("segments", "archetype", "0, 0, 1", "segments field 'archetype' must be a list, got str"),
            ("trajectory", "t", 0, "trajectory field 't' must be a list, got int"),
            ("trajectory", "q", True, "trajectory field 'q' must be a list, got bool"),
            ("trajectory", "p", 0.5, "trajectory field 'p' must be a list, got float"),
        ],
    )
    def test_field_not_a_list_named(self, section, field, value, named):
        doc = columns()
        doc[section][field] = value
        with pytest.raises(ValueError, match=named):
            world_from_json(doc)

    @pytest.mark.parametrize(
        "section, field",
        [
            ("segments", "a"), ("segments", "b"), ("segments", "archetype"),
            ("trajectory", "t"), ("trajectory", "q"), ("trajectory", "p"),
        ],
    )
    def test_missing_field_named(self, section, field):
        doc = columns()
        del doc[section][field]
        with pytest.raises(ValueError, match=f"world file section '{section}' missing field '{field}'"):
            world_from_json(doc)

    def test_integer_coordinates_accepted(self):
        doc = columns()
        doc["segments"]["a"][:3] = [int(x) for x in doc["segments"]["a"][:3]]
        doc["trajectory"]["t"][0] = 0
        w = world_from_json(doc)
        assert w.endpoints[0, 0].tolist() == doc["segments"]["a"][:3]
        assert w.trajectory.timestamps[0] == 0.0


def odd_world():
    """A turning, cluttered world with -0.0 coordinates in a segment and a pose."""
    w = generate_corridor(spec(n_turns=2, turn_angle=-60.0, extra_unique_segments=5, rng_seed=4))
    ends = np.append(w.endpoints, [[[-0.0, 1.5, -0.0], [0.25, -0.0, 2.0]]], axis=0)
    translations = w.trajectory.positions.copy()
    translations[2] = [-0.0, 0.5, 1.5]
    trajectory = replace(w.trajectory, positions=translations)
    return replace(
        w, endpoints=ends, archetypes=np.append(w.archetypes, 99), trajectory=trajectory, rng_seed=12
    )


def signed_zero_column_world():
    """A world whose pose column z holds both 0.0 and -0.0: the writer keys
    floats by their bits, so each must keep its sign."""
    w = generate_corridor(spec(n_turns=1))
    translations = w.trajectory.positions.copy()
    translations[1::2, 2] = -0.0
    assert np.signbit(translations[:, 2]).any() and not np.signbit(translations[:, 2]).all()
    return replace(w, trajectory=replace(w.trajectory, positions=translations))


def assert_same_world(back, w):
    for name in ("endpoints", "archetypes"):
        assert getattr(back, name).dtype == getattr(w, name).dtype
        assert getattr(back, name).tobytes() == getattr(w, name).tobytes(), name
    for name in ("timestamps", "quaternions", "positions"):
        assert getattr(back.trajectory, name).dtype == getattr(w.trajectory, name).dtype
        assert getattr(back.trajectory, name).tobytes() == getattr(w.trajectory, name).tobytes(), name
    assert back.rng_seed == w.rng_seed


def extreme_world():
    """Floats whose text must round-trip exactly: signed zeros, subnormals,
    1e308 and integral floats, in segments, timestamps and poses."""
    ends = [
        [[-0.0, 5e-324, 1e308], [2.0, -1e308, -0.0]],
        [[1e16, -5e-324, 2.225073858507201e-308], [-0.0, 0.0, 3.0]],
        [[4.0, 4.0, 4.0], [4.0, 4.0, 5.0]],
    ]
    ts = [-0.0, 5e-324, 1e-310, 2.0, 1e16, 1e308]
    q = [[1.0, 0.0, -0.0, 5e-324], [-0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0]] * 2
    p = [[-0.0, 1e308, -1e308], [5e-324, -5e-324, 2.0], [1e16, 3.0, -0.0]] * 2
    return World(np.array(ends), np.array([0, 0, 7]), Trajectory(np.array(ts), np.array(p), np.array(q)), 5)


def per_field_json(w) -> str:
    """`world_to_file`'s text, each list formatted by `json.dumps`."""
    doc = world_to_json(w)
    seg, traj = doc["segments"], doc["trajectory"]
    lists = [json.dumps(x) for x in (seg["a"], seg["b"], seg["archetype"], traj["t"], traj["q"], traj["p"])]
    return (
        '{\n "seed": %d,\n "segments": {\n  "a": %s,\n  "b": %s,\n  "archetype": %s\n },\n'
        ' "trajectory": {\n  "t": %s,\n  "q": %s,\n  "p": %s\n }\n}\n'
    ) % (doc["seed"], *lists)


WORLDS = [
    lambda: generate_corridor(spec()),
    lambda: generate_corridor(spec(corridor_length=60, n_turns=2, extra_unique_segments=150)),
    lambda: generate_corridor(spec(corridor_length=120, n_turns=3)),
    odd_world,
    signed_zero_column_world,
    extreme_world,
    lambda: replace(
        generate_corridor(spec()),
        trajectory=Trajectory([], np.zeros((0, 3)), np.zeros((0, 4))),
        rng_seed=3,
    ),
]


class TestSerialization:
    @pytest.mark.parametrize("world", WORLDS)
    def test_file_bytes_equal_json_dumps_per_field(self, tmp_path, world):
        w = world()
        path = tmp_path / "world.json"
        world_to_file(w, path)
        text = path.read_text()
        assert text == per_field_json(w)
        assert json.loads(text) == world_to_json(w)
        assert text.count("\n") == 13  # a line per field

    @pytest.mark.parametrize("world", WORLDS)
    def test_bit_exact_round_trip(self, tmp_path, world):
        w = world()
        world_to_file(w, tmp_path / "world.json")
        assert_same_world(world_from_file(tmp_path / "world.json"), w)

    @pytest.mark.parametrize("style", [{"separators": (",", ":")}, {"indent": 2, "sort_keys": True}])
    @pytest.mark.parametrize("world", WORLDS)
    def test_non_canonical_text_loads_to_identical_world(self, tmp_path, world, style):
        # A file not in world_to_file's text, compact or re-indented with its
        # keys reordered, reads to the same bits.
        w = world()
        text = json.dumps(world_to_json(w), **style)
        assert text != per_field_json(w)
        (tmp_path / "world.json").write_text(text)
        assert_same_world(world_from_file(tmp_path / "world.json"), w)

    def test_loaded_world_keeps_the_trajectory_it_was_built_with(self, tmp_path, monkeypatch):
        # Written unit quaternions read back unit to the bit, so World keeps
        # world_from_json's Trajectory instead of building a normalised copy.
        world_to_file(generate_corridor(spec(n_turns=1)), tmp_path / "world.json")
        built = []

        def recorded(*args):
            built.append(Trajectory(*args))
            return built[-1]

        monkeypatch.setattr(worldgen, "Trajectory", recorded)
        w = world_from_file(tmp_path / "world.json")
        assert len(built) == 1 and w.trajectory is built[0]

    def test_rewrite_byte_identical(self, tmp_path):
        w = odd_world()
        world_to_file(w, tmp_path / "a.json")
        world_to_file(world_from_file(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_negative_zero_round_trips(self, tmp_path):
        w = odd_world()
        world_to_file(w, tmp_path / "world.json")
        back = world_from_file(tmp_path / "world.json")
        assert back.endpoints[-1, 0].tobytes() == w.endpoints[-1, 0].tobytes()
        assert back.trajectory.positions[2].tobytes() == w.trajectory.positions[2].tobytes()

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
