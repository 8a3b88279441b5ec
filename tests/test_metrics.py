"""Trajectory metrics: alignment, ATE, RPE, TUM I/O, spline interpolation."""

import math
import re
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segdrift.metrics as metrics
from segdrift.frontend import DriftConfig, ObservationConfig
from segdrift.geometry import (
    BadRowError,
    Sim3,
    quat_from_axis_angle,
    quat_multiply,
    umeyama_alignment,
)
from segdrift.metrics import (
    ALIGN_MODES,
    MATCH_TOLERANCE_S,
    MetricsConfig,
    Trajectory,
    associate,
    ate,
    evaluate,
    read_tum,
    rpe,
    spline_interpolate,
    write_tum,
)
from segdrift.pipeline import ScheduleConfig, run
from segdrift.worldgen import WorldSpec, generate_corridor


@lru_cache(maxsize=None)
def corridor120_baseline():
    """The raw and ground-truth trajectories of a `baseline` run on the
    120 m, 3-turn world, with the drift and observation noise of the
    benchmark."""
    world = generate_corridor(WorldSpec(corridor_length=120.0, n_turns=3))
    rr = run(
        world,
        DriftConfig(scale_sigma=1e-3, rng_seed=1),
        ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=1001),
        ScheduleConfig(mode="baseline"),
    )
    return rr.emap.trajectory, world.trajectory


def straight_trajectory(n=10, step=1.0):
    ts = np.arange(n, dtype=float)
    pos = np.zeros((n, 3))
    pos[:, 0] = step * np.arange(n)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trajectory(ts, pos, quats)


def transformed(traj, t):
    """traj with every pose moved by the similarity t."""
    qs = quat_multiply(t.rotation, traj.quaternions)
    return Trajectory(traj.timestamps.copy(), t.apply(traj.positions), qs)


def random_sim3(rng):
    axis = rng.normal(size=3)
    q = quat_from_axis_angle(axis, rng.uniform(-np.pi, np.pi))
    return Sim3(float(rng.uniform(0.3, 3.0)), q, rng.uniform(-5, 5, size=3))


def matched_pairs(est, gt):
    """`associate`'s index arrays as a list of (est row, gt row) pairs."""
    ei, gi = associate(est, gt)
    return list(zip(ei.tolist(), gi.tolist()))


def ate_steps(est, gt, mode="similarity"):
    """ATE by `evaluate`'s own steps: associate, align, then `ate`."""
    ei, gi = associate(est, gt)
    return ate(est, gt, ei, gi, metrics._align(est, gt, ei, gi, mode))


def rpe_steps(est, gt, delta=MetricsConfig.rpe_delta):
    """RPE by `evaluate`'s own steps: associate, then `rpe`."""
    return rpe(est, gt, *associate(est, gt), delta)


def ate_of(est, gt, mode="similarity"):
    """The ATE `evaluate` reports under `mode`."""
    return evaluate(est, gt, MetricsConfig(mode, rpe_delta=1)).ate_rmse


def rpe_of(est, gt, delta):
    """The RPE `evaluate` reports at `delta`, on unaligned trajectories."""
    return evaluate(est, gt, MetricsConfig("none", delta)).rpe_rmse


# The per-pair scoring loops the array implementation replaced. They are the
# oracle: `associate`, `ate`, `rpe` and `evaluate` must equal them bit for bit.


def reference_associate(est, gt):
    pairs = []
    j = 0
    for i, t in enumerate(est.timestamps):
        while j + 1 < len(gt) and abs(gt.timestamps[j + 1] - t) <= abs(gt.timestamps[j] - t):
            j += 1
        if abs(gt.timestamps[j] - t) <= MATCH_TOLERANCE_S:
            pairs.append((i, j))
            j += 1
            if j >= len(gt):
                break
    return pairs


def reference_align(est, gt, mode):
    if mode not in ALIGN_MODES:
        raise ValueError(f"align_mode must be one of {ALIGN_MODES}, got {mode!r}")
    if mode == "none":
        return Sim3.identity()
    pairs = reference_associate(est, gt)
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 matched pose pairs to align, got {len(pairs)}")
    ei = np.array([i for i, _ in pairs])
    gi = np.array([j for _, j in pairs])
    return umeyama_alignment(est.positions[ei], gt.positions[gi], with_scale=(mode == "similarity"))


def reference_ate(est, gt, mode="similarity"):
    t = reference_align(est, gt, mode)
    pairs = reference_associate(est, gt)
    if not pairs:
        raise ValueError("no matched pose pairs")
    errs = [np.linalg.norm(gt.positions[j] - t.apply(est.positions[i])) for i, j in pairs]
    return float(np.sqrt(np.mean(np.square(errs))))


def reference_rpe(est, gt, delta=30):
    if delta < 1:
        raise ValueError(f"rpe_delta must be an integer >= 1, got {delta!r}")
    pairs = reference_associate(est, gt)
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 matched poses for RPE, got {len(pairs)}")
    errs = []
    for k in range(len(pairs) - delta):
        i0, j0 = pairs[k]
        i1, j1 = pairs[k + delta]
        rel_gt = gt.pose(j0).inverse().compose(gt.pose(j1))
        rel_est = est.pose(i0).inverse().compose(est.pose(i1))
        err = rel_gt.inverse().compose(rel_est)
        errs.append(np.linalg.norm(err.translation))
    if not errs:
        raise ValueError(f"no index pairs at delta={delta}")
    return float(np.sqrt(np.mean(np.square(errs))))


def outcome(f, *args):
    """The value f returns, or the message of the ValueError it raises."""
    try:
        return ("value", f(*args))
    except ValueError as exc:
        return ("error", str(exc))


def report_fields(rep):
    a = rep.alignment
    return (rep.ate_rmse, rep.rpe_rmse, rep.n_matched, a.scale, tuple(a.rotation),
            tuple(a.translation))


def reference_report_fields(est, gt, mode, delta):
    ate_rmse = reference_ate(est, gt, mode)
    rpe_rmse = reference_rpe(est, gt, delta)
    a = reference_align(est, gt, mode)
    return (ate_rmse, rpe_rmse, len(reference_associate(est, gt)), a.scale,
            tuple(a.rotation), tuple(a.translation))


@st.composite
def trajectory_pairs(draw):
    """A gt trajectory and an estimate with non-unit quaternions, some gt
    frames dropped and timestamps jittered, so association has gaps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    ts = np.cumsum(rng.uniform(0.02, 0.1, size=n))
    gt_pos = np.cumsum(rng.normal(0.0, 1.0, size=(n, 3)), axis=0)
    gt_q = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    gt = Trajectory(ts, gt_pos, gt_q)
    keep = rng.uniform(size=n) >= draw(st.sampled_from([0.0, 0.1, 0.5]))
    m = int(keep.sum())
    jitter = draw(st.sampled_from([0.0, 0.004, 0.009]))
    est_ts = ts[keep] + rng.uniform(-jitter, jitter, size=m)
    est_pos = draw(st.floats(0.5, 2.0)) * gt_pos[keep] + rng.normal(0.0, 0.1, size=(m, 3))
    est_q = gt_q[keep] + rng.normal(0.0, draw(st.sampled_from([0.0, 0.1, 1.0])), size=(m, 4))
    est = Trajectory(est_ts, est_pos, est_q)
    return est, gt


class TestTrajectory:
    @pytest.mark.parametrize(
        "field, row, value, message",
        [
            ("timestamps", 3, np.nan, "row 3: non-finite timestamp"),
            ("positions", 2, np.inf, "row 2: non-finite position"),
            ("quaternions", 4, -np.inf, "row 4: non-finite quaternion"),
            ("quaternions", 1, 0.0, "row 1: zero-norm quaternion"),
            # finite components whose norm overflows
            ("quaternions", 3, 1e300, "row 3: quaternion norm overflows"),
        ],
    )
    def test_bad_row_rejected_and_named(self, field, row, value, message):
        t = straight_trajectory(n=6)
        arrays = {"timestamps": t.timestamps.copy(), "positions": t.positions.copy(),
                  "quaternions": t.quaternions.copy()}
        arrays[field][row] = value
        with pytest.raises(ValueError, match=message):
            Trajectory(**arrays)

    @pytest.mark.parametrize("zero_row, huge_row", [(1, 4), (4, 1)])
    def test_first_bad_norm_named(self, zero_row, huge_row):
        t = straight_trajectory(n=6)
        qs = t.quaternions.copy()
        qs[zero_row] = 0.0
        qs[huge_row] = [1e300, 0.0, 0.0, 1e300]
        with pytest.raises(metrics.BadRowError) as exc:
            Trajectory(t.timestamps, t.positions, qs)
        assert exc.value.row == min(zero_row, huge_row)

    def test_tum_row_with_overflowing_norm_named(self, tmp_path):
        path = tmp_path / "est.tum"
        write_tum(straight_trajectory(n=6), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].split()[0] + " 0 0 0 1e300 0 0 1e300\n"
        path.write_text("# comment\n" + "".join(lines))
        with pytest.raises(ValueError, match=f"{path}:5: quaternion norm overflows"):
            read_tum(path)

    def test_non_increasing_timestamps_rejected(self):
        unit = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)), unit)

    def test_first_non_increasing_timestamp_row_named(self):
        unit = np.tile([1.0, 0.0, 0.0, 0.0], (6, 1))
        with pytest.raises(metrics.BadRowError, match=r"row 3: .* got 1\.5 after 2\.0") as exc:
            Trajectory(np.array([0.0, 1.0, 2.0, 1.5, 1.5, 3.0]), np.zeros((6, 3)), unit)
        assert exc.value.row == 3

    def test_tum_row_with_non_increasing_timestamp_named(self, tmp_path):
        path = tmp_path / "est.tum"
        write_tum(straight_trajectory(n=6), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = lines[3]
        path.write_text("# comment\n" + "".join(lines))
        with pytest.raises(ValueError, match=f"{path}:6: timestamps must be strictly increasing"):
            read_tum(path)

    def test_pose_gathers_integer_indices(self):
        t = straight_trajectory(n=6)
        for i in (2, -1, np.int64(4), [5, 0, 5], np.array([3, -2])):
            pose = t.pose(i)
            assert np.array_equal(pose.translation, t.positions[i])
            assert np.array_equal(pose.rotation, t.quaternions[i])

    @pytest.mark.parametrize("mask", [True, np.bool_(False), [True, False], np.ones(6, dtype=bool)])
    def test_pose_refuses_boolean_index(self, mask):
        # np.take reads True and False as rows 1 and 0, not as a mask
        with pytest.raises(ValueError, match="pose index must be an int or an integer index array"):
            straight_trajectory(n=6).pose(mask)

    def test_length_mismatch_rejected(self):
        unit = np.tile([1.0, 0.0, 0.0, 0.0], (2, 1))
        with pytest.raises(ValueError, match=r"positions must have shape \(1, 3\), got \(2, 3\)"):
            Trajectory(np.array([0.0]), np.zeros((2, 3)), unit)


NON_FINITE = [math.nan, math.inf, -math.inf]


def reference_first_bad_row(ts, ps, qs):
    """(row, reason) of the first row that fails a check, one row at a time
    in the documented order, or None if every row passes."""
    ts = ts.tolist()
    for i, (t, p, q) in enumerate(zip(ts, ps.tolist(), qs.tolist())):
        norm_sq = sum(x * x for x in q)
        for bad, reason in (
            (not math.isfinite(t), "non-finite timestamp"),
            (not all(map(math.isfinite, p)), "non-finite position"),
            (not all(map(math.isfinite, q)), "non-finite quaternion"),
            (norm_sq == 0.0, "zero-norm quaternion"),
            (not math.isfinite(norm_sq), "quaternion norm overflows"),
            (i > 0 and not t > ts[i - 1], f"timestamps must be strictly increasing, got {t!r} after {ts[i - 1]!r}"),
        ):
            if bad:
                return i, reason
    return None


@st.composite
def defective_arrays(draw):
    """Valid trajectory arrays with defects of every kind on random rows.
    Quaternion components are multiples of 1/4, so a row's norm is zero or
    overflows only through a defect."""
    n = draw(st.integers(1, 12))
    ts = np.cumsum(draw(st.lists(st.floats(0.125, 4.0), min_size=n, max_size=n)))
    ps = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    qs = 0.25 * np.array(draw(st.lists(st.integers(-8, 8), min_size=4 * n, max_size=4 * n))).reshape(n, 4)
    kinds = ["timestamp", "position", "quaternion", "zero", "overflow", "late"]
    for row, kind in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(kinds)), max_size=4)):
        if kind == "timestamp":
            ts[row] = draw(st.sampled_from(NON_FINITE))
        elif kind == "position":
            ps[row, draw(st.integers(0, 2))] = draw(st.sampled_from(NON_FINITE))
        elif kind == "quaternion":
            qs[row, draw(st.integers(0, 3))] = draw(st.sampled_from(NON_FINITE))
        elif kind == "zero":
            qs[row] = 0.0
        elif kind == "overflow":
            qs[row, draw(st.integers(0, 3))] = draw(st.sampled_from([1e200, -1e300]))
        elif row > 0:  # late: no later than the row before
            ts[row] = ts[row - 1] - draw(st.sampled_from([0.0, 0.5, 100.0]))
    return ts, ps, qs


class TestFirstBadRow:
    @settings(max_examples=300)
    @given(defective_arrays())
    def test_first_failing_row_and_check_named(self, arrays):
        expected = reference_first_bad_row(*arrays)
        if expected is None:
            Trajectory(*arrays)
            return
        with pytest.raises(BadRowError) as exc:
            Trajectory(*arrays)
        assert (exc.value.row, exc.value.reason) == expected
        assert str(exc.value) == f"trajectory row {expected[0]}: {expected[1]}"

    def test_arrays_are_read_only_copies(self):
        arrays = (np.arange(3.0), np.zeros((3, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))
        traj = Trajectory(*arrays)
        for given_array, held in zip(arrays, (traj.timestamps, traj.positions, traj.quaternions)):
            assert not np.shares_memory(given_array, held)
            with pytest.raises(ValueError):
                held[0] = 1.0


def tolerance_edge(g, sign):
    """The time farthest from `g` on the `sign` side that is still within
    MATCH_TOLERANCE_S of it, and the next float past it."""
    away = sign * math.inf
    t = g + sign * MATCH_TOLERANCE_S
    while abs(t - g) > MATCH_TOLERANCE_S:
        t = math.nextafter(t, g)
    while abs(math.nextafter(t, away) - g) <= MATCH_TOLERANCE_S:
        t = math.nextafter(t, away)
    return t, math.nextafter(t, away)


def edge_ground_truth():
    """40 poses 1 s apart on mixed-sign times, at scattered positions: far
    enough apart in time that each est row's nearest gt row is its own."""
    rng = np.random.default_rng(38)
    return Trajectory(np.arange(-20.0, 20.0), rng.normal(size=(40, 3)),
                      np.tile([1.0, 0.0, 0.0, 0.0], (40, 1)))


class TestAssociate:
    def test_identical_timestamps_full_match(self):
        t = straight_trajectory()
        assert matched_pairs(t, t) == [(i, i) for i in range(len(t))]

    def test_match_tolerance_is_inclusive(self):
        gt = stamped([0.0])
        assert matched_pairs(stamped([MATCH_TOLERANCE_S]), gt) == [(0, 0)]
        assert matched_pairs(stamped([np.nextafter(MATCH_TOLERANCE_S, 1.0)]), gt) == []

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["est-after-gt", "est-before-gt"])
    @pytest.mark.parametrize("score", [matched_pairs, ate_steps, rpe_steps, evaluate],
                             ids=["associate", "ate", "rpe", "evaluate"])
    def test_every_score_matches_to_the_tolerance_edge(self, score, sign):
        # Each est row at the last float within the tolerance of its gt row
        # matches it, so the score equals that on the gt's own timestamps.
        gt = edge_ground_truth()
        positions = gt.positions + np.random.default_rng(39).normal(scale=0.1, size=(len(gt), 3))
        est = Trajectory([tolerance_edge(g, sign)[0] for g in gt.timestamps.tolist()],
                         positions, gt.quaternions)
        same_times = Trajectory(gt.timestamps, positions, gt.quaternions)
        if score is matched_pairs:
            assert matched_pairs(est, gt) == [(k, k) for k in range(len(gt))]
        elif score is evaluate:
            assert report_fields(evaluate(est, gt)) == report_fields(evaluate(same_times, gt))
        else:
            assert score(est, gt) == score(same_times, gt)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["est-after-gt", "est-before-gt"])
    @pytest.mark.parametrize(
        "score, message",
        [
            (matched_pairs, None),
            (ate_steps, "need at least 3 matched pose pairs to align, got 0"),
            (rpe_steps, "need at least 2 matched poses for RPE, got 0"),
            (evaluate, "need at least 3 matched pose pairs to align, got 0"),
        ],
        ids=["associate", "ate", "rpe", "evaluate"],
    )
    def test_every_score_matches_nothing_past_the_edge(self, score, message, sign):
        gt = edge_ground_truth()
        est = Trajectory([tolerance_edge(g, sign)[1] for g in gt.timestamps.tolist()],
                         gt.positions, gt.quaternions)
        if message is None:
            assert score(est, gt) == []
        else:
            with pytest.raises(ValueError, match=re.escape(message)):
                score(est, gt)

    def test_one_to_one(self):
        # 20 est rows against the first 10 of them, spaced 1/0.6 tolerances apart
        spacing = MATCH_TOLERANCE_S / 0.6
        ei, gi = associate(stamped(spacing * np.arange(20)), stamped(spacing * np.arange(10)))
        assert len(gi) == len(set(gi.tolist()))


def list_associate(est, gt):
    """The list-of-tuples loop `associate` ran before it matched into index arrays."""
    gts = gt.timestamps.tolist()
    pairs = []
    j = 0
    for i, t in enumerate(est.timestamps.tolist()):
        while j + 1 < len(gts) and abs(gts[j + 1] - t) <= abs(gts[j] - t):
            j += 1
        if abs(gts[j] - t) <= MATCH_TOLERANCE_S:
            pairs.append((i, j))
            j += 1
            if j >= len(gts):
                break
    return pairs


def stamped(timestamps):
    n = len(timestamps)
    return Trajectory(np.array(timestamps), np.zeros((n, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)))


@st.composite
def timestamp_pairs(draw):
    """gt and est timestamps, mixed-sign; est is either drawn on its own or
    a subset of gt shifted by an offset inside, at or beyond the match
    tolerance."""
    stamps = st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=30, unique=True).map(sorted)
    gt = draw(stamps)
    if draw(st.booleans()):
        shift = MATCH_TOLERANCE_S * draw(st.sampled_from([0.0, 1e-7, -0.4, 0.5, 1.0, -1.0, 2.0, -50.0]))
        est = sorted({t + shift for t in draw(st.lists(st.sampled_from(gt), min_size=1))})
    else:
        est = draw(stamps)
    return stamped(est), stamped(gt)


HZ30 = np.arange(90) / 30.0
UNIT = MATCH_TOLERANCE_S / 1.5


class TestMatchIndices:
    @settings(max_examples=300)
    @given(timestamp_pairs())
    @example((stamped(HZ30), stamped(HZ30)))
    @example((stamped(np.arange(180) / 60.0), stamped(HZ30)))
    # Times in units of MATCH_TOLERANCE_S / 1.5: the last est row matches
    # the first gt row, the first est row the last gt row.
    @example((stamped(UNIT * np.array([-3.0, -2.0, -1.0])), stamped(UNIT * np.array([0.0, 1.0, 2.0]))))
    @example((stamped(UNIT * np.array([3.0, 4.0, 5.0])), stamped(UNIT * np.array([0.0, 1.0, 2.0]))))
    # one-row gt, matched by the first est row at exactly the tolerance
    @example((stamped(MATCH_TOLERANCE_S * np.array([1.0, 2.0, 3.0])), stamped([2 * MATCH_TOLERANCE_S])))
    # Distances from -2**-8 round to 2**-8, 2**-8, 2**-8 + 2**-60: the walk
    # steps onto row 1 through the rounding plateau and stops there.
    @example((stamped([-(2.0**-8)]), stamped(2.0**-62 * np.array([1.0, 2.0, 3.0]))))
    # From -2**-8 the first eight distances round equal: the walk stops on row 7.
    @example((stamped([-(2.0**-8)]), stamped(2.0**-64 * np.arange(1.0, 12.0))))
    @example((stamped(HZ30[::2] + MATCH_TOLERANCE_S + 1e-9), stamped(HZ30)))
    @example((stamped(HZ30[::2]), stamped(HZ30)))
    # Equal in value, so paired row for row, though one zero is negative.
    @example((stamped([-0.0, 1.0, 2.0]), stamped([0.0, 1.0, 2.0])))
    @example((stamped(HZ30[:45]), stamped(HZ30)))  # est a strict prefix of gt
    @example((stamped(HZ30), stamped(HZ30[:45])))  # gt a strict prefix of est
    def test_equals_list_of_tuples_loop(self, case):
        est, gt = case
        expected = list_associate(est, gt)
        walks = []
        walk = metrics._match_walk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_match_walk", lambda *args: walks.append(1) or walk(*args))
            ei, gi = associate(est, gt)
        # Trajectories on equal timestamps pair row for row; any other input walks.
        assert bool(walks) != np.array_equal(est.timestamps, gt.timestamps)
        assert ei.dtype == gi.dtype == np.intp
        assert list(zip(ei.tolist(), gi.tolist())) == expected

    def test_benchmark_run_pairs_row_for_row(self, monkeypatch):
        """A run cell scores one pose per frame against the ground truth, on
        the same timestamps: they pair row for row without the walk."""
        est, gt = corridor120_baseline()
        expected = list_associate(est, gt)
        assert len(expected) == len(gt)

        def walk(*args):
            raise AssertionError("the greedy walk ran")

        monkeypatch.setattr(metrics, "_match_walk", walk)
        assert matched_pairs(est, gt) == expected
        assert evaluate(est, gt).n_matched == len(gt)


class TestBadScoringArguments:
    """Bad delta values raise ValueError naming the value before any
    scoring: the trajectory's coincident positions would fail the
    alignment. An empty ground truth is refused before matching."""

    @pytest.mark.parametrize(
        "score",
        [
            pytest.param(rpe_steps, id="rpe"),
            # evaluate takes a MetricsConfig, which refuses the delta when built
            pytest.param(lambda est, gt, delta: evaluate(est, gt, MetricsConfig(rpe_delta=delta)),
                         id="evaluate"),
        ],
    )
    @pytest.mark.parametrize("delta", [True, 2.5, 0, -3, "30"])
    def test_bad_delta(self, score, delta):
        t = stamped(np.arange(50.0))
        message = f"rpe_delta must be an integer >= 1, got {delta!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            score(t, t, delta=delta)

    @pytest.mark.parametrize("score", [associate, ate_steps, rpe_steps, evaluate],
                             ids=["associate", "ate", "rpe", "evaluate"])
    def test_empty_ground_truth(self, score):
        with pytest.raises(ValueError, match="ground truth trajectory is empty"):
            score(stamped(np.arange(5.0)), stamped([]))


def alignment(est, gt, mode="similarity"):
    """The transform `evaluate` scores ATE through."""
    return evaluate(est, gt, MetricsConfig(mode, rpe_delta=1)).alignment


class TestAlign:
    def test_identity_on_equal_trajectories(self):
        t = straight_trajectory()
        out = alignment(t, t)
        assert out.scale == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.translation, 0.0, atol=1e-12)

    def test_scaled_copy_recovers_inverse_scale(self):
        gt = straight_trajectory()
        est = Trajectory(gt.timestamps, 2.0 * gt.positions, gt.quaternions)
        out = alignment(est, gt, mode="similarity")
        assert out.scale == pytest.approx(0.5, abs=1e-9)

    def test_rigid_mode_forces_unit_scale(self):
        gt = straight_trajectory()
        est = Trajectory(gt.timestamps, 2.0 * gt.positions, gt.quaternions)
        out = alignment(est, gt, mode="rigid")
        assert out.scale == 1.0

    def test_none_mode_identity(self):
        gt = straight_trajectory()
        out = alignment(gt, gt, mode="none")
        assert out.scale == 1.0
        assert np.array_equal(out.translation, np.zeros(3))

    def test_too_few_pairs_raises(self):
        t = straight_trajectory(n=2)
        with pytest.raises(ValueError, match="at least 3 matched pose pairs"):
            alignment(t, t)

    def test_unknown_mode_raises(self):
        t = straight_trajectory()
        message = f"align_mode must be one of {ALIGN_MODES}, got 'affine'"
        with pytest.raises(ValueError, match=re.escape(message)):
            alignment(t, t, mode="affine")
        with pytest.raises(ValueError, match=re.escape(message)):
            MetricsConfig(align_mode="affine")


class TestBatchedScoringEqualsReference:
    """Each step on index arrays, and evaluate, equal the per-pair loops
    bit for bit, errors included."""

    @given(trajectory_pairs(), st.sampled_from(ALIGN_MODES),
           st.one_of(st.integers(1, 8), st.integers(1, 64)),
           st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    def test_equal_to_per_pair_loops(self, pair, mode, delta, offset):
        # est times moved by an offset inside, at or beyond the tolerance
        est, gt = pair
        est = Trajectory(est.timestamps + offset * MATCH_TOLERANCE_S, est.positions, est.quaternions)
        assert matched_pairs(est, gt) == reference_associate(est, gt)
        assert outcome(ate_steps, est, gt, mode) == outcome(reference_ate, est, gt, mode)
        assert outcome(rpe_steps, est, gt, delta) == outcome(reference_rpe, est, gt, delta)
        config = MetricsConfig(mode, delta)
        assert outcome(lambda: report_fields(evaluate(est, gt, config))) == (
            outcome(reference_report_fields, est, gt, mode, delta)
        )

    def test_delta_past_pair_count_raises_same_message(self):
        t = straight_trajectory(n=5)
        with pytest.raises(ValueError, match="no index pairs at delta=5"):
            rpe_steps(t, t, delta=5)
        with pytest.raises(ValueError, match="no index pairs at delta=5"):
            evaluate(t, t, MetricsConfig(rpe_delta=5))

    def test_one_association_and_alignment_per_evaluate(self, monkeypatch):
        # Each step once, under the name a caller (or a tracer) looks up.
        calls = {"associate": 0, "ate": 0, "rpe": 0, "umeyama_alignment": 0}
        for name in calls:
            original = getattr(metrics, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(metrics, name, counted)
        gt = straight_trajectory(n=40)
        est = Trajectory(gt.timestamps, 1.1 * gt.positions, gt.quaternions)
        evaluate(est, gt, MetricsConfig("similarity", 5))
        assert calls == {"associate": 1, "ate": 1, "rpe": 1, "umeyama_alignment": 1}


class TestTimestampShift:
    """Scores read time only through the matching, which compares
    differences of timestamps: one shift of both clocks changes nothing."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 60),
           st.one_of(st.just(0.0), st.floats(-0.9, -0.01), st.floats(0.01, 0.9)),
           st.floats(-2e9, 2e9), st.sampled_from(ALIGN_MODES), st.integers(1, 8))
    @example(0, 40, 0.0, 1.3e9, "similarity", 5)
    @example(0, 40, 0.9, 1.3e9, "similarity", 5)
    def test_scores_unchanged(self, seed, n, offset, shift, mode, delta):
        # est on gt's own timestamps (offset 0, the row-for-row path), or a
        # subset of them moved by `offset` of the tolerance (the walk); gt
        # rows 0.03 s or more apart, so each est time stays nearest its own
        # gt row under any rounding of the shift
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.uniform(0.03, 0.1, size=n))
        gt = Trajectory(ts, np.cumsum(rng.normal(size=(n, 3)), axis=0), rng.normal(size=(n, 4)))
        keep = rng.uniform(size=n) >= (0.0 if offset == 0.0 else 0.2)
        noise = rng.normal(0.0, 0.1, size=(int(keep.sum()), 3))
        est = Trajectory(ts[keep] + offset * MATCH_TOLERANCE_S, 1.1 * gt.positions[keep] + noise,
                         gt.quaternions[keep])
        config = MetricsConfig(mode, delta)

        def scores(dt):
            e = Trajectory(est.timestamps + dt, est.positions, est.quaternions)
            g = Trajectory(gt.timestamps + dt, gt.positions, gt.quaternions)
            assert np.array_equal(e.timestamps, g.timestamps) == (offset == 0.0)
            rep = evaluate(e, g, config)
            return rep.ate_rmse, rep.rpe_rmse, rep.n_matched

        assert outcome(scores, 0.0) == outcome(scores, shift)


class TestUmeyamaRecovery:
    def test_recovers_random_sim3_500_trials(self):
        # Generate-and-recover: a noiseless Sim3-transformed cloud must
        # give back the generating transform within 1e-6.
        rng = np.random.default_rng(2024)
        for _ in range(500):
            t = random_sim3(rng)
            src = rng.uniform(-10, 10, size=(int(rng.integers(4, 40)), 3))
            dst = np.array([t.apply(p) for p in src])
            fit = umeyama_alignment(src, dst, with_scale=True)
            assert abs(fit.scale - t.scale) < 1e-6
            assert np.max(np.abs(np.array([fit.apply(p) for p in src]) - dst)) < 1e-6


class TestATE:
    def test_equal_trajectories_zero(self):
        t = straight_trajectory()
        assert ate_of(t, t) < 1e-12

    def test_translation_absorbed_by_rigid_alignment(self):
        gt = straight_trajectory()
        est = Trajectory(gt.timestamps, gt.positions + [1.0, 0.0, 0.0], gt.quaternions)
        assert ate_of(est, gt, mode="rigid") < 1e-9

    def test_hand_computed_three_point_case(self):
        # gt (0,0,0), (1,0,0), (2,0,0); est pre-aligned with a single
        # residual (0.3, 0, 0) on the last point; mode 'none' keeps the
        # fixed alignment: ATE = sqrt(0.09 / 3).
        ts = np.array([0.0, 1.0, 2.0])
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
        gt = Trajectory(ts, np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]), quats)
        est = Trajectory(ts, np.array([[0.0, 0, 0], [1.0, 0, 0], [2.3, 0, 0]]), quats)
        assert ate_of(est, gt, mode="none") == pytest.approx(np.sqrt(0.09 / 3), abs=1e-12)

    def test_similarity_ate_invariant_to_sim3_pretransform(self):
        rng = np.random.default_rng(5)
        gt = straight_trajectory(n=20)
        est = Trajectory(gt.timestamps, gt.positions + rng.normal(0, 0.1, (20, 3)),
                         gt.quaternions)
        base = ate_of(est, gt, mode="similarity")
        for _ in range(10):
            warped = transformed(est, random_sim3(rng))
            assert abs(ate_of(warped, gt, mode="similarity") - base) < 1e-9

    def test_similarity_residual_not_above_rigid(self):
        rng = np.random.default_rng(6)
        gt = straight_trajectory(n=20)
        est = Trajectory(gt.timestamps, 1.2 * gt.positions + rng.normal(0, 0.05, (20, 3)),
                         gt.quaternions)
        assert ate_of(est, gt, mode="similarity") <= ate_of(est, gt, mode="rigid") + 1e-12


class TestRPE:
    def test_equal_trajectories_zero(self):
        t = straight_trajectory()
        assert rpe_of(t, t, delta=1) < 1e-12

    def test_global_offset_invisible(self):
        gt = straight_trajectory()
        est = Trajectory(gt.timestamps, gt.positions + [3.0, -2.0, 1.0], gt.quaternions)
        assert rpe_of(est, gt, delta=1) < 1e-12

    def test_scale_inflation_matches_brute_force_oracle(self):
        # Straight line, 1 m steps, est positions inflated by (1 + eps):
        # compare against an independent per-pair accumulation.
        eps = 0.02
        gt = straight_trajectory(n=30)
        est = Trajectory(gt.timestamps, (1 + eps) * gt.positions, gt.quaternions)
        for delta in (1, 5):
            errs = []
            for k in range(len(gt) - delta):
                rel_gt = gt.positions[k + delta] - gt.positions[k]
                rel_est = est.positions[k + delta] - est.positions[k]
                errs.append(np.linalg.norm(rel_est - rel_gt))
            oracle = float(np.sqrt(np.mean(np.square(errs))))
            assert rpe_of(est, gt, delta=delta) == pytest.approx(oracle, abs=1e-12)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(8)
        gt = straight_trajectory(n=25)
        est = Trajectory(gt.timestamps, gt.positions + rng.normal(0, 0.05, (25, 3)),
                         gt.quaternions)
        base = rpe_of(est, gt, delta=3)
        t = random_sim3(rng)
        rigid = Sim3(1.0, t.rotation, t.translation)
        assert abs(rpe_of(transformed(est, rigid), gt, delta=3) - base) < 1e-9

    def test_bad_delta_raises(self):
        t = straight_trajectory()
        with pytest.raises(ValueError):
            rpe_steps(t, t, delta=0)


class TestFramesFitScoring:
    """`MetricsConfig.check_frames`: trajectories of n poses, all matched,
    must leave RPE a pair and, unless unaligned, 3 pairs to align."""

    @pytest.mark.parametrize(
        "config, n_frames, message",
        [
            (MetricsConfig(rpe_delta=120), 120, "metrics rpe_delta 120 must be below the world's frame count 120"),
            (MetricsConfig(rpe_delta=1), 2, "metrics align_mode 'similarity' needs at least 3 frames, the world has 2"),
            (MetricsConfig("rigid", 1), 2, "metrics align_mode 'rigid' needs at least 3 frames, the world has 2"),
        ],
    )
    def test_too_few_frames_rejected(self, config, n_frames, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config.check_frames(n_frames)

    @pytest.mark.parametrize(
        "config, n_frames",
        [(MetricsConfig(rpe_delta=119), 120), (MetricsConfig(rpe_delta=2), 3), (MetricsConfig("none", 1), 2)],
    )
    def test_frames_that_fit_accepted(self, config, n_frames):
        config.check_frames(n_frames)
        t = straight_trajectory(n=n_frames)
        evaluate(t, t, config)  # and scoring such trajectories succeeds


class TestSpline:
    def test_exact_at_control_points(self):
        rng = np.random.default_rng(9)
        times = np.sort(rng.uniform(0, 10, size=8))
        pos = rng.uniform(-5, 5, size=(8, 3))
        out = spline_interpolate(times, pos, times)
        assert np.max(np.abs(out - pos)) < 1e-9

    def test_reproduces_cubic_on_interior_spans(self):
        # Control points sampled from a cubic; querying midpoints of the
        # interior spans avoids natural-spline end effects.
        def poly(t):
            return np.stack([t**3 - 2 * t, 0.5 * t**3 + t**2, -t**3 + 4.0 * t], axis=-1)

        # The natural end condition (zero second derivative) perturbs the
        # fit near the boundary with a geometrically decaying amplitude
        # (factor ~0.27 per span), so only the deep interior (20 spans in)
        # is compared against the generating polynomial.
        times = np.linspace(0, 6, 61)
        pos = poly(times)
        interior = (times[20:-21] + times[21:-20]) / 2
        out = spline_interpolate(times, pos, interior)
        assert np.max(np.abs(out - poly(interior))) < 1e-9

    def test_extrapolation_refused(self):
        times = np.arange(5.0)
        pos = np.zeros((5, 3))
        with pytest.raises(ValueError):
            spline_interpolate(times, pos, np.array([-0.1]))

    def test_too_few_control_points(self):
        with pytest.raises(ValueError):
            spline_interpolate(np.arange(3.0), np.zeros((3, 3)), np.array([1.0]))


@st.composite
def spline_problems(draw):
    """(times, positions, queries): 4-400 knots with gaps varying up to
    100-fold, 1-3 columns, queries at every knot, both ends and between.
    Hypothesis draws the sizes and scales, a seeded generator the values."""
    n = draw(st.integers(4, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = 10.0 ** draw(st.integers(-3, 3)) * rng.uniform(0.01, 1.0, n - 1)
    times = draw(st.floats(-100, 100)) + np.concatenate([[0.0], np.cumsum(gaps)])
    positions = rng.uniform(-1, 1, (n, draw(st.integers(1, 3)))) * 10.0 ** draw(st.integers(-6, 6))
    between = rng.uniform(times[0], times[-1], draw(st.integers(0, 50)))
    return times, positions, np.concatenate([times, [times[0], times[-1]], between])


def span_cubics(times, positions):
    """Coefficients c[k, j] of u^j of the spline on span k, in u from 0 at
    times[k] to 1 at times[k + 1], fit to four spline values per span. The
    fit uses each query's u as rounded, not the nominal 0, 1/3, 2/3, 1."""
    h = np.diff(times)[:, None]
    queries = times[:-1, None] + np.array([0.0, 1 / 3, 2 / 3, 1.0]) * h
    queries[:, -1] = times[1:]
    us = (queries - times[:-1, None]) / h
    values = spline_interpolate(times, positions, queries)
    return np.linalg.solve(us[..., None] ** np.arange(4), values)


class TestNaturalSpline:
    @settings(max_examples=200)
    @given(spline_problems())
    def test_agrees_with_scipy_cubic_spline(self, problem):
        CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
        times, positions, queries = problem
        expected = CubicSpline(times, positions, axis=0, bc_type="natural")(queries)
        out = spline_interpolate(times, positions, queries)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(positions))

    @given(spline_problems())
    def test_exact_at_knots(self, problem):
        times, positions, _ = problem
        assert np.array_equal(spline_interpolate(times, positions, times), positions)

    @settings(max_examples=50)
    @given(spline_problems())
    def test_twice_differentiable_with_free_ends(self, problem):
        # Value, slope and curvature meet at every interior knot, and the
        # curvature is zero at both ends, to within fitting error.
        times, positions, _ = problem
        c = span_cubics(times, positions)
        h = np.diff(times)[:, None]
        # value, slope and curvature of each span at its first and last knot
        starts = [c[:, 0], c[:, 1] / h, 2 * c[:, 2] / h**2]
        ends = [
            c.sum(axis=1),
            (c[:, 1] + 2 * c[:, 2] + 3 * c[:, 3]) / h,
            (2 * c[:, 2] + 6 * c[:, 3]) / h**2,
        ]
        scale = np.max(np.abs(positions))
        for order, (end, start) in enumerate(zip(ends, starts)):
            tol = 1e-11 * scale / np.min(h) ** order
            assert np.max(np.abs(end[:-1] - start[1:])) <= tol
        assert np.max(np.abs([starts[2][0], ends[2][-1]])) <= tol  # the curvature bound

    def test_output_shapes(self):
        times = np.arange(5.0)
        assert spline_interpolate(times, np.zeros((5, 2)), np.array([0.5, 1.5, 4.0])).shape == (3, 2)
        assert spline_interpolate(times, np.zeros(5), np.array([0.5, 1.5, 4.0])).shape == (3, 1)
        assert spline_interpolate(times, np.zeros((5, 3)), np.array([])).shape == (0, 3)

    @pytest.mark.parametrize(
        "times, positions, queries, message",
        [
            ([0.0, 1.0, 2.0, np.inf], np.zeros(4), [1.0], "must be finite"),
            ([0.0, 1.0, np.nan, 3.0], np.zeros(4), [1.0], "must be finite"),
            (np.arange(4.0), [0.0, 1.0, np.nan, 3.0], [1.0], "must be finite"),
            (np.arange(4.0), [0.0, -np.inf, 2.0, 3.0], [1.0], "must be finite"),
            (np.arange(4.0), np.zeros(4), [1.0, np.nan], "query timestamps must be finite"),
            (np.arange(4.0), np.zeros(4), [np.inf], "query timestamps must be finite"),
            ([0.0, 2.0, 1.0, 3.0], np.zeros(4), [1.0], "strictly increasing"),
            ([0.0, 1.0, 1.0, 3.0], np.zeros(4), [1.0], "strictly increasing"),
        ],
    )
    def test_bad_input_raises(self, times, positions, queries, message):
        with pytest.raises(ValueError, match=message):
            spline_interpolate(np.array(times), np.array(positions), np.array(queries))


class TestInterpolateTrajectory:
    def test_slerps_orientations_between_bracketing_poses(self):
        times = np.arange(5.0)
        yaw = np.array([0.0, 0.4, 0.8, 1.2, 1.6])
        quats = np.stack([np.cos(yaw / 2), 0 * yaw, 0 * yaw, np.sin(yaw / 2)], axis=1)
        traj = Trajectory(times, np.zeros((5, 3)), quats)
        out = metrics.interpolate_trajectory(traj, np.array([0.0, 0.25, 2.5, 4.0]))
        expected = np.array([0.0, 0.1, 1.0, 1.6])
        assert np.allclose(out.quaternions[:, 0], np.cos(expected / 2), atol=1e-12)
        assert np.allclose(out.quaternions[:, 3], np.sin(expected / 2), atol=1e-12)
        assert np.array_equal(out.timestamps, [0.0, 0.25, 2.5, 4.0])


TUM_ROW = "%.9g " * 7 + "%.9g\n"


class TestTumIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        traj = Trajectory(
            np.arange(20, dtype=float) / 30.0,
            rng.uniform(-5, 5, size=(20, 3)),
            np.tile([1.0, 0.0, 0.0, 0.0], (20, 1)),
        )
        path = tmp_path / "traj.txt"
        write_tum(traj, path)
        back = read_tum(path)
        assert np.max(np.abs(back.positions - traj.positions)) < 1e-7
        assert np.max(np.abs(back.timestamps - traj.timestamps)) < 1e-7
        assert np.array_equal(back.quaternions, traj.quaternions)

    @given(
        st.integers(1, 30),
        st.floats(0.0, 1e4),
        st.lists(st.floats(-1e12, 1e12, allow_subnormal=False), min_size=90, max_size=90),
        st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=90, max_size=90),
        st.lists(st.floats(1e-3, 1e6), min_size=30, max_size=30),
    )
    def test_write_read_write_same_bytes(self, n, t0, pos, qxyz, qw):
        traj = Trajectory(
            t0 + np.arange(n) / 30.0,
            np.reshape(pos[: 3 * n], (n, 3)),
            np.column_stack([qw[:n], np.reshape(qxyz[: 3 * n], (n, 3))]),
        )
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.tum", Path(tmp) / "b.tum"
            write_tum(traj, first)
            back = read_tum(first)
            write_tum(back, second)
            assert first.read_bytes() == second.read_bytes()
        for orig, got in ((traj.timestamps, back.timestamps), (traj.positions, back.positions),
                          (traj.quaternions, back.quaternions)):
            np.testing.assert_allclose(got, orig, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize(
        "est_times, gt_times",
        [
            (HZ30, HZ30),
            (HZ30 - 1.5, HZ30 - 1.5),
            # 1e4 + k/30 rounds to 9 digits when written
            (1e4 + HZ30, 1e4 + HZ30),
            (np.sort(np.random.default_rng(12).uniform(-20.0, 20.0, 60)),) * 2,
            # "-0" and "0" read back equal in value
            ([-0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
        ],
        ids=["30hz", "mixed-sign", "rounded", "irregular", "signed-zero"],
    )
    def test_shared_timestamps_pair_row_for_row_after_round_trip(
        self, tmp_path, monkeypatch, est_times, gt_times
    ):
        # est and gt on the same timestamps, each written to its own file and
        # read back, still pair row for row without the walk: `%.9g` writes
        # both timestamp columns alike, and they parse back equal.
        rng = np.random.default_rng(13)
        n = len(gt_times)
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
        write_tum(Trajectory(est_times, rng.normal(size=(n, 3)), quats), tmp_path / "est.tum")
        write_tum(Trajectory(gt_times, rng.normal(size=(n, 3)), quats), tmp_path / "gt.tum")
        est, gt = read_tum(tmp_path / "est.tum"), read_tum(tmp_path / "gt.tum")

        def walk(*args):
            raise AssertionError("the greedy walk ran")

        monkeypatch.setattr(metrics, "_match_walk", walk)
        ei, gi = associate(est, gt)
        assert ei.tolist() == gi.tolist() == list(range(n))

    def test_row_format_matches_per_field_formatting(self, tmp_path):
        rng = np.random.default_rng(11)
        traj = Trajectory(np.arange(5) / 7.0, rng.normal(size=(5, 3)) * 1e5,
                          rng.normal(size=(5, 4)))
        path = tmp_path / "traj.txt"
        write_tum(traj, path)
        expected = "".join(
            " ".join(f"{v:.9g}" for v in [t, *p, q[1], q[2], q[3], q[0]]) + "\n"
            for t, p, q in zip(traj.timestamps, traj.positions, traj.quaternions)
        )
        assert path.read_text() == expected

    @pytest.mark.parametrize(
        "make_trajectory",
        [
            # signed zeros, subnormals and values near the float maximum
            lambda: Trajectory(
                [-0.0, 5e-324, 1e300],
                [[-0.0, 0.0, 5e-324], [-5e-324, 2.2250738585072014e-308, -1e300],
                 [1e300, -0.0, 1.5]],
                [[1.0, -0.0, 0.0, 5e-324], [-1e150, 0.0, -0.0, 1.0],
                 [5e-324, 1e150, -1e-310, -0.0]],
            ),
            lambda: Trajectory([0.25], [[1.0, -2.0, 3.0]], [[0.5, -0.5, 0.5, -0.5]]),  # one row
            # a column of 0.0 and -0.0 row by row: equal values, other bits
            lambda: Trajectory(
                np.arange(7.0),
                np.column_stack([np.tile([0.0, -0.0], 4)[:7], np.zeros(7), np.full(7, -0.0)]),
                np.tile([1.0, -0.0, 0.0, -0.0], (7, 1)),
            ),
            # 1000 equal rows, then one that differs in every column but time
            lambda: Trajectory(
                np.arange(1001) / 30.0,
                np.vstack([np.tile([1.5, -2.0, 0.1], (1000, 1)), [[1.5000001, -2.0000001, 0.2]]]),
                np.vstack([np.tile([0.5, 0.5, -0.5, 0.5], (1000, 1)), [[0.5, 0.5, -0.5, 0.6]]]),
            ),
            lambda: Trajectory(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 4))),  # empty
            lambda: corridor120_baseline()[1],
            lambda: corridor120_baseline()[0],
        ],
        ids=["extremes", "one-row", "signed-zeros", "long-run", "empty", "corridor120-gt",
             "corridor120-raw"],
    )
    def test_text_equals_per_row_join(self, tmp_path, make_trajectory):
        traj = make_trajectory()
        path = tmp_path / "traj.txt"
        text = write_tum(traj, path)
        q = traj.quaternions
        rows = np.column_stack([traj.timestamps, traj.positions, q[:, 1:], q[:, :1]]).tolist()
        assert text == "".join(TUM_ROW % tuple(row) for row in rows)
        assert path.read_text() == text
        if not len(traj):
            assert text == ""

    @pytest.mark.parametrize(
        "make_pair, shared",
        [
            # raw poses under scale drift: the ground truth's times and orientations
            (lambda: corridor120_baseline(), [True, False, False, False, True, True, True, True]),
            (
                lambda: (
                    Trajectory(np.arange(4.0) + 0.5, np.full((4, 3), 2.0), np.full((4, 4), 0.5)),
                    Trajectory(np.arange(4.0), np.ones((4, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))),
                ),
                [False] * 8,
            ),
            # qy and qz equal the reference's in value, but hold -0.0 for 0.0
            (
                lambda: (
                    Trajectory(np.arange(4.0), np.ones((4, 3)), np.tile([1.0, 0.0, -0.0, -0.0], (4, 1))),
                    Trajectory(np.arange(4.0), np.ones((4, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))),
                ),
                [True, True, True, True, True, False, False, True],
            ),
        ],
        ids=["shared-times-and-quaternions", "shared-nothing", "signed-zeros"],
    )
    def test_reference_columns_change_no_byte(self, tmp_path, make_pair, shared):
        traj, ref = make_pair()
        ref_columns = metrics.tum_columns(ref)
        columns = metrics.tum_columns(traj, ref_columns)
        assert [c is r for c, r in zip(columns, ref_columns)] == shared
        text = write_tum(traj, tmp_path / "with.tum", ref_columns)
        assert text == write_tum(traj, tmp_path / "without.tum")
        assert (tmp_path / "with.tum").read_text() == text

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan 0 0 0 0 0 0 1", "non-finite timestamp"),
            ("1 nan 0 0 0 0 0 1", "non-finite position"),
            ("1 0 0 0 0 inf 0 1", "non-finite quaternion"),
            ("1 0 0 0 0 0 0 0", "zero-norm quaternion"),
            ("1 0 0 0 1e-170 1e-170 1e-170 1e-170", "zero-norm quaternion"),
        ],
    )
    def test_bad_row_reports_location(self, tmp_path, row, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n0 0 0 0 0 0 0 1\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.txt:3: {message}"):
            read_tum(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("# header\n\n0 1 2 3 0 0 0 1\n1 2 3 4 0 0 0 1\n")
        traj = read_tum(path)
        assert len(traj) == 2
        assert np.array_equal(traj.quaternions[0], [1.0, 0.0, 0.0, 0.0])

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3 0 0 0 1\n1 2 3\n")
        with pytest.raises(ValueError, match=":2"):
            read_tum(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ValueError):
            read_tum(path)


class TestEvaluate:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(12)
        gt = straight_trajectory(n=40)
        est = Trajectory(gt.timestamps, gt.positions + rng.normal(0, 0.02, (40, 3)),
                         gt.quaternions)
        rep = evaluate(est, gt, MetricsConfig("similarity", 5))
        assert rep.ate_rmse == pytest.approx(ate_steps(est, gt, mode="similarity"))
        assert rep.rpe_rmse == pytest.approx(rpe_steps(est, gt, delta=5))
        assert rep.n_matched == 40
        assert rep.config == MetricsConfig("similarity", 5)
        out = rep.to_json()
        assert list(out) == ["ate_rmse", "rpe_rmse", "align_mode", "rpe_delta", "n_matched", "alignment"]
        assert out["align_mode"] == "similarity"
        assert out["rpe_delta"] == 5
        assert out["alignment"]["scale"] == rep.alignment.scale
