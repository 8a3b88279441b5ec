"""End-to-end pipeline: scheduling, optimization rounds, pose propagation."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segdrift import clustering, pipeline
from segdrift.clustering import ClusterStore
from segdrift.clusteropt import DEFAULT_ANCHOR_WEIGHT, DEFAULT_ITERATION_CAP, build_problem
from segdrift.cli import OBS_SEED_OFFSET
from segdrift.frontend import OBS_FRAME, DriftConfig, ObservationConfig, simulate
from segdrift.geometry import (
    Sim3,
    Trajectory,
    quat_from_axis_angle,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    umeyama_alignment,
)
from segdrift.metrics import MetricsConfig, evaluate
from segdrift.pipeline import (
    KEYFRAME_INTERVAL, LOCAL_WINDOW, MIN_MOVED, MODES, MOVED_TOLERANCE, NEIGHBORHOOD, ScheduleConfig, correct,
    propagate_to_poses, run,
)
from segdrift.worldgen import World, WorldSpec, generate_corridor


def make_world(**kw):
    base = dict(corridor_length=20, door_spacing=2)
    base.update(kw)
    return generate_corridor(WorldSpec(**base))


class TestScheduleConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ScheduleConfig(mode="turbo")

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("rel_threshold", [-1.0, 0.0, float("nan"), float("inf"), "0.005", None, True, 10**400]),
        ],
    )
    def test_non_finite_or_out_of_range_field_rejected(self, name, bad):
        for value in bad:
            with pytest.raises(ValueError, match=name):
                ScheduleConfig(**{name: value})

    def test_defaults_accepted(self):
        ScheduleConfig()

    def test_holds_only_what_a_mode_reads(self):
        # the round spacing is KEYFRAME_INTERVAL, the local window
        # LOCAL_WINDOW and the solve settings OptProblem's
        assert [f.name for f in fields(ScheduleConfig)] == ["mode", "rel_threshold"]

    @pytest.mark.parametrize("mode", ["baseline", "seg"])
    def test_store_holds_the_schedule_gate(self, mode):
        r = run(make_world(), DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0),
                ScheduleConfig(mode=mode, rel_threshold=0.01))
        assert r.store.rel_threshold == 0.01


class TestBaseline:
    def test_baseline_equals_raw_trajectory(self):
        w = make_world()
        r = run(w, DriftConfig(scale_sigma=1e-3, rng_seed=2), ObservationConfig(rng_seed=2),
                ScheduleConfig(mode="baseline"))
        assert np.array_equal(r.corrected_trajectory.positions, r.emap.trajectory.positions)
        assert np.array_equal(r.corrected_trajectory.quaternions, r.emap.trajectory.quaternions)
        assert r.reports == []
        assert len(r.store) == 0


class TestTrajectoriesShared:
    """A baseline run hands out its raw trajectory as the corrected one,
    uncopied; a solving run makes its own."""

    @pytest.mark.parametrize("mode", ["baseline", "seg"])
    def test_corrected_is_the_raw_trajectory_in_baseline_only(self, mode):
        w = make_world()
        r = run(w, DriftConfig(scale_sigma=1e-3, rng_seed=2), ObservationConfig(rng_seed=2),
                ScheduleConfig(mode=mode))
        assert (r.corrected_trajectory is r.emap.trajectory) == (mode == "baseline")

    @pytest.mark.parametrize("mode", MODES)
    def test_store_is_bound_to_the_runs_map(self, mode):
        # baseline binds its empty store to the simulated map; a solving run
        # binds it to a copy, whose points the solves move and the poses follow
        w = make_world()
        drift, obs = DriftConfig(scale_sigma=1e-3, rng_seed=2), ObservationConfig(rng_seed=2)
        r = run(w, drift, obs, ScheduleConfig(mode=mode))
        assert r.emap.points.tobytes() == simulate(w, drift, obs).points.tobytes()
        if mode == "baseline":
            assert r.store.emap is r.emap
            return
        moved = r.store.emap
        assert moved is not r.emap and r.reports
        assert not np.array_equal(moved.points, r.emap.points)
        for name in ("first_seen", "observations", "trajectory"):
            assert getattr(moved, name) is getattr(r.emap, name)
        rounds = [f for f in range(1, w.n_frames) if f % KEYFRAME_INTERVAL == 0 or f == w.n_frames - 1]
        raw = r.emap.trajectory
        rotations, translations, _ = propagate_to_poses(
            r.emap.points, moved.points, r.emap.first_seen, raw.quaternions, raw.positions, [0, *rounds]
        )
        assert translations.tobytes() == r.corrected_trajectory.positions.tobytes()
        assert rotations.tobytes() == r.corrected_trajectory.quaternions.tobytes()


def map_bytes(emap):
    traj = emap.trajectory
    arrays = (emap.points, emap.first_seen, emap.observations, traj.timestamps, traj.positions, traj.quaternions)
    return [a.tobytes() for a in arrays]


def result_bytes(r):
    """Everything a correction decides, as bytes and plain values."""
    traj = r.corrected_trajectory
    return (
        [a.tobytes() for a in (traj.timestamps, traj.positions, traj.quaternions)],
        [a.tobytes() for a in (r.store.member_table, r.store.edge_table, r.store.centers, r.store.counts)],
        map_bytes(r.store.emap),
        [rep.objective_trace for rep in r.reports],
        r.discarded_observations,
        r.propagation_log,
    )


class TestCorrect:
    """Every mode corrects one simulated map as its own run would, and
    leaves that map as it was."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_modes_on_one_map_equal_their_runs(self, seed):
        # the criterion-2 grid: 40 m corridor, doors every 2 m
        w = make_world(corridor_length=40.0, door_spacing=2.0)
        drift = DriftConfig(scale_sigma=1e-3, rng_seed=seed)
        obs = ObservationConfig(detect_prob=0.8, endpoint_noise_sigma=0.01, rng_seed=seed + OBS_SEED_OFFSET)
        emap = simulate(w, drift, obs)
        before = map_bytes(emap)
        for mode in MODES:
            c = correct(emap, ScheduleConfig(mode=mode))
            assert c.emap is emap
            assert map_bytes(emap) == before
            r = run(w, drift, obs, ScheduleConfig(mode=mode))
            assert map_bytes(r.emap) == before
            assert result_bytes(c) == result_bytes(r)


class TestZeroDrift:
    def test_corrections_numerically_null(self):
        w = make_world()
        for mode in ("seg", "segglobal"):
            r = run(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0),
                    ScheduleConfig(mode=mode))
            # Objective is already zero, so nothing moves and the
            # trajectory stays on the ground truth.
            assert evaluate(r.corrected_trajectory, w.trajectory, MetricsConfig("none")).ate_rmse < 1e-9
            for rep in r.reports:
                assert rep.final_objective < 1e-18

    def test_cluster_count_matches_archetypes(self):
        w = make_world()
        r = run(w, DriftConfig(rng_seed=0), ObservationConfig(rng_seed=0),
                ScheduleConfig(mode="seg"))
        n_archetypes = len(set(w.archetypes.tolist()))
        assert len(r.store) == n_archetypes


class TestDeterminism:
    def test_identical_inputs_bit_identical_results(self):
        w = make_world()
        args = (
            DriftConfig(scale_sigma=1e-3, rng_seed=4),
            ObservationConfig(endpoint_noise_sigma=0.01, detect_prob=0.8, rng_seed=4),
            ScheduleConfig(mode="seg"),
        )
        a = run(w, *args)
        b = run(w, *args)
        assert np.array_equal(a.corrected_trajectory.positions, b.corrected_trajectory.positions)
        assert np.array_equal(a.corrected_trajectory.quaternions, b.corrected_trajectory.quaternions)
        assert a.propagation_log == b.propagation_log
        assert [r.objective_trace for r in a.reports] == [r.objective_trace for r in b.reports]


class TestIntervalBatches:
    @pytest.mark.parametrize("mode", ["seg", "segglobal"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_batch_per_solve_interval_equals_frame_batches(self, monkeypatch, mode, seed):
        w = make_world(n_turns=1, extra_unique_segments=30)
        args = (
            DriftConfig(scale_sigma=1e-3, rng_seed=seed),
            ObservationConfig(endpoint_noise_sigma=0.01, detect_prob=0.8, rng_seed=seed),
            ScheduleConfig(mode=mode),
        )
        batches = []
        assign_batch = ClusterStore.assign_batch

        def recorded(store, obs_indices):
            batches.append(store.emap.observations[list(obs_indices), OBS_FRAME])
            return assign_batch(store, obs_indices)

        def by_frame(store, obs_indices):
            frames = store.emap.observations[list(obs_indices), OBS_FRAME]
            return [
                i
                for f in np.unique(frames)
                for i in assign_batch(store, np.asarray(obs_indices)[frames == f])
            ]

        monkeypatch.setattr(ClusterStore, "assign_batch", recorded)
        a = run(w, *args)
        monkeypatch.setattr(ClusterStore, "assign_batch", by_frame)
        b = run(w, *args)

        n_frames = w.n_frames
        ends = list(range(KEYFRAME_INTERVAL, n_frames, KEYFRAME_INTERVAL))
        if ends[-1] != n_frames - 1:
            ends.append(n_frames - 1)
        assert len(batches) == len(ends)
        for start, end, frames in zip([-1, *ends], ends, batches):
            assert np.all((start < frames) & (frames <= end))
        assert sum(map(len, batches)) == len(a.emap.observations)
        for name in ("member_table", "edge_table", "centers", "counts"):
            assert np.array_equal(getattr(a.store, name), getattr(b.store, name))
        assert np.array_equal(a.corrected_trajectory.positions, b.corrected_trajectory.positions)


class TestCertifiedRuns:
    def test_certified_runs_advance_most_rows_to_the_same_bits(self, monkeypatch):
        # A small clutter world, seed 0, `seg`: 7186 of its 10866 rows (66 %)
        # repeat a certified pair and only advance its cluster's mean.
        world = make_world(n_turns=1, extra_unique_segments=30)
        args = (
            DriftConfig(scale_sigma=1e-3, rng_seed=0),
            ObservationConfig(endpoint_noise_sigma=0.01, detect_prob=0.8, rng_seed=0),
            ScheduleConfig(mode="seg"),
        )
        advance, advanced = clustering._advance, []

        def spy(center, n, v, sign, k):
            advanced.append(k)
            return advance(center, n, v, sign, k)

        monkeypatch.setattr(clustering, "_advance", spy)
        a = run(world, *args)
        assert 0.6 < sum(advanced) / len(a.emap.observations) < 0.72
        # with no rel_threshold in the certified range every row is walked
        advanced.clear()
        monkeypatch.setattr(clustering, "_CERT_REL_MAX", 0.0)
        b = run(world, *args)
        assert advanced == []
        for name in ("member_table", "edge_table", "centers", "counts"):
            x, y = getattr(a.store, name), getattr(b.store, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        assert a.corrected_trajectory.positions.tobytes() == b.corrected_trajectory.positions.tobytes()


class TestChangedPointsRecompute:
    @pytest.mark.parametrize("mode", ["seg", "segglobal"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_centers_equal_full_recompute_after_every_round(self, monkeypatch, mode, seed):
        # Each round redoes only the clusters on points whose coordinates
        # changed bits; the centers must still be those a full recompute gives.
        recompute = ClusterStore.recompute_centers
        problems, n_points, n_moved = [], [], []

        def checked(store):
            problem = problems[-1]  # the round's problem, just solved
            after = store.emap.points[problem.point_ids]
            moved = (after.view(np.int64) != problem.initial.view(np.int64)).any(axis=1)
            recompute(store)
            # every cluster's mean over its member rows, in table order
            pos, keys = store.emap.points, store.edge_table[store.member_table[:, clustering.EDGE]]
            cid, p1, p2, sign = keys.T
            vs = sign.astype(float)[:, None] * (pos[p2] - pos[p1])
            sums = [np.bincount(cid, weights=vs[:, a], minlength=len(store)) for a in range(3)]
            full = np.column_stack(sums) / store.counts[:, None]
            assert np.array_equal(store.centers.view(np.int64), full.view(np.int64))
            n_moved.append(np.count_nonzero(moved))

        def built(*args, **kwargs):
            problem = build_problem(*args, **kwargs)
            problems.append(problem)
            n_points.append(problem.n_points)
            return problem

        monkeypatch.setattr(ClusterStore, "recompute_centers", checked)
        monkeypatch.setattr(pipeline, "build_problem", built)
        r = run(
            make_world(),
            DriftConfig(scale_sigma=1e-3, rng_seed=seed),
            ObservationConfig(endpoint_noise_sigma=0.01, detect_prob=0.8, rng_seed=seed),
            ScheduleConfig(mode=mode),
        )
        assert len(n_moved) == len(r.reports) > 0
        assert sum(n_moved) < sum(n_points)  # some solved points kept their bits


class TestRounds:
    @pytest.mark.parametrize("mode", ["seg", "segglobal"])
    # the whole corridor, then its first frames: no round, one round at the
    # last frame, one at the interval's end, and one either side of it
    @pytest.mark.parametrize(
        "n_frames",
        [None, 1, 2, KEYFRAME_INTERVAL, KEYFRAME_INTERVAL + 1, KEYFRAME_INTERVAL + 2],
        ids=["whole", "1", "2", "interval", "interval+1", "interval+2"],
    )
    def test_local_round_reaches_back_local_window_intervals(self, monkeypatch, mode, n_frames):
        windows, solver = [], set()

        def built(store, frames):
            problem = build_problem(store, frames)
            windows.append(frames)
            solver.add((problem.anchor_weight, problem.iteration_cap))
            return problem

        monkeypatch.setattr(pipeline, "build_problem", built)
        w = make_world()
        if n_frames is not None:
            gt = w.trajectory
            first = Trajectory(gt.timestamps[:n_frames], gt.positions[:n_frames], gt.quaternions[:n_frames])
            w = World(w.endpoints, w.archetypes, first, w.rng_seed)
        run(w, DriftConfig(scale_sigma=1e-3, rng_seed=0), ObservationConfig(rng_seed=0),
            ScheduleConfig(mode=mode))
        # a round every KEYFRAME_INTERVAL frames, and one at the last frame
        ends = [f for f in range(1, w.n_frames) if f % KEYFRAME_INTERVAL == 0 or f == w.n_frames - 1]
        expected = []
        for end in ends:
            expected.append(range(max(0, end - KEYFRAME_INTERVAL * LOCAL_WINDOW), end + 1))
            if mode == "segglobal":
                expected.append(range(end + 1))
        assert windows == expected
        assert solver == ({(DEFAULT_ANCHOR_WEIGHT, DEFAULT_ITERATION_CAP)} if ends else set())

    def test_rounds_never_worsen_objective(self):
        w = make_world()
        r = run(w, DriftConfig(scale_sigma=1e-3, rng_seed=5),
                ObservationConfig(endpoint_noise_sigma=0.005, rng_seed=5),
                ScheduleConfig(mode="segglobal"))
        assert r.reports
        for rep in r.reports:
            assert rep.final_objective <= rep.initial_objective


def reference_slerp(a, b, u):
    """One-pair slerp, as `quat_slerp` computes each row of a stack."""
    a = quat_normalize(a)
    b = quat_normalize(b)
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > 1.0 - 1e-12:
        return quat_normalize(a + u * (b - a))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    return (np.sin((1 - u) * theta) * a + np.sin(u * theta) * b) / np.sin(theta)


def reference_propagate(
    pre_positions: dict[int, np.ndarray],
    post_positions: dict[int, np.ndarray],
    first_seen: dict[int, int],
    poses: list[Sim3],
    keyframes: list[int],
) -> tuple[list[Sim3], list[str]]:
    """The dict-and-pose loop that `propagate_to_poses` computes as arrays."""
    plog: list[str] = []
    moved = sorted(
        pid
        for pid in pre_positions
        if pid in post_positions
        and np.linalg.norm(post_positions[pid] - pre_positions[pid]) > MOVED_TOLERANCE
    )

    kf_sorted = sorted(keyframes)
    moved_set = set(moved)
    shared = sorted(set(pre_positions) & set(post_positions))

    corrections: dict[int, Sim3] = {}
    for kf in kf_sorted:
        pids = [pid for pid in shared if abs(first_seen[pid] - kf) <= NEIGHBORHOOD]
        n_moved = sum(1 for p in pids if p in moved_set)
        if n_moved == 0:
            continue
        if n_moved < MIN_MOVED:
            plog.append(
                f"keyframe {kf}: only {n_moved} moved points, identity correction"
            )
            continue
        src = np.array([pre_positions[p] for p in pids])
        dst = np.array([post_positions[p] for p in pids])
        try:
            fit = umeyama_alignment(src, dst, with_scale=True)
            corrections[kf] = fit
            plog.append(
                f"keyframe {kf}: scale {fit.scale:.6f} from "
                f"{len(pids)} points ({n_moved} moved)"
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            plog.append(f"keyframe {kf}: degenerate point set ({exc}), identity correction")

    if not corrections:
        return list(poses), plog
    if 0 not in corrections:
        corrections[0] = Sim3.identity()

    kfs = sorted(corrections)
    new_poses = list(poses)
    for frame in range(len(poses)):
        if frame <= kfs[0]:
            scale, rot = corrections[kfs[0]].scale, corrections[kfs[0]].rotation
        elif frame >= kfs[-1]:
            scale, rot = corrections[kfs[-1]].scale, corrections[kfs[-1]].rotation
        else:
            hi = next(k for k in kfs if k >= frame)
            lo = max(k for k in kfs if k <= frame)
            a, b = corrections[lo], corrections[hi]
            if lo == hi:
                scale, rot = a.scale, a.rotation
            else:
                u = (frame - lo) / (hi - lo)
                scale = float(np.exp((1 - u) * np.log(a.scale) + u * np.log(b.scale)))
                rot = reference_slerp(a.rotation, b.rotation, u)
        pose = new_poses[frame]
        new_poses[frame] = Sim3(1.0, 
            quat_multiply(rot, pose.rotation),
            scale * quat_rotate(rot, pose.translation),
        )
    return new_poses, plog


MOTIONS = ("none", "scale", "rotation", "twist", "similarity", "jitter", "coincident")


def propagation_case(seed, n_points, n_frames, motion, moved_share):
    """(pre, post, first_seen, poses): `moved_share` of
    the points move by `motion`; "twist" turns each point about z by an
    angle growing with its first frame, so neighbouring keyframes fit
    different rotations; "coincident" puts every point on one spot, so
    every fit group is degenerate."""
    rng = np.random.default_rng(seed)
    pre = rng.uniform(-5, 5, size=(n_points, 3))
    if motion == "coincident":
        pre[:] = pre[:1]
    first_seen = rng.integers(0, n_frames, size=n_points)
    moved = rng.random(n_points) < moved_share
    z = np.array([0.0, 0.0, 1.0])
    q = quat_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
    post = pre.copy()
    if motion in ("scale", "coincident"):
        post[moved] = 0.97 * pre[moved]
    elif motion == "rotation":
        post[moved] = quat_rotate(q, pre[moved])
    elif motion == "twist":
        twists = np.array([quat_from_axis_angle(z, 0.05 * f) for f in first_seen]).reshape(-1, 4)
        post[moved] = quat_rotate(twists[moved], pre[moved])
    elif motion == "similarity":
        post[moved] = 1.04 * quat_rotate(q, pre[moved]) + rng.normal(size=3)
    elif motion == "jitter":
        post[moved] = pre[moved] + rng.normal(0.0, 0.01, size=(int(moved.sum()), 3))
    poses = [
        Sim3(1.0, rng.normal(size=4), rng.uniform(-5, 5, size=3)) for _ in range(n_frames)
    ]
    return pre, post, first_seen, poses


@st.composite
def propagation_params(draw):
    n_frames = draw(st.integers(1, 60))
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(0, 60)),
        n_frames,
        draw(st.sampled_from(MOTIONS)),
        draw(st.sampled_from([0.0, 0.05, 0.3, 1.0, 1.0])),
        draw(st.lists(st.integers(-20, n_frames + 20), max_size=8)),
    )


class TestPropagationEqualsReference:
    @settings(max_examples=200)
    @given(propagation_params())
    # no moved point; fewer than MIN_MOVED; degenerate groups; pure
    # rotation, scale and a twist interpolated across keyframes; keyframes
    # outside the frame range
    @example((1, 30, 40, "none", 1.0, [0, 10, 20, 30]))
    @example((2, 30, 40, "scale", 0.05, [0, 10, 20, 30]))
    @example((3, 30, 40, "coincident", 1.0, [0, 10, 20, 30]))
    @example((5, 40, 60, "rotation", 1.0, [0, 15, 30, 45, 59]))
    @example((6, 40, 60, "scale", 1.0, [0, 15, 30, 45, 59]))
    @example((7, 40, 60, "twist", 1.0, [0, 10, 20, 30, 40, 50, 59]))
    @example((8, 40, 30, "similarity", 1.0, [-20, 5, 40, 45]))
    def test_arrays_equal_dict_loop(self, params):
        seed, n_points, n_frames, motion, share, keyframes = params
        pre, post, first_seen, poses = propagation_case(seed, n_points, n_frames, motion, share)
        rotations = np.array([p.rotation for p in poses])
        translations = np.array([p.translation for p in poses])
        rot, trans, plog = propagate_to_poses(
            pre, post, first_seen, rotations, translations, keyframes
        )
        ref_poses, ref_log = reference_propagate(
            dict(enumerate(pre)),
            dict(enumerate(post)),
            dict(enumerate(first_seen.tolist())),
            poses,
            keyframes,
        )
        assert plog == ref_log
        assert rot.tobytes() == np.array([p.rotation for p in ref_poses]).tobytes()
        assert trans.tobytes() == np.array([p.translation for p in ref_poses]).tobytes()


class TestPropagation:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.n_points = 30
        self.pre = rng.uniform(-5, 5, size=(self.n_points, 3))
        self.first_seen = np.arange(self.n_points)
        self.rotations = np.tile([1.0, 0.0, 0.0, 0.0], (self.n_points, 1))
        self.translations = rng.uniform(-5, 5, size=(self.n_points, 3))
        self.keyframes = [0, 10, 20, 29]

    def propagate(self, post, keyframes=None):
        return propagate_to_poses(
            self.pre,
            post,
            self.first_seen,
            self.rotations,
            self.translations,
            self.keyframes if keyframes is None else keyframes,
        )

    def test_unmoved_map_gives_identity(self):
        rot, trans, plog = self.propagate(self.pre.copy())
        assert plog == []
        assert np.array_equal(trans, self.translations)
        assert np.array_equal(rot, self.rotations)

    def test_uniform_scaling_recovered_at_every_keyframe(self):
        s = 1.0 / 1.05
        _, trans, plog = self.propagate(s * self.pre)
        scales = [float(e.split("scale ")[1].split(" ")[0]) for e in plog if "scale" in e]
        assert len(scales) == len(self.keyframes)
        for fitted in scales:
            assert fitted == pytest.approx(s, abs=1e-6)
        assert np.allclose(trans, s * self.translations, atol=1e-9)

    def test_two_moved_points_logged_identity(self):
        post = self.pre.copy()
        post[:2] += 1.0
        _, trans, plog = self.propagate(post, keyframes=[0])
        assert any("only 2 moved points, identity correction" in e for e in plog)
        assert np.array_equal(trans, self.translations)

    def test_rotation_recovered_and_applied_about_origin(self):
        q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.1)
        _, trans, _ = self.propagate(quat_rotate(q, self.pre))
        assert np.allclose(trans, quat_rotate(q, self.translations), atol=1e-6)


class TestNoiselessMonotoneScaleReduction:
    def test_last_frame_scale_error_smaller_for_seg_on_every_seed(self):
        # Pure scale drift, zero endpoint noise, full detection, doors
        # every 2 m: the corrected last-frame scale error must beat the
        # baseline on every seed. Under this drift model no map-based
        # correction can do that, so the failure is expected and
        # documented. The cause is not the 0.5% cluster gate: the drift
        # walk keeps accruing after the last point-creation frame (frame
        # 930 of 1200 on this 40 m corridor), and nothing read from the
        # map sees that tail. Even the observability ceiling, the true
        # drift scale at every point-creation frame held after the last
        # one, loses seed 5 (0.0398 against 0.0295).
        w = make_world(corridor_length=40)
        failures = []
        for seed in range(8):
            drift = DriftConfig(scale_sigma=1e-3, rng_seed=seed)
            obs = ObservationConfig(rng_seed=seed)
            base = run(w, drift, obs, ScheduleConfig(mode="baseline"))
            seg = run(w, drift, obs, ScheduleConfig(mode="seg"))
            t_true = np.linalg.norm(w.trajectory.positions[-1])
            err_base = abs(
                np.linalg.norm(base.corrected_trajectory.positions[-1]) / t_true - 1
            )
            err_seg = abs(
                np.linalg.norm(seg.corrected_trajectory.positions[-1]) / t_true - 1
            )
            if not err_seg < err_base:
                failures.append((seed, err_base, err_seg))
        assert not failures, f"seg did not beat baseline on seeds {failures}"
