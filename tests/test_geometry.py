"""Quaternion, Sim(3), and alignment primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdrift import geometry
from segdrift.geometry import (
    Sim3,
    quat_conjugate,
    quat_from_axis_angle,
    quat_from_matrix,
    quat_identity,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_slerp,
    row_norms,
    umeyama_alignment,
)

rng = np.random.default_rng(1234)


def quat_to_matrix(q):
    """Rotation matrix of a quaternion (w, x, y, z): the oracle for
    `quat_rotate`, `quat_from_matrix` and Umeyama's rotation."""
    w, x, y, z = quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_quat(r):
    q = r.normal(size=4)
    return quat_normalize(q)


unit_vectors = st.tuples(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
).map(np.array)


class TestQuaternions:
    def test_identity_rotates_nothing(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.allclose(quat_rotate(quat_identity(), v), v)

    def test_axis_angle_matches_matrix(self):
        for _ in range(50):
            axis = rng.normal(size=3)
            angle = rng.uniform(-np.pi, np.pi)
            q = quat_from_axis_angle(axis, angle)
            v = rng.normal(size=3)
            assert np.allclose(quat_rotate(q, v), quat_to_matrix(q) @ v, atol=1e-12)

    def test_multiply_composes_rotations(self):
        for _ in range(50):
            a, b = random_quat(rng), random_quat(rng)
            v = rng.normal(size=3)
            lhs = quat_rotate(quat_multiply(a, b), v)
            rhs = quat_rotate(a, quat_rotate(b, v))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_conjugate_inverts(self):
        for _ in range(20):
            q = random_quat(rng)
            v = rng.normal(size=3)
            assert np.allclose(quat_rotate(quat_conjugate(q), quat_rotate(q, v)), v)

    def test_from_matrix_round_trip(self):
        for _ in range(100):
            q = random_quat(rng)
            p = quat_from_matrix(quat_to_matrix(q))
            # q and -q encode the same rotation.
            assert np.allclose(p, q, atol=1e-9) or np.allclose(p, -q, atol=1e-9)

    def test_rotate_batched(self):
        q = random_quat(rng)
        vs = rng.normal(size=(7, 3))
        batched = quat_rotate(q, vs)
        for i, v in enumerate(vs):
            assert np.allclose(batched[i], quat_rotate(q, v), atol=1e-12)

    def test_slerp_endpoints(self):
        a, b = random_quat(rng), random_quat(rng)
        assert np.allclose(quat_slerp(a, b, 0.0), a, atol=1e-12) or np.allclose(
            quat_slerp(a, b, 0.0), -a, atol=1e-12
        )
        assert np.allclose(quat_slerp(a, b, 1.0), b, atol=1e-12) or np.allclose(
            quat_slerp(a, b, 1.0), -b, atol=1e-12
        )

    def test_slerp_halfway_angle(self):
        a = quat_identity()
        b = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 1.0)
        mid = quat_slerp(a, b, 0.5)
        expected = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.5)
        assert np.allclose(mid, expected, atol=1e-12)


class TestBroadcasting:
    """Stacked inputs give, row for row, the same bits as one at a time."""

    def test_multiply_conjugate_normalize_rotate_rowwise(self):
        a = rng.normal(size=(50, 4)) * rng.uniform(0.1, 10.0, size=(50, 1))
        b = rng.normal(size=(50, 4))
        v = rng.normal(size=(50, 3))
        pairs = list(zip(a, b, v))
        assert np.array_equal(quat_multiply(a, b), [quat_multiply(x, y) for x, y, _ in pairs])
        assert np.array_equal(quat_multiply(a[0], b), [quat_multiply(a[0], y) for y in b])
        assert np.array_equal(quat_conjugate(a), [quat_conjugate(x) for x in a])
        assert np.array_equal(quat_normalize(a), [quat_normalize(x) for x in a])
        assert np.array_equal(quat_rotate(a, v), [quat_rotate(x, w) for x, _, w in pairs])
        assert np.array_equal(quat_rotate(a, v[0]), [quat_rotate(x, v[0]) for x in a])

    def test_leading_axes_broadcast(self):
        a = rng.normal(size=(3, 1, 4))
        b = rng.normal(size=(5, 4))
        out = quat_multiply(a, b)
        assert out.shape == (3, 5, 4)
        assert np.array_equal(out[2, 4], quat_multiply(a[2, 0], b[4]))
        assert quat_rotate(a, rng.normal(size=(5, 3))).shape == (3, 5, 3)

    def test_normalize_rejects_any_zero_row(self):
        q = rng.normal(size=(4, 4))
        q[2] = 0.0
        with pytest.raises(ValueError, match="cannot normalize zero quaternion"):
            quat_normalize(q)

    def test_row_norms_equal_linalg_norm_rowwise(self):
        # An einsum or an explicit sum of squares rounds differently from
        # np.linalg.norm on a sizeable share of rows; this must fail then.
        for k in (3, 4):
            v = rng.normal(size=(20000, k)) * 10.0 ** rng.uniform(-6, 6, size=(20000, 1))
            norms = row_norms(v)
            assert np.array_equal(norms, [np.linalg.norm(x) for x in v])
            assert np.array_equal(row_norms(v.reshape(40, 500, k)), norms.reshape(40, 500))
            assert row_norms(v[7]) == np.linalg.norm(v[7])

    def test_slerp_rowwise(self):
        # Rows on both sides of the dot < 0 flip, on the lerp branch (nearly
        # equal), and with u inside and outside [0, 1].
        a = rng.normal(size=(400, 4))
        near = a + rng.normal(0, 1e-9, size=(400, 4))
        b = np.where(rng.random((400, 1)) < 0.25, near, rng.normal(size=(400, 4)))
        u = rng.uniform(-0.5, 1.5, size=400)
        assert np.array_equal(quat_slerp(a, b, u), [quat_slerp(x, y, w) for x, y, w in zip(a, b, u)])

    @pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 5, 4)])
    def test_split_join_equal_moveaxis_stack(self, shape, monkeypatch):
        # Views plus one filled array lay out the same bytes as moveaxis and
        # stack, signed zeros included, and so do the ops built on them.
        q = rng.normal(size=shape)
        q.reshape(-1)[::3] = -0.0
        q.reshape(-1)[1::5] = 0.0
        v = rng.normal(size=shape[:-1] + (3,))
        v.reshape(-1)[::4] = -0.0
        parts = geometry._split(q)
        reference = q if q.ndim == 1 else np.moveaxis(q, -1, 0)
        assert len(parts) == 4
        for part, ref in zip(parts, reference):
            assert np.asarray(part).tobytes() == np.asarray(ref).tobytes()
        joined = geometry._join(list(parts))
        stacked = np.stack(list(reference), axis=-1) if q.ndim > 1 else np.array(list(reference))
        assert joined.shape == stacked.shape and joined.dtype == stacked.dtype
        assert joined.flags.c_contiguous and joined.tobytes() == stacked.tobytes()

        def ops():
            one = q.reshape(-1)[:4]
            return quat_multiply(q, q[::-1]), quat_multiply(q, one), quat_rotate(q, v), quat_rotate(one, v)

        new = ops()
        monkeypatch.setattr(geometry, "_split", lambda a: a if a.ndim == 1 else np.moveaxis(a, -1, 0))
        monkeypatch.setattr(
            geometry,
            "_join",
            lambda p: np.stack(p, axis=-1) if isinstance(p[0], np.ndarray) else np.array(p),
        )
        for a, b in zip(new, ops()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_pose_stack_matches_single_poses(self):
        q = rng.normal(size=(20, 4))
        t = rng.normal(size=(20, 3))
        stack = Sim3(1.0, q[:10], t[:10]).inverse().compose(Sim3(1.0, q[10:], t[10:]))
        for k in range(10):
            one = Sim3(1.0, q[k], t[k]).inverse().compose(Sim3(1.0, q[10 + k], t[10 + k]))
            assert np.array_equal(stack.rotation[k], one.rotation)
            assert np.array_equal(stack.translation[k], one.translation)


class TestSim3:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(Sim3.identity().apply(p), p)

    @settings(max_examples=50)
    @given(unit_vectors)
    def test_compose_matches_sequential_apply(self, p):
        a = Sim3(1.3, quat_from_axis_angle(np.array([1.0, 2.0, 0.5]), 0.7), np.array([1.0, -1.0, 2.0]))
        b = Sim3(0.8, quat_from_axis_angle(np.array([0.0, 1.0, 1.0]), -0.4), np.array([0.5, 0.0, -3.0]))
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-9)

    @settings(max_examples=50)
    @given(unit_vectors)
    def test_inverse_round_trip(self, p):
        t = Sim3(2.1, quat_from_axis_angle(np.array([1.0, 0.0, 3.0]), 1.1), np.array([4.0, 5.0, -6.0]))
        assert np.allclose(t.inverse().apply(t.apply(p)), p, atol=1e-9)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), True, 0.0, -1.0])
    def test_invalid_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            Sim3(scale, quat_identity(), np.zeros(3))

    def test_unit_scale_is_the_rigid_chain(self):
        # A pose is a Sim3 of scale 1.0: compose and inverse then give the
        # bits of the rigid-body formulas, with no scale factor at all.
        q = rng.normal(size=(2, 6, 4))
        t = rng.normal(size=(2, 6, 3))
        a, b = Sim3(1.0, q[0], t[0]), Sim3(1.0, q[1], t[1])
        ab, inv = a.compose(b), a.inverse()
        rigid_q = quat_normalize(quat_multiply(a.rotation, b.rotation))
        assert ab.scale == inv.scale == 1.0
        assert ab.rotation.tobytes() == rigid_q.tobytes()
        rigid_t = quat_rotate(a.rotation, b.translation) + a.translation
        assert ab.translation.tobytes() == rigid_t.tobytes()
        qinv = quat_conjugate(a.rotation)
        assert inv.rotation.tobytes() == quat_normalize(qinv).tobytes()
        assert inv.translation.tobytes() == (-quat_rotate(qinv, a.translation)).tobytes()
        p = rng.normal(size=(6, 3))
        assert a.apply(p).tobytes() == (quat_rotate(a.rotation, p) + a.translation).tobytes()


class TestUmeyama:
    def test_recovers_known_transform(self):
        src = rng.normal(size=(10, 3))
        t = Sim3(1.4, quat_from_axis_angle(np.array([1.0, 2.0, 3.0]), 0.8), np.array([0.5, -1.0, 2.0]))
        dst = np.array([t.apply(p) for p in src])
        fit = umeyama_alignment(src, dst)
        assert abs(fit.scale - t.scale) < 1e-9
        assert np.allclose(fit.translation, t.translation, atol=1e-9)
        assert np.allclose(quat_to_matrix(fit.rotation), quat_to_matrix(t.rotation), atol=1e-9)

    def test_rigid_mode_fixes_scale(self):
        src = rng.normal(size=(8, 3))
        dst = 2.0 * src
        fit = umeyama_alignment(src, dst, with_scale=False)
        assert fit.scale == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            umeyama_alignment(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_coincident_sources_rejected(self):
        src = np.ones((5, 3))
        with pytest.raises(ValueError):
            umeyama_alignment(src, rng.normal(size=(5, 3)))
