import numpy as np
import pytest
from hypothesis import given, strategies as st

from numpy_oracle import quat_to_matrix
from twinsync.geometry import (Pose, _rotate, quat_conjugate, quat_from_axis_angle,
                               quat_from_rpy, quat_multiply, twist, unit)


def random_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def test_identity_rotation():
    q = np.array([1.0, 0, 0, 0])
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(_rotate(q, *v), v)


def test_axis_angle_matches_matrix():
    # single-axis rotation: quaternion path equals the rotation matrix path
    rng = np.random.default_rng(1)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-np.pi, np.pi)
        q = quat_from_axis_angle(axis, angle)
        R = quat_to_matrix(q)
        v = rng.normal(size=3)
        assert np.allclose(_rotate(q, *v), R @ v, atol=1e-12)


def test_rpy_convention():
    # fixed-axis XYZ: yaw-only equals rotation about z
    q = quat_from_rpy(0.0, 0.0, np.pi / 2)
    assert np.allclose(_rotate(q, 1.0, 0.0, 0.0), [0, 1, 0], atol=1e-12)
    # roll applied first (about the fixed x axis)
    q = quat_from_rpy(np.pi / 2, 0.0, np.pi / 2)
    assert np.allclose(_rotate(q, 0.0, 1.0, 0.0), [0, 0, 1], atol=1e-12)


def test_zero_axis_rejected():
    with pytest.raises(ValueError):
        quat_from_axis_angle(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        unit(np.zeros(4))


def test_pose_compose_inverse():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = Pose(rng.normal(size=3), random_quat(rng))
        b = Pose(rng.normal(size=3), random_quat(rng))
        p = Pose(rng.normal(size=3))  # a point, as a pose's translation
        assert np.allclose(a.compose(b).compose(p).translation,
                           a.compose(b.compose(p)).translation, atol=1e-12)
        ident = a.compose(a.inverse())
        assert np.allclose(ident.translation, 0, atol=1e-12)
        assert np.allclose(np.abs(ident.rotation[0]), 1, atol=1e-12)


def test_swing_twist_recomposes():
    rng = np.random.default_rng(3)
    axis = (0.0, 0.0, 1.0)
    for _ in range(100):
        q = random_quat(rng)
        t = twist(q, axis)
        # twist axis is parallel to the given axis
        assert np.allclose(t[1:3], 0, atol=1e-9)
        # q o conj(twist), the swing, turns about an axis orthogonal to it
        swing = quat_multiply(q, quat_conjugate(t))
        assert abs(swing[3]) < 1e-9
        assert np.allclose(quat_multiply(swing, t), q, atol=1e-9)


@given(st.integers(0, 2**32 - 1))
def test_unit_norm_preserved_under_composition(seed):
    rng = np.random.default_rng(seed)
    q = random_quat(rng)
    r = random_quat(rng)
    assert abs(np.linalg.norm(quat_multiply(q, r)) - 1.0) < 1e-9
