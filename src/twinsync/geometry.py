"""Quaternion and rigid-transform math shared by all modules.

Quaternions are numpy arrays in (w, x, y, z) order. Rotations compose
left-to-right as ``parent o child``.

The small-vector kernels run on Python floats, not numpy scalars, so a
call costs arithmetic rather than numpy's per-call dispatch, and they keep
numpy's operation order term for term, so their results are bit-identical
to the array expressions they replace: ``qmul``/``qrot`` are the
quaternion product and rotation (the zero scalar part of a rotated vector
included), and ``norm`` is what ``np.linalg.norm`` computes for a 1-D
array. Every dot product stays a numpy ``.dot``, because a Python-float
sum of products can round differently. Inputs are float64 or integer
vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def norm(v) -> float:
    """Euclidean norm of a vector, bit-equal to ``np.linalg.norm``, whose
    1-D path is ``sqrt(x.dot(x))``."""
    x = np.asarray(v, dtype=float)
    return math.sqrt(x.dot(x))


def _floats(v):
    return v.tolist() if isinstance(v, np.ndarray) else v


def qmul(a, b) -> tuple:
    """Quaternion product ``a * b`` of two 4-sequences, as a tuple."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def qrot(q, v) -> tuple:
    """``v`` rotated by ``q``: the vector part of ``(q * (0, v)) * conj(q)``.

    Every term of both products is kept, those with the zero scalar part
    of ``(0, v)`` included, so signed zeros come out as numpy's do.
    """
    w, x, y, z = q
    vx, vy, vz = v
    rw = w * 0.0 - x * vx - y * vy - z * vz
    rx = w * vx + x * 0.0 + y * vz - z * vy
    ry = w * vy - x * vz + y * 0.0 + z * vx
    rz = w * vz + x * vy - y * vx + z * 0.0
    cx, cy, cz = -x, -y, -z
    return (rw * cx + rx * w + ry * cz - rz * cy,
            rw * cy - rx * cz + ry * w + rz * cx,
            rw * cz + rx * cy - ry * cx + rz * w)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    return q / n


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(qmul(_floats(a), _floats(b)))


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    w, x, y, z = _floats(q)
    return np.array([w, -x, -y, -z])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by quaternion q."""
    return np.array(qrot(_floats(q), _floats(v)))


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = norm(axis)
    if n == 0.0:
        raise ValueError("zero-length axis")
    half = 0.5 * angle
    s = np.sin(half) / n
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis XYZ convention: R = Rz(yaw) * Ry(pitch) * Rx(roll)."""
    qx = quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), roll)
    qy = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), pitch)
    qz = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), yaw)
    return quat_multiply(qz, quat_multiply(qy, qx))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def swing_twist(q: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split q into (swing, twist) with twist the rotation about ``axis``.

    q = swing o twist. For q orthogonal to the axis the twist is identity.
    """
    axis = np.asarray(axis, dtype=float)
    axis = axis / norm(axis)
    if norm(q) == 0.0:
        raise ValueError("zero quaternion")
    proj = np.dot(q[1:], axis) * axis
    twist = np.array([q[0], proj[0], proj[1], proj[2]])
    n = norm(twist)
    if n < 1e-12:
        # 180 degree swing, twist degenerate: pick identity
        twist = IDENTITY_QUAT.copy()
    else:
        twist = twist / n
    swing = quat_multiply(q, quat_conjugate(twist))
    return swing, twist


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (unit quaternion, wxyz) then translation."""

    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT.copy())

    def __post_init__(self):
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        q = np.asarray(self.rotation, dtype=float)
        n = norm(q)
        if abs(n - 1.0) > 1e-12:
            if n == 0.0:
                raise ValueError("zero quaternion")
            q = q / n
        object.__setattr__(self, "rotation", q)

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_rpy(xyz, rpy) -> "Pose":
        return Pose(np.asarray(xyz, dtype=float), quat_from_rpy(*rpy))

    def compose(self, other: "Pose") -> "Pose":
        t = self.translation + quat_rotate(self.rotation, other.translation)
        q = quat_multiply(self.rotation, other.rotation)
        return Pose(t, q)

    def inverse(self) -> "Pose":
        qi = quat_conjugate(self.rotation)
        return Pose(-quat_rotate(qi, self.translation), qi)

    def transform_point(self, p: np.ndarray) -> np.ndarray:
        return self.translation + quat_rotate(self.rotation, np.asarray(p, dtype=float))
