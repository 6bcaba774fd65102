"""Quaternion and rigid-transform math shared by all modules.

Vectors and quaternions are tuples of Python floats; quaternions are in
(w, x, y, z) order. Rotations compose left-to-right as ``parent o child``.
Constructors convert any sequence or numpy array with ``floats``; the
kernels take any sequence, and ``_rotate`` a vector as three floats.

The kernels run on Python floats, not numpy scalars, so a call costs
arithmetic rather than numpy's per-call dispatch. Every product and sum is
rounded on its own, in a fixed order, so a result depends only on IEEE-754
double arithmetic and, for the trigonometry, on libm's ``sin`` and
``cos``; no BLAS kernel is involved. Every dot product, and so every
``norm``, is ``dot``, a left-to-right sum. ``quat_multiply`` and
``_rotate`` keep every term of the quaternion product (the zero scalar
part of a rotated vector included), and ``Pose`` renormalizes a rotation
only when its norm is more than 1e-12 from 1. ``Pose.compose`` is one
function: it writes ``_rotate``, ``quat_multiply`` and ``unit_quat`` out
inline, in the same order, so its poses are bit for bit those of the
three calls; ``Pose.inverse`` writes ``quat_conjugate``, ``_rotate`` and
``unit_quat`` out the same way. ``robot.Chain.frames``, the kinematics
walk, writes the same operations out once more per joint, less the terms
that an exact zero of the joint's constants makes ``±0.0``, and returns
every component canonical (``+ 0.0``, so a zero is ``0.0``): forward
kinematics is bit for bit a chain of ``Pose.compose`` calls with its zeros
made canonical.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

ZERO3 = (0.0, 0.0, 0.0)
IDENTITY_QUAT = (1.0, 0.0, 0.0, 0.0)


def floats(v) -> tuple:
    """``v``, a sequence or numpy array, as a tuple of Python floats."""
    return (*map(float, v),)


def dot(a, b) -> float:
    """The dot product of two equal-length vectors (else ValueError), summed
    left to right: ``((a0*b0 + a1*b1) + a2*b2) + ...``, each product and
    sum rounded on its own. Without a fused multiply-add, which Python 3.10
    lacks, that is the one order every IEEE-754 machine computes alike."""
    n = len(a)
    if n == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    if n == 3:
        a0, a1, a2 = a
        b0, b1, b2 = b
        return a0 * b0 + a1 * b1 + a2 * b2
    if n != len(b):
        raise ValueError(f"dot of vectors of lengths {n} and {len(b)}")
    products = map(mul, a, b)
    total = next(products, 0.0)
    for p in products:
        total += p
    return total


def norm(v) -> float:
    """Euclidean norm of a vector: ``sqrt(dot(v, v))``."""
    return math.sqrt(dot(v, v))


def unit(v) -> tuple:
    """``v`` divided by its norm; ValueError for a zero vector and for one
    whose norm overflows, which would divide to zeros."""
    n = norm(v)
    if n == 0.0:
        raise ValueError("zero-length vector")
    if n == math.inf:
        raise ValueError(f"the norm of {tuple(v)} overflows")
    return tuple([x / n for x in v])


def quat_multiply(a, b) -> tuple:
    """Quaternion product ``a * b`` of two 4-sequences."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def quat_conjugate(q) -> tuple:
    w, x, y, z = q
    return (w, -x, -y, -z)


def _rotate(q, vx: float, vy: float, vz: float) -> tuple:
    """``(vx, vy, vz)`` rotated by ``q``: the vector part of
    ``(q * (0, v)) * conj(q)``, every term of both products kept."""
    w, x, y, z = q
    rw = w * 0.0 - x * vx - y * vy - z * vz
    rx = w * vx + x * 0.0 + y * vz - z * vy
    ry = w * vy - x * vz + y * 0.0 + z * vx
    rz = w * vz + x * vy - y * vx + z * 0.0
    cx, cy, cz = -x, -y, -z
    return (rw * cx + rx * w + ry * cz - rz * cy,
            rw * cy - rx * cz + ry * w + rz * cx,
            rw * cz + rx * cy - ry * cx + rz * w)


def unit_quat(q) -> tuple:
    """``Pose``'s renormalization: ``q / norm(q)`` when the norm is more
    than 1e-12 from 1, else ``q`` itself; ValueError when that norm is 0
    or overflows."""
    n = math.sqrt(dot(q, q))
    if abs(n - 1.0) > 1e-12:
        if n == 0.0:
            raise ValueError("zero quaternion")
        if n == math.inf:
            raise ValueError(f"the norm of {tuple(q)} overflows")
        w, x, y, z = q
        return (w / n, x / n, y / n, z / n)
    return q


def quat_from_axis_angle(axis, angle: float) -> tuple:
    ax, ay, az = floats(axis)
    n = norm((ax, ay, az))
    if n == 0.0:
        raise ValueError("zero-length axis")
    half = 0.5 * angle
    s = math.sin(half) / n
    return (math.cos(half), ax * s, ay * s, az * s)


def quat_from_rpy(roll: float, pitch: float, yaw: float) -> tuple:
    """Fixed-axis XYZ convention: R = Rz(yaw) * Ry(pitch) * Rx(roll)."""
    qx = quat_from_axis_angle((1.0, 0.0, 0.0), roll)
    qy = quat_from_axis_angle((0.0, 1.0, 0.0), pitch)
    qz = quat_from_axis_angle((0.0, 0.0, 1.0), yaw)
    return quat_multiply(qz, quat_multiply(qy, qx))


def twist(q, u) -> tuple:
    """The twist of ``q`` about the unit vector ``u``: the rotation about
    ``u`` in ``q = swing o twist``, the swing's axis orthogonal to ``u``."""
    w, x, y, z = q
    if w * w + x * x + y * y + z * z == 0.0:  # norm(q) == 0.0
        raise ValueError("zero quaternion")
    ux, uy, uz = u
    p = x * ux + y * uy + z * uz
    tx, ty, tz = p * ux, p * uy, p * uz
    n = math.sqrt(w * w + tx * tx + ty * ty + tz * tz)
    if n < 1e-12:
        # 180 degree swing, twist degenerate: pick identity
        return IDENTITY_QUAT
    return (w / n, tx / n, ty / n, tz / n)


class _Pose(NamedTuple):
    translation: tuple
    rotation: tuple


class Pose(_Pose):
    """Rigid transform: rotation (unit quaternion, wxyz) then translation.

    A named tuple whose constructor converts both parts to float tuples
    and renormalizes the rotation.
    """

    __slots__ = ()

    def __new__(cls, translation=ZERO3, rotation=IDENTITY_QUAT):
        t, q = floats(translation), floats(rotation)
        if len(t) != 3 or len(q) != 4:
            raise ValueError("pose needs a 3-vector and a quaternion")
        return tuple.__new__(cls, (t, unit_quat(q)))

    @staticmethod
    def of(translation: tuple, rotation: tuple) -> "Pose":
        """A pose of a float 3-tuple and a float 4-tuple that ``Pose``
        would keep as they are: no conversion, no renormalization."""
        return tuple.__new__(Pose, (translation, rotation))

    @staticmethod
    def from_rpy(xyz, rpy) -> "Pose":
        return Pose(xyz, quat_from_rpy(*rpy))

    def compose(self, other) -> "Pose":
        """``self o other``, where ``other`` may be any (translation,
        rotation) pair: ``_rotate``, ``quat_multiply`` and ``unit_quat``
        written out on local floats, each operation in their order."""
        (tx, ty, tz), (w, x, y, z) = self
        (vx, vy, vz), (bw, bx, by, bz) = other
        # _rotate(q, v)
        rw = w * 0.0 - x * vx - y * vy - z * vz
        rx = w * vx + x * 0.0 + y * vz - z * vy
        ry = w * vy - x * vz + y * 0.0 + z * vx
        rz = w * vz + x * vy - y * vx + z * 0.0
        t = (tx + (rw * -x + rx * w + ry * -z - rz * -y),
             ty + (rw * -y - rx * -z + ry * w + rz * -x),
             tz + (rw * -z + rx * -y - ry * -x + rz * w))
        # quat_multiply(q, other's rotation), then unit_quat
        qw = w * bw - x * bx - y * by - z * bz
        qx = w * bx + x * bw + y * bz - z * by
        qy = w * by - x * bz + y * bw + z * bx
        qz = w * bz + x * by - y * bx + z * bw
        n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        if abs(n - 1.0) > 1e-12:
            if n == 0.0:
                raise ValueError("zero quaternion")
            return tuple.__new__(Pose, (t, (qw / n, qx / n, qy / n, qz / n)))
        return tuple.__new__(Pose, (t, (qw, qx, qy, qz)))

    def inverse(self) -> "Pose":
        """``quat_conjugate``, ``_rotate`` and ``unit_quat`` written out on
        local floats, each operation in their order."""
        (vx, vy, vz), (w, x, y, z) = self
        x, y, z = -x, -y, -z  # quat_conjugate
        # _rotate(conjugate, translation)
        rw = w * 0.0 - x * vx - y * vy - z * vz
        rx = w * vx + x * 0.0 + y * vz - z * vy
        ry = w * vy - x * vz + y * 0.0 + z * vx
        rz = w * vz + x * vy - y * vx + z * 0.0
        t = (-(rw * -x + rx * w + ry * -z - rz * -y),
             -(rw * -y - rx * -z + ry * w + rz * -x),
             -(rw * -z + rx * -y - ry * -x + rz * w))
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if abs(n - 1.0) > 1e-12:
            if n == 0.0:
                raise ValueError("zero quaternion")
            if n == math.inf:
                raise ValueError(f"the norm of {(w, x, y, z)} overflows")
            return tuple.__new__(Pose, (t, (w / n, x / n, y / n, z / n)))
        return tuple.__new__(Pose, (t, (w, x, y, z)))
