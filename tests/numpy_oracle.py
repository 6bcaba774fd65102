"""The array versions of the geometry kernels and of the control tick:
numpy expressions on numpy scalars, as twinsync computed them before its
kernels moved to Python floats, and a link that draws its randomness one
call per send. Tests compare the library with these byte for byte.

Every dot product and norm here is ``dot``: the products summed left to
right by ``np.add.accumulate``, which is the order ``geometry.dot``
promises. ``ndarray.dot`` and ``np.linalg.norm`` are not used, because
they hand the sum to the BLAS, which may fuse multiply and add."""

from dataclasses import dataclass, field

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def dot(a, b):
    """``((a0*b0 + a1*b1) + a2*b2) + ...`` as a float64."""
    products = np.multiply(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return np.add.accumulate(products)[-1] if len(products) else np.float64(0.0)


def norm(v):
    return np.sqrt(dot(v, v))


def quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v):
    qv = np.array([0.0, v[0], v[1], v[2]])
    r = quat_multiply(quat_multiply(q, qv), quat_conjugate(q))
    return r[1:]


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    n = norm(axis)
    if n == 0.0:
        raise ValueError("zero-length axis")
    half = 0.5 * angle
    s = np.sin(half) / n
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_to_matrix(q):
    """The rotation matrix of a unit quaternion."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def twist(q, axis):
    """The twist of ``q`` about ``axis``, the rotation about the axis in
    the split ``q = swing o twist``."""
    axis = np.asarray(axis, dtype=float)
    n = norm(axis)
    if n == 0.0:
        raise ValueError("zero-length axis")
    if n == np.inf:  # it would divide the axis to zeros
        raise ValueError("axis norm overflows")
    axis = axis / n
    if norm(q) == 0.0:
        raise ValueError("zero quaternion")
    proj = dot(q[1:], axis) * axis
    t = np.array([q[0], proj[0], proj[1], proj[2]])
    n = norm(t)
    if n < 1e-12:
        return IDENTITY_QUAT.copy()
    return t / n


@dataclass(frozen=True)
class Pose:
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT.copy())

    def __post_init__(self):
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        q = np.asarray(self.rotation, dtype=float)
        n = norm(q)
        if abs(n - 1.0) > 1e-12:
            if n == 0.0:
                raise ValueError("zero quaternion")
            if n == np.inf:  # it would divide the quaternion to zeros
                raise ValueError("quaternion norm overflows")
            q = q / n
        object.__setattr__(self, "rotation", q)

    def compose(self, other):
        t = self.translation + quat_rotate(self.rotation, other.translation)
        q = quat_multiply(self.rotation, other.rotation)
        return Pose(t, q)

    def inverse(self):
        qi = quat_conjugate(self.rotation)
        return Pose(-quat_rotate(qi, self.translation), qi)


def filter_mean(rows):
    """The mocap filter's window and relocation mean."""
    return np.mean(np.asarray(rows), axis=0)


def leader_trajectory(t, leader):
    """The joint positions and velocities at time t of a ``LeaderConfig``."""
    centers, amplitudes, frequencies, phases = (
        np.asarray(v) for v in (leader.centers, leader.amplitudes, leader.frequencies,
                                leader.phases))
    w = 2.0 * np.pi * frequencies
    q = centers + amplitudes * np.sin(w * t + phases)
    dq = amplitudes * w * np.cos(w * t + phases)
    return q, dq


def pd_step(lq, ldq, q, dq, kp, kd, ext, dt=1e-3):
    """One PD step on float64 arrays: (tau, q, dq)."""
    tau = kp * (lq - q) + kd * (ldq - dq) + ext
    dq = dq + tau * dt
    q = q + dq * dt
    return tau, q, dq


class DatagramLink:
    """A datagram link that draws its loss and delay from the generator of
    ``seed`` on every send: ``random()``, then ``uniform(lo, hi)`` for a
    uniform delay. ``outcomes`` holds (delivery time or None, send time,
    dropped) per send."""

    def __init__(self, config, seed):
        self.config = config
        self._rng = np.random.default_rng(seed)
        self.outcomes = []

    def delay_ns(self):
        delay = self.config.delay
        ms = delay.params[0] if delay.kind == "constant" else self._rng.uniform(*delay.params)
        return int(round(ms * 1_000_000))

    def send(self, time_ns):
        lost = self._rng.random() < self.config.loss
        delay_ns = self.delay_ns()
        self.outcomes.append((None if lost else time_ns + delay_ns, time_ns, lost))


class StreamLink(DatagramLink):
    """The stream link's delivery times, one delay draw per send."""

    def __init__(self, config, seed):
        super().__init__(config, seed)
        self._last = 0

    def send(self, time_ns):
        self._last = max(time_ns + self.delay_ns(), self._last)
        self.outcomes.append((self._last, time_ns, False))
