"""Simulated leader-follower teleoperation at 1 kHz.

The leader is a trajectory source (sinusoid or scripted steps); the
follower runs a per-joint PD impedance law over unit inertia, integrated
with semi-implicit Euler. External joint torques, such as zone repulsion,
enter the follower's law as an extra torque term.

The control tick runs on Python floats. ``leader_samples`` evaluates the
leader for a chunk of ticks with one numpy ``sin``/``cos`` and hands out
one row per tick as float lists; ``pd_step`` does its per-joint arithmetic
on floats in the elementwise order of the array expressions it replaced,
so every value is bit for bit what numpy computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isfinite
from typing import NamedTuple

import numpy as np

LEADER_CHUNK = 64  # ticks per batched leader evaluation


@dataclass(frozen=True)
class ControllerGains:
    kp: tuple[float, ...]
    kd: tuple[float, ...]

    def __post_init__(self):
        kp = tuple(np.asarray(self.kp, dtype=float).tolist())
        kd = tuple(np.asarray(self.kd, dtype=float).tolist())
        if len(kp) != len(kd):
            raise ValueError("kp and kd must have equal length")
        if any(k < 0 for k in kp + kd):
            raise ValueError("gains must be >= 0")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)

    @staticmethod
    def default(dof: int, kp: float = 100.0, kd: float = 20.0) -> "ControllerGains":
        return ControllerGains([kp] * dof, [kd] * dof)


class FollowerState(NamedTuple):
    q: list[float]
    dq: list[float]


class LeaderSample(NamedTuple):
    """The leader's joint positions and velocities plus its gripper channel."""

    positions: list[float]
    velocities: list[float]
    gripper_width: float
    gripper_velocity: float


@dataclass(frozen=True)
class LeaderProfile:
    """Per-joint sinusoids plus an optional scripted gripper-width schedule.

    q_i(t) = center_i + amplitude_i * sin(2*pi*freq_i*t + phase_i)
    gripper_schedule: sorted (t_s, width_m) steps, piecewise constant.
    """

    centers: np.ndarray
    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    gripper_schedule: tuple = ((0.0, 0.08),)

    def __post_init__(self):
        for name in ("centers", "amplitudes", "frequencies", "phases"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.centers)
        for name in ("amplitudes", "frequencies", "phases"):
            if len(getattr(self, name)) != n:
                raise ValueError("profile arrays must have equal length")

    @staticmethod
    def constant(q, gripper_schedule=((0.0, 0.08),)) -> "LeaderProfile":
        q = np.asarray(q, dtype=float)
        z = np.zeros_like(q)
        return LeaderProfile(q, z, z, z, gripper_schedule)

    def gripper_at(self, t: float) -> float:
        width = self.gripper_schedule[0][1]
        for ts, w in self.gripper_schedule:
            if t >= ts:
                width = w
            else:
                break
        return width


def _leader_rows(times: list[float], profile: LeaderProfile):
    """Leader samples at each of ``times`` (analytic position and velocity),
    from one ``sin`` and one ``cos`` over a (len(times), dof) array."""
    if min(times) < 0:
        raise ValueError("t must be >= 0")
    t = np.array(times)[:, None]
    w = 2.0 * np.pi * profile.frequencies
    q = profile.centers + profile.amplitudes * np.sin(w * t + profile.phases)
    dq = profile.amplitudes * w * np.cos(w * t + profile.phases)
    for ti, q_row, dq_row in zip(times, q, dq):
        width = profile.gripper_at(ti)
        prev_width = profile.gripper_at(max(0.0, ti - 1e-3))
        yield LeaderSample(q_row.tolist(), dq_row.tolist(), width,
                           (width - prev_width) / 1e-3)


def leader_trajectory(t: float, profile: LeaderProfile) -> LeaderSample:
    """Leader sample at time t (analytic position and velocity)."""
    return next(_leader_rows([t], profile))


def leader_samples(profile: LeaderProfile, n_ticks: int, tick_ns: int):
    """The leader sample of each control tick k < n_ticks, at k * tick_ns,
    evaluated ``LEADER_CHUNK`` ticks at a time."""
    for k0 in range(0, n_ticks, LEADER_CHUNK):
        ks = range(k0, min(k0 + LEADER_CHUNK, n_ticks))
        yield from _leader_rows([k * tick_ns / 1e9 for k in ks], profile)


def pd_step(leader: LeaderSample, follower: FollowerState, gains: ControllerGains,
            ext_torque, dt: float = 1e-3) -> tuple[list[float], FollowerState]:
    """One PD impedance step over unit inertia (semi-implicit Euler).

    Per joint, on floats: tau = kp*(lq - q) + kd*(ldq - dq) + ext, then
    dq' = dq + tau*dt, then q' = q + dq'*dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lq, ldq = leader.positions, leader.velocities
    q, dq = follower.q, follower.dq
    if not (len(lq) == len(ldq) == len(q) == len(dq) == len(gains.kp)
            == len(ext_torque)):
        raise ValueError("dimension mismatch")
    if not all(map(isfinite, chain(lq, q, ext_torque))):
        raise ValueError("non-finite input")
    tau = [kp * (a - b) + kd * (c - d) + e for kp, kd, a, b, c, d, e
           in zip(gains.kp, gains.kd, lq, q, ldq, dq, ext_torque)]
    dq = [v + f * dt for v, f in zip(dq, tau)]
    return tau, FollowerState([x + v * dt for x, v in zip(q, dq)], dq)
