"""Simulated leader-follower teleoperation at 1 kHz.

The leader is the scenario's ``LeaderConfig``: per-joint sinusoids plus a
scripted gripper-width schedule. The follower runs a per-joint PD
impedance law over unit inertia, with the scenario's scalar gains,
integrated with semi-implicit Euler. External joint torques, such as zone
repulsion, enter the follower's law as an extra torque term.

The control tick runs on Python floats. ``leader_samples`` evaluates the
leader for a chunk of ticks with one numpy ``sin``/``cos`` and hands out
one row per tick as float lists; ``pd_step`` does its per-joint arithmetic
on floats in the elementwise order of the array expressions it replaced,
so every value is bit for bit what numpy computed.
"""

from __future__ import annotations

from itertools import chain
from math import isfinite
from typing import NamedTuple

import numpy as np

from .scenario import LeaderConfig

LEADER_CHUNK = 64  # ticks per batched leader evaluation


class FollowerState(NamedTuple):
    q: list[float]
    dq: list[float]


class LeaderSample(NamedTuple):
    """The leader's joint positions and velocities plus its gripper channel."""

    positions: list[float]
    velocities: list[float]
    gripper_width: float
    gripper_velocity: float


def _leader_rows(times: list[float], leader: LeaderConfig):
    """Leader samples at each of ``times`` (analytic position and velocity),
    from one ``sin`` and one ``cos`` over a (len(times), dof) array."""
    if min(times) < 0:
        raise ValueError("t must be >= 0")
    t = np.array(times)[:, None]
    amplitudes, phases = np.array(leader.amplitudes), np.array(leader.phases)
    w = 2.0 * np.pi * np.array(leader.frequencies)
    q = np.array(leader.centers) + amplitudes * np.sin(w * t + phases)
    dq = amplitudes * w * np.cos(w * t + phases)
    for ti, q_row, dq_row in zip(times, q, dq):
        width = leader.gripper_at(ti)
        prev_width = leader.gripper_at(max(0.0, ti - 1e-3))
        yield LeaderSample(q_row.tolist(), dq_row.tolist(), width,
                           (width - prev_width) / 1e-3)


def leader_trajectory(t: float, leader: LeaderConfig) -> LeaderSample:
    """Leader sample at time t (analytic position and velocity)."""
    return next(_leader_rows([t], leader))


def leader_samples(leader: LeaderConfig, n_ticks: int, tick_ns: int):
    """The leader sample of each control tick k < n_ticks, at k * tick_ns,
    evaluated ``LEADER_CHUNK`` ticks at a time."""
    for k0 in range(0, n_ticks, LEADER_CHUNK):
        ks = range(k0, min(k0 + LEADER_CHUNK, n_ticks))
        yield from _leader_rows([k * tick_ns / 1e9 for k in ks], leader)


def pd_step(leader: LeaderSample, follower: FollowerState, kp: float, kd: float,
            ext_torque, dt: float = 1e-3) -> tuple[list[float], FollowerState]:
    """One PD impedance step over unit inertia (semi-implicit Euler), with
    the gains ``kp`` and ``kd`` on every joint.

    Per joint, on floats, in one pass: tau = kp*(lq - q) + kd*(ldq - dq)
    + ext, then dq' = dq + tau*dt, then q' = q + dq'*dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    lq, ldq = leader.positions, leader.velocities
    q, dq = follower.q, follower.dq
    if not len(lq) == len(ldq) == len(q) == len(dq) == len(ext_torque):
        raise ValueError("dimension mismatch")
    # a finite sum has only finite terms, as wire._check_joint_state relies on
    if not isfinite(sum(lq) + sum(q) + sum(ext_torque)) \
            and not all(map(isfinite, chain(lq, q, ext_torque))):
        raise ValueError("non-finite input")
    tau, dq_next, q_next = [], [], []
    for a, b, c, d, e in zip(lq, q, ldq, dq, ext_torque):
        t = kp * (a - b) + kd * (c - d) + e
        tau.append(t)
        dq_next.append(v := d + t * dt)
        q_next.append(b + v * dt)
    return tau, FollowerState(q_next, dq_next)
