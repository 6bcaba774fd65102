"""Simulated leader-follower teleoperation at 1 kHz.

The leader is a trajectory source (sinusoid or scripted steps); the
follower runs a per-joint PD impedance law over unit inertia, integrated
with semi-implicit Euler. External joint torques, such as zone repulsion,
enter the follower's law as an extra torque term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .robot import JointState


@dataclass(frozen=True)
class ControllerGains:
    kp: np.ndarray
    kd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kp", np.asarray(self.kp, dtype=float))
        object.__setattr__(self, "kd", np.asarray(self.kd, dtype=float))
        if np.any(self.kp < 0) or np.any(self.kd < 0):
            raise ValueError("gains must be >= 0")

    @staticmethod
    def default(dof: int, kp: float = 100.0, kd: float = 20.0) -> "ControllerGains":
        return ControllerGains(np.full(dof, kp), np.full(dof, kd))


@dataclass(frozen=True)
class FollowerState:
    q: np.ndarray
    dq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "dq", np.asarray(self.dq, dtype=float))


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

    def validate_against_limits(self, lowers, uppers) -> None:
        lo = self.centers - np.abs(self.amplitudes)
        hi = self.centers + np.abs(self.amplitudes)
        if np.any(lo < np.asarray(lowers)) or np.any(hi > np.asarray(uppers)):
            raise ValueError("leader profile amplitude exceeds joint limits")

    def gripper_at(self, t: float) -> float:
        width = self.gripper_schedule[0][1]
        for ts, w in self.gripper_schedule:
            if t >= ts:
                width = w
            else:
                break
        return width


def leader_trajectory(t: float, profile: LeaderProfile) -> JointState:
    """Leader joint state at time t (analytic position and velocity)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    w = 2.0 * np.pi * profile.frequencies
    q = profile.centers + profile.amplitudes * np.sin(w * t + profile.phases)
    dq = profile.amplitudes * w * np.cos(w * t + profile.phases)
    width = profile.gripper_at(t)
    prev_width = profile.gripper_at(max(0.0, t - 1e-3))
    return JointState(int(round(t * 1e9)), q, dq, np.zeros_like(q),
                      width, (width - prev_width) / 1e-3)


def pd_step(leader: JointState, follower: FollowerState, gains: ControllerGains,
            ext_torque: np.ndarray, dt: float = 1e-3) -> tuple[np.ndarray, FollowerState]:
    """One PD impedance step over unit inertia (semi-implicit Euler)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ext_torque = np.asarray(ext_torque, dtype=float)
    if not (len(leader.positions) == len(follower.q) == len(gains.kp) == len(ext_torque)):
        raise ValueError("dimension mismatch")
    if not (np.isfinite(leader.positions).all() and np.isfinite(follower.q).all()
            and np.isfinite(ext_torque).all()):
        raise ValueError("non-finite input")
    tau = gains.kp * (leader.positions - follower.q) \
        + gains.kd * (leader.velocities - follower.dq) + ext_torque
    dq = follower.dq + tau * dt
    q = follower.q + dq * dt
    return tau, FollowerState(q, dq)
