"""Grasp detection and asset-pose source arbitration.

A grasp is detected when the fingers stall during the closing action
before reaching complete closure. While grasped the asset rides rigidly
on the gripper link; on release it returns to mocap tracking, or to a
point-mass physics fallback while tracking is unavailable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .geometry import ZERO3, Pose, floats, norm, unit, unit_quat
from .mocap import RELOCATED, STABLE, FilteredPose

GRAVITY = 9.81
GROUND_HEIGHT = 0.0  # m along the up axis: the fallback's resting plane
BLEND_DECAY = 0.8  # per-tick factor of the mocap handover offset


class GraspPhase(enum.Enum):
    IDLE = "idle"
    CLOSING = "closing"
    GRASPED = "grasped"


class AssetSource(enum.Enum):
    MOCAP = "mocap"
    GRIPPER_ATTACHED = "gripper_attached"
    PHYSICS_FALLBACK = "physics_fallback"


# the members as module globals, for the hot paths to read: on Python 3.11
# reading a member off its class costs about 77 ns, a global about 5 ns
IDLE = GraspPhase.IDLE
CLOSING = GraspPhase.CLOSING
GRASPED = GraspPhase.GRASPED
MOCAP = AssetSource.MOCAP
GRIPPER_ATTACHED = AssetSource.GRIPPER_ATTACHED
PHYSICS_FALLBACK = AssetSource.PHYSICS_FALLBACK
TRACKED = (STABLE, RELOCATED)  # the filter statuses the mocap source takes


@dataclass(frozen=True)
class GraspConfig:
    stall_eps: float = 1e-3      # m/s
    stall_count: int = 5
    closed_threshold: float = 1e-3  # m
    release_eps: float = 2e-3    # m

    def __post_init__(self):
        values = (self.stall_eps, self.stall_count, self.closed_threshold, self.release_eps)
        # written so that NaN fails too
        if not all(0 < v < math.inf for v in values):
            raise ValueError(f"grasp config values must be finite and strictly positive, "
                             f"got {values}")


class GripperTracker:
    """Finger-width state machine: Idle -> Closing -> {Grasped, Idle}."""

    def __init__(self, config: GraspConfig | None = None):
        self.config = config or GraspConfig()
        self.phase = IDLE
        self._stall = 0
        self.grasp_width: float | None = None

    def step(self, width: float, d_width: float) -> GraspPhase:
        if not (math.isfinite(width) and math.isfinite(d_width)):
            raise ValueError("non-finite gripper sample")
        if width < 0:
            raise ValueError("width must be >= 0")
        c = self.config
        phase = self.phase
        if phase is IDLE:
            if d_width < -c.stall_eps:
                self.phase = CLOSING
                self._stall = 0
        elif phase is CLOSING:
            if abs(d_width) < c.stall_eps:
                if width <= c.closed_threshold:
                    # fully closed without resistance: nothing grasped
                    self.phase = IDLE
                    self._stall = 0
                else:
                    self._stall += 1
                    if self._stall >= c.stall_count:
                        self.phase = GRASPED
                        self.grasp_width = width
            elif d_width > c.stall_eps:
                # fingers opening again: closing aborted
                self.phase = IDLE
                self._stall = 0
            else:
                self._stall = 0
        elif phase is GRASPED:
            if self.grasp_width is not None and width > self.grasp_width + c.release_eps:
                self.phase = IDLE
                self._stall = 0
                self.grasp_width = None
        return self.phase


@dataclass(frozen=True)
class FallbackState:
    position: tuple
    velocity: tuple

    def __post_init__(self):
        object.__setattr__(self, "position", floats(self.position))
        object.__setattr__(self, "velocity", floats(self.velocity))
        if not all(map(math.isfinite, self.position + self.velocity)):
            raise ValueError("non-finite fallback state")


def fallback_step(state: FallbackState, dt: float,
                  up_axis=(0.0, 0.0, 1.0)) -> FallbackState:
    """Point mass under gravity with a resting ground plane.

    Constant-acceleration step (exact for free fall):
    p += v*dt - g*dt^2/2 * up, v -= g*dt * up.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ux, uy, uz = unit(up_axis)
    fall = 0.5 * GRAVITY * dt * dt
    gdt = GRAVITY * dt
    (x, y, z), (vx, vy, vz) = state.position, state.velocity
    x, y, z = x + vx * dt - fall * ux, y + vy * dt - fall * uy, z + vz * dt - fall * uz
    height = x * ux + y * uy + z * uz  # dot(p, up)
    if height < GROUND_HEIGHT:
        d = GROUND_HEIGHT - height
        return FallbackState((x + d * ux, y + d * uy, z + d * uz), ZERO3)
    return FallbackState((x, y, z), (vx - gdt * ux, vy - gdt * uy, vz - gdt * uz))


class AssetTracker:
    """Arbitrates the pose source for one asset.

    Priority: grasped -> rigid gripper attachment; else stable mocap;
    else physics fallback. Every source switch anchors the new source at
    the last emitted position (a decaying handover offset), so the
    emitted position is continuous at the switching instant.
    """

    def __init__(self, name: str, initial_pose: Pose, up_axis=(0.0, 0.0, 1.0)):
        self.name = name
        self.up_axis = floats(up_axis)
        self.source = MOCAP
        self.pose = initial_pose
        self._prev_pose = initial_pose
        self._attach_offset: Pose | None = None
        self._fallback: FallbackState | None = None
        self._blend = ZERO3

    def _velocity_estimate(self, dt: float) -> tuple:
        if dt <= 0:
            return ZERO3
        return tuple((a - b) / dt for a, b in zip(self.pose.translation,
                                                 self._prev_pose.translation))

    def update(self, grasped: bool, gripper_pose: Pose,
               mocap: FilteredPose | None, dt: float) -> None:
        """Advance one twin tick: ``pose`` and ``source`` then hold the
        arbitrated pose and the source it came from."""
        if grasped:
            desired = GRIPPER_ATTACHED
        elif mocap is not None and mocap.status in TRACKED:
            desired = MOCAP
        else:
            desired = PHYSICS_FALLBACK

        switching = desired is not self.source
        if switching:
            if desired is GRIPPER_ATTACHED:
                # capture the rigid offset at the current pose: continuous
                self._attach_offset = gripper_pose.inverse().compose(self.pose)
            elif desired is PHYSICS_FALLBACK:
                self._fallback = FallbackState(self.pose.translation,
                                               self._velocity_estimate(dt))
            else:  # MOCAP takeover: decaying offset bridges any residual gap
                self._blend = tuple(a - b for a, b in zip(self.pose.translation,
                                                          mocap.position))
            self.source = desired

        self._prev_pose = self.pose
        if desired is GRIPPER_ATTACHED:
            new = gripper_pose.compose(self._attach_offset)
        elif desired is MOCAP:
            # a decayed ZERO3 is ZERO3 again, so it is left as it is
            if not switching and self._blend is not ZERO3:
                d = BLEND_DECAY
                bx, by, bz = self._blend
                self._blend = (bx * d, by * d, bz * d)
                if norm(self._blend) < 1e-12:
                    self._blend = ZERO3
            (px, py, pz), (bx, by, bz) = mocap.position, self._blend
            new = Pose.of((px + bx, py + by, pz + bz), unit_quat(mocap.rotation))
        else:
            if not switching:
                self._fallback = fallback_step(self._fallback, dt, self.up_axis)
            new = Pose.of(self._fallback.position, unit_quat(self.pose.rotation))
        self.pose = new
