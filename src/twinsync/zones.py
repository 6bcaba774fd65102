"""Prohibited-zone geometry and virtual counterforce.

Zones are oriented boxes. A point strictly inside yields an outward
repulsion along the nearest face normal with penetration depth equal to
the distance to that face; the counterforce is a linear spring, so it
vanishes continuously at the surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, norm, quat_rotate
from .wire import CMD_KIND_ZONE_REPULSION, CommandFrame


@dataclass(frozen=True)
class Repulsion:
    direction: np.ndarray  # unit, outward, world frame
    depth: float

    def __post_init__(self):
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


@dataclass(frozen=True)
class ProhibitedZone:
    zone_id: str
    center: np.ndarray
    half_extents: np.ndarray
    orientation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0, 0, 0]))
    stiffness: float = 500.0  # N/m
    attached_asset: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "half_extents",
                           np.asarray(self.half_extents, dtype=float))
        q = np.asarray(self.orientation, dtype=float)
        n = norm(q)
        if n == 0:
            raise ValueError("zero orientation quaternion")
        object.__setattr__(self, "orientation", q / n)
        if np.any(self.half_extents <= 0):
            raise ValueError("half_extents must be positive")
        if self.stiffness < 0:
            raise ValueError("stiffness must be >= 0")

    @property
    def pose(self) -> Pose:
        return Pose(self.center, self.orientation)


def query(zone: ProhibitedZone, point: np.ndarray) -> Repulsion | None:
    """Outward repulsion for a point, or None when strictly outside.

    depth = min over axes of (half_extent - |local coord|); the direction
    is the minimizing face normal in world frame. Ties break toward the
    lowest axis index; sign(0) counts as +1. Boundary contact returns
    depth 0 with that face's normal.
    """
    point = np.asarray(point, dtype=float)
    if not np.isfinite(point).all():
        raise ValueError("non-finite query point")
    local = zone.pose.inverse().transform_point(point)
    margins = zone.half_extents - np.abs(local)
    if np.any(margins < 0):
        return None
    i = int(np.argmin(margins))  # argmin takes the lowest index on ties
    sign = 1.0 if local[i] >= 0 else -1.0
    axis = np.zeros(3)
    axis[i] = sign
    direction = quat_rotate(zone.orientation, axis)
    return Repulsion(direction, float(margins[i]))


def counterforce(rep: Repulsion, stiffness: float) -> np.ndarray:
    """Linear spring pushing outward: F = stiffness * depth * direction."""
    return stiffness * rep.depth * rep.direction


def make_command(robot_id: int, rep: Repulsion, stiffness: float,
                 time_ns: int) -> CommandFrame:
    return CommandFrame(CMD_KIND_ZONE_REPULSION, robot_id, time_ns,
                        rep.direction, rep.depth, stiffness)


def update_dynamic(zone: ProhibitedZone, asset_pose: Pose,
                   local_center: np.ndarray | None = None,
                   local_orientation: np.ndarray | None = None) -> ProhibitedZone:
    """Re-pose an attached zone into its asset's current frame.

    The box geometry is fixed in the asset frame (``local_*``, defaulting
    to the zone's current world placement when absent); only the world
    placement moves.
    """
    if zone.attached_asset is None:
        return zone
    local = Pose(local_center if local_center is not None else zone.center,
                 local_orientation if local_orientation is not None else zone.orientation)
    world = asset_pose.compose(local)
    return ProhibitedZone(zone.zone_id, world.translation, zone.half_extents,
                          world.rotation, zone.stiffness, zone.attached_asset)
