"""Prohibited-zone geometry and virtual counterforce.

Zones are oriented boxes. A point strictly inside yields an outward
repulsion along the nearest face normal with penetration depth equal to
the distance to that face; the counterforce is a linear spring, so it
vanishes continuously at the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import IDENTITY_QUAT, Pose, floats, quat_rotate, unit, unit_quat
from .wire import CMD_KIND_ZONE_REPULSION, CommandFrame


@dataclass(frozen=True)
class Repulsion:
    direction: tuple  # unit, outward, world frame
    depth: float

    def __post_init__(self):
        object.__setattr__(self, "direction", floats(self.direction))
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


@dataclass(frozen=True)
class ProhibitedZone:
    zone_id: str
    center: tuple
    half_extents: tuple
    orientation: tuple = IDENTITY_QUAT
    stiffness: float = 500.0  # N/m
    attached_asset: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", floats(self.center))
        object.__setattr__(self, "half_extents", floats(self.half_extents))
        object.__setattr__(self, "orientation", unit(floats(self.orientation)))
        if any(h <= 0 for h in self.half_extents):
            raise ValueError("half_extents must be positive")
        if self.stiffness < 0:
            raise ValueError("stiffness must be >= 0")

    @property
    def pose(self) -> Pose:
        return Pose.of(self.center, unit_quat(self.orientation))


def query(zone: ProhibitedZone, point) -> Repulsion | None:
    """Outward repulsion for a point, or None when strictly outside.

    depth = min over axes of (half_extent - |local coord|); the direction
    is the minimizing face normal in world frame. Ties break toward the
    lowest axis index; sign(0) counts as +1. Boundary contact returns
    depth 0 with that face's normal.
    """
    point = floats(point)
    if not all(map(math.isfinite, point)):
        raise ValueError("non-finite query point")
    local = zone.pose.inverse().transform_point(point)
    margins = [h - abs(c) for h, c in zip(zone.half_extents, local)]
    if any(m < 0 for m in margins):
        return None
    i = margins.index(min(margins))  # the lowest index on ties
    axis = [0.0, 0.0, 0.0]
    axis[i] = 1.0 if local[i] >= 0 else -1.0
    return Repulsion(quat_rotate(zone.orientation, axis), margins[i])


def counterforce(rep: Repulsion, stiffness: float) -> tuple:
    """Linear spring pushing outward: F = stiffness * depth * direction."""
    return tuple(stiffness * rep.depth * d for d in rep.direction)


def make_command(robot_id: int, rep: Repulsion, stiffness: float,
                 time_ns: int) -> CommandFrame:
    return CommandFrame(CMD_KIND_ZONE_REPULSION, robot_id, time_ns,
                        rep.direction, rep.depth, stiffness)


def update_dynamic(zone: ProhibitedZone, asset_pose: Pose,
                   local_center=None, local_orientation=None) -> ProhibitedZone:
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
