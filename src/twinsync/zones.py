"""Prohibited-zone geometry and virtual counterforce.

Zones are oriented boxes. A ``ProhibitedZone`` is config: built and
checked once when the scenario loads, and never changed. Where a zone
sits is the twin's business: ``twin.TwinEngine`` holds each zone's
world-to-zone pose, built once for a static zone and re-posed on every
merge tick for a zone attached to an asset, and hands it to ``query``.
A point inside yields the outward nearest face normal and the
penetration depth, the distance to that face, from which the twin builds
a ``wire.CommandFrame``; the counterforce is a linear spring, so it
vanishes continuously at the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import IDENTITY_QUAT, Pose, _rotate, floats, quat_conjugate, unit_quat


@dataclass(frozen=True)
class ProhibitedZone:
    zone_id: str
    center: tuple
    half_extents: tuple
    orientation: tuple = IDENTITY_QUAT
    stiffness: float = 500.0  # N/m
    attached_asset: str | None = None

    def __post_init__(self):
        center, half, q = floats(self.center), floats(self.half_extents), floats(self.orientation)
        object.__setattr__(self, "stiffness", float(self.stiffness))
        # written so that NaN fails too
        if len(center) != 3 or not all(map(math.isfinite, center)):
            raise ValueError(f"center must be 3 finite values, got {center}")
        if len(half) != 3 or not all(0.0 < h < math.inf for h in half):
            raise ValueError(f"half_extents must be 3 finite positive values, got {half}")
        if len(q) != 4 or not all(map(math.isfinite, q)):
            raise ValueError(f"orientation must be 4 finite values, got {q}")
        if not 0.0 <= self.stiffness < math.inf:
            raise ValueError(f"stiffness must be finite and >= 0, got {self.stiffness!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_extents", half)
        # Pose's renormalization, which leaves a unit quaternion as it is,
        # so a copy of a zone keeps its orientation bit for bit
        object.__setattr__(self, "orientation", unit_quat(q))

    @property
    def pose(self) -> Pose:
        """The configured placement: in the world for a static zone, in its
        asset's frame for an attached one."""
        return Pose.of(self.center, self.orientation)


def query(zone: ProhibitedZone, point, to_local: Pose) -> tuple[tuple, float] | None:
    """``(direction, depth)`` of a point inside the zone, or None when it
    is strictly outside.

    ``to_local`` maps world coordinates into the zone's box frame: the
    inverse of where the zone sits now. depth = min over axes of
    (half_extent - |local coord|), so it is >= 0; the direction is the
    minimizing face normal in world frame, a unit float 3-tuple. Ties
    break toward the lowest axis index; sign(0) counts as +1. Boundary
    contact returns depth 0 with that face's normal.

    The point moves into the box frame as ``Pose.compose`` moves a
    translation, ``_rotate`` by ``to_local``'s rotation and then its
    translation added, and the face normal turns back with ``_rotate``.
    """
    px, py, pz = map(float, point)
    if not (math.isfinite(px) and math.isfinite(py) and math.isfinite(pz)):
        raise ValueError("non-finite query point")
    (tx, ty, tz), rotation = to_local
    rx, ry, rz = _rotate(rotation, px, py, pz)
    lx, ly, lz = tx + rx, ty + ry, tz + rz
    hx, hy, hz = zone.half_extents
    mx, my, mz = hx - abs(lx), hy - abs(ly), hz - abs(lz)
    if mx < 0 or my < 0 or mz < 0:
        return None
    # the nearest face, the lowest axis on ties, as ``min`` picks it
    axis, depth, c = 0, mx, lx
    if my < depth:
        axis, depth, c = 1, my, ly
    if mz < depth:
        axis, depth, c = 2, mz, lz
    normal = [0.0, 0.0, 0.0]
    normal[axis] = 1.0 if c >= 0 else -1.0
    # the conjugate of a unit rotation's inverse is that rotation, bit for
    # bit: sign flips are exact, and ``unit_quat`` leaves a unit one as it is
    return _rotate(quat_conjugate(rotation), *normal), depth


def counterforce(direction, depth: float, stiffness: float) -> tuple:
    """Linear spring pushing outward: F = stiffness * depth * direction,
    from a ``query`` hit or the fields of the command frame built from it."""
    return tuple(stiffness * depth * d for d in direction)
