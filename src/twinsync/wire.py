"""Binary wire formats for the three channel message kinds.

All layouts are little-endian with fixed field order; encode/decode are
exact inverses on well-formed messages.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import norm

TELEMETRY_MAGIC = 0x4A54
MOCAP_MAGIC = 0x4D43
COMMAND_MAGIC = 0x434D
WIRE_VERSION = 1

CMD_KIND_ZONE_REPULSION = 1

_TELEMETRY_HEAD = struct.Struct("<HBBIQB")
_MOCAP = struct.Struct("<HBBIQ3d4dB")
_COMMAND_BODY = struct.Struct("<HBBBQ3ddd")


class WireError(ValueError):
    """Framing or validation failure while decoding a wire message."""


@dataclass(frozen=True)
class TelemetryPacket:
    robot_id: int
    seq: int
    time_ns: int
    positions: np.ndarray
    velocities: np.ndarray
    efforts: np.ndarray
    gripper_width: float
    gripper_velocity: float

    def __post_init__(self):
        for name in ("positions", "velocities", "efforts"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = len(self.positions)
        if len(self.velocities) != n or len(self.efforts) != n:
            raise ValueError("per-joint array length mismatch")
        values = [*self.positions.tolist(), *self.velocities.tolist(),
                  *self.efforts.tolist(), self.gripper_width, self.gripper_velocity]
        # a finite sum has only finite terms; only a sum that overflows
        # needs the value-by-value check
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise ValueError("non-finite joint state")


@dataclass(frozen=True)
class MocapPacket:
    object_id: int
    seq: int
    time_ns: int
    position: np.ndarray
    quaternion: np.ndarray  # (w, x, y, z)
    quality: int  # 0 = lost, 1 = tracked

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "quaternion", np.asarray(self.quaternion, dtype=float))
        if self.quality not in (0, 1):
            raise ValueError("quality must be 0 or 1")
        if self.quality == 1:
            # written so that a NaN norm fails it too
            if not abs(norm(self.quaternion) - 1.0) <= 1e-6:
                raise ValueError("tracked sample requires a unit quaternion")
            if not all(map(math.isfinite, self.position.tolist())):
                raise ValueError("tracked sample requires a finite position")


@dataclass(frozen=True)
class CommandFrame:
    kind: int
    robot_id: int
    time_ns: int
    direction: np.ndarray
    depth: float
    stiffness: float

    def __post_init__(self):
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))
        if self.kind != CMD_KIND_ZONE_REPULSION:
            raise ValueError(f"unsupported command kind {self.kind}")


def encode_telemetry(p: TelemetryPacket) -> bytes:
    dof = len(p.positions)
    if dof > 255:
        raise WireError("dof overflow (max 255)")
    head = _TELEMETRY_HEAD.pack(TELEMETRY_MAGIC, WIRE_VERSION, p.robot_id, p.seq,
                                p.time_ns, dof)
    body = bytearray()
    for i in range(dof):
        body += struct.pack("<3d", p.positions[i], p.velocities[i], p.efforts[i])
    body += struct.pack("<2d", p.gripper_width, p.gripper_velocity)
    return head + bytes(body)


def decode_telemetry(buf: bytes) -> TelemetryPacket:
    if len(buf) < _TELEMETRY_HEAD.size:
        raise WireError("truncated telemetry header")
    magic, version, robot_id, seq, time_ns, dof = _TELEMETRY_HEAD.unpack_from(buf)
    if magic != TELEMETRY_MAGIC:
        raise WireError(f"bad telemetry magic 0x{magic:04X}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported telemetry version {version}")
    expected = _TELEMETRY_HEAD.size + dof * 24 + 16
    if len(buf) != expected:
        raise WireError(f"telemetry length {len(buf)} != expected {expected}")
    rows = np.frombuffer(buf, dtype="<f8", count=3 * dof,
                         offset=_TELEMETRY_HEAD.size).reshape(dof, 3)
    gw, gv = struct.unpack_from("<2d", buf, _TELEMETRY_HEAD.size + dof * 24)
    try:
        return TelemetryPacket(robot_id, seq, time_ns, rows[:, 0].copy(),
                               rows[:, 1].copy(), rows[:, 2].copy(), gw, gv)
    except ValueError as e:  # a sample the packet rejects
        raise WireError(f"invalid telemetry sample: {e}") from e


def encode_mocap(p: MocapPacket) -> bytes:
    return _MOCAP.pack(MOCAP_MAGIC, WIRE_VERSION, p.object_id, p.seq, p.time_ns,
                       *p.position, *p.quaternion, p.quality)


def decode_mocap(buf: bytes) -> MocapPacket:
    if len(buf) != _MOCAP.size:
        raise WireError(f"mocap length {len(buf)} != expected {_MOCAP.size}")
    vals = _MOCAP.unpack(buf)
    magic, version, object_id, seq, time_ns = vals[:5]
    if magic != MOCAP_MAGIC:
        raise WireError(f"bad mocap magic 0x{magic:04X}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported mocap version {version}")
    try:
        return MocapPacket(object_id, seq, time_ns, np.array(vals[5:8]),
                           np.array(vals[8:12]), vals[12])
    except ValueError as e:  # a sample the packet rejects
        raise WireError(f"invalid mocap sample: {e}") from e


def encode_command(f: CommandFrame) -> bytes:
    body = _COMMAND_BODY.pack(COMMAND_MAGIC, WIRE_VERSION, f.kind, f.robot_id,
                              f.time_ns, *f.direction, f.depth, f.stiffness)
    return struct.pack("<I", len(body)) + body


def decode_command(buf: bytes) -> CommandFrame:
    if len(buf) < 4:
        raise WireError("truncated command length prefix")
    (length,) = struct.unpack_from("<I", buf)
    if len(buf) != 4 + length:
        raise WireError(f"command length prefix {length} != remaining {len(buf) - 4}")
    if length != _COMMAND_BODY.size:
        raise WireError(f"unexpected command body length {length}")
    vals = _COMMAND_BODY.unpack_from(buf, 4)
    magic, version, kind, robot_id, time_ns = vals[:5]
    if magic != COMMAND_MAGIC:
        raise WireError(f"bad command magic 0x{magic:04X}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported command version {version}")
    if kind != CMD_KIND_ZONE_REPULSION:
        raise WireError(f"unknown command kind {kind}")
    return CommandFrame(kind, robot_id, time_ns, np.array(vals[5:8]), vals[8], vals[9])
