"""Binary wire formats for the three channel message kinds.

All layouts are little-endian with fixed field order; encode/decode are
exact inverses on well-formed messages.
"""

from __future__ import annotations

import math
import struct
from itertools import chain
from typing import NamedTuple

from .geometry import floats

TELEMETRY_MAGIC = 0x4A54
MOCAP_MAGIC = 0x4D43
COMMAND_MAGIC = 0x434D
WIRE_VERSION = 1

CMD_KIND_ZONE_REPULSION = 1

_TELEMETRY_HEAD = struct.Struct("<HBBIQB")
_MOCAP = struct.Struct("<HBBIQ3d4dB")
_COMMAND_BODY = struct.Struct("<HBBBQ3ddd")

# the longest message of each kind, in bytes: telemetry with the 255 joints
# its header's count byte can state (6,153), a mocap sample (73) and a
# length-prefixed command frame (57)
TELEMETRY_MAX_SIZE = _TELEMETRY_HEAD.size + 255 * 24 + 16
MOCAP_SIZE = _MOCAP.size
COMMAND_SIZE = 4 + _COMMAND_BODY.size


class WireError(ValueError):
    """Framing or validation failure while decoding a wire message."""


def _check_joint_state(values) -> None:
    """Raise ValueError unless every value of a joint state is finite."""
    # a finite sum has only finite terms; only a sum that overflows needs
    # the value-by-value check, so the order of the values does not matter
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ValueError("non-finite joint state")


def _check_sample(position, quaternion, quality) -> None:
    """Raise ValueError unless a mocap sample is lost (quality 0) or a
    valid tracked one (quality 1)."""
    if quality == 1:
        # the one place the rule is kept: a tracked sample has a unit
        # quaternion (norm as ``geometry.norm``, written so that a NaN
        # norm fails too) and a finite 3-vector position
        w, x, y, z = quaternion
        if not abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) <= 1e-6:
            raise ValueError("tracked sample requires a unit quaternion")
        px, py, pz = position
        if not (math.isfinite(px) and math.isfinite(py) and math.isfinite(pz)):
            raise ValueError("tracked sample requires a finite position")
    elif quality != 0:
        raise ValueError("quality must be 0 or 1")


# The packets and the command frame are named tuples, cheap to build per
# datagram. Their constructors take any sequences, numpy arrays included,
# convert the vectors to float tuples and, for a packet, run the check
# above. The decoders already hold struct's float tuples: they run the
# same check once and build the tuple directly, as the twin does with a
# zone hit's float direction.

class _Telemetry(NamedTuple):
    robot_id: int
    seq: int
    time_ns: int
    positions: tuple
    velocities: tuple
    efforts: tuple
    gripper_width: float
    gripper_velocity: float


class TelemetryPacket(_Telemetry):
    __slots__ = ()

    def __new__(cls, robot_id, seq, time_ns, positions, velocities, efforts,
                gripper_width, gripper_velocity):
        positions, velocities, efforts = floats(positions), floats(velocities), floats(efforts)
        n = len(positions)
        if len(velocities) != n or len(efforts) != n:
            raise ValueError("per-joint array length mismatch")
        _check_joint_state((*positions, *velocities, *efforts, gripper_width,
                            gripper_velocity))
        return tuple.__new__(cls, (robot_id, seq, time_ns, positions, velocities, efforts,
                                   gripper_width, gripper_velocity))


class _Mocap(NamedTuple):
    object_id: int
    seq: int
    time_ns: int
    position: tuple
    quaternion: tuple  # (w, x, y, z)
    quality: int  # 0 = lost, 1 = tracked


class MocapPacket(_Mocap):
    __slots__ = ()

    def __new__(cls, object_id, seq, time_ns, position, quaternion, quality):
        position, quaternion = floats(position), floats(quaternion)
        _check_sample(position, quaternion, quality)
        return tuple.__new__(cls, (object_id, seq, time_ns, position, quaternion, quality))


class _Command(NamedTuple):
    robot_id: int
    time_ns: int
    direction: tuple
    depth: float
    stiffness: float


class CommandFrame(_Command):
    """A zone repulsion for the follower, the one kind of command (so its
    kind byte is written, not held): outward unit direction in the world
    frame, penetration depth and the zone's stiffness."""
    __slots__ = ()

    def __new__(cls, robot_id, time_ns, direction, depth, stiffness):
        return tuple.__new__(cls, (robot_id, time_ns, floats(direction), depth, stiffness))


def encode_telemetry(p: TelemetryPacket) -> bytes:
    dof = len(p.positions)
    if dof > 255:
        raise WireError("dof overflow (max 255)")
    head = _TELEMETRY_HEAD.pack(TELEMETRY_MAGIC, WIRE_VERSION, p.robot_id, p.seq,
                                p.time_ns, dof)
    return head + struct.pack(f"<{3 * dof + 2}d",
                              *chain.from_iterable(zip(p.positions, p.velocities,
                                                       p.efforts)),
                              p.gripper_width, p.gripper_velocity)


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
    vals = struct.unpack_from(f"<{3 * dof + 2}d", buf, _TELEMETRY_HEAD.size)
    try:
        _check_joint_state(vals)
    except ValueError as e:  # a sample the packet rejects
        raise WireError(f"invalid telemetry sample: {e}") from e
    return tuple.__new__(TelemetryPacket, (robot_id, seq, time_ns, vals[0:-2:3],
                                           vals[1:-2:3], vals[2:-2:3], vals[-2], vals[-1]))


def encode_mocap(p: MocapPacket) -> bytes:
    return _MOCAP.pack(MOCAP_MAGIC, WIRE_VERSION, p.object_id, p.seq, p.time_ns,
                       *p.position, *p.quaternion, p.quality)


def decode_mocap(buf: bytes) -> MocapPacket:
    if len(buf) != _MOCAP.size:
        raise WireError(f"mocap length {len(buf)} != expected {_MOCAP.size}")
    magic, version, object_id, seq, time_ns, px, py, pz, w, x, y, z, quality = \
        _MOCAP.unpack(buf)
    if magic != MOCAP_MAGIC:
        raise WireError(f"bad mocap magic 0x{magic:04X}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported mocap version {version}")
    position, quaternion = (px, py, pz), (w, x, y, z)
    try:
        _check_sample(position, quaternion, quality)
    except ValueError as e:  # a sample the packet rejects
        raise WireError(f"invalid mocap sample: {e}") from e
    return tuple.__new__(MocapPacket, (object_id, seq, time_ns, position, quaternion,
                                       quality))


def encode_command(f: CommandFrame) -> bytes:
    body = _COMMAND_BODY.pack(COMMAND_MAGIC, WIRE_VERSION, CMD_KIND_ZONE_REPULSION,
                              f.robot_id, f.time_ns, *f.direction, f.depth, f.stiffness)
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
    direction, depth, stiffness = vals[5:8], vals[8], vals[9]
    # the follower's one check on a frame; written so that NaN fails too
    if not all(map(math.isfinite, direction)):
        raise WireError(f"non-finite command direction {direction}")
    if not (0.0 <= depth < math.inf and 0.0 <= stiffness < math.inf):
        raise WireError(f"command depth and stiffness must be finite and >= 0, "
                        f"got {depth!r} and {stiffness!r}")
    return tuple.__new__(CommandFrame, (robot_id, time_ns, direction, depth, stiffness))
