import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twinsync.wire import (CommandFrame, MocapPacket, TelemetryPacket, WireError,
                           decode_command, decode_mocap, decode_telemetry,
                           encode_command, encode_mocap, encode_telemetry)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_telemetry_roundtrip():
    p = TelemetryPacket(2, 7, 123, [0.1, -0.2], [1.0, 2.0], [0.5, -0.5], 0.08, -0.01)
    q = decode_telemetry(encode_telemetry(p))
    assert q.robot_id == 2 and q.seq == 7 and q.time_ns == 123
    assert np.array_equal(q.positions, p.positions)
    assert np.array_equal(q.velocities, p.velocities)
    assert np.array_equal(q.efforts, p.efforts)
    assert q.gripper_width == 0.08 and q.gripper_velocity == -0.01


@given(st.integers(0, 255), st.integers(0, 2**32 - 1), st.integers(0, 2**63 - 1),
       st.lists(finite, min_size=0, max_size=12),
       finite.filter(lambda x: x >= 0), finite)
def test_telemetry_roundtrip_random(robot_id, seq, t, positions, width, dwidth):
    n = len(positions)
    p = TelemetryPacket(robot_id, seq, t, positions, [0.0] * n, [0.0] * n,
                        width, dwidth)
    q = decode_telemetry(encode_telemetry(p))
    assert np.array_equal(q.positions, p.positions)
    assert q.gripper_width == width and q.gripper_velocity == dwidth


def test_mocap_roundtrip():
    p = MocapPacket(3, 9, 55555, [1.0, 2.0, 3.0], [1.0, 0, 0, 0], 1)
    q = decode_mocap(encode_mocap(p))
    assert q.object_id == 3 and q.quality == 1
    assert np.array_equal(q.position, p.position)
    assert np.array_equal(q.quaternion, p.quaternion)


def test_command_roundtrip_and_size():
    f = CommandFrame(4, 999, [1.0, 0.0, 0.0], 0.1, 500.0)
    data = encode_command(f)
    # payload after the fixed header: 3*8 direction + 8 depth + 8 stiffness
    header = 4 + 2 + 1 + 1 + 1 + 8
    assert len(data) == header + 3 * 8 + 8 + 8
    g = decode_command(data)
    assert g.robot_id == 4 and g.time_ns == 999
    assert np.array_equal(g.direction, f.direction)
    assert g.depth == 0.1 and g.stiffness == 500.0


def test_truncation_rejected():
    data = encode_telemetry(TelemetryPacket(0, 0, 0, [1.0], [0.0], [0.0], 0, 0))
    with pytest.raises(WireError):
        decode_telemetry(data[:-1])
    with pytest.raises(WireError):
        decode_mocap(encode_mocap(MocapPacket(0, 0, 0, [0, 0, 0],
                                              [1, 0, 0, 0], 1))[:-1])
    with pytest.raises(WireError):
        decode_command(encode_command(
            CommandFrame(0, 0, [1, 0, 0], 0, 0))[:-1])


def test_bad_magic_and_version():
    data = bytearray(encode_mocap(MocapPacket(0, 0, 0, [0, 0, 0], [1, 0, 0, 0], 1)))
    data[0] ^= 0xFF
    with pytest.raises(WireError, match="magic"):
        decode_mocap(bytes(data))
    data = bytearray(encode_telemetry(TelemetryPacket(0, 0, 0, [], [], [], 0, 0)))
    data[2] = 99
    with pytest.raises(WireError, match="version"):
        decode_telemetry(bytes(data))


def with_double(data, offset, value):
    out = bytearray(data)
    out[offset:offset + 8] = np.float64(value).tobytes()
    return bytes(out)


def test_mocap_sample_the_packet_rejects_is_a_wire_error():
    good = encode_mocap(MocapPacket(0, 0, 0, [0, 0, 0], [1, 0, 0, 0], 1))
    quality_2 = good[:-1] + bytes([2])
    # position x at byte 16, quaternion w at byte 40
    bad = [quality_2, with_double(good, 40, 2.0), with_double(good, 40, np.nan),
           with_double(good, 16, np.nan), with_double(good, 16, -np.inf)]
    for data in bad:
        with pytest.raises(WireError, match="invalid mocap sample"):
            decode_mocap(data)


def test_non_finite_telemetry_is_a_wire_error():
    good = encode_telemetry(TelemetryPacket(0, 0, 0, [0.1, 0.2], [0.0, 0.0],
                                            [0.0, 0.0], 0.04, 0.0))
    # rows of (position, velocity, effort) from byte 17, then gripper width
    # and velocity at bytes 65 and 73
    for offset in (17, 25, 33, 41, 65, 73):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(WireError, match="invalid telemetry sample"):
                decode_telemetry(with_double(good, offset, value))
    with pytest.raises(ValueError, match="non-finite"):
        TelemetryPacket(0, 0, 0, [np.nan], [0.0], [0.0], 0.0, 0.0)
    # finite values whose sum overflows are still a valid sample
    huge = TelemetryPacket(0, 0, 0, [1e308, 1e308], [0.0, 0.0], [0.0, 0.0], 0.0, 0.0)
    assert list(decode_telemetry(encode_telemetry(huge)).positions) == [1e308, 1e308]


def test_lost_mocap_sample_may_carry_nan():
    lost = encode_mocap(MocapPacket(0, 0, 0, [0, 0, 0], [1, 0, 0, 0], 0))
    for data in (with_double(lost, 16, np.nan), with_double(lost, 40, np.nan)):
        assert decode_mocap(data).quality == 0


def test_command_the_follower_cannot_apply_is_a_wire_error():
    good = encode_command(CommandFrame(0, 0, [1.0, 0.0, 0.0], 0.1, 500.0))
    # after the 4-byte length prefix and the 13-byte head: direction at
    # bytes 17, 25 and 33, depth at 41, stiffness at 49
    for offset, name in ((41, "depth"), (49, "stiffness")):
        for value in (np.nan, np.inf, -np.inf, -0.1):
            with pytest.raises(WireError, match=name):
                decode_command(with_double(good, offset, value))
    for offset in (17, 25, 33):
        for value in (np.nan, np.inf):
            with pytest.raises(WireError, match="direction"):
                decode_command(with_double(good, offset, value))
    # a frame at the surface (depth 0) and a zero stiffness still decode
    edge = with_double(with_double(good, 41, 0.0), 49, 0.0)
    assert (decode_command(edge).depth, decode_command(edge).stiffness) == (0.0, 0.0)


def test_dof_overflow():
    big = np.zeros(256)
    with pytest.raises(WireError, match="dof"):
        encode_telemetry(TelemetryPacket(0, 0, 0, big, big, big, 0, 0))


def test_unknown_command_kind():
    data = bytearray(encode_command(CommandFrame(0, 0, [1, 0, 0], 0, 0)))
    data[7] = 42  # kind byte
    with pytest.raises(WireError, match="kind"):
        decode_command(bytes(data))


# frozen byte vectors: layouts must stay stable across runs and platforms
GOLDEN_TELEMETRY = (
    "544a01020700000015cd5b0700000000029a9999999999b93f000000000000f03f"
    "000000000000e03f9a9999999999c9bf0000000000000040000000000000e0bf"
    "7b14ae47e17ab43f7b14ae47e17a84bf")
GOLDEN_MOCAP = (
    "434d01030900000003d9000000000000000000000000f03f0000000000000040"
    "0000000000000840000000000000f03f000000000000000000000000000000000000"
    "00000000000001")
GOLDEN_COMMAND = (
    "350000004d43010104e703000000000000000000000000f03f0000000000000000"
    "0000000000000000" "9a9999999999b93f0000000000407f40")


def test_golden_bytes():
    t = TelemetryPacket(2, 7, 123456789, [0.1, -0.2], [1.0, 2.0], [0.5, -0.5],
                        0.08, -0.01)
    assert encode_telemetry(t).hex() == GOLDEN_TELEMETRY
    m = MocapPacket(3, 9, 55555, [1.0, 2.0, 3.0], [1.0, 0, 0, 0], 1)
    assert encode_mocap(m).hex() == GOLDEN_MOCAP
    c = CommandFrame(4, 999, [1.0, 0.0, 0.0], 0.1, 500.0)
    assert encode_command(c).hex() == GOLDEN_COMMAND


GOLDEN_ARGS = {
    "telemetry": (2, 7, 123456789, [0.1, -0.2], [1.0, 2.0], [0.5, -0.5], 0.08, -0.01),
    "mocap": (3, 9, 55555, [1.0, 2.0, 3.0], [1.0, 0, 0, 0], 1),
    "command": (4, 999, [1, 0, 0], 0.1, 500.0),
}


def assert_float_tuples(*vectors):
    for v in vectors:
        assert type(v) is tuple and all(type(x) is float for x in v), v


def test_decoded_packets_have_the_constructors_types():
    t = decode_telemetry(bytes.fromhex(GOLDEN_TELEMETRY))
    assert type(t) is TelemetryPacket
    assert t == TelemetryPacket(*GOLDEN_ARGS["telemetry"])
    assert_float_tuples(t.positions, t.velocities, t.efforts,
                        (t.gripper_width, t.gripper_velocity))
    m = decode_mocap(bytes.fromhex(GOLDEN_MOCAP))
    assert type(m) is MocapPacket
    assert m == MocapPacket(*GOLDEN_ARGS["mocap"])
    assert_float_tuples(m.position, m.quaternion)
    assert (m.object_id, m.seq, m.time_ns, m.quality) == (3, 9, 55555, 1)
    c = decode_command(bytes.fromhex(GOLDEN_COMMAND))
    built = CommandFrame(*GOLDEN_ARGS["command"])
    assert type(c) is CommandFrame and c == built
    assert_float_tuples(c.direction, built.direction, (c.depth, c.stiffness))


# any double the wire can carry: NaN, infinities, -0.0, subnormals, and
# values whose sum overflows
special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310,
                           1.7e308, -1.7e308])
double = st.one_of(finite, special, st.floats(width=64))


def mostly_finite(n):
    """n doubles, all finite in about half the draws."""
    return st.one_of(st.lists(st.one_of(finite, st.just(1.7e308)), min_size=n, max_size=n),
                     st.lists(double, min_size=n, max_size=n))


def near_unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return tuple(x / n for x in v) if 0.0 < n < math.inf else (1.0, 0.0, 0.0, 0.0)


quaternions = st.one_of(
    st.lists(double, min_size=4, max_size=4),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4).map(near_unit),
    st.sampled_from([(1.0, 0.0, 0.0, 0.0), (-0.0, 0.0, 0.0, -1.0),
                     (1.0 + 9e-7, 0.0, 0.0, 0.0), (1.0 + 2e-6, 0.0, 0.0, 0.0)]))
qualities = st.one_of(st.sampled_from([0, 1]), st.integers(0, 255))
ids = (st.integers(0, 255), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))


@given(*ids, mostly_finite(3), quaternions, qualities)
def test_decode_mocap_agrees_with_the_constructor(object_id, seq, t, position,
                                                  quaternion, quality):
    data = struct.pack("<HBBIQ3d4dB", 0x4D43, 1, object_id, seq, t, *position,
                       *quaternion, quality)
    try:
        want = MocapPacket(object_id, seq, t, position, quaternion, quality)
    except ValueError:
        with pytest.raises(WireError, match="invalid mocap sample"):
            decode_mocap(data)
        return
    got = decode_mocap(data)
    assert type(got) is MocapPacket
    assert_float_tuples(got.position, got.quaternion)
    # equal field by field, bit for bit (NaN and -0.0 included)
    assert encode_mocap(got) == encode_mocap(want) == data


@given(*ids, st.integers(0, 12).flatmap(lambda dof: mostly_finite(3 * dof + 2)))
def test_decode_telemetry_agrees_with_the_constructor(robot_id, seq, t, values):
    dof = (len(values) - 2) // 3
    rows, (width, dwidth) = values[:-2], values[-2:]
    positions, velocities, efforts = rows[:dof], rows[dof:2 * dof], rows[2 * dof:]
    data = (struct.pack("<HBBIQB", 0x4A54, 1, robot_id, seq, t, dof)
            + struct.pack(f"<{3 * dof + 2}d",
                          *(x for row in zip(positions, velocities, efforts) for x in row),
                          width, dwidth))
    try:
        want = TelemetryPacket(robot_id, seq, t, positions, velocities, efforts,
                               width, dwidth)
    except ValueError:
        with pytest.raises(WireError, match="invalid telemetry sample"):
            decode_telemetry(data)
        return
    got = decode_telemetry(data)
    assert type(got) is TelemetryPacket
    assert_float_tuples(got.positions, got.velocities, got.efforts,
                        (got.gripper_width, got.gripper_velocity))
    assert encode_telemetry(got) == encode_telemetry(want) == data
