import socket
import struct
import time

import numpy as np
import pytest

from twinsync.live import LiveBridge, loopback_self_test
from twinsync.wire import (MOCAP_MAGIC, WIRE_VERSION, MocapPacket, TelemetryPacket,
                           encode_mocap, encode_telemetry)


def wait_until(predicate, timeout_s=2.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_loopback_applies_nearly_all():
    counters = loopback_self_test(n_packets=1000)
    # loopback UDP may legitimately drop a handful under load
    assert counters.telemetry_applied >= 990
    assert counters.malformed == 0
    assert counters.command_channel_up


def test_malformed_counted_and_skipped():
    counters = loopback_self_test(n_packets=200, inject_malformed=10)
    assert counters.malformed >= 1
    assert counters.telemetry_applied >= 190


def test_mocap_channel_and_latest_wins():
    bridge = LiveBridge()
    bridge.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        for i in range(20):
            pkt = MocapPacket(1, i, i * 1_000_000, [float(i), 0, 0],
                              [1.0, 0, 0, 0], 1)
            sender.sendto(encode_mocap(pkt), bridge.mocap_addr)
        assert wait_until(lambda: (bridge.merge_once(),
                                   bridge.counters.mocap_applied >= 20)[1])
        assert bridge.latest_mocap[1].seq == 19
    finally:
        sender.close()
        bridge.stop()


def raw_mocap(quaternion, quality):
    """A mocap datagram that no ``MocapPacket`` can hold."""
    return struct.pack("<HBBIQ3d4dB", MOCAP_MAGIC, WIRE_VERSION, 1, 0, 0,
                       0.0, 0.0, 0.0, *quaternion, quality)


@pytest.mark.parametrize("bad", [raw_mocap((2.0, 0.0, 0.0, 0.0), 1),
                                 raw_mocap((1.0, 0.0, 0.0, 0.0), 2)],
                         ids=["non_unit_quaternion", "quality_2"])
def test_bad_mocap_datagram_keeps_channel_alive(bad):
    n = 20
    bridge = LiveBridge()
    bridge.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sender.sendto(bad, bridge.mocap_addr)
        for i in range(n):
            pkt = MocapPacket(1, i, i * 1_000_000, [0.0, 0.0, 0.0], [1.0, 0, 0, 0], 1)
            sender.sendto(encode_mocap(pkt), bridge.mocap_addr)
        assert wait_until(lambda: (bridge.merge_once(),
                                   bridge.counters.mocap_applied >= n)[1])
        assert bridge.counters.malformed == 1
        assert bridge.counters.mocap_applied == n
        assert all(t.is_alive() for t in bridge._threads)
    finally:
        sender.close()
        bridge.stop()


def test_command_disconnect_marks_channel_down_only():
    bridge = LiveBridge()
    bridge.start()
    tele = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        cmd = socket.create_connection(bridge.command_addr, timeout=2.0)
        cmd.sendall(b"\x01\x02\x03")
        cmd.close()  # peer drops the stream
        assert wait_until(lambda: (bridge.merge_once(),
                                   not bridge.counters.command_channel_up)[1])
        # telemetry keeps flowing after the command channel went down
        pkt = TelemetryPacket(0, 0, 0, np.zeros(2), np.zeros(2), np.zeros(2),
                              0.08, 0.0)
        tele.sendto(encode_telemetry(pkt), bridge.telemetry_addr)
        assert wait_until(lambda: (bridge.merge_once(),
                                   bridge.counters.telemetry_applied >= 1)[1])
        assert not bridge.counters.command_channel_up
    finally:
        tele.close()
        bridge.stop()


def test_run_loop_drains_queue():
    bridge = LiveBridge()
    bridge.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        pkt = TelemetryPacket(0, 0, 0, np.zeros(1), np.zeros(1), np.zeros(1),
                              0.0, 0.0)
        sender.sendto(encode_telemetry(pkt), bridge.telemetry_addr)
        bridge.run(0.2)
        assert bridge.counters.telemetry_applied == 1
    finally:
        sender.close()
        bridge.stop()
