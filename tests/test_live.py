import gc
import select
import socket
import struct
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from twinsync import live
from twinsync.live import LOOPBACK_WINDOW, LiveBridge, loopback_self_test
from twinsync.twin import MERGE_HZ
from twinsync.wire import (COMMAND_SIZE, MOCAP_MAGIC, TELEMETRY_MAGIC, TELEMETRY_MAX_SIZE,
                           WIRE_VERSION, MocapPacket, TelemetryPacket, encode_mocap,
                           encode_telemetry)


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


def test_loopback_sender_keeps_a_bounded_window(monkeypatch):
    # every datagram one drain applies is one the sender has not seen
    # settle, so a drain can never outgrow the sender's window
    applied = []
    merge_once = LiveBridge.merge_once

    def spy(self):
        applied.append(merge_once(self))
        return applied[-1]

    monkeypatch.setattr(LiveBridge, "merge_once", spy)
    counters = loopback_self_test(n_packets=300)
    assert counters.telemetry_applied >= 297
    assert 0 < max(applied) <= LOOPBACK_WINDOW


@pytest.mark.parametrize("busy", ["mocap_port", "command_port"])
def test_a_port_in_use_leaves_no_socket_open(busy):
    # the sockets bound before the failing one are closed, and it is too
    kind = socket.SOCK_STREAM if busy == "command_port" else socket.SOCK_DGRAM
    with socket.socket(socket.AF_INET, kind) as holder:
        holder.bind(("127.0.0.1", 0))
        if kind == socket.SOCK_STREAM:
            holder.listen(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                LiveBridge(**{busy: holder.getsockname()[1]})
            except OSError:
                pass
            else:
                pytest.fail(f"bound the {busy} in use")
            gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_bridge_starts_no_thread():
    before = threading.active_count()
    bridge = LiveBridge()
    bridge.start()
    try:
        bridge.merge_once()
        assert threading.active_count() == before
    finally:
        bridge.stop()
    assert threading.active_count() == before


def test_mocap_channel_counts_every_packet():
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
        assert bridge.counters.mocap_applied == 20
        assert bridge.counters.telemetry_applied == bridge.counters.malformed == 0
    finally:
        sender.close()
        bridge.stop()


def raw_mocap(quaternion, quality, position=(0.0, 0.0, 0.0)):
    """A mocap datagram that no ``MocapPacket`` can hold."""
    return struct.pack("<HBBIQ3d4dB", MOCAP_MAGIC, WIRE_VERSION, 1, 0, 0,
                       *position, *quaternion, quality)


@pytest.mark.parametrize("bad", [raw_mocap((2.0, 0.0, 0.0, 0.0), 1),
                                 raw_mocap((1.0, 0.0, 0.0, 0.0), 2),
                                 raw_mocap((1.0, 0.0, 0.0, 0.0), 1, (np.nan, 0.0, 0.0)),
                                 raw_mocap((np.nan, 0.0, 0.0, 0.0), 1)],
                         ids=["non_unit_quaternion", "quality_2", "nan_position",
                              "nan_quaternion"])
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
    finally:
        sender.close()
        bridge.stop()


def raw_telemetry(position=0.0, gripper_width=0.04):
    """A one-joint telemetry datagram that no ``TelemetryPacket`` can hold
    when a value is not finite."""
    return struct.pack("<HBBIQB5d", TELEMETRY_MAGIC, WIRE_VERSION, 0, 0, 0, 1,
                       position, 0.0, 0.0, gripper_width, 0.0)


@pytest.mark.parametrize("bad", [raw_telemetry(position=np.nan),
                                 raw_telemetry(position=np.inf),
                                 raw_telemetry(gripper_width=np.nan)],
                         ids=["nan_position", "inf_position", "nan_gripper_width"])
def test_bad_telemetry_datagram_keeps_channel_alive(bad):
    n = 20
    bridge = LiveBridge()
    bridge.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sender.sendto(bad, bridge.telemetry_addr)
        for i in range(n):
            pkt = TelemetryPacket(0, i, i * 1_000_000, [0.0], [0.0], [0.0], 0.04, 0.0)
            sender.sendto(encode_telemetry(pkt), bridge.telemetry_addr)
        assert wait_until(lambda: (bridge.merge_once(),
                                   bridge.counters.telemetry_applied >= n)[1])
        assert bridge.counters.telemetry_applied == n
        assert bridge.counters.malformed == 1
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


def test_reconnected_command_peer_marks_channel_up():
    bridge = LiveBridge()
    bridge.start()

    def channel_up():
        bridge.merge_once()
        return bridge.counters.command_channel_up

    try:
        first = socket.create_connection(bridge.command_addr, timeout=2.0)
        assert wait_until(lambda: (bridge.merge_once(),
                                   bridge._command_conn is not None)[1])
        assert bridge.counters.command_channel_up
        first.close()
        assert wait_until(lambda: not channel_up())
        second = socket.create_connection(bridge.command_addr, timeout=2.0)
        try:
            assert wait_until(channel_up)
            second.sendall(b"\x01\x02\x03")
            bridge.merge_once()
            # the second peer is held and drained, and its channel is up
            assert bridge._command_conn is not None
            assert bridge.counters.command_channel_up
        finally:
            second.close()
    finally:
        bridge.stop()


def test_socket_fault_stays_on_its_channel():
    bridge = LiveBridge()
    bridge.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        bridge._telemetry_sock.close()  # recv on it now fails with EBADF
        pkt = MocapPacket(1, 0, 0, [0.0, 0.0, 0.0], [1.0, 0, 0, 0], 1)
        sender.sendto(encode_mocap(pkt), bridge.mocap_addr)
        assert wait_until(lambda: (bridge.merge_once(),
                                   bridge.counters.mocap_applied >= 1)[1])
        assert bridge.counters.mocap_applied == 1
        assert bridge.counters.telemetry_applied == 0
        assert bridge.counters.command_channel_up
    finally:
        sender.close()
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


def telemetry(dof, seq=0):
    zeros = (0.0,) * dof
    return encode_telemetry(TelemetryPacket(0, seq, seq * 1_000_000, zeros, zeros, zeros,
                                            0.08, 0.0))


def valid_mocap(seq=0):
    return encode_mocap(MocapPacket(1, seq, seq * 1_000_000, [0.0, 0.0, 0.0],
                                    [1.0, 0, 0, 0], 1))


@pytest.fixture
def bridge():
    b = LiveBridge()
    b.start()
    yield b
    b.stop()


@pytest.fixture
def sender():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        yield s


def test_longest_telemetry_is_the_wire_bound():
    assert len(telemetry(255)) == TELEMETRY_MAX_SIZE == 6153


@pytest.mark.parametrize("channel, bad, good", [
    ("telemetry_addr", telemetry(255) + b"\x00", telemetry(255)),
    ("telemetry_addr", telemetry(255) * 2, telemetry(255)),  # cut by the kernel
    ("mocap_addr", valid_mocap() + b"\x00", valid_mocap()),
], ids=["telemetry_one_byte_long", "telemetry_twice_as_long", "mocap_one_byte_long"])
def test_over_long_datagram_is_malformed(bridge, sender, channel, bad, good):
    sender.sendto(bad, getattr(bridge, channel))
    sender.sendto(good, getattr(bridge, channel))
    c = bridge.counters
    assert wait_until(lambda: (bridge.merge_once(), c.malformed + c.telemetry_applied
                               + c.mocap_applied >= 2)[1])
    assert c.malformed == 1
    assert c.telemetry_applied + c.mocap_applied == 1


def test_255_joint_telemetry_is_applied(bridge, sender):
    for seq in range(3):
        sender.sendto(telemetry(255, seq), bridge.telemetry_addr)
    assert wait_until(lambda: (bridge.merge_once(),
                               bridge.counters.telemetry_applied >= 3)[1])
    assert bridge.counters.telemetry_applied == 3
    assert bridge.counters.malformed == 0


def test_command_peer_bytes_are_discarded(bridge):
    with socket.create_connection(bridge.command_addr, timeout=2.0) as peer:
        assert wait_until(lambda: (bridge.merge_once(),
                                   bridge._command_conn is not None)[1])
        # many frames' worth, and a part of one
        sent = 100 * COMMAND_SIZE + 5
        peer.sendall(b"\x01" * sent)
        conn = bridge._command_conn

        def drained():
            bridge.merge_once()
            try:
                return not conn.recv(1, socket.MSG_PEEK)
            except BlockingIOError:  # nothing left unread
                return True

        assert wait_until(drained)
        assert bridge._command_conn is conn
        assert bridge.counters.command_channel_up


def test_one_datagram_drain_allocates_a_few_kib(bridge, sender):
    # a Panda's telemetry: 7 arm joints and 2 fingers, 249 bytes; the read
    # has room for the longest message, not 64 KiB
    def one_datagram():
        sender.sendto(telemetry(9), bridge.telemetry_addr)
        assert select.select([bridge._telemetry_sock], [], [], 2.0)[0]

    one_datagram()
    bridge.merge_once()  # warm-up: the decoder's struct format is cached
    one_datagram()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert bridge.merge_once() == 1
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8_000


class FakeClock:
    """``time.monotonic`` and ``time.sleep`` on a clock that only sleeps
    and drains move: each drain takes ``drain_s``."""

    def __init__(self, drain_s):
        self.now, self.drain_s = 1000.0, drain_s
        self.sleeps, self.drains = [], []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    def merge_once(self):
        self.drains.append(self.now)
        self.now += self.drain_s
        return 0


@pytest.mark.parametrize("duration_s", [2.0, 0.5])
def test_run_sleeps_to_absolute_deadlines(bridge, monkeypatch, duration_s):
    clock = FakeClock(0.005)
    monkeypatch.setattr(live, "time", clock)
    monkeypatch.setattr(bridge, "merge_once", clock.merge_once)
    bridge.run(duration_s)
    # the period is 1/60 s, not the drain time plus 1/60 s
    assert clock.sleeps == pytest.approx([1 / MERGE_HZ - 0.005] * len(clock.sleeps),
                                         abs=1e-9)
    assert abs(len(clock.drains) - duration_s * MERGE_HZ) <= 1
    assert [round((t - 1000.0) * MERGE_HZ, 6) for t in clock.drains] == \
        list(range(len(clock.drains)))


def test_run_skips_the_deadlines_an_overrun_missed(bridge, monkeypatch):
    # a drain of 1.5 periods misses one deadline; the next drain waits for
    # the one after it instead of starting at once
    clock = FakeClock(1.5 / MERGE_HZ)
    monkeypatch.setattr(live, "time", clock)
    monkeypatch.setattr(bridge, "merge_once", clock.merge_once)
    bridge.run(1.0)
    assert [round((t - 1000.0) * MERGE_HZ, 6) for t in clock.drains] == \
        list(range(0, MERGE_HZ + 1, 2))
    assert min(clock.sleeps) == pytest.approx(0.5 / MERGE_HZ)
