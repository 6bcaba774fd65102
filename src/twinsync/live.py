"""Live-socket bridge: the wire codecs over real sockets.

The bridge is single-threaded. Its sockets are non-blocking and
``merge_once``, the only mutator of the bridge's counters and state, is
their only reader: each call drains the telemetry and mocap sockets until
the kernel holds nothing more, then reads the command stream. It keeps only
the latest telemetry packet and the latest mocap packet per object: it runs
no TwinEngine, writes no .dtrl log and discards command-stream bytes unread,
so a live session cannot be replayed.

The backlog between two drains is each socket's kernel receive buffer, not a
Python queue; a datagram that arrives while it is full is dropped. Linux's
default ``SO_RCVBUF`` of 212,992 bytes holds 166 Panda telemetry datagrams,
so at ``run()``'s 60 Hz a channel takes about 10k datagrams/s; the paper's
heaviest mocap stream is 600/s (120 Hz for the station and four assets).
Channels fail apart: a malformed datagram is counted and skipped, a socket
fault ends only its own channel's drain, and a command-stream disconnect
marks that channel down without affecting telemetry.
It imports only the twin side (``twin`` for ``MERGE_HZ``, never ``harness``),
so a live process loads neither numpy nor yaml.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass

from .twin import MERGE_HZ
from .wire import (TelemetryPacket, WireError, decode_mocap, decode_telemetry,
                   encode_telemetry)


@dataclass
class LiveCounters:
    telemetry_applied: int = 0
    mocap_applied: int = 0
    malformed: int = 0
    command_channel_up: bool = True


def _bound(kind: int, host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, kind)
    if kind == socket.SOCK_STREAM:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.setblocking(False)
    return sock


class LiveBridge:
    """Binds telemetry/mocap UDP sockets and a TCP command listener."""

    def __init__(self, host: str = "127.0.0.1", telemetry_port: int = 0,
                 mocap_port: int = 0, command_port: int = 0):
        self.counters = LiveCounters()
        self.latest_telemetry = None
        self.latest_mocap: dict[int, object] = {}
        self._telemetry_sock = _bound(socket.SOCK_DGRAM, host, telemetry_port)
        self._mocap_sock = _bound(socket.SOCK_DGRAM, host, mocap_port)
        self._command_sock = _bound(socket.SOCK_STREAM, host, command_port)
        self._command_conn: socket.socket | None = None

    @property
    def telemetry_addr(self):
        return self._telemetry_sock.getsockname()

    @property
    def mocap_addr(self):
        return self._mocap_sock.getsockname()

    @property
    def command_addr(self):
        return self._command_sock.getsockname()

    def start(self):
        self._command_sock.listen(1)

    def _drain(self, sock: socket.socket, decoder) -> list:
        """Every datagram ``sock`` holds, decoded; malformed ones are skipped."""
        msgs = []
        while True:
            try:
                data = sock.recv(65536)
            except OSError:  # empty (BlockingIOError), or a fault on this socket
                return msgs
            try:
                msgs.append(decoder(data))
            except WireError:
                self.counters.malformed += 1

    def _read_commands(self) -> None:
        try:
            if self._command_conn is None:
                self._command_conn = self._command_sock.accept()[0]
                self._command_conn.setblocking(False)
            while self._command_conn.recv(65536):
                pass  # command bytes are discarded unread
        except BlockingIOError:  # no peer waiting, or no bytes yet
            return
        except OSError:  # a reset ends the stream as a close does
            if self._command_conn is None:  # the listener is not listening
                return
        self._command_conn.close()
        self._command_conn = None
        self.counters.command_channel_up = False

    def merge_once(self) -> int:
        """Drain every socket once; returns the number of applied messages."""
        telemetry = self._drain(self._telemetry_sock, decode_telemetry)
        if telemetry:
            self.latest_telemetry = telemetry[-1]
        mocap = self._drain(self._mocap_sock, decode_mocap)
        for msg in mocap:
            self.latest_mocap[msg.object_id] = msg
        self.counters.telemetry_applied += len(telemetry)
        self.counters.mocap_applied += len(mocap)
        self._read_commands()
        return len(telemetry) + len(mocap)

    def run(self, duration_s: float):
        deadline = time.monotonic() + duration_s
        while time.monotonic() < deadline:
            self.merge_once()
            time.sleep(1.0 / MERGE_HZ)
        self.merge_once()

    def stop(self):
        for s in filter(None, (self._telemetry_sock, self._mocap_sock,
                               self._command_sock, self._command_conn)):
            s.close()


LOOPBACK_WINDOW = 32
LOOPBACK_STALL_S = 2.0


def loopback_self_test(n_packets: int = 1000, inject_malformed: int = 0) -> LiveCounters:
    """Send n telemetry packets over real loopback sockets and count
    correct decode-and-apply at the merge loop.

    The sender is a closed loop: it keeps at most ``LOOPBACK_WINDOW``
    datagrams outstanding (sent, but not yet applied or counted malformed)
    and runs the merge loop while it waits, so a busy host slows the test
    down instead of overflowing the kernel's socket buffer. A datagram the
    kernel drops anyway stops being waited for after ``LOOPBACK_STALL_S``
    without progress.
    """
    bridge = LiveBridge()
    bridge.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    counters = bridge.counters
    sent = 0

    def settle(limit: int) -> None:
        last, since = -1, 0.0
        while (done := counters.telemetry_applied + counters.malformed) < sent - limit:
            if done != last:
                last, since = done, time.monotonic()
            elif time.monotonic() - since > LOOPBACK_STALL_S:
                return
            bridge.merge_once()
            time.sleep(0)  # yield the CPU while the kernel delivers

    try:
        addr = bridge.telemetry_addr
        every = max(1, n_packets // inject_malformed) if inject_malformed else 0
        for i in range(n_packets):
            zeros = (0.0,) * 7
            pkt = TelemetryPacket(0, i, i * 1_000_000, zeros, zeros, zeros, 0.08, 0.0)
            datagrams = [encode_telemetry(pkt)]
            if every and i % every == 0:
                datagrams.append(b"\x00\x01garbage")
            for data in datagrams:
                settle(LOOPBACK_WINDOW - 1)
                sender.sendto(data, addr)
                sent += 1
        settle(0)
    finally:
        sender.close()
        bridge.stop()
    return counters
