"""Live-socket bridge: the wire codecs over real sockets.

One receiver thread per channel feeds a single merge queue; the merge
loop is the only mutator of the bridge's counters and state. It keeps
only the latest telemetry packet and the latest mocap packet per object:
it runs no TwinEngine, writes no .dtrl log and discards command-stream
bytes unread, so a live session cannot be replayed. Datagram channels
survive peer errors; a command-stream disconnect marks that channel down
without affecting telemetry.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass

from .wire import WireError, decode_mocap, decode_telemetry


@dataclass
class LiveCounters:
    telemetry_applied: int = 0
    mocap_applied: int = 0
    malformed: int = 0
    command_channel_up: bool = True


class LiveBridge:
    """Binds telemetry/mocap UDP sockets and a TCP command listener."""

    def __init__(self, host: str = "127.0.0.1", telemetry_port: int = 0,
                 mocap_port: int = 0, command_port: int = 0,
                 merge_hz: int = 60):
        self.counters = LiveCounters()
        self.merge_hz = merge_hz
        self._queue: queue.Queue = queue.Queue()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self.latest_telemetry = None
        self.latest_mocap: dict[int, object] = {}

        self._telemetry_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._telemetry_sock.bind((host, telemetry_port))
        self._telemetry_sock.settimeout(0.1)
        self._mocap_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._mocap_sock.bind((host, mocap_port))
        self._mocap_sock.settimeout(0.1)
        self._command_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._command_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._command_sock.bind((host, command_port))
        self._command_sock.listen(1)
        self._command_sock.settimeout(0.1)

    @property
    def telemetry_addr(self):
        return self._telemetry_sock.getsockname()

    @property
    def mocap_addr(self):
        return self._mocap_sock.getsockname()

    @property
    def command_addr(self):
        return self._command_sock.getsockname()

    def _recv_datagrams(self, sock: socket.socket, decoder, channel: str):
        while not self._stop.is_set():
            try:
                data, _ = sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                msg = decoder(data)
            except WireError:
                self._queue.put(("malformed", None))
                continue
            self._queue.put((channel, msg))

    def _accept_commands(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._command_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(0.1)
            try:
                while not self._stop.is_set():
                    try:
                        data = conn.recv(65536)
                    except socket.timeout:
                        continue
                    if not data:
                        break
                    self._queue.put(("command_bytes", data))
            finally:
                conn.close()
                self._queue.put(("command_down", None))

    def start(self):
        for target in ((self._recv_datagrams, self._telemetry_sock,
                        decode_telemetry, "telemetry"),
                       (self._recv_datagrams, self._mocap_sock,
                        decode_mocap, "mocap")):
            t = threading.Thread(target=target[0], args=target[1:], daemon=True)
            t.start()
            self._threads.append(t)
        t = threading.Thread(target=self._accept_commands, daemon=True)
        t.start()
        self._threads.append(t)

    def merge_once(self) -> int:
        """Drain the queue once; returns the number of applied messages."""
        applied = 0
        while True:
            try:
                channel, msg = self._queue.get_nowait()
            except queue.Empty:
                break
            if channel == "malformed":
                self.counters.malformed += 1
            elif channel == "telemetry":
                self.latest_telemetry = msg
                self.counters.telemetry_applied += 1
                applied += 1
            elif channel == "mocap":
                self.latest_mocap[msg.object_id] = msg
                self.counters.mocap_applied += 1
                applied += 1
            elif channel == "command_down":
                self.counters.command_channel_up = False
        return applied

    def run(self, duration_s: float):
        period = 1.0 / self.merge_hz
        deadline = time.monotonic() + duration_s
        while time.monotonic() < deadline and not self._stop.is_set():
            self.merge_once()
            time.sleep(period)
        self.merge_once()

    def stop(self):
        self._stop.set()
        for t in self._threads:
            t.join(timeout=1.0)
        for s in (self._telemetry_sock, self._mocap_sock, self._command_sock):
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
    from .wire import TelemetryPacket, encode_telemetry

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
            time.sleep(0)  # let the receiver threads take the GIL

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
