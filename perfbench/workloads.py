"""The benchmark's four workloads: inputs made from the seed, one timed
operation, and the correctness checks run on each result.

Every workload exposes the same surface to the worker:

- ``units_per_run``: the operations one ``run_once`` performs (control
  ticks, merge ticks or datagrams), which ``us_per_op`` divides by;
- ``run_once()``: the timed call into twinsync;
- ``check(result)``: untimed checks of that call's outputs;
- ``finish()``: untimed end-of-run checks, then releases resources;
- ``attempted``, ``failed`` and ``problems``: the correctness tally;
- ``details()``: hashes and deterministic counts, reported but not pinned.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import time
from pathlib import Path

import numpy as np

from twinsync import harness, live, recordlog, robot, scenario, wire
from twinsync.geometry import quat_from_axis_angle

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
MERGE_HZ = 60


class Workload:
    units_per_run = 1

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check(self, result) -> None:
        pass

    def finish(self) -> None:
        pass

    def log_bytes(self) -> int:
        return 0

    def details(self) -> dict:
        return {}


class Teleop(Workload):
    """``simulate`` of a teleop scenario, with contact (``teleop_contact``)
    or without (``teleop_free``)."""

    def __init__(self, name: str, seed: int, outdir: Path):
        super().__init__()
        cfg = scenario.load_config(CONFIG_DIR / f"{name}.yaml")
        rng = np.random.default_rng(seed)
        start = float(rng.uniform(0.1, 0.3)) * cfg.duration_s / 0.5
        vase = dataclasses.replace(cfg.assets[0],
                                   occlusions=((start, start + 0.2 * cfg.duration_s),))
        self.cfg = dataclasses.replace(
            cfg, seed=seed, assets=(vase,),
            log_path=str(outdir / "run.dtrl"),
            trace_path=str(outdir / "run_trace.csv"),
            stats_path=str(outdir / "run_stats.jsonl"))
        self.contact = name == "teleop_contact"
        self.units_per_run = round(cfg.duration_s * 1000)
        self.merge_ticks = round(cfg.duration_s * MERGE_HZ)
        self.first = None
        self.last = None

    def run_once(self):
        return harness.simulate(self.cfg)

    def check(self, r) -> None:
        problems = []
        if r.control_ticks != self.units_per_run or r.merge_ticks != self.merge_ticks:
            problems.append(f"ticks {r.control_ticks}/{r.merge_ticks}, expected "
                            f"{self.units_per_run}/{self.merge_ticks}")
        if self.contact and r.commands_sent < 0.9 * r.merge_ticks:
            problems.append(f"contact run sent {r.commands_sent} commands over "
                            f"{r.merge_ticks} merge ticks (< 90%)")
        if not self.contact and r.commands_sent:
            problems.append(f"free run sent {r.commands_sent} commands")
        if self.first is None:
            self.first = r
        elif (r.state_hash, r.trace_hash, r.log_hash) != \
                (self.first.state_hash, self.first.trace_hash, self.first.log_hash):
            problems.append("state/trace/log hash differs from the first run")
        self.last = r
        self._tally(problems)

    def finish(self) -> None:
        """Replaying the last run's own log must reproduce its state."""
        if self.last is None:
            return
        rr = harness.replay(self.cfg.log_path, self.cfg)
        problems = []
        if rr.state_hash != self.last.state_hash:
            problems.append("replay of the run's own log gave another state_hash")
        if rr.skipped or rr.merge_ticks != self.last.merge_ticks:
            problems.append(f"replay skipped {rr.skipped} records over "
                            f"{rr.merge_ticks} merge ticks")
        self._tally(problems)

    def log_bytes(self) -> int:
        return Path(self.cfg.log_path).stat().st_size

    def details(self) -> dict:
        r = self.first
        if r is None:
            return {}
        return {"state_hash": r.state_hash, "trace_hash": r.trace_hash,
                "log_hash": r.log_hash, "commands_sent": r.commands_sent,
                "telemetry_sent": r.telemetry_sent,
                "telemetry_delivered": r.telemetry_delivered,
                "merge_ticks": r.merge_ticks, "log_bytes": self.log_bytes()}


def _asset_segments(rng, start: np.ndarray, offset: float,
                    duration_s: float) -> list[tuple]:
    """Ground truth for one asset as ``(t0, t1, p0, p1, hidden)`` segments.

    The asset cycles through rest, a slow move, rest, and an occlusion,
    with fixed durations so that every seed gives the same mix of work;
    the seed picks the directions. On every second occlusion someone moves
    it, so it reappears elsewhere: the filter's velocity gate rejects the
    jump and, once the asset has rested for ``stable_count`` frames,
    relocates it.
    """
    segs = []
    t, p = -offset, np.asarray(start, dtype=float)
    hides = 0
    while t < duration_s:
        for kind, dur in (("rest", 0.4), ("move", 0.45), ("rest", 0.4), ("hide", 0.2)):
            q = p
            if kind == "move":
                q = p + rng.uniform(-0.12, 0.12, 3) * np.array([1.0, 1.0, 0.3])
            elif kind == "hide":
                hides += 1
                if hides % 2 == 0:
                    p = q = p + rng.uniform(0.15, 0.3) * rng.choice([-1.0, 1.0], 3) \
                        * np.array([1.0, 1.0, 0.0])
            segs.append((t, t + dur, p, q, kind == "hide"))
            t, p = t + dur, q
    return segs


def _at(segs: list[tuple], t: float) -> tuple[np.ndarray, bool]:
    for t0, t1, p0, p1, hidden in segs:
        if t < t1:
            a = (t - t0) / (t1 - t0)
            return p0 + a * (p1 - p0), hidden
    return segs[-1][3], segs[-1][4]


def write_replay_log(path: Path, cfg, dof: int, rng) -> tuple[list, int]:
    """Write a twin-input log: 60 Hz telemetry with one grasp, and 120 Hz
    mocap for the station and every asset, delayed 1-4 ms with 1% loss.

    Returns the asset start positions, which the scenario's trackers need,
    and the number of records written.
    """
    duration_ns = int(round(cfg.duration_s * 1e9))
    records: list[tuple[int, int, bytes]] = []

    centers = np.array([0.0, -0.3, 0.0, -1.8, 0.0, 1.6, 0.8, 0.02, 0.02])[:dof]
    amps = np.array([0.4, 0.2, 0.0, 0.3, 0.0, 0.2, 0.0, 0.0, 0.0])[:dof]
    w = 2 * np.pi * np.array([0.25, 0.2, 0.0, 0.2, 0.0, 0.25, 0.0, 0.0, 0.0])[:dof]
    phases = rng.uniform(0.0, 2 * np.pi, dof)
    t_grasp = 0.5
    # open 8 cm -> close at 5 cm/s onto a 4 cm object -> hold -> reopen
    knots = ([0.0, t_grasp, t_grasp + 0.8, t_grasp + 1.4, t_grasp + 2.2],
             [0.08, 0.08, 0.04, 0.04, 0.08])
    for k in range(duration_ns * MERGE_HZ // 1_000_000_000):
        t_ns = k * 1_000_000_000 // MERGE_HZ
        t = t_ns / 1e9
        q = centers + amps * np.sin(w * t + phases)
        dq = amps * w * np.cos(w * t + phases)
        width = float(np.interp(t, *knots))
        d_width = (float(np.interp(t + 1e-3, *knots)) - width) / 1e-3
        pkt = wire.TelemetryPacket(cfg.robot_id, k, t_ns, q, dq,
                                   rng.normal(0.0, 0.1, dof), width, d_width)
        records.append((t_ns + 3_600_000, recordlog.CHANNEL_TELEMETRY,
                        wire.encode_telemetry(pkt)))

    starts = [a.position + rng.uniform(-0.05, 0.05, 3) for a in cfg.assets]
    tracks = [_asset_segments(rng, s, 0.35 * i, cfg.duration_s)
              for i, s in enumerate(starts)]
    station_q = quat_from_axis_angle(cfg.filter.up_axis, cfg.station_yaw)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    period = 1_000_000_000 // cfg.mocap_rate_hz
    sigma = cfg.tracker_noise_sigma
    for m in range(duration_ns // period):
        t_ns = m * period
        frame = [wire.MocapPacket(0, m, t_ns,
                                  cfg.station_position + rng.normal(0, sigma, 3),
                                  station_q, 1)]
        for a, segs in zip(cfg.assets, tracks):
            pos, hidden = _at(segs, t_ns / 1e9)
            frame.append(wire.MocapPacket(a.object_id, m, t_ns, np.zeros(3), identity, 0)
                         if hidden else
                         wire.MocapPacket(a.object_id, m, t_ns,
                                          pos + rng.normal(0, sigma, 3), identity, 1))
        for pkt in frame:
            delay_ns = int(rng.uniform(1.0, 4.0) * 1e6)
            if rng.random() >= 0.01:
                records.append((t_ns + delay_ns, recordlog.CHANNEL_MOCAP,
                                wire.encode_mocap(pkt)))

    records.sort(key=lambda r: (r[0], r[1]))
    # a payload-free heartbeat pins the final merge tick, as simulate's does
    records.append((duration_ns, harness.CHANNEL_HEARTBEAT, b""))
    with recordlog.LogWriter(path, cfg.seed) as writer:
        for t_ns, channel, payload in records:
            writer.append(recordlog.LogRecord(t_ns, channel, payload))
    return starts, len(records)


class Replay(Workload):
    """``replay`` of a seeded multi-asset log; the benchmark writes the log
    itself, so a change to the control loop cannot change replay's input."""

    def __init__(self, seed: int, outdir: Path):
        super().__init__()
        cfg = dataclasses.replace(
            scenario.load_config(CONFIG_DIR / "replay_multi_asset.yaml"), seed=seed)
        model = robot.parse_urdf(Path(cfg.robot_path).read_text())
        self.log_path = outdir / "replay.dtrl"
        starts, self.records = write_replay_log(self.log_path, cfg, model.dof,
                                                np.random.default_rng(seed))
        self.cfg = dataclasses.replace(cfg, assets=tuple(
            dataclasses.replace(a, position=s) for a, s in zip(cfg.assets, starts)))
        self.units_per_run = round(cfg.duration_s * MERGE_HZ)
        self.first = None

    def run_once(self):
        return harness.replay(self.log_path, self.cfg)

    def check(self, r) -> None:
        problems = []
        if r.skipped:
            problems.append(f"replay skipped {r.skipped} records")
        if r.merge_ticks != self.units_per_run or r.records != self.records:
            problems.append(f"replay ran {r.merge_ticks} merge ticks over {r.records} "
                            f"records, expected {self.units_per_run}/{self.records}")
        if self.first is None:
            self.first = r
        elif r.state_hash != self.first.state_hash:
            problems.append("replay state_hash differs from the first run")
        self._tally(problems)

    def log_bytes(self) -> int:
        return self.log_path.stat().st_size

    def details(self) -> dict:
        if self.first is None:
            return {}
        return {"state_hash": self.first.state_hash, "records": self.records,
                "merge_ticks": self.first.merge_ticks, "log_bytes": self.log_bytes()}


class LiveLoopback(Workload):
    """A ``LiveBridge`` fed over loopback UDP by one closed-loop sender.

    The sender keeps ``WINDOW`` datagrams outstanding (sent but not yet
    applied by ``merge_once``) and drives ``merge_once`` itself, so a
    slower bridge receives less load instead of a growing backlog. One
    ``run_once`` is a burst of ``BURST`` datagrams. They replay one second
    of the teleop scenario's traffic into the twin, in time order: 60 Hz
    telemetry, and mocap at ``mocap_rate_hz`` for the station and each
    asset, so four mocap datagrams to each telemetry one.

    The process, and so every thread the bridge starts, runs on one CPU.
    Its threads take turns on the GIL anyway; spread over two CPUs, every
    hand-over wakes a thread on the other one, and on a shared host that
    wake-up latency, not the bridge, sets the rate.
    """

    WINDOW = 32
    BURST = 4000
    STALL_S = 2.0

    def __init__(self, seed: int, outdir: Path):
        super().__init__()
        cfg = scenario.load_config(CONFIG_DIR / "teleop_free.yaml")
        dof = len(cfg.leader.centers)
        rng = np.random.default_rng(seed)
        self.units_per_run = self.BURST
        # threads inherit this, so the bridge's receivers share the CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.bridge = live.LiveBridge()
        self.bridge.start()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        identity = np.array([1.0, 0.0, 0.0, 0.0])
        traffic = []
        for k in range(MERGE_HZ):
            t_ns = k * 1_000_000_000 // MERGE_HZ
            pkt = wire.TelemetryPacket(cfg.robot_id, k, t_ns, rng.normal(0, 1, dof),
                                       rng.normal(0, 1, dof), rng.normal(0, 1, dof),
                                       0.08, 0.0)
            traffic.append((t_ns, wire.encode_telemetry(pkt),
                            self.bridge.telemetry_addr))
        ids = [0] + [a.object_id for a in cfg.assets]
        for m in range(cfg.mocap_rate_hz):
            t_ns = m * 1_000_000_000 // cfg.mocap_rate_hz
            for object_id in ids:
                pkt = wire.MocapPacket(object_id, m, t_ns, rng.uniform(-1.0, 1.0, 3),
                                       identity, 1)
                traffic.append((t_ns, wire.encode_mocap(pkt), self.bridge.mocap_addr))
        traffic.sort(key=lambda x: x[0])
        self.pool = [(data, addr) for _, data, addr in traffic]
        self.sent = 0
        self.applied = 0
        self.stalled = False

    def run_once(self):
        bridge, sock, pool = self.bridge, self.sock, self.pool
        n_pool = len(pool)
        sent, applied = self.sent, self.applied
        target = sent + self.BURST
        last_progress = time.perf_counter()
        while applied < target:
            while sent - applied < self.WINDOW and sent < target:
                data, addr = pool[sent % n_pool]
                sock.sendto(data, addr)
                sent += 1
            got = bridge.merge_once()
            if got:
                applied += got
                last_progress = time.perf_counter()
            else:
                if time.perf_counter() - last_progress > self.STALL_S:
                    self.stalled = True
                    break
                time.sleep(0)  # let the receiver threads take the GIL
        self.sent, self.applied = sent, applied
        return self.BURST

    def finish(self) -> None:
        deadline = time.monotonic() + self.STALL_S
        while self.applied < self.sent and time.monotonic() < deadline:
            self.applied += self.bridge.merge_once()
            time.sleep(0.001)
        self.bridge.stop()
        self.sock.close()
        c = self.bridge.counters
        self.attempted = self.sent
        self.failed = (self.sent - self.applied) + c.malformed
        if self.sent != self.applied:
            self.problems.append(f"{self.sent - self.applied} of {self.sent} "
                                 f"datagrams sent were not applied")
        if c.malformed:
            self.problems.append(f"{c.malformed} malformed datagrams")
        if self.stalled:
            self.problems.append("the closed loop stalled: no datagram applied "
                                 f"for {self.STALL_S} s")

    def details(self) -> dict:
        c = self.bridge.counters
        return {"sent": self.sent, "applied": self.applied,
                "telemetry_applied": c.telemetry_applied,
                "mocap_applied": c.mocap_applied, "malformed": c.malformed}


def make(name: str, seed: int, outdir: Path) -> Workload:
    if name in ("teleop_free", "teleop_contact"):
        return Teleop(name, seed, outdir)
    if name == "replay_multi_asset":
        return Replay(seed, outdir)
    if name == "live_loopback":
        return LiveLoopback(seed, outdir)
    raise ValueError(f"unknown workload {name!r}")
