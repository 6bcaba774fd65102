"""Scenario runner: wires every pipeline into the 60 Hz twin merge loop.

Emulated mode runs entirely on a simulated nanosecond clock: the teleop
loop ticks at 1 kHz, the twin merge at 60 Hz, and all inbound twin
traffic is logged so a recorded run can be replayed bit-identically.
``simulate`` and ``replay`` feed the twin through one function,
``merge_records``: ``simulate`` logs the records due at a merge tick and
merges exactly those, and ``replay`` merges the same slices of the log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import struct
import time
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from .geometry import IDENTITY_QUAT, ZERO3, Pose, dot, quat_from_axis_angle
from .grasp import AssetTracker, GraspPhase, GripperTracker
from .latency import LatencyRecorder, LatencyStats, Stage, export_stats
from .mocap import MocapFilter, PoseStatus
from .network import DatagramLink, StreamLink, Throttle
from .recordlog import (CHANNEL_COMMAND, CHANNEL_HEARTBEAT, CHANNEL_MOCAP,
                        CHANNEL_TELEMETRY, LogRecord, LogWriter, read_log)
from .robot import RobotModel, apply_joint_state, forward_kinematics, parse_urdf
from .scenario import ScenarioConfig
from .teleop import (ControllerGains, FollowerState, LeaderProfile, leader_samples,
                     leader_trajectory, pd_step)
from .wire import (CommandFrame, MocapPacket, TelemetryPacket, WireError,
                   decode_command, decode_mocap, decode_telemetry, encode_command,
                   encode_mocap, encode_telemetry)
from .zones import Repulsion, counterforce, make_command, query, update_dynamic

CONTROL_TICK_NS = 1_000_000
MERGE_HZ = 60


def merge_tick_time(k: int) -> int:
    return (k * 1_000_000_000) // MERGE_HZ


def numeric_jacobian(model: RobotModel, q: np.ndarray, link: str,
                     h: float = 1e-6) -> np.ndarray:
    """3 x dof position Jacobian of a link origin by central differences.

    Only the link's root path is walked and only the movable joints on it
    are perturbed, each from its parent's unperturbed frame; every other
    column is exactly zero, as differencing full forward kinematics gives.
    """
    chain = model.chain
    positions = chain.check(q)
    path = chain.path(link)
    frames = chain.walk(path, positions)
    J = np.zeros((3, len(positions)))
    for k, joint in enumerate(path):
        i = joint.dof
        if i < 0:
            continue
        qp, qm = positions.copy(), positions.copy()
        qp[i] += h
        qm[i] -= h
        pp = chain.walk(path[k:], qp, frames[k])[-1][0]
        pm = chain.walk(path[k:], qm, frames[k])[-1][0]
        J[:, i] = [(a - b) / (2 * h) for a, b in zip(pp, pm)]
    return J


def _deepest_link(model: RobotModel) -> str:
    depth = {model.root: 0}
    best = model.root
    changed = True
    while changed:
        changed = False
        for j in model.joints:
            if j.parent in depth and j.child not in depth:
                depth[j.child] = depth[j.parent] + 1
                if depth[j.child] > depth[best]:
                    best = j.child
                changed = True
    return best


class TwinEngine:
    """Twin-side state, updated only in 60 Hz merge ticks.

    Consumes the telemetry/mocap packets delivered since the previous
    tick, emits zone-repulsion command frames, and exposes a
    deterministic state hash. Pure function of the inbound packet
    sequence, which is what makes log replay exact.
    """

    def __init__(self, model: RobotModel, config: ScenarioConfig):
        self.model = model
        self.config = config
        self.ee_link = config.ee_link or _deepest_link(model)
        self.tick = 0
        self.last_tick_ns = 0
        self.applied_seq = -1
        self.positions = [0.0] * model.dof
        self.base_pose = Pose(config.station_position,
                              quat_from_axis_angle(config.filter.up_axis,
                                                   config.station_yaw))
        self.link_poses = forward_kinematics(model, self.positions, self.base_pose)
        self.station_filter = MocapFilter(config.filter)
        self.gripper = GripperTracker(config.grasp)
        self.asset_filters = {a.object_id: MocapFilter(config.filter)
                              for a in config.assets}
        up = config.filter.up_axis
        self.asset_trackers = {
            a.object_id: AssetTracker(a.name, Pose(a.position), up_axis=up)
            for a in config.assets}
        self.zones = list(config.zones)
        self._zone_local = {z.zone_id: (z.center, z.orientation) for z in self.zones}
        self.active_repulsions: list[tuple[str, Repulsion]] = []
        self.telemetry_applied = 0

    def merge_tick(self, tick_ns: int, telemetry: list[TelemetryPacket],
                   mocap: list[MocapPacket]) -> list[CommandFrame]:
        dt = max((tick_ns - self.last_tick_ns) / 1e9, 1e-9) if self.tick else 1.0 / MERGE_HZ

        latest = None
        for pkt in telemetry:
            if latest is None or pkt.seq >= latest.seq:
                latest = pkt
        if latest is not None and latest.seq > self.applied_seq:
            self.applied_seq = latest.seq
            self.telemetry_applied += 1
            self.positions, _ = apply_joint_state(self.model, latest.positions,
                                                  clamp=True)
            self.gripper.step(max(latest.gripper_width, 0.0), latest.gripper_velocity)

        for pkt in mocap:
            if pkt.object_id == 0:
                out = self.station_filter.process(pkt)
                if out is not None and out.status in (PoseStatus.STABLE,
                                                     PoseStatus.RELOCATED):
                    self.base_pose = Pose(out.position, out.rotation)
            elif pkt.object_id in self.asset_filters:
                self.asset_filters[pkt.object_id].process(pkt)

        self.link_poses = forward_kinematics(self.model, self.positions,
                                             self.base_pose)
        gripper_pose = self.link_poses[self.ee_link]
        grasped = self.gripper.phase is GraspPhase.GRASPED
        asset_poses = {}
        for oid, tracker in self.asset_trackers.items():
            mocap_out = self.asset_filters[oid].last_output
            pose, _source = tracker.update(grasped, gripper_pose, mocap_out, dt)
            asset_poses[tracker.name] = pose

        for i, z in enumerate(self.zones):
            if z.attached_asset is not None:
                lc, lo = self._zone_local[z.zone_id]
                self.zones[i] = update_dynamic(z, asset_poses[z.attached_asset],
                                               lc, lo)

        commands = []
        self.active_repulsions = []
        ee_point = self.link_poses[self.ee_link].translation
        for z in self.zones:
            rep = query(z, ee_point)
            if rep is not None:
                self.active_repulsions.append((z.zone_id, rep))
                commands.append(make_command(self.config.robot_id, rep,
                                             z.stiffness, tick_ns))
        self.tick += 1
        self.last_tick_ns = tick_ns
        return commands

    def state_hash(self) -> str:
        h = hashlib.sha256()
        h.update(struct.pack("<qq", self.tick, self.applied_seq))

        def pose(p: Pose) -> bytes:
            return struct.pack("<3d4d", *p.translation, *p.rotation)

        for name in sorted(self.link_poses):
            h.update(name.encode())
            h.update(pose(self.link_poses[name]))
        h.update(pose(self.base_pose))
        h.update(self.gripper.phase.value.encode())
        for oid in sorted(self.asset_trackers):
            t = self.asset_trackers[oid]
            h.update(t.name.encode())
            h.update(t.source.value.encode())
            h.update(pose(t.pose))
        for zone_id, rep in self.active_repulsions:
            h.update(zone_id.encode())
            h.update(struct.pack("<3dd", *rep.direction, rep.depth))
        return h.hexdigest()


def merge_records(engine: TwinEngine, tick_ns: int, records,
                  skip_bad: bool = False
                  ) -> tuple[list[TelemetryPacket], list[CommandFrame], int]:
    """Decode the log records due at a merge tick, in log order, and run
    the tick on their telemetry and mocap (command and heartbeat records
    are twin output and markers). An undecodable payload raises
    ``ValueError``, or with ``skip_bad`` is skipped and counted. Returns
    the decoded telemetry, the tick's command frames and the skip count.
    """
    telemetry, mocap = [], []
    skipped = 0
    for rec in records:
        try:
            if rec.channel == CHANNEL_TELEMETRY:
                telemetry.append(decode_telemetry(rec.payload))
            elif rec.channel == CHANNEL_MOCAP:
                mocap.append(decode_mocap(rec.payload))
        except WireError as e:
            if not skip_bad:
                raise ValueError(f"undecodable payload on channel {rec.channel} "
                                 f"at {rec.time_ns} ns: {e}") from e
            skipped += 1
    return telemetry, engine.merge_tick(tick_ns, telemetry, mocap), skipped


def _load_model(config: ScenarioConfig) -> RobotModel:
    if config.robot_path is None:
        raise ValueError("scenario requires a robot description path")
    return parse_urdf(Path(config.robot_path).read_text())


@dataclass
class SimResult:
    state_hash: str
    trace_hash: str
    log_hash: str
    stats: LatencyStats | None
    control_ticks: int
    merge_ticks: int
    telemetry_sent: int
    telemetry_delivered: int
    commands_sent: int
    mocap_stale: int  # tracker frames dropped for arriving out of order
    log_path: str | None = None


def _profile_from_config(config: ScenarioConfig, dof: int) -> LeaderProfile:
    def fit(vals):
        a = np.asarray(vals, dtype=float)
        if len(a) == dof:
            return a
        if len(a) == 1:
            return np.full(dof, a[0])
        raise ValueError(f"leader profile length {len(a)} does not match dof {dof}")
    return LeaderProfile(fit(config.leader.centers), fit(config.leader.amplitudes),
                         fit(config.leader.frequencies), fit(config.leader.phases),
                         config.leader.gripper_schedule)


def _mocap_schedule(config: ScenarioConfig, rng: np.random.Generator):
    """Generator of ground-truth tracker packets on the mocap clock."""
    period = 1_000_000_000 // config.mocap_rate_hz
    station_q = quat_from_axis_angle(config.filter.up_axis, config.station_yaw)
    seqs: dict[int, int] = {}
    n_frames = int(round(config.duration_s * config.mocap_rate_hz))
    for m in range(n_frames):
        t_ns = m * period
        t = t_ns / 1e9
        noise = rng.normal(0.0, config.tracker_noise_sigma, 3)
        seq = seqs.get(0, 0)
        seqs[0] = seq + 1
        yield t_ns, MocapPacket(0, seq, t_ns, config.station_position + noise,
                                station_q, 1)
        for a in config.assets:
            seq = seqs.get(a.object_id, 0)
            seqs[a.object_id] = seq + 1
            if a.occluded(t):
                yield t_ns, MocapPacket(a.object_id, seq, t_ns, ZERO3, IDENTITY_QUAT, 0)
            else:
                noise = rng.normal(0.0, config.tracker_noise_sigma, 3)
                yield t_ns, MocapPacket(a.object_id, seq, t_ns,
                                        a.true_position(t) + noise, IDENTITY_QUAT, 1)


def simulate(config: ScenarioConfig) -> SimResult:
    """Run a full emulated scenario; returns hashes, stats and counters."""
    model = _load_model(config)
    dof = model.dof
    profile = _profile_from_config(config, dof)
    lowers = [j.lower for j in model.movable_joints]
    uppers = [j.upper for j in model.movable_joints]
    profile.validate_against_limits(lowers, uppers)
    gains = ControllerGains.default(dof, config.gains_kp, config.gains_kd)

    ss = np.random.SeedSequence(config.seed)
    child = ss.spawn(6)
    noise_rng = np.random.default_rng(child[0])
    proc_rng = np.random.default_rng(child[1])
    telemetry_link = DatagramLink(_reseed(config.telemetry_link, child[2]))
    mocap_link = DatagramLink(_reseed(config.mocap_link, child[3]))
    command_link = StreamLink(_reseed(config.command_link, child[4]))
    teleop_link = DatagramLink(_reseed(config.teleop_link, child[5]))

    engine = TwinEngine(model, config)
    throttle = Throttle(target_hz=MERGE_HZ)
    recorder = LatencyRecorder()

    log_buf = io.BytesIO()
    writer = LogWriter(log_buf, config.seed)
    trace = io.StringIO()
    trace.write("time_ns," + ",".join(f"leader_q{i}" for i in range(dof)) + ","
                + ",".join(f"follower_q{i}" for i in range(dof)) + "\n")

    leader0 = leader_trajectory(0.0, profile)
    follower = FollowerState(leader0.positions, [0.0] * dof)
    latest_leader = leader0
    no_torque = [0.0] * dof
    ext_tau = no_torque
    ext_expiry = -1
    control_ticks = int(round(config.duration_s * 1000))
    merge_ticks = int(round(config.duration_s * MERGE_HZ))
    mocap_src = _mocap_schedule(config, noise_rng)
    next_mocap = next(mocap_src, None)
    counters = {"commands": 0, "delivered": 0}
    merge_k = 1

    def run_merge_tick(mk_ns: int) -> None:
        # log order is by time, then channel; the sort is stable, so each
        # link's records keep the delivery order it polled them in
        due = sorted([LogRecord(d.time_ns, CHANNEL_TELEMETRY, d.payload)
                      for d in telemetry_link.poll(mk_ns)]
                     + [LogRecord(d.time_ns, CHANNEL_MOCAP, d.payload)
                        for d in mocap_link.poll(mk_ns)],
                     key=lambda r: (r.time_ns, r.channel))
        for rec in due:
            writer.append(rec)
        telemetry, commands, _ = merge_records(engine, mk_ns, due)
        received = [r.time_ns for r in due if r.channel == CHANNEL_TELEMETRY]
        for recv_ns, pkt in zip(received, telemetry):
            recorder.record(pkt.seq, Stage.SOCKET_RECV, recv_ns)
            proc_ns = int(round(config.processing_delay.sample_ms(proc_rng) * 1e6))
            recorder.record(pkt.seq, Stage.APPLIED, recv_ns + proc_ns)
        counters["delivered"] += len(telemetry)
        for frame in commands:
            data = encode_command(frame)
            command_link.send(mk_ns, data)
            writer.append(LogRecord(mk_ns, CHANNEL_COMMAND, data))
            counters["commands"] += 1

    # the leader generator runs out with the loop, so its last chunk is freed
    # before the outputs below are built
    for k, leader_now in enumerate(leader_samples(profile, control_ticks,
                                                  CONTROL_TICK_NS)):
        t_ns = k * CONTROL_TICK_NS
        # world-side mocap frames due at or before this control tick
        while next_mocap is not None and next_mocap[0] <= t_ns:
            mt, pkt = next_mocap
            mocap_link.send(mt, encode_mocap(pkt))
            next_mocap = next(mocap_src, None)

        # leader -> follower over the teleop link (latest-sample semantics)
        teleop_link.send(t_ns, leader_now)
        for d in teleop_link.poll(t_ns):
            latest_leader = d.payload

        # commands from the twin arrive as external torque at the follower
        for d in command_link.poll(t_ns):
            frame = decode_command(d.payload)
            force = counterforce(Repulsion(frame.direction, frame.depth),
                                 frame.stiffness)
            J = numeric_jacobian(model, follower.q, engine.ee_link)
            ext_tau = [dot(column, force) for column in J.T.tolist()]
            ext_expiry = t_ns + (1_000_000_000 // MERGE_HZ)
        tau_ext = ext_tau if t_ns < ext_expiry else no_torque

        tau, follower = pd_step(latest_leader, follower, gains, tau_ext)
        trace.write(f"{t_ns}," + ",".join(map(repr, latest_leader.positions))
                    + "," + ",".join(map(repr, follower.q)) + "\n")

        # the packet is built only for the samples the throttle emits
        sample = (k, t_ns, follower.q, follower.dq, tau,
                  latest_leader.gripper_width, latest_leader.gripper_velocity)
        for tick_time, s in throttle.offer(t_ns, sample):
            recorder.record(s[0], Stage.INGRESS, tick_time)
            pkt = TelemetryPacket(config.robot_id, *s)
            telemetry_link.send(tick_time, encode_telemetry(pkt))

        # twin merge ticks due by now
        while merge_k <= merge_ticks and merge_tick_time(merge_k) <= t_ns:
            run_merge_tick(merge_tick_time(merge_k))
            merge_k += 1

    # ticks falling at or after the last control tick
    while merge_k <= merge_ticks:
        run_merge_tick(merge_tick_time(merge_k))
        merge_k += 1

    end_ns = merge_tick_time(merge_ticks)
    writer.append(LogRecord(max(end_ns, writer.last_time), CHANNEL_HEARTBEAT, b""))
    writer.close()

    stats = None
    if recorder.complete_count() > 0:
        stats = recorder.compute_stats()

    log_bytes = log_buf.getvalue()
    trace_bytes = trace.getvalue().encode()
    if config.log_path:
        Path(config.log_path).write_bytes(log_bytes)
    if config.trace_path:
        Path(config.trace_path).write_bytes(trace_bytes)
    if config.stats_path and stats is not None:
        Path(config.stats_path).write_text(export_stats(stats))

    return SimResult(
        state_hash=engine.state_hash(),
        trace_hash=hashlib.sha256(trace_bytes).hexdigest(),
        log_hash=hashlib.sha256(log_bytes).hexdigest(),
        stats=stats,
        control_ticks=control_ticks,
        merge_ticks=engine.tick,
        telemetry_sent=telemetry_link.sent,
        telemetry_delivered=counters["delivered"],
        commands_sent=counters["commands"],
        mocap_stale=engine.station_filter.stale
        + sum(f.stale for f in engine.asset_filters.values()),
        log_path=config.log_path,
    )


def _reseed(link_cfg, seed_seq: np.random.SeedSequence):
    """Derive a per-link seed from the scenario seed unless one was pinned."""
    if link_cfg.seed != 0:
        return link_cfg
    return dataclasses.replace(link_cfg, seed=int(seed_seq.generate_state(1)[0]))


@dataclass
class ReplayResult:
    state_hash: str
    merge_ticks: int
    records: int
    skipped: int


def replay(log_path, config: ScenarioConfig, mode: str = "immediate",
           skip_bad: bool = False) -> ReplayResult:
    """Re-drive the twin merge loop from a recorded log.

    Each merge tick runs ``merge_records``, as in ``simulate``, on the
    records logged since the previous tick, so the final twin state
    matches the recorded run. Immediate mode steps merge ticks
    back-to-back in simulated time; timed mode additionally sleeps to
    preserve original gaps (only meaningful interactively).
    """
    if mode not in ("immediate", "timed"):
        raise ValueError(f"unknown replay mode {mode!r} (immediate or timed)")
    scan = read_log(log_path)
    if scan.truncated and not skip_bad:
        raise ValueError(f"truncated tail record; {len(scan.records)} valid "
                         f"records recovered (pass skip_bad to proceed)")
    engine = TwinEngine(_load_model(config), config)

    records = scan.records
    end_ns = records[-1].time_ns if records else -1
    start = skipped = 0
    merge_k = 1
    while (mk_ns := merge_tick_time(merge_k)) <= end_ns:
        stop = bisect_right(records, mk_ns, lo=start, key=attrgetter("time_ns"))
        if mode == "timed":
            time.sleep((mk_ns - merge_tick_time(merge_k - 1)) / 1e9)
        skipped += merge_records(engine, mk_ns, records[start:stop], skip_bad)[2]
        start = stop
        merge_k += 1
    return ReplayResult(engine.state_hash(), engine.tick, len(records), skipped)


def measure_latency(config: ScenarioConfig, n_samples: int = 20_000) -> LatencyStats:
    """Pump throttled telemetry sends through the link and processing stage.

    One sample per 60 Hz twin tick: Ingress at the scheduled send,
    SocketRecv after the telemetry-link delay, Applied after the sampled
    processing delay.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    ss = np.random.SeedSequence(config.seed)
    c_link, c_proc = ss.spawn(2)
    link_rng = np.random.default_rng(c_link)
    proc_rng = np.random.default_rng(c_proc)
    recorder = LatencyRecorder()
    for i in range(n_samples):
        t = merge_tick_time(i)
        recorder.record(i, Stage.INGRESS, t)
        recv = t + int(round(config.telemetry_link.delay.sample_ms(link_rng) * 1e6))
        recorder.record(i, Stage.SOCKET_RECV, recv)
        applied = recv + int(round(config.processing_delay.sample_ms(proc_rng) * 1e6))
        recorder.record(i, Stage.APPLIED, applied)
    return recorder.compute_stats()
