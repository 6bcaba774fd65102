"""The emulated workcell, on seeded draws from ``network.doubles``: the
1 kHz leader and follower, the links, and ``measure_latency``'s three
stages.

``simulate`` runs it on a simulated nanosecond clock; at each 60 Hz merge
tick it logs the records that arrived and hands exactly those to the twin
(``twin.merge_records``), whose ``replay`` merges the same slices of the log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import twin
from .geometry import IDENTITY_QUAT, ZERO3, dot
from .latency import LatencyRecorder, LatencyStats, Stage, export_stats
from .network import DatagramLink, StreamLink, Throttle, delay_ms, doubles, normal
from .recordlog import (CHANNEL_COMMAND, CHANNEL_HEARTBEAT, CHANNEL_MOCAP,
                        CHANNEL_TELEMETRY, LogRecord, LogWriter)
from .robot import RobotModel, jacobian
from .scenario import ConfigError, ScenarioConfig
from .teleop import (ControllerGains, FollowerState, LeaderProfile, leader_samples,
                     leader_trajectory, pd_step)
from .twin import (MERGE_HZ, TwinEngine, load_model, merge_records, merge_tick_time,
                   station_pose)
from .wire import (MocapPacket, TelemetryPacket, decode_command, encode_command,
                   encode_mocap, encode_telemetry)
from .zones import Repulsion, counterforce

CONTROL_TICK_NS = 1_000_000

# perfbench traces and calls ``harness.replay``; the twin's replay, kept
# under its old name until the benchmark reads it from ``twin``
replay = twin.replay
# perfbench traces the follower's Jacobian under its old name, kept until
# the benchmark traces ``robot.jacobian``
numeric_jacobian = jacobian


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


def leader_profile(config: ScenarioConfig, model: RobotModel) -> LeaderProfile:
    """The leader's profile for ``model``: each list of the ``leader``
    section holds one value per movable joint, or one for all of them.
    A list of another length, or a sinusoid that leaves its joint's
    limits, is a ``ConfigError`` naming ``leader``."""
    leader, dof = config.leader, model.dof

    def fit(name):
        values = getattr(leader, name)
        if len(values) not in (1, dof):
            raise ConfigError(f"leader: {name} holds {len(values)} values; "
                              f"give 1 or one per joint ({dof})")
        return values * dof if len(values) == 1 else values

    centers, amplitudes = fit("centers"), fit("amplitudes")
    for joint, c, a in zip(model.movable_joints, centers, amplitudes):
        lo, hi = c - abs(a), c + abs(a)
        # written so that NaN fails too
        if not (joint.lower <= lo and hi <= joint.upper):
            raise ConfigError(f"leader: joint {joint.name!r} swings over [{lo}, {hi}], "
                              f"outside its limits [{joint.lower}, {joint.upper}]")
    return LeaderProfile(centers, amplitudes, fit("frequencies"), fit("phases"),
                         leader.gripper_schedule)


def _mocap_schedule(config: ScenarioConfig, u):
    """Generator of tracker packets on the mocap clock: ground truth plus
    normal noise per axis, drawn from the double source ``u``."""
    def noisy(position):
        return tuple(x + normal(u, 0.0, config.tracker_noise_sigma) for x in position)

    period = 1_000_000_000 // config.mocap_rate_hz
    station_q = station_pose(config).rotation
    n_frames = int(round(config.duration_s * config.mocap_rate_hz))
    # every frame holds one packet per object, so frame m is each one's seq
    for m in range(n_frames):
        t_ns = m * period
        t = t_ns / 1e9
        yield t_ns, MocapPacket(0, m, t_ns, noisy(config.station_position), station_q, 1)
        for a in config.assets:
            if a.occluded(t):
                yield t_ns, MocapPacket(a.object_id, m, t_ns, ZERO3, IDENTITY_QUAT, 0)
            else:
                yield t_ns, MocapPacket(a.object_id, m, t_ns,
                                        noisy(a.true_position(t)), IDENTITY_QUAT, 1)


def simulate(config: ScenarioConfig) -> SimResult:
    """Run a full emulated scenario; returns hashes, stats and counters."""
    model = load_model(config)
    dof = model.dof
    profile = leader_profile(config, model)
    gains = ControllerGains.default(dof, config.gains_kp, config.gains_kd)

    child = np.random.SeedSequence(config.seed).spawn(6)
    noise_u, proc_u = map(doubles, child[:2])
    telemetry_link = DatagramLink(_reseed(config.telemetry_link, child[2]))
    mocap_link = DatagramLink(_reseed(config.mocap_link, child[3]))
    command_link = StreamLink(_reseed(config.command_link, child[4]))
    teleop_link = DatagramLink(_reseed(config.teleop_link, child[5]))

    engine = TwinEngine(model, config)
    throttle = Throttle()
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
    ext_tick_ns = ext_expiry = -1
    # the zones' directions are in the world frame, where the follower's
    # root sits at the configured station pose
    station = station_pose(config)
    control_ticks = int(round(config.duration_s * 1000))
    merge_ticks = int(round(config.duration_s * MERGE_HZ))
    mocap_src = _mocap_schedule(config, noise_u)
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
            proc_ns = int(round(delay_ms(config.processing_delay, proc_u) * 1e6))
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

        # commands from the twin arrive as external torque at the follower;
        # the frames of one merge tick (one per zone entered) add up
        for d in command_link.poll(t_ns):
            frame = decode_command(d.payload)
            force = counterforce(Repulsion(frame.direction, frame.depth),
                                 frame.stiffness)
            tau = [dot(column, force)
                   for column in jacobian(model, follower.q, engine.ee_link, station)]
            if frame.time_ns == ext_tick_ns:
                tau = [a + b for a, b in zip(ext_tau, tau)]
            ext_tau, ext_tick_ns = tau, frame.time_ns
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
    )


def _reseed(link_cfg, seed_seq: np.random.SeedSequence):
    """Derive a per-link seed from the scenario seed unless one was pinned."""
    if link_cfg.seed != 0:
        return link_cfg
    return dataclasses.replace(link_cfg, seed=int(seed_seq.generate_state(1)[0]))


def measure_latency(config: ScenarioConfig, n_samples: int = 20_000) -> LatencyStats:
    """Pump throttled telemetry sends through the link and processing stage.

    One sample per 60 Hz twin tick: Ingress at the scheduled send,
    SocketRecv after the telemetry-link delay, Applied after the sampled
    processing delay.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    link_u, proc_u = map(doubles, np.random.SeedSequence(config.seed).spawn(2))
    recorder = LatencyRecorder()
    for i in range(n_samples):
        t = merge_tick_time(i)
        recorder.record(i, Stage.INGRESS, t)
        recv = t + int(round(delay_ms(config.telemetry_link.delay, link_u) * 1e6))
        recorder.record(i, Stage.SOCKET_RECV, recv)
        applied = recv + int(round(delay_ms(config.processing_delay, proc_u) * 1e6))
        recorder.record(i, Stage.APPLIED, applied)
    return recorder.compute_stats()
