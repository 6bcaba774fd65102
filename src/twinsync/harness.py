"""The emulated workcell, on seeded draws from ``network.doubles``: the
1 kHz leader and follower, the links, and ``measure_latency``'s three
stages.

``simulate`` runs it on a simulated nanosecond clock; at each 60 Hz merge
tick it logs the records that arrived and hands exactly those to the twin
(``twin.merge_records``), whose ``replay`` merges the same slices of the log.
The follower's telemetry goes out on the same schedule: at merge tick time
T, before the tick runs, it sends the sample of control tick T // 1 ms.
Tick 0, at t = 0, sends seq 0 and runs nothing; a tick after the last
control tick sends nothing.

``simulate`` streams its trace and log. Each control tick keeps its trace
row as values (the time, then the leader's and the follower's positions);
at each merge tick the rows since the last one are rendered as CSV text by
one ``%`` format, encoded and passed once to the trace's SHA-256 and file.
The log goes out in chunks of whole records (``recordlog.LogWriter``). So
a run of any length holds one merge tick's rows and one chunk of the log,
and the hashes are those of the files, or of the files the run would
write when no path is set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import twin
from .geometry import IDENTITY_QUAT, ZERO3, dot
from .latency import LatencyRecorder, LatencyStats, Stage, export_stats
from .network import DatagramLink, StreamLink, delay_ns, doubles, normal
from .recordlog import (CHANNEL_COMMAND, CHANNEL_HEARTBEAT, CHANNEL_MOCAP,
                        CHANNEL_TELEMETRY, HashedFile, LogRecord, LogWriter)
from .robot import RobotModel, jacobian
from .scenario import ConfigError, LeaderConfig, ScenarioConfig
from .teleop import FollowerState, leader_samples, leader_trajectory, pd_step
from .twin import (MERGE_HZ, TwinEngine, load_model, merge_records, merge_tick_time,
                   station_pose)
from .wire import (MocapPacket, TelemetryPacket, decode_command, encode_command,
                   encode_mocap, encode_telemetry)
from .zones import counterforce

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


def leader_profile(config: ScenarioConfig, model: RobotModel) -> LeaderConfig:
    """The ``leader`` section with one value per movable joint of ``model``
    in each list: a list holds one value per joint, or one for all of them.
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
    return replace(leader, centers=centers, amplitudes=amplitudes,
                   frequencies=fit("frequencies"), phases=fit("phases"))


def _mocap_schedule(config: ScenarioConfig, u):
    """Generator of tracker packets on the mocap clock: ground truth plus
    normal noise per axis, drawn from the double source ``u``."""
    sigma = config.tracker_noise_sigma

    def noisy(position):
        x, y, z = position
        return (x + normal(u, 0.0, sigma), y + normal(u, 0.0, sigma),
                z + normal(u, 0.0, sigma))

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


def trace_rows(values, dof: int) -> str:
    """The trace CSV rows of ``values``, which hold for each control tick
    its time in ns, then the leader's and the follower's ``dof`` joint
    positions. One ``%`` format renders every row; ``%r`` is ``repr``, so
    the text is that of ``f"{t_ns},"`` and the positions' ``repr``s joined
    by commas, row by row."""
    row = "%d," + ",".join(["%r"] * dof) + "," + ",".join(["%r"] * dof) + "\n"
    return row * (len(values) // (1 + 2 * dof)) % tuple(values)


def simulate(config: ScenarioConfig) -> SimResult:
    """Run a full emulated scenario; returns hashes, stats and counters."""
    model = load_model(config)
    dof = model.dof
    leader = leader_profile(config, model)
    # as floats, so a YAML integer gain is not converted on every multiply
    kp, kd = float(config.gains_kp), float(config.gains_kd)

    child = np.random.SeedSequence(config.seed).spawn(6)
    noise_u, proc_u = map(doubles, child[:2])
    # each link's seed is the first state word of a child of the scenario seed
    seeds = [int(c.generate_state(1)[0]) for c in child[2:]]
    telemetry_link = DatagramLink(config.telemetry_link, seeds[0])
    mocap_link = DatagramLink(config.mocap_link, seeds[1])
    command_link = StreamLink(config.command_link, seeds[2])
    teleop_link = DatagramLink(config.teleop_link, seeds[3])

    engine = TwinEngine(model, config)
    recorder = LatencyRecorder()

    leader0 = leader_trajectory(0.0, leader)
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
    merge_k = merge_ns = 0  # the next merge tick and its time
    # the trace values of the control ticks since the last flush
    trace_values = []
    trace_head = ("time_ns," + ",".join(f"leader_q{i}" for i in range(dof)) + ","
                  + ",".join(f"follower_q{i}" for i in range(dof)) + "\n")

    def flush_trace() -> None:
        # the header goes out with the first flush
        nonlocal trace_head
        trace.write((trace_head + trace_rows(trace_values, dof)).encode())
        trace_head = ""
        trace_values.clear()

    def run_merge_tick(mk_ns: int) -> None:
        flush_trace()
        # log order is by time, then channel; the sort is stable, so each
        # link's records keep the delivery order it polled them in
        due = sorted([LogRecord(d.time_ns, CHANNEL_TELEMETRY, d.payload)
                      for d in telemetry_link.poll(mk_ns)]
                     + [LogRecord(d.time_ns, CHANNEL_MOCAP, d.payload)
                        for d in mocap_link.poll(mk_ns)],
                     key=itemgetter(0, 1))  # (time_ns, channel)
        for rec in due:
            writer.append(rec)
        telemetry, commands, _ = merge_records(engine, mk_ns, due)
        received = [r.time_ns for r in due if r.channel == CHANNEL_TELEMETRY]
        for recv_ns, pkt in zip(received, telemetry):
            recorder.record(pkt.seq, Stage.SOCKET_RECV, recv_ns)
            recorder.record(pkt.seq, Stage.APPLIED,
                            recv_ns + delay_ns(config.processing_delay, proc_u))
        for frame in commands:
            data = encode_command(frame)
            command_link.send(mk_ns, data)
            writer.append(LogRecord(mk_ns, CHANNEL_COMMAND, data))

    # the outputs open once every check that can fail before the first tick
    # has passed, so a config error leaves an existing file as it was; a
    # run that raises closes them, the log holding every record appended
    with LogWriter(config.log_path or None, config.seed) as writer, \
            HashedFile(config.trace_path or None) as trace:
        # the leader generator runs out with the loop, so its last chunk is
        # freed before the stats below are built
        for k, leader_now in enumerate(leader_samples(leader, control_ticks,
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

            # commands from the twin arrive as external torque at the
            # follower; the frames of one merge tick (one per zone entered)
            # add up
            for d in command_link.poll(t_ns):
                frame = decode_command(d.payload)
                force = counterforce(frame.direction, frame.depth, frame.stiffness)
                tau = [dot(column, force)
                       for column in jacobian(model, follower.q, engine.ee_link, station)]
                if frame.time_ns == ext_tick_ns:
                    tau = [a + b for a, b in zip(ext_tau, tau)]
                ext_tau, ext_tick_ns = tau, frame.time_ns
                ext_expiry = t_ns + (1_000_000_000 // MERGE_HZ)
            tau_ext = ext_tau if t_ns < ext_expiry else no_torque

            tau, follower = pd_step(latest_leader, follower, kp, kd, tau_ext)
            trace_values.append(t_ns)
            trace_values += latest_leader.positions
            trace_values += follower.q

            # the packet is built only for the samples a merge tick sends
            sample = (k, t_ns, follower.q, follower.dq, tau,
                      latest_leader.gripper_width, latest_leader.gripper_velocity)
            # merge ticks due by now: each first sends the sample of control
            # tick floor(T / 1 ms), this tick's when T is its time, else the
            # previous one's; tick 0 only sends
            while merge_ns <= t_ns and merge_k <= merge_ticks:
                s = sample if merge_ns == t_ns else last_sample
                pkt = TelemetryPacket(config.robot_id, *s)
                # a lost packet is never stamped, so it leaves the recorder
                # nothing it would hold for the rest of the run
                if telemetry_link.send(merge_ns, encode_telemetry(pkt)):
                    recorder.record(s[0], Stage.INGRESS, merge_ns)
                if merge_k:
                    run_merge_tick(merge_ns)
                merge_k += 1
                merge_ns = merge_tick_time(merge_k)
            last_sample = sample

        # ticks after the last control tick send nothing; a run with no
        # control tick runs no tick either
        while 0 < merge_k <= merge_ticks:
            run_merge_tick(merge_tick_time(merge_k))
            merge_k += 1

        flush_trace()
        end_ns = merge_tick_time(merge_ticks)
        writer.append(LogRecord(max(end_ns, writer.last_time), CHANNEL_HEARTBEAT, b""))

    # every delivered telemetry packet completes its seq's three stamps
    delivered = recorder.complete_count()
    stats = recorder.compute_stats() if delivered else None
    if config.stats_path and stats is not None:
        Path(config.stats_path).write_text(export_stats(stats))

    return SimResult(
        state_hash=engine.state_hash(),
        trace_hash=trace.sha256.hexdigest(),
        log_hash=writer.out.sha256.hexdigest(),
        stats=stats,
        control_ticks=control_ticks,
        merge_ticks=engine.tick,
        telemetry_sent=telemetry_link.sent,
        telemetry_delivered=delivered,
        commands_sent=command_link.sent,
        mocap_stale=engine.station_filter.stale
        + sum(f.stale for f in engine.asset_filters.values()),
    )


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
        recv = t + delay_ns(config.telemetry_link.delay, link_u)
        recorder.record(i, Stage.SOCKET_RECV, recv)
        applied = recv + delay_ns(config.processing_delay, proc_u)
        recorder.record(i, Stage.APPLIED, applied)
    return recorder.compute_stats()
