"""The twin side: the 60 Hz merge loop (``TwinEngine``, fed by
``merge_records`` in both ``harness.simulate`` and ``replay``) and bit-exact
replay. It and all it imports run on Python floats without numpy or yaml,
so a log replays, its config loaded from JSON, on any Python 3.10+.

A merge tick computes only what it reads: it walks the end-effector's
root-to-link path alone, for the gripper pose and the zone queries; every
link's pose, which only ``state_hash`` reads, is walked on demand, one path
per link. Mocap frames only update their filter's state; a filtered pose
is built when read, once per tick for each asset, by its tracker, and for
the station when a frame of the tick left it STABLE or RELOCATED.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .geometry import Pose, quat_from_axis_angle, unit_quat
from .grasp import GRASPED, AssetTracker, GripperTracker
from .mocap import RELOCATED, STABLE, MocapFilter
from .recordlog import CHANNEL_MOCAP, CHANNEL_TELEMETRY, read_log
from .robot import RobotModel, apply_joint_state, forward_kinematics, parse_urdf
from .scenario import ConfigError, ScenarioConfig
from .wire import (CommandFrame, MocapPacket, TelemetryPacket, WireError,
                   decode_mocap, decode_telemetry)
from .zones import query

MERGE_HZ = 60


def merge_tick_time(k: int) -> int:
    return (k * 1_000_000_000) // MERGE_HZ


def station_pose(config: ScenarioConfig) -> Pose:
    """The station's configured pose: at ``station_position``, yawed by
    ``station_yaw`` about the filter's up axis."""
    return Pose(config.station_position,
                quat_from_axis_angle(config.filter.up_axis, config.station_yaw))


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
    tick, emits one command frame per zone the end-effector is in (kept
    with its zone id in ``active_repulsions``), and exposes a
    deterministic state hash. Pure function of the inbound packet
    sequence, which is what makes log replay exact. A tick walks the
    chain along the end-effector's path only; ``state_hash`` walks every
    link's path on each call. An ``ee_link`` that names no link of the
    model raises ``ConfigError`` when the engine is built.
    """

    def __init__(self, model: RobotModel, config: ScenarioConfig):
        self.model = model
        self.config = config
        if config.ee_link not in (None, *model.links):
            raise ConfigError(f"ee_link {config.ee_link!r} names no link of {model.name!r}")
        self.ee_link = config.ee_link or _deepest_link(model)
        self.tick = 0
        self.last_tick_ns = 0
        self.applied_seq = -1
        self.positions = [0.0] * model.dof
        self.base_pose = station_pose(config)
        self.station_filter = MocapFilter(config.filter)
        self.gripper = GripperTracker(config.grasp)
        self.asset_filters = {a.object_id: MocapFilter(config.filter)
                              for a in config.assets}
        up = config.filter.up_axis
        self.asset_trackers = {
            a.object_id: AssetTracker(a.name, Pose(a.position), up_axis=up)
            for a in config.assets}
        tracker_of = {t.name: t for t in self.asset_trackers.values()}
        self.zones = config.zones
        # each zone's world-to-zone pose, for ``query``; ``place_zones``
        # rebuilds an attached zone's on every merge tick
        self.to_zone = [z.pose.inverse() for z in self.zones]
        # each attached zone's (index, asset tracker, pose in the asset's frame)
        self._attached = [(i, tracker_of[z.attached_asset], z.pose)
                          for i, z in enumerate(self.zones) if z.attached_asset is not None]
        self.active_repulsions: list[tuple[str, CommandFrame]] = []

    def merge_tick(self, tick_ns: int, telemetry: list[TelemetryPacket],
                   mocap: list[MocapPacket]) -> list[CommandFrame]:
        dt = max((tick_ns - self.last_tick_ns) / 1e9, 1e-9) if self.tick else 1.0 / MERGE_HZ

        latest = None
        for pkt in telemetry:
            if latest is None or pkt.seq >= latest.seq:
                latest = pkt
        if latest is not None and latest.seq > self.applied_seq:
            self.applied_seq = latest.seq
            self.positions, _ = apply_joint_state(self.model, latest.positions)
            self.gripper.step(max(latest.gripper_width, 0.0), latest.gripper_velocity)

        # the base takes the station's last STABLE or RELOCATED pose; a
        # relocation is posed at once, since before warm-up the next
        # accepted frame replaces its pose with a WARMING_UP one
        stable = False
        asset_filters = self.asset_filters
        for pkt in mocap:
            if pkt.object_id == 0:
                status = self.station_filter.process(pkt)
                if status is STABLE:
                    stable = True
                elif status is RELOCATED:
                    self._pose_base()
                    stable = False
            else:
                filt = asset_filters.get(pkt.object_id)
                if filt is not None:
                    filt.process(pkt)
        if stable:
            self._pose_base()

        # apply_joint_state has checked and clamped the positions
        gripper_pose = self.model.pose(self.positions, self.base_pose, self.ee_link)
        grasped = self.gripper.phase is GRASPED
        for oid, tracker in self.asset_trackers.items():
            tracker.update(grasped, gripper_pose, asset_filters[oid].last_output, dt)

        self.place_zones()

        commands = []
        self.active_repulsions = []
        ee_point = gripper_pose.translation
        for z, to_local in zip(self.zones, self.to_zone):
            hit = query(z, ee_point, to_local)
            if hit is not None:
                # the hit's direction is a float tuple already
                frame = tuple.__new__(CommandFrame, (self.config.robot_id, tick_ns,
                                                     *hit, z.stiffness))
                self.active_repulsions.append((z.zone_id, frame))
                commands.append(frame)
        self.tick += 1
        self.last_tick_ns = tick_ns
        return commands

    def _pose_base(self) -> None:
        out = self.station_filter.last_output
        self.base_pose = Pose.of(out.position, unit_quat(out.rotation))

    def place_zones(self) -> None:
        """Re-pose each attached zone at its asset tracker's current pose:
        the zone's configured pose is in the asset's frame."""
        for i, tracker, pose in self._attached:
            self.to_zone[i] = tracker.pose.compose(pose).inverse()

    def state_hash(self) -> str:
        h = hashlib.sha256()
        h.update(struct.pack("<qq", self.tick, self.applied_seq))

        def pose(p: Pose) -> bytes:
            return struct.pack("<3d4d", *p.translation, *p.rotation)

        # every link's pose, one path walk per link
        link_poses = forward_kinematics(self.model, self.positions, self.base_pose)
        for name in sorted(link_poses):
            h.update(name.encode())
            h.update(pose(link_poses[name]))
        h.update(pose(self.base_pose))
        h.update(self.gripper.phase.value.encode())
        for oid in sorted(self.asset_trackers):
            t = self.asset_trackers[oid]
            h.update(t.name.encode())
            h.update(t.source.value.encode())
            h.update(pose(t.pose))
        for zone_id, frame in self.active_repulsions:
            h.update(zone_id.encode())
            h.update(struct.pack("<3dd", *frame.direction, frame.depth))
        return h.hexdigest()


def merge_records(engine: TwinEngine, tick_ns: int, records,
                  skip_bad: bool = False
                  ) -> tuple[list[TelemetryPacket], list[CommandFrame], int]:
    """Decode the log records due at a merge tick, in log order, and run
    the tick on their telemetry and mocap (command and heartbeat records
    are twin output and markers). A bad record, an undecodable payload or
    telemetry of another robot id or joint count than the twin's, raises
    ``ValueError`` naming its channel and time, or with ``skip_bad`` is
    skipped and counted. Returns the decoded telemetry, the tick's command
    frames and the skip count.
    """
    robot_id, dof = engine.config.robot_id, engine.model.dof
    telemetry, mocap = [], []
    skipped = 0
    for rec in records:
        bad = None
        try:
            if rec.channel == CHANNEL_TELEMETRY:
                pkt = decode_telemetry(rec.payload)
                if pkt.robot_id == robot_id and len(pkt.positions) == dof:
                    telemetry.append(pkt)
                else:
                    bad = (f"telemetry of robot {pkt.robot_id} with {len(pkt.positions)} "
                           f"joints, not of robot {robot_id} with {dof}")
            elif rec.channel == CHANNEL_MOCAP:
                mocap.append(decode_mocap(rec.payload))
        except WireError as e:
            bad = f"undecodable payload: {e}"
        if bad is not None:
            if not skip_bad:
                raise ValueError(f"bad record on channel {rec.channel} at {rec.time_ns} ns: "
                                 f"{bad}")
            skipped += 1
    return telemetry, engine.merge_tick(tick_ns, telemetry, mocap), skipped


def load_model(config: ScenarioConfig) -> RobotModel:
    if config.robot_path is None:
        raise ValueError("scenario requires a robot description path")
    return parse_urdf(Path(config.robot_path).read_text())


@dataclass
class ReplayResult:
    state_hash: str
    merge_ticks: int
    records: int
    skipped: int


def replay(log_path, config: ScenarioConfig, skip_bad: bool = False) -> ReplayResult:
    """Re-drive the twin merge loop from a recorded log.

    Each merge tick runs ``merge_records``, as in ``simulate``, on the
    records logged since the previous tick, so the final twin state
    matches the recorded run. The log is read a block at a time
    (``read_log``): a tick runs once a record after it has been read, and
    the records of a tick that runs on past a block carry into the next.
    A torn tail record is an error, found at the end of the log, unless
    ``skip_bad``. The ticks run back-to-back in simulated time, as fast as
    the host allows: nothing is exposed until the replay returns, so
    waiting out the recorded gaps would change nothing.
    """
    engine = TwinEngine(load_model(config), config)
    time_ns = attrgetter("time_ns")
    records = []
    count = start = skipped = 0
    merge_k = 1
    for block, last, truncated in read_log(log_path):
        count += len(block)
        if truncated and not skip_bad:
            raise ValueError(f"truncated tail record; {count} valid "
                             f"records recovered (pass skip_bad to proceed)")
        records = records[start:] + block
        start = 0
        # at the end of the log, the ticks up to its last record run too
        end_ns = records[-1].time_ns + last if records else -1
        while (mk_ns := merge_tick_time(merge_k)) < end_ns:
            stop = bisect_right(records, mk_ns, lo=start, key=time_ns)
            skipped += merge_records(engine, mk_ns, records[start:stop], skip_bad)[2]
            start = stop
            merge_k += 1
    return ReplayResult(engine.state_hash(), engine.tick, count, skipped)
