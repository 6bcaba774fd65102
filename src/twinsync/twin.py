"""The twin side: the 60 Hz merge loop (``TwinEngine``, fed by
``merge_records`` in both ``harness.simulate`` and ``replay``) and bit-exact
replay. It and all it imports run on Python floats without numpy or yaml,
so a log replays, its config loaded from JSON, on any Python 3.10+.
"""

from __future__ import annotations

import hashlib
import struct
import time
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from .geometry import Pose, quat_from_axis_angle
from .grasp import AssetTracker, GraspPhase, GripperTracker
from .mocap import MocapFilter, PoseStatus
from .recordlog import CHANNEL_MOCAP, CHANNEL_TELEMETRY, read_log
from .robot import RobotModel, apply_joint_state, forward_kinematics, parse_urdf
from .scenario import ConfigError, ScenarioConfig
from .wire import (CommandFrame, MocapPacket, TelemetryPacket, WireError,
                   decode_mocap, decode_telemetry)
from .zones import Repulsion, make_command, query, update_dynamic

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
        self.base_pose = station_pose(config)
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
            self.positions, _ = apply_joint_state(self.model, latest.positions)
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


def load_model(config: ScenarioConfig) -> RobotModel:
    if config.robot_path is None:
        raise ValueError("scenario requires a robot description path")
    model = parse_urdf(Path(config.robot_path).read_text())
    if config.ee_link not in (None, *(link.name for link in model.links)):
        raise ConfigError(f"ee_link {config.ee_link!r} names no link of {model.name!r}")
    return model


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
    engine = TwinEngine(load_model(config), config)

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
