"""The merge tick computes only what it reads: a walk of the end-effector's
path per tick, every link's pose only when ``state_hash`` asks, the
station's pose built once per tick from its last usable filter output, and
each filter's pose built only when read."""

import dataclasses
import struct
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mocap_oracle import EagerMocapFilter, counting_relocations
from twinsync import mocap
from twinsync.geometry import Pose, quat_from_axis_angle
from twinsync.harness import simulate
from twinsync.mocap import FilterConfig, MocapFilter, PoseStatus
from twinsync.robot import RobotModel, apply_joint_state, forward_kinematics
from twinsync.scenario import ScenarioConfig, load_config
from twinsync.twin import TwinEngine, load_model, merge_tick_time, replay, station_pose
from twinsync.wire import MocapPacket, TelemetryPacket

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"
PANDA = load_model(ScenarioConfig(robot_path=str(ROOT / "assets" / "panda.urdf")))
YAW = quat_from_axis_angle((0.0, 0.0, 1.0), 0.4)
# a small filter: STABLE after 5 frames, a relocation after 3 gated ones
FILTER = FilterConfig(window=5, vmax=0.5, stable_count=3, stable_tol=0.01)
CONFIG = ScenarioConfig(filter=FILTER, station_position=(0.3, -0.2, 0.1), station_yaw=0.7)
FRAME_NS = 10_000_000


def pose_bytes(pose: Pose) -> bytes:
    return struct.pack("<3d4d", *pose.translation, *pose.rotation)


def station(t_ns: int, position, quality: int = 1) -> MocapPacket:
    return MocapPacket(0, 0, t_ns, position, YAW, quality)


def per_packet_base(config: ScenarioConfig, packets) -> Pose:
    """The base pose of an engine that re-poses its base on every station
    output that is STABLE or RELOCATED, as the packets come."""
    base = station_pose(config)
    filt = EagerMocapFilter(config.filter)
    for pkt in packets:
        out = filt.process(pkt)
        if out is not None and out.status in (PoseStatus.STABLE, PoseStatus.RELOCATED):
            base = Pose(out.position, out.rotation)
    return base


def walking(n: int, t0: int = 0, x0: float = 0.5):
    """n station frames moving 1 mm per frame, within the gate."""
    return [station(t0 + i * FRAME_NS, (x0 + 1e-3 * i, 0.1, 0.0)) for i in range(n)]


def statuses(packets) -> list[PoseStatus]:
    filt = MocapFilter(FILTER)
    return [filt.process(p) for p in packets]


# one merge tick's station frames, each ending on an output that is not
# STABLE or RELOCATED, so the base pose comes from an earlier frame
ONE_TICK = {
    "stable-then-lost": walking(7) + [station(7 * FRAME_NS, (0.0, 0.0, 0.0), quality=0)],
    "stable-then-stale": walking(7) + [station(3 * FRAME_NS, (0.9, 0.1, 0.0))],
    "relocated-then-gated": walking(5) + [
        station((5 + i) * FRAME_NS, (1.5, 0.1, 0.0)) for i in range(3)] + [
        station(8 * FRAME_NS, (3.0, 0.1, 0.0))],
    # a stale frame changes nothing, so the relocation is posed once
    "relocated-then-stale": walking(5) + [
        station((5 + i) * FRAME_NS, (1.5, 0.1, 0.0)) for i in range(3)] + [
        station(6 * FRAME_NS, (1.5, 0.1, 0.0))],
    "warming-up-only": walking(3),
    # a relocation before warm-up, whose pose the next accepted frame
    # replaces with a WARMING_UP one
    "relocated-then-warming-up": walking(1) + [
        station((1 + i) * FRAME_NS, (1.5, 0.1, 0.0)) for i in range(4)],
}
LAST = {"stable-then-lost": PoseStatus.HOLDING, "stable-then-stale": None,
        "relocated-then-gated": PoseStatus.HOLDING, "relocated-then-stale": None,
        "warming-up-only": PoseStatus.WARMING_UP,
        "relocated-then-warming-up": PoseStatus.WARMING_UP}


@pytest.mark.parametrize("case", sorted(ONE_TICK))
def test_station_pose_of_one_tick_matches_per_packet_update(case, monkeypatch):
    packets = ONE_TICK[case]
    seen = statuses(packets)
    assert seen[-1] is LAST[case]
    if case.startswith("relocated"):
        assert seen[-2] is PoseStatus.RELOCATED
    engine = TwinEngine(PANDA, CONFIG)
    builds = []
    pose_base = TwinEngine._pose_base
    monkeypatch.setattr(TwinEngine, "_pose_base",
                        lambda self: builds.append(pose_base(self)))
    engine.merge_tick(merge_tick_time(1), [], packets)
    want = per_packet_base(CONFIG, packets)
    assert pose_bytes(engine.base_pose) == pose_bytes(want)
    # the base is built once, from the tick's last usable output
    assert len(builds) == (case != "warming-up-only")
    # the base moved off the configured station unless the filter never settled
    moved = pose_bytes(want) != pose_bytes(station_pose(CONFIG))
    assert moved == (case != "warming-up-only")


POSITIONS = st.lists(st.floats(-3.0, 3.0), min_size=PANDA.dof, max_size=PANDA.dof)
TELEMETRY = st.builds(
    lambda seq, q: TelemetryPacket(0, seq, 0, q, [0.0] * PANDA.dof, [0.0] * PANDA.dof,
                                   0.04, 0.0),
    st.integers(0, 8), POSITIONS)
# station frames near one spot, some lost, some out of order
STATION = st.builds(lambda dt, dx, quality: (dt, dx, quality),
                    st.integers(-FRAME_NS, 2 * FRAME_NS), st.floats(-0.03, 0.03),
                    st.sampled_from([1, 1, 1, 0]))


@given(ticks=st.lists(st.tuples(st.lists(TELEMETRY, max_size=3),
                                st.lists(STATION, max_size=6)), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_link_poses_are_full_fk_at_the_final_inputs(ticks):
    engine = TwinEngine(PANDA, CONFIG)
    applied_seq, positions, frames, t_ns = -1, [0.0] * PANDA.dof, [], 0
    for k, (telemetry, spots) in enumerate(ticks, start=1):
        mocap = []
        for dt, dx, quality in spots:
            t_ns = max(t_ns + dt, 0)
            mocap.append(station(t_ns, (0.5 + dx, 0.1, 0.0), quality))
        engine.merge_tick(merge_tick_time(k), telemetry, mocap)
        frames += mocap
        # the last of the highest sequence numbers delivered
        latest = max(reversed(telemetry), key=lambda p: p.seq, default=None)
        if latest is not None and latest.seq > applied_seq:
            applied_seq = latest.seq
            positions = apply_joint_state(PANDA, latest.positions)[0]
    want = forward_kinematics(PANDA, positions, per_packet_base(CONFIG, frames))
    got = forward_kinematics(PANDA, engine.positions, engine.base_pose)
    assert list(got) == list(want)
    assert [pose_bytes(p) for p in got.values()] == [pose_bytes(p) for p in want.values()]


def test_one_ee_walk_per_merge_tick_and_one_walk_per_link_per_state_hash(tmp_path,
                                                                         monkeypatch):
    cfg = dataclasses.replace(load_config(CONFIGS / "multi_asset.yaml"),
                              log_path=str(tmp_path / "run.dtrl"), trace_path=None,
                              stats_path=None)
    simulate(cfg)
    walks = []
    pose = RobotModel.pose

    def spy(self, positions, base, link, joint_frames=None):
        walks.append(link)
        return pose(self, positions, base, link, joint_frames)

    monkeypatch.setattr(RobotModel, "pose", spy)
    result = replay(cfg.log_path, cfg)
    model = load_model(cfg)
    ee_link = TwinEngine(model, cfg).ee_link
    assert result.merge_ticks > 0
    assert walks == [ee_link] * result.merge_ticks + list(model.links)


def test_each_filter_builds_one_pose_per_merge_tick_plus_one_per_relocation(tmp_path,
                                                                            monkeypatch):
    cfg = dataclasses.replace(load_config(CONFIGS / "multi_asset.yaml"),
                              log_path=str(tmp_path / "run.dtrl"), trace_path=None,
                              stats_path=None)
    simulate(cfg)
    built = Counter()  # (filter, "mean" or "twist") -> calls in this tick

    def counted(kind, kernel):
        def spy(*args):
            built[sys._getframe(1).f_locals["self"], kind] += 1
            return kernel(*args)
        return spy

    monkeypatch.setattr(mocap, "_mean", counted("mean", mocap._mean))
    monkeypatch.setattr(mocap, "twist", counted("twist", mocap.twist))
    relocated = Counter()  # filter -> relocations in this tick
    monkeypatch.setattr(MocapFilter, "process",
                        counting_relocations(MocapFilter.process, relocated))
    merge_tick = TwinEngine.merge_tick
    totals = Counter()

    def tick(engine, *args):
        filters = [engine.station_filter, *engine.asset_filters.values()]
        built.clear()
        relocated.clear()
        commands = merge_tick(engine, *args)
        for f in filters:
            allowed = 1 + relocated[f]
            assert built[f, "mean"] <= allowed and built[f, "twist"] <= allowed
            totals["relocations"] += relocated[f]
        totals["frames"] += len(args[2])
        totals["poses"] += sum(built.values()) // 2
        return commands

    monkeypatch.setattr(TwinEngine, "merge_tick", tick)
    replay(cfg.log_path, cfg)
    # the guard saw poses built, and a relocation, over more frames than poses
    assert totals["relocations"] > 0
    assert 0 < totals["poses"] < totals["frames"]
