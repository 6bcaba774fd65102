import dataclasses
import json
import os
import struct
import subprocess
from pathlib import Path

import numpy as np
import pytest
import yaml

from hypothesis import given, settings, strategies as st

from twinsync import harness, robot, twin
from twinsync.grasp import AssetSource, GraspPhase
from twinsync.harness import measure_latency, simulate
from twinsync.latency import parse_stats
from twinsync.recordlog import (CHANNEL_MOCAP, CHANNEL_TELEMETRY, LogRecord,
                                LogWriter, read_log)
from twinsync.robot import parse_urdf
from twinsync.scenario import (AssetConfig, ConfigError, DelayModel, LeaderConfig,
                               LinkConfig, ScenarioConfig, config_from_dict,
                               load_config)
from twinsync.twin import TwinEngine, merge_tick_time, replay, station_pose
from twinsync.wire import TelemetryPacket
from twinsync.zones import ProhibitedZone

ROOT = Path(__file__).parent.parent
CONFIGS = ROOT / "configs"

PLANAR = """
<robot name='planar'>
  <link name='base'/><link name='l1'/><link name='l2'/><link name='tip'/>
  <joint name='j1' type='revolute'>
    <parent link='base'/><child link='l1'/>
    <axis xyz='0 0 1'/><limit lower='-6.3' upper='6.3'/>
  </joint>
  <joint name='j2' type='revolute'>
    <origin xyz='0.5 0 0'/>
    <parent link='l1'/><child link='l2'/>
    <axis xyz='0 0 1'/><limit lower='-6.3' upper='6.3'/>
  </joint>
  <joint name='jtip' type='fixed'>
    <origin xyz='0.5 0 0'/>
    <parent link='l2'/><child link='tip'/>
  </joint>
</robot>
"""


@pytest.fixture
def robot_file(tmp_path):
    p = tmp_path / "planar.urdf"
    p.write_text(PLANAR)
    return str(p)


def scenario(robot_file, **kw):
    defaults = dict(
        seed=5,
        duration_s=0.5,
        robot_path=robot_file,
        leader=LeaderConfig(centers=(0.0, 0.0), amplitudes=(0.2, 0.2),
                            frequencies=(0.5, 0.7), phases=(0.0, 0.0)),
        telemetry_link=LinkConfig(delay=DelayModel.constant(3.6), loss=0.02),
        mocap_link=LinkConfig(delay=DelayModel.uniform(0.5, 2.0), loss=0.01),
        processing_delay=DelayModel.uniform(0.1, 2.0),
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_merge_tick_time_grid():
    assert merge_tick_time(0) == 0
    assert merge_tick_time(60) == 1_000_000_000
    for k in range(1, 200):
        t = merge_tick_time(k)
        assert t == k * 1_000_000_000 // 60
        assert merge_tick_time(k - 1) < t


class TestSimulate:
    def test_tick_counts(self, robot_file):
        res = simulate(scenario(robot_file, duration_s=0.5))
        assert res.control_ticks == 500
        assert res.merge_ticks == 30

    def test_deterministic(self, robot_file):
        a = simulate(scenario(robot_file))
        b = simulate(scenario(robot_file))
        assert a.state_hash == b.state_hash
        assert a.trace_hash == b.trace_hash
        assert a.log_hash == b.log_hash

    def test_seed_changes_outcome(self, robot_file):
        a = simulate(scenario(robot_file, seed=5))
        b = simulate(scenario(robot_file, seed=6))
        assert a.log_hash != b.log_hash

    def test_zero_duration(self, robot_file):
        res = simulate(scenario(robot_file, duration_s=0.0))
        assert res.control_ticks == 0 and res.merge_ticks == 0
        assert res.state_hash  # engine state is still well-defined

    def test_lossless_delivery_counts(self, robot_file):
        cfg = scenario(robot_file, duration_s=1.0,
                       telemetry_link=LinkConfig(delay=DelayModel.constant(1.0)))
        res = simulate(cfg)
        # throttled to the merge rate; the constant delay keeps every send
        # deliverable before the final merge tick
        assert res.telemetry_sent <= 61
        assert res.telemetry_delivered == res.telemetry_sent

    def test_stats_file_reparse(self, robot_file, tmp_path):
        stats_path = tmp_path / "stats.jsonl"
        cfg = scenario(robot_file, duration_s=1.0, stats_path=str(stats_path))
        res = simulate(cfg)
        assert res.stats is not None
        parsed = parse_stats(stats_path.read_text())
        assert parsed == res.stats

    def test_missing_robot_path(self):
        with pytest.raises(ValueError):
            simulate(ScenarioConfig())

    def test_zone_commands_emitted(self, robot_file):
        zone = ProhibitedZone("near_tip", [1.0, 0.0, 0.0], [0.3, 0.3, 0.3])
        cfg = scenario(robot_file, duration_s=0.5,
                       leader=LeaderConfig(centers=(0.0, 0.0)),
                       zones=(zone,))
        res = simulate(cfg)
        # the tip starts inside the zone: one command per merge tick
        assert res.commands_sent >= 1


class TestReplay:
    def test_matches_live_run(self, robot_file, tmp_path):
        log = tmp_path / "run.dtrl"
        cfg = scenario(robot_file, duration_s=1.0, log_path=str(log),
                       assets=(AssetConfig("box", 1, [0.5, 0.5, 0.2],
                                           occlusions=((0.3, 0.6),)),))
        live = simulate(cfg)
        rep = replay(log, cfg)
        assert rep.state_hash == live.state_hash
        assert rep.merge_ticks == live.merge_ticks

    @pytest.mark.parametrize("mode", ["tmied", "", "Immediate"])
    def test_unknown_mode_rejected(self, robot_file, tmp_path, mode):
        log = tmp_path / "run.dtrl"
        cfg = scenario(robot_file, duration_s=0.1, log_path=str(log))
        simulate(cfg)
        with pytest.raises(ValueError, match="replay mode"):
            replay(log, cfg, mode=mode)

    def test_truncated_log_handling(self, robot_file, tmp_path):
        log = tmp_path / "run.dtrl"
        cfg = scenario(robot_file, duration_s=0.5, log_path=str(log))
        simulate(cfg)
        log.write_bytes(log.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            replay(log, cfg)
        rep = replay(log, cfg, skip_bad=True)
        assert rep.merge_ticks >= 1

    # the byte offset of the first position value: mocap x, telemetry joint 0
    @pytest.mark.parametrize("channel, offset", [(CHANNEL_MOCAP, 16),
                                                 (CHANNEL_TELEMETRY, 17)],
                             ids=["mocap", "telemetry"])
    def test_skip_bad_drops_a_non_finite_mocap_record(self, robot_file, tmp_path,
                                                      channel, offset):
        log = tmp_path / "run.dtrl"
        cfg = scenario(robot_file, duration_s=0.5, log_path=str(log))
        res = simulate(cfg)
        records = read_log(log).records
        i = next(k for k, r in enumerate(records)
                 if r.channel == channel and r.time_ns > 100_000_000)
        good = records[i].payload
        nan = good[:offset] + struct.pack("<d", np.nan) + good[offset + 8:]
        bad = tmp_path / "bad.dtrl"
        with LogWriter(bad, cfg.seed) as writer:
            for r in records[:i + 1]:
                writer.append(r)
            writer.append(LogRecord(records[i].time_ns, channel, nan))
            for r in records[i + 1:]:
                writer.append(r)
        with pytest.raises(ValueError, match="undecodable payload"):
            replay(bad, cfg)
        rep = replay(bad, cfg, skip_bad=True)
        assert rep.skipped == 1
        assert rep.state_hash == res.state_hash

    def test_empty_log(self, robot_file, tmp_path):
        log = tmp_path / "empty.dtrl"
        cfg = scenario(robot_file, duration_s=0.0, log_path=str(log))
        simulate(cfg)
        rep = replay(log, cfg)
        assert rep.merge_ticks == 0 and rep.skipped == 0


# Pinned outcomes of configs/example.yaml, which never touches its zone, and
# of configs/contact.yaml, the same scenario with the zone around the
# end-effector so that the feedback path runs. configs/contact_turned.yaml
# turns that zone about a tilted axis, so its dot products sum non-zero
# terms: computing them with numpy's fused multiply-add dot moves all three
# of its hashes, where the other scenarios' stay the same.
# configs/contact_overlap.yaml adds a second zone, attached to the vase,
# that fires on the same merge ticks, so the follower sums two torques. A
# refactor that is meant to keep behaviour must leave all three hashes
# unchanged.
GOLDEN = {
    "example": ("ae02234500e7cd5bfb20f7053757b6e9279af23b12c6484cf2fcf86fd3c3b5c3",
                "01e7f4fcdaf81fc2b76967ca494ec6291699d5d9a03b5881d6dacfacfaa5c3f5",
                "1307a23e77ac95d2f80846fd07e4a43b05e2f6791aba0d31365afe6b098ac99c"),
    "contact": ("45f5704f5dfe17e691cc02d1f63334f8e4a27529dd343cbef7d3778b4d651aad",
                "bbed0ad0f86dd3cecc6a70b1058158d76b675ff1607f43a687c5b2731a5227bb",
                "b24019277bbaf602d334257074f01d66d42bd193129bce04755ce693df28eb69"),
    "multi_asset": ("b265b0c10138b379beb7777286713fd4467c8033de23a6e6b7a36a28f1690848",
                    "01e7f4fcdaf81fc2b76967ca494ec6291699d5d9a03b5881d6dacfacfaa5c3f5",
                    "77efcfbdf33da0e3d74b82e5b864f26ccd58fc803c8234daf087e9e7e0a33262"),
    "contact_turned": ("b75a1d9ed21c2f224072073f9e98e627730dad5c5e77e57fafda485e4ac7c5a8",
                       "cd840fb7fb39f03a5547196f10b79c3ca6d7d33e1a2c74dd9f3e1b747c84a81c",
                       "c70c517a02b63d9775c33485074b4fdb4fc661322c9c1f677d556733e764e93a"),
    "contact_overlap": ("cd2d6b5c41dcbb9d3af34e0ab87445bfe8f6d6740fff9eb4b6ea5f194d46d595",
                        "b98fa42d04fed7ef798b63cfecc070665ac916f8261b81f8617f30915bfc5e4c",
                        "61d5f283e0b2148b39286e044d2a6e6bd6854943b5f03bdfea042ba77bb109ad"),
}


def with_outputs(cfg, tmp_path):
    return dataclasses.replace(cfg, log_path=str(tmp_path / "run.dtrl"),
                               trace_path=str(tmp_path / "run_trace.csv"),
                               stats_path=str(tmp_path / "run_stats.jsonl"))


def merge_inputs(monkeypatch):
    """What each ``TwinEngine.merge_tick`` call is given, appended as it
    runs: the tick time, telemetry ``(seq, time_ns)`` and mocap
    ``(object_id, seq, time_ns)``."""
    calls = []
    merge_tick = TwinEngine.merge_tick

    def spy(self, tick_ns, telemetry, mocap):
        calls.append((tick_ns, [(p.seq, p.time_ns) for p in telemetry],
                      [(p.object_id, p.seq, p.time_ns) for p in mocap]))
        return merge_tick(self, tick_ns, telemetry, mocap)

    monkeypatch.setattr(TwinEngine, "merge_tick", spy)
    return calls


def assert_replay_merges_alike(cfg, res, calls):
    """Replaying the run's log gives every merge tick the inputs the run
    gave it, and so the run's final state."""
    simulated = calls[:]
    calls.clear()
    assert replay(cfg.log_path, cfg).state_hash == res.state_hash
    assert len(simulated) == res.merge_ticks
    assert calls == simulated


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_hashes(name, tmp_path, monkeypatch):
    cfg = with_outputs(load_config(CONFIGS / f"{name}.yaml"), tmp_path)
    calls = merge_inputs(monkeypatch)
    res = simulate(cfg)
    assert (res.commands_sent > 0) == name.startswith("contact")
    assert (res.state_hash, res.trace_hash, res.log_hash) == GOLDEN[name]
    assert_replay_merges_alike(cfg, res, calls)


# every pyenv CPython the package supports (3.10+); older ones are skipped
PYTHONS = [exe for exe in sorted(Path.home().glob(".pyenv/versions/3.*/bin/python"))
           if int(exe.parent.parent.name.split(".")[1]) >= 10]

# replays (log, JSON config) argument pairs through the CLI, one hash a line
REPLAY = """
import sys
from twinsync.cli import main
for log, cfg in zip(sys.argv[1::2], sys.argv[2::2]):
    main(["replay", log, "--config", cfg])
"""


@pytest.mark.skipif(not PYTHONS, reason="no pyenv Python 3.10+ installed")
def test_pinned_logs_replay_on_every_python(tmp_path):
    # each pinned config, as JSON, simulates to its pin and its log replays
    # to the same state hash under every Python, numpy and yaml or not
    args = []
    for name in sorted(GOLDEN):
        data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
        data["robot_path"] = str((CONFIGS / data["robot_path"]).resolve())
        data["log_path"] = str(tmp_path / f"{name}.dtrl")
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert simulate(load_config(path)).state_hash == GOLDEN[name][0], name
        args += [data["log_path"], str(path)]
    want = [GOLDEN[name][0] for name in sorted(GOLDEN)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for exe in PYTHONS:
        proc = subprocess.run([str(exe), "-c", REPLAY, *args], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (exe, proc.stderr)
        got = [line.split()[-1] for line in proc.stdout.splitlines()
               if line.startswith("state hash")]
        assert got == want, exe


def test_multi_asset_reaches_grasp_and_relocation(tmp_path, monkeypatch):
    # the multi_asset pin covers grasp attachment, the physics fallback, a
    # relocation and an attached zone; check the scenario still gets there
    phases, sources, relocations = set(), set(), []
    merge_tick = TwinEngine.merge_tick

    def spy(self, *args):
        out = merge_tick(self, *args)
        phases.add(self.gripper.phase)
        sources.update(t.source for t in self.asset_trackers.values())
        relocations.append(sum(f.relocations for f in self.asset_filters.values()))
        return out

    monkeypatch.setattr(TwinEngine, "merge_tick", spy)
    cfg = with_outputs(load_config(CONFIGS / "multi_asset.yaml"), tmp_path)
    assert any(z.attached_asset == "tray" for z in cfg.zones)
    simulate(cfg)
    assert GraspPhase.GRASPED in phases
    assert {AssetSource.GRIPPER_ATTACHED, AssetSource.PHYSICS_FALLBACK} <= sources
    assert relocations[-1] >= 1


def test_no_per_tick_packet_objects(tmp_path, monkeypatch):
    # the control loop builds a telemetry packet only for the samples the
    # throttle emits, and applies no joint state: only the merge tick does,
    # once per telemetry packet it applies
    built = {"telemetry": 0, "applied": 0}
    engines = []

    def telemetry_packet(*args):
        built["telemetry"] += 1
        return TelemetryPacket(*args)

    apply_joint_state = twin.apply_joint_state

    def apply_joint_state_spy(*args, **kw):
        built["applied"] += 1
        return apply_joint_state(*args, **kw)

    merge_tick = TwinEngine.merge_tick

    def merge_tick_spy(self, *args):
        engines.append(self)
        return merge_tick(self, *args)

    monkeypatch.setattr(harness, "TelemetryPacket", telemetry_packet)
    monkeypatch.setattr(twin, "apply_joint_state", apply_joint_state_spy)
    monkeypatch.setattr(TwinEngine, "merge_tick", merge_tick_spy)
    res = simulate(with_outputs(load_config(CONFIGS / "example.yaml"), tmp_path))
    assert res.control_ticks == 2000
    assert built["telemetry"] == res.telemetry_sent <= 121
    assert built["applied"] == engines[-1].telemetry_applied <= res.merge_ticks


def test_one_jacobian_per_command(tmp_path, monkeypatch):
    # the follower turns each command frame it decodes into torque with
    # exactly one robot.jacobian call, also where two zones fire at once;
    # the benchmark's traced teleop_contact check compares the two counts,
    # and counts the calls under the alias harness.numeric_jacobian
    assert harness.numeric_jacobian is robot.jacobian
    decode_command, jacobian = harness.decode_command, harness.jacobian

    def decode_spy(data):
        calls["decoded"] += 1
        return decode_command(data)

    def jacobian_spy(*args, **kw):
        calls["jacobian"] += 1
        return jacobian(*args, **kw)

    monkeypatch.setattr(harness, "decode_command", decode_spy)
    monkeypatch.setattr(harness, "jacobian", jacobian_spy)
    for name in ("contact", "contact_overlap"):
        calls = {"decoded": 0, "jacobian": 0}
        res = simulate(with_outputs(load_config(CONFIGS / f"{name}.yaml"), tmp_path))
        assert 0 < calls["jacobian"] == calls["decoded"] <= res.commands_sent, name


def follower_torques(cfg):
    """The external torque of every control tick of ``simulate(cfg)``."""
    seen = []
    pd_step = harness.pd_step

    def spy(leader, follower, gains, ext):
        seen.append(list(ext))
        return pd_step(leader, follower, gains, ext)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "pd_step", spy)
        simulate(cfg)
    return seen


CONTACT = load_config(CONFIGS / "contact.yaml")


@given(yaw=st.floats(-np.pi, np.pi), xyz=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       stiffness=st.floats(10.0, 1000.0))
@settings(max_examples=8, deadline=None)
def test_coincident_zones_double_the_torque(yaw, xyz, stiffness):
    # contact.yaml's scene moved to another station pose: the zone keeps its
    # place relative to the robot, so the end-effector starts inside it.
    # Over the constant-delay command link both frames of a merge tick
    # arrive together, and their torques add up
    keepout = CONTACT.zones[0]
    local = station_pose(CONTACT).inverse().compose(keepout.pose)
    cfg = dataclasses.replace(CONTACT, duration_s=0.1, station_position=xyz,
                              station_yaw=yaw, log_path=None, trace_path=None,
                              stats_path=None)
    world = station_pose(cfg).compose(local)
    zone = dataclasses.replace(keepout, center=world.translation,
                               orientation=world.rotation, stiffness=stiffness)
    one = follower_torques(dataclasses.replace(cfg, zones=(zone,)))
    two = follower_torques(dataclasses.replace(
        cfg, zones=(zone, dataclasses.replace(zone, zone_id="twin"))))
    k = next(i for i, tau in enumerate(one) if any(tau))
    assert two[:k] == one[:k]
    assert two[k] == [2.0 * x for x in one[k]]


def test_trace_cells_are_plain_floats(robot_file, tmp_path):
    cfg = scenario(robot_file, trace_path=str(tmp_path / "trace.csv"))
    dof = parse_urdf(PLANAR).dof
    simulate(cfg)
    header, *rows = Path(cfg.trace_path).read_text().splitlines()
    assert len(header.split(",")) == 1 + 2 * dof
    assert len(rows) == 500
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 1 + 2 * dof
        for cell in cells:
            float(cell)


def test_reordering_mocap_link(tmp_path, monkeypatch):
    # a uniform 0-20 ms delay on 120 Hz frames delivers some out of order
    cfg = with_outputs(load_config(CONFIGS / "example.yaml"), tmp_path)
    cfg = dataclasses.replace(cfg, mocap_link=dataclasses.replace(
        cfg.mocap_link, delay=DelayModel.uniform(0.0, 20.0)))
    calls = merge_inputs(monkeypatch)
    res = simulate(cfg)
    assert res.mocap_stale > 0
    assert_replay_merges_alike(cfg, res, calls)


def test_records_on_a_merge_tick_are_merged_at_it(robot_file, tmp_path, monkeypatch):
    # undelayed telemetry and mocap land exactly on merge tick times
    cfg = scenario(robot_file, log_path=str(tmp_path / "run.dtrl"),
                   telemetry_link=LinkConfig(), mocap_link=LinkConfig())
    calls = merge_inputs(monkeypatch)
    res = simulate(cfg)
    ticks = {merge_tick_time(k) for k in range(1, res.merge_ticks + 1)}
    on_tick = [r for r in read_log(cfg.log_path).records
               if r.channel in (CHANNEL_TELEMETRY, CHANNEL_MOCAP) and r.time_ns in ticks]
    assert {r.channel for r in on_tick} == {CHANNEL_TELEMETRY, CHANNEL_MOCAP}
    assert_replay_merges_alike(cfg, res, calls)


class TestTwinEngine:
    def engine(self, **kw):
        model = parse_urdf(PLANAR)
        return TwinEngine(model, ScenarioConfig(robot_path="unused", **kw))

    def tele(self, seq, q=(0.0, 0.0), t_ns=0):
        return TelemetryPacket(0, seq, t_ns, q, [0.0, 0.0], [0.0, 0.0],
                               0.08, 0.0)

    def test_applied_seq_nondecreasing(self):
        eng = self.engine()
        eng.merge_tick(merge_tick_time(1), [self.tele(3), self.tele(5)], [])
        assert eng.applied_seq == 5
        eng.merge_tick(merge_tick_time(2), [self.tele(4)], [])
        assert eng.applied_seq == 5  # stale sample must not rewind state
        eng.merge_tick(merge_tick_time(3), [self.tele(6)], [])
        assert eng.applied_seq == 6

    def test_latest_packet_wins_within_tick(self):
        eng = self.engine()
        eng.merge_tick(merge_tick_time(1),
                       [self.tele(1, q=(0.1, 0.1)), self.tele(2, q=(0.7, -0.2))],
                       [])
        assert np.allclose(eng.positions, [0.7, -0.2])

    def test_limits_clamped(self):
        eng = self.engine()
        eng.merge_tick(merge_tick_time(1), [self.tele(0, q=(100.0, 0.0))], [])
        assert eng.positions[0] == 6.3

    def test_one_command_per_zone_per_tick(self):
        zone = ProhibitedZone("z", [1.0, 0.0, 0.0], [0.3, 0.3, 0.3])
        eng = self.engine(zones=(zone,))
        for k in range(1, 5):
            cmds = eng.merge_tick(merge_tick_time(k), [self.tele(k)], [])
            assert len(cmds) == 1
            assert cmds[0].time_ns == merge_tick_time(k)

    def test_state_hash_stable_without_input(self):
        a, b = self.engine(), self.engine()
        assert a.state_hash() == b.state_hash()
        a.merge_tick(merge_tick_time(1), [self.tele(0, q=(0.5, 0.0))], [])
        assert a.state_hash() != b.state_hash()


class TestMeasureLatency:
    def test_reference_profile_statistics(self):
        cfg = load_config(CONFIGS / "reference_latency.yaml")
        stats = measure_latency(cfg, n_samples=2000)
        net = stats.by_kind("ingress_to_socket")
        proc = stats.by_kind("socket_to_applied")
        total = stats.by_kind("ingress_to_applied")
        assert abs(net.median_ms - 3.6) < 0.072  # 2 %
        assert net.iqr_ms == 0.0
        assert abs(proc.median_ms - 1.08) < 0.054  # 5 %
        assert abs(proc.iqr_ms - 0.96) < 0.048
        assert abs(total.median_ms - 4.68) < 0.234

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            measure_latency(ScenarioConfig(), n_samples=0)


class TestScenarioLoading:
    def test_example_config_loads(self):
        cfg = load_config(CONFIGS / "example.yaml")
        assert Path(cfg.robot_path).exists()
        assert cfg.assets and cfg.zones

    def test_empirical_grid_shorthand(self):
        cfg = config_from_dict({"processing_delay": {
            "kind": "empirical", "lo_ms": 0.12, "hi_ms": 2.04, "count": 199}})
        samples = cfg.processing_delay.params[0]
        assert len(samples) == 199
        assert abs(float(np.median(samples)) - 1.08) < 1e-12

    def test_unknown_delay_kind(self):
        with pytest.raises(ConfigError):
            config_from_dict({"processing_delay": {"kind": "pareto"}})

    def test_duplicate_asset_ids(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(assets=(AssetConfig("a", 1, [0, 0, 0]),
                                   AssetConfig("b", 1, [0, 0, 0])))

    def test_negative_duration(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(duration_s=-1.0)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("no_such_file.yaml")

    NAN, INF = float("nan"), float("inf")
    ZONE = {"id": "z", "center": [0, 0, 0], "half_extents": [1, 1, 1]}
    ASSET = {"name": "a", "object_id": 1, "position": [0, 0, 0]}

    # (case, config, what the error says): a misspelt key or a value that is
    # not a mapping, in each section, zones that clash or attach to nothing,
    # assets that share a name, a robot_id the wire's one byte cannot carry,
    # a non-finite delay parameter or leader value, and asset times that run
    # backwards
    BAD_SECTIONS = [
        ("top", {"duraton_s": 1.0}, "unknown ScenarioConfig key 'duraton_s'"),
        ("leader", {"leader": {"centres": [0.0]}}, "leader: unknown"),
        ("link", {"telemetry_link": {"lss": 0.1}}, "telemetry_link: unknown"),
        ("delay", {"mocap_link": {"delay": {"kind": "constant", "msx": 1.0}}},
         "mocap_link: delay: .*'msx'"),
        ("filter", {"filter": {"windw": 9}}, "filter: unknown"),
        ("grasp", {"grasp": {"stall_cnt": 5}}, "grasp: unknown"),
        ("zone", {"zones": [{**ZONE, "stifness": 5.0}]}, "zones: unknown"),
        ("asset", {"assets": [{**ASSET, "ocllusions": []}]}, "assets: unknown"),
        ("filter-not-mapping", {"filter": 5}, "filter: expected a mapping"),
        ("leader-not-mapping", {"leader": [0.0]}, "leader: expected a mapping"),
        ("link-not-mapping", {"command_link": "fast"},
         "command_link: expected a mapping"),
        ("delay-not-mapping", {"telemetry_link": {"delay": 3}},
         "telemetry_link: delay: expected a mapping"),
        ("processing-delay-not-mapping", {"processing_delay": 3},
         "processing_delay: expected a mapping"),
        ("zone-not-mapping", {"zones": [5]}, "zones: expected a mapping"),
        ("asset-not-mapping", {"assets": ["vase"]}, "assets: expected a mapping"),
        ("duplicate-zone-id", {"zones": [ZONE, {**ZONE, "center": [5, 0, 0]}]},
         "zone ids must be unique"),
        ("unknown-attached-asset", {"assets": [ASSET],
                                    "zones": [{**ZONE, "attached_asset": "b"}]},
         "zone 'z': attached_asset 'b' names no asset"),
        ("duplicate-asset-name", {"assets": [ASSET, {**ASSET, "object_id": 2}],
                                  "zones": [{**ZONE, "attached_asset": "a"}]},
         "asset names must be unique"),
        ("robot-id-above-byte", {"robot_id": 300}, "robot_id must be an integer in 0-255"),
        ("robot-id-negative", {"robot_id": -1}, "robot_id must be an integer in 0-255"),
        ("uniform-nan", {"telemetry_link": {"delay": {"kind": "uniform", "lo_ms": NAN,
                                                      "hi_ms": 1.0}}},
         "telemetry_link: delay: uniform delay parameters must be finite"),
        ("empirical-nan", {"processing_delay": {"kind": "empirical",
                                                "samples_ms": [1.0, NAN]}},
         "processing_delay: empirical delay parameters must be finite"),
        ("constant-inf", {"mocap_link": {"delay": {"kind": "constant", "ms": INF}}},
         "mocap_link: delay: constant delay parameters must be finite"),
        ("normal-inf", {"command_link": {"delay": {"kind": "normal", "mu_ms": 1.0,
                                                   "sigma_ms": INF}}},
         "command_link: delay: normal delay parameters must be finite"),
        ("occlusion-backwards", {"assets": [{**ASSET, "occlusions": [[0.6, 0.5]]}]},
         "assets: .*an occlusion window ends before it starts"),
        ("waypoint-backwards", {"assets": [{**ASSET, "waypoints": [[1.0, [0, 0, 1]],
                                                                    [0.5, [0, 0, 2]]]}]},
         "assets: .*waypoint times must not decrease from 0"),
        ("waypoint-negative", {"assets": [{**ASSET, "waypoints": [[-0.5, [0, 0, 1]]]}]},
         "assets: .*waypoint times must not decrease from 0"),
        ("duration-nan", {"duration_s": NAN}, "duration_s must be finite and >= 0"),
        ("duration-inf", {"duration_s": INF}, "duration_s must be finite and >= 0"),
        ("tracker-noise-nan", {"tracker_noise_sigma": NAN},
         "tracker_noise_sigma must be finite and >= 0"),
        ("tracker-noise-inf", {"tracker_noise_sigma": INF},
         "tracker_noise_sigma must be finite and >= 0"),
        ("gains-kp-nan", {"gains_kp": NAN}, "gains_kp must be finite and >= 0"),
        ("gains-kd-inf", {"gains_kd": INF}, "gains_kd must be finite and >= 0"),
        ("gains-kd-negative", {"gains_kd": -1.0}, "gains_kd must be finite and >= 0"),
        ("station-yaw-nan", {"station_yaw": NAN}, "station_yaw must be finite"),
        ("station-yaw-inf", {"station_yaw": -INF}, "station_yaw must be finite"),
        ("station-position-nan", {"station_position": [NAN, 0, 0]},
         "station_position must be 3 finite values"),
        ("station-position-inf", {"station_position": [0, INF, 0]},
         "station_position must be 3 finite values"),
        ("station-position-short", {"station_position": [0, 0]},
         "station_position must be 3 finite values"),
        ("leader-frequency-nan", {"leader": {"frequencies": [NAN]}},
         "leader: .*frequencies must be finite"),
        ("leader-phase-inf", {"leader": {"phases": [INF]}},
         "leader: .*phases must be finite"),
        ("gripper-width-nan", {"leader": {"gripper_schedule": [[0.0, NAN]]}},
         "leader: .*gripper_schedule times and widths must be finite"),
        ("gripper-time-nan", {"leader": {"gripper_schedule": [[NAN, 0.04]]}},
         "leader: .*gripper_schedule times and widths must be finite"),
    ]

    @pytest.mark.parametrize("d, match", [case[1:] for case in BAD_SECTIONS],
                             ids=[case[0] for case in BAD_SECTIONS])
    def test_unknown_key_or_non_mapping_section(self, d, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(d)

    def test_every_field_loads(self):
        # a value other than the default for every field of the schema
        given = {
            "seed": 3, "duration_s": 0.5, "robot_path": "r.urdf", "robot_id": 2,
            "gains_kp": 50.0, "gains_kd": 5.0,
            "leader": {"centers": [0.1, 0.2], "amplitudes": [0.3, 0.4],
                       "frequencies": [0.5, 0.6], "phases": [0.7, 0.8],
                       "gripper_schedule": [[0, 0.04], [1, 0.02]]},
            "teleop_link": {"delay": {"kind": "constant", "ms": 1.5},
                            "loss": 0.1, "seed": 11},
            "telemetry_link": {"delay": {"kind": "uniform", "lo_ms": 1, "hi_ms": 2},
                               "loss": 0.2, "seed": 12},
            "mocap_link": {"delay": {"kind": "normal", "mu_ms": 2, "sigma_ms": 0.5},
                           "loss": 0.3, "seed": 13},
            "command_link": {"delay": {"kind": "empirical", "samples_ms": [1, 2]},
                             "loss": 0.4, "seed": 14},
            "processing_delay": {"kind": "constant", "ms": 0.5},
            "filter": {"window": 7, "vmax": 1.0, "up_axis": [0, 1, 0],
                       "stable_count": 4, "stable_tol": 0.01},
            "grasp": {"stall_eps": 2e-3, "stall_count": 3, "closed_threshold": 2e-3,
                      "release_eps": 3e-3},
            "zones": [{"id": "z", "center": [1, 2, 3], "half_extents": [0.1, 0.2, 0.3],
                       "orientation": [0, 1, 0, 0], "stiffness": 100.0,
                       "attached_asset": "a"}],
            "assets": [{"name": "a", "object_id": 1, "position": [1, 2, 3],
                        "waypoints": [[1, [2, 3, 4]]], "occlusions": [[0.5, 0.6]]}],
            "station_position": [1, 2, 3], "station_yaw": 0.5,
            "tracker_noise_sigma": 0.0, "mocap_rate_hz": 60, "ee_link": "tip",
            "stats_path": "s.jsonl", "trace_path": "t.csv", "log_path": "l.dtrl",
        }

        def tuples(v):
            return tuple(map(tuples, v)) if isinstance(v, list) else v

        def all_floats(v):
            return all(all_floats(x) if isinstance(x, tuple) else type(x) is float
                       for x in v)

        def check(obj, stated):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                default = (f.default if f.default_factory is dataclasses.MISSING
                           else f.default_factory())
                assert value != default, f.name
                want = stated["id" if f.name == "zone_id" else f.name]
                if isinstance(value, DelayModel):
                    kind, *params = want.values()
                    assert value == getattr(DelayModel, kind)(*params), f.name
                elif dataclasses.is_dataclass(value):
                    check(value, want)
                elif f.name in ("zones", "assets"):
                    assert len(value) == len(want)
                    for v, w in zip(value, want):
                        check(v, w)
                else:
                    assert value == tuples(want), f.name
                    assert not isinstance(value, tuple) or all_floats(value), f.name

        check(config_from_dict(given), given)
