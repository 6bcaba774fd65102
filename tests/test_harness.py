import dataclasses
import gc
import hashlib
import itertools
import json
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

from hypothesis import example, given, settings, strategies as st

from latency_oracle import DictLatencyRecorder
from mocap_oracle import counting_relocations
from twinsync import harness, recordlog, robot, twin
from twinsync.grasp import AssetSource, GraspPhase
from twinsync.harness import measure_latency, simulate
from twinsync.latency import LatencyRecorder, export_stats
from twinsync.mocap import MocapFilter
from twinsync.recordlog import (CHANNEL_COMMAND, CHANNEL_HEARTBEAT, CHANNEL_MOCAP,
                                CHANNEL_TELEMETRY, LogRecord, LogWriter, read_log)
from twinsync.robot import parse_urdf
from twinsync.scenario import (AssetConfig, ConfigError, DelayModel, LeaderConfig,
                               LinkConfig, ScenarioConfig, config_from_dict,
                               load_config)
from twinsync.twin import TwinEngine, load_model, merge_tick_time, replay, station_pose
from twinsync.wire import (CommandFrame, TelemetryPacket, decode_command, encode_command,
                           encode_telemetry)
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


def logged(path) -> list[LogRecord]:
    """Every record of the log at ``path``, in log order."""
    return [r for block in read_log(path) for r in block.records]


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
        # one send per merge tick; the constant delay keeps every send
        # deliverable before the final merge tick
        assert res.telemetry_sent <= 61
        assert res.telemetry_delivered == res.telemetry_sent

    def test_lost_telemetry_is_never_stamped(self, robot_file, monkeypatch):
        # the recorder ends holding only the packets still in flight, and
        # its stats are those of the dict recorder it replaced
        recorders = []

        class Recorder(LatencyRecorder):
            def __init__(self):
                super().__init__()
                recorders.append(self)

        monkeypatch.setattr(harness, "LatencyRecorder", Recorder)
        cfg = scenario(robot_file, duration_s=3.0, telemetry_link=LinkConfig(
            delay=DelayModel.uniform(1.0, 30.0), loss=0.3))
        res = simulate(cfg)
        assert res.telemetry_sent - res.telemetry_delivered > 30
        # at 60 Hz, at most two packets are sent within one 30 ms delay
        assert len(recorders[0]._open) <= 2
        monkeypatch.setattr(harness, "LatencyRecorder", DictLatencyRecorder)
        assert export_stats(simulate(cfg).stats) == export_stats(res.stats)

    def test_stats_file_reparse(self, robot_file, tmp_path):
        stats_path = tmp_path / "stats.jsonl"
        cfg = scenario(robot_file, duration_s=1.0, stats_path=str(stats_path))
        res = simulate(cfg)
        assert res.stats is not None
        assert stats_path.read_text() == export_stats(res.stats)

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


EXAMPLE = load_config(CONFIGS / "example.yaml")


@given(duration_us=st.integers(0, 200_000), seed=st.integers(0, 2 ** 64 - 1))
@settings(max_examples=100, deadline=None)
@example(duration_us=0, seed=0)  # no control tick
@example(duration_us=3_000, seed=0)  # seq 0 sent, no merge tick run to log it
@example(duration_us=18_000, seed=0)  # tick 1 at 16.67 ms, between control ticks
@example(duration_us=50_600, seed=0)  # tick 3 at 50 ms, on the last control tick
def test_telemetry_goes_out_at_the_merge_ticks(duration_us, seed, tmp_path_factory):
    # over a lossless link with no delay, every merge tick j at or before
    # the last control tick, tick 0 included, sends one packet at its time
    # T_j, carrying the sample of control tick T_j // 1 ms; the packets are
    # logged by the merge ticks that run, so not in a run shorter than tick 1
    log = tmp_path_factory.getbasetemp() / "schedule.dtrl"
    cfg = dataclasses.replace(EXAMPLE, seed=seed, duration_s=duration_us / 1e6,
                              telemetry_link=LinkConfig(), log_path=str(log),
                              trace_path=None, stats_path=None)
    res = simulate(cfg)
    last_ns = (res.control_ticks - 1) * 1_000_000
    ticks = list(itertools.takewhile(lambda t: t <= last_ns,
                                     map(merge_tick_time, itertools.count())))
    sent = [(r.time_ns, *struct.unpack_from("<4xIQ", r.payload))
            for r in logged(log) if r.channel == CHANNEL_TELEMETRY]
    assert res.telemetry_sent == len(ticks)
    if res.merge_ticks == 0:
        ticks = []
    assert sent == [(t, t // 1_000_000, t // 1_000_000 * 1_000_000) for t in ticks]


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
        records = logged(log)
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

    # telemetry that is not the twin's: of robot 7, with a seq after the
    # run's that would be applied as the latest, or of 3 joints where the
    # Panda has 9; one is logged after the first telemetry record past each
    # of two times
    @pytest.mark.parametrize("robot_id, dof", [(7, 9), (0, 3)], ids=["foreign", "short"])
    def test_skip_bad_drops_telemetry_of_another_robot(self, tmp_path, robot_id, dof):
        cfg = with_outputs(load_config(CONFIGS / "example.yaml"), tmp_path)
        res = simulate(cfg)
        assert res.state_hash == GOLDEN["example"][0]
        assert (cfg.robot_id, load_model(cfg).dof) == (0, 9)
        times = [100_000_000, 300_000_000]
        bad = tmp_path / "bad.dtrl"
        with LogWriter(bad, cfg.seed) as writer:
            for r in logged(cfg.log_path):
                writer.append(r)
                if times and r.channel == CHANNEL_TELEMETRY and r.time_ns > times[0]:
                    times.pop(0)
                    pkt = TelemetryPacket(robot_id, 10 ** 6, r.time_ns, [0.3] * dof,
                                          [0.0] * dof, [0.0] * dof, 0.04, 0.0)
                    writer.append(LogRecord(r.time_ns, CHANNEL_TELEMETRY,
                                            encode_telemetry(pkt)))
        assert not times
        with pytest.raises(ValueError, match="bad record on channel 1 at"):
            replay(bad, cfg)
        rep = replay(bad, cfg, skip_bad=True)
        assert rep.skipped == 2
        assert rep.state_hash == res.state_hash

    def test_empty_log(self, robot_file, tmp_path):
        log = tmp_path / "empty.dtrl"
        cfg = scenario(robot_file, duration_s=0.0, log_path=str(log))
        simulate(cfg)
        rep = replay(log, cfg)
        assert rep.merge_ticks == 0 and rep.skipped == 0


class TestOutputs:
    def outputs(self, robot_file, tmp_path, **kw):
        return scenario(robot_file, log_path=str(tmp_path / "run.dtrl"),
                        trace_path=str(tmp_path / "run_trace.csv"),
                        stats_path=str(tmp_path / "run_stats.jsonl"), **kw)

    @pytest.mark.parametrize("bad", [
        {"leader": LeaderConfig(centers=(0.0, 0.0), amplitudes=(9.0,))},
        {"ee_link": "no_such_link"},
        {"command_link": LinkConfig(loss=0.1)}], ids=["leader", "ee-link", "link"])
    def test_a_config_error_leaves_existing_files_as_they_were(self, robot_file,
                                                                tmp_path, bad):
        # every check that can fail before the first tick runs before an
        # output is opened
        cfg = self.outputs(robot_file, tmp_path, **bad)
        paths = [Path(cfg.log_path), Path(cfg.trace_path), Path(cfg.stats_path)]
        for path in paths:
            path.write_text(f"kept {path.name}")
        with pytest.raises(ValueError):
            simulate(cfg)
        assert [p.read_text() for p in paths] == [f"kept {p.name}" for p in paths]

    @pytest.mark.parametrize("tick", [0, 1, 10, 29])
    def test_a_run_that_raises_leaves_the_rows_flushed_by_then(self, robot_file, tmp_path,
                                                               monkeypatch, tick):
        # merge tick ``tick + 1`` raises after its flush: the trace holds the
        # header and the rows up to the control tick that ran it, byte for
        # byte the start of the complete run's trace
        full = self.outputs(robot_file, tmp_path)
        simulate(full)
        cfg = dataclasses.replace(full, trace_path=str(tmp_path / "failed.csv"))
        merge_records = harness.merge_records

        def failing(engine, tick_ns, records):
            if engine.tick == tick:
                raise RuntimeError("merge failed")
            return merge_records(engine, tick_ns, records)

        monkeypatch.setattr(harness, "merge_records", failing)
        with pytest.raises(RuntimeError, match="merge failed"):
            simulate(cfg)
        failed = Path(cfg.trace_path).read_bytes()
        ran_at = -(-merge_tick_time(tick + 1) // harness.CONTROL_TICK_NS)
        lines = Path(full.trace_path).read_bytes().splitlines(keepends=True)
        assert failed == b"".join(lines[:2 + ran_at])

    def test_a_run_that_raises_closes_its_outputs(self, robot_file, tmp_path, monkeypatch):
        # the outputs close on the way out, so the collector finds no file
        # left open; the log holds every record appended before the failure
        # and replays up to it, and the trace every row flushed by then
        cfg = self.outputs(robot_file, tmp_path)
        merge_records = harness.merge_records

        def failing(engine, tick_ns, records):
            if engine.tick == 10:
                raise RuntimeError("merge failed")
            return merge_records(engine, tick_ns, records)

        monkeypatch.setattr(harness, "merge_records", failing)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(RuntimeError, match="merge failed"):
                simulate(cfg)
            gc.collect()
        assert unraisable == []
        blocks = list(read_log(cfg.log_path))
        records = [r for b in blocks for r in b.records]
        assert records and not blocks[-1].truncated
        assert records[-1].time_ns <= merge_tick_time(11)
        assert CHANNEL_HEARTBEAT not in {r.channel for r in records}
        rep = replay(cfg.log_path, cfg)
        assert 10 <= rep.merge_ticks <= 11 and rep.records == len(records)
        # the header and the rows up to the control tick that ran tick 11,
        # the first at or after its 183.3 ms
        rows = Path(cfg.trace_path).read_text().splitlines()
        assert len(rows) == 1 + 185 and rows[-1].startswith("184000000,")
        assert not Path(cfg.stats_path).exists()

    def test_bounded_memory(self, robot_file, tmp_path):
        # a run ten times as long needs about the same heap: the trace and
        # the log go to their files as the run goes, and replay holds one
        # block of the log. Measured on example.yaml, from 0.2 s to 2 s:
        # simulate's peak grows by 0.03 MB, replay's by 0.01 MB; with the
        # whole trace and log held in memory they grew by 1.0 and 0.15 MB
        def peaks_mb(duration):
            """The heap peaks of ``simulate`` and of the replay of its log."""
            cfg = dataclasses.replace(example, duration_s=duration)
            peaks = []
            for fn, args in ((simulate, [cfg]), (replay, [cfg.log_path, cfg])):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    fn(*args)
                    peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
                finally:
                    tracemalloc.stop()
            return peaks

        example = with_outputs(load_config(CONFIGS / "example.yaml"), tmp_path)
        warm = dataclasses.replace(example, duration_s=0.2)
        simulate(warm)  # the first run fills the caches that later runs find
        replay(warm.log_path, warm)
        (sim_short, replay_short), (sim_long, replay_long) = map(peaks_mb, (0.2, 2.0))
        assert sim_long - sim_short < 0.25
        assert replay_long - replay_short < 0.05

    def test_peak_rss_does_not_grow_with_the_run(self, tmp_path):
        # a 30 s and a 3 s run of example.yaml with every output set, each
        # followed by the replay of its log, in two processes at once: their
        # peak RSS agree within 1 MiB, where the 30 s trace alone is 8.2 MB
        # and its log 1.1 MB. In 20 runs they were at most 456 KiB apart; a
        # replay that kept every block of the log read 2.2 MiB apart
        script = textwrap.dedent("""\
            import dataclasses, resource, sys
            from pathlib import Path
            from twinsync.harness import simulate
            from twinsync.scenario import load_config
            from twinsync.twin import replay
            config, duration, out = sys.argv[1], float(sys.argv[2]), Path(sys.argv[3])
            cfg = dataclasses.replace(
                load_config(config), duration_s=duration, log_path=str(out / "run.dtrl"),
                trace_path=str(out / "run_trace.csv"), stats_path=str(out / "stats.jsonl"))
            simulate(cfg)
            replay(cfg.log_path, cfg)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # KiB
            """)
        # ru_maxrss outlives exec, so a process forked from this one would
        # report at least this one's size: a bare interpreter starts each run
        launch = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
        runs = {}
        for duration in (3, 30):
            out = tmp_path / str(duration)
            out.mkdir()
            runs[out] = subprocess.Popen(
                [sys.executable, "-c", launch, sys.executable, "-c", script,
                 str(CONFIGS / "example.yaml"), str(duration), str(out)],
                stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        (_, short_kib), (long, long_kib) = [
            (out, int(run.communicate(timeout=120)[0])) for out, run in runs.items()]
        assert (long / "run_trace.csv").stat().st_size > 8_000_000
        assert abs(long_kib - short_kib) < 1024


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


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    assert res.trace_hash == sha256_of(cfg.trace_path)
    assert res.log_hash == sha256_of(cfg.log_path)
    assert_replay_merges_alike(cfg, res, calls)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_hashes_without_outputs(name):
    # with no file to write, the trace and the log are only hashed, to the
    # same pins
    cfg = dataclasses.replace(load_config(CONFIGS / f"{name}.yaml"), log_path=None,
                              trace_path=None, stats_path=None)
    res = simulate(cfg)
    assert (res.state_hash, res.trace_hash, res.log_hash) == GOLDEN[name]


def test_replay_reads_the_log_in_blocks_of_any_size(tmp_path, monkeypatch):
    # a block boundary anywhere in a record, or a block that ends a tick's
    # records, gives every merge tick the inputs the run gave it
    cfg = with_outputs(load_config(CONFIGS / "example.yaml"), tmp_path)
    calls = merge_inputs(monkeypatch)
    res = simulate(cfg)
    for block_size in (7, 100, 4096):
        monkeypatch.setattr(recordlog, "BLOCK_SIZE", block_size)
        assert_replay_merges_alike(cfg, res, calls)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_counts_are_what_the_run_recorded(name, tmp_path):
    # a delivered telemetry packet is one complete latency sample, and a
    # command sent is one command record in the log
    cfg = with_outputs(load_config(CONFIGS / f"{name}.yaml"), tmp_path)
    res = simulate(cfg)
    assert res.stats is not None and res.telemetry_delivered == res.stats.n > 0
    commands = [r for r in logged(cfg.log_path) if r.channel == CHANNEL_COMMAND]
    assert res.commands_sent == len(commands)


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
        data["trace_path"] = str(tmp_path / f"{name}_trace.csv")
        data["stats_path"] = str(tmp_path / f"{name}_stats.jsonl")
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
    phases, sources, asset_filters, relocated = set(), set(), set(), Counter()
    merge_tick = TwinEngine.merge_tick

    def spy(self, *args):
        out = merge_tick(self, *args)
        phases.add(self.gripper.phase)
        sources.update(t.source for t in self.asset_trackers.values())
        asset_filters.update(self.asset_filters.values())
        return out

    monkeypatch.setattr(TwinEngine, "merge_tick", spy)
    monkeypatch.setattr(MocapFilter, "process",
                        counting_relocations(MocapFilter.process, relocated))
    cfg = with_outputs(load_config(CONFIGS / "multi_asset.yaml"), tmp_path)
    assert any(z.attached_asset == "tray" for z in cfg.zones)
    simulate(cfg)
    assert GraspPhase.GRASPED in phases
    assert {AssetSource.GRIPPER_ATTACHED, AssetSource.PHYSICS_FALLBACK} <= sources
    assert sum(relocated[f] for f in asset_filters) >= 1


def test_no_per_tick_packet_objects(tmp_path, monkeypatch):
    # the control loop builds a telemetry packet only for the samples its
    # merge ticks send, and applies no joint state: only the merge tick does,
    # once per telemetry packet it applies
    built = {"telemetry": 0, "applied": 0, "advanced": 0}

    def telemetry_packet(*args):
        built["telemetry"] += 1
        return TelemetryPacket(*args)

    apply_joint_state = twin.apply_joint_state

    def apply_joint_state_spy(*args, **kw):
        built["applied"] += 1
        return apply_joint_state(*args, **kw)

    merge_tick = TwinEngine.merge_tick

    def merge_tick_spy(self, *args):
        # a tick applies a packet exactly when it moves ``applied_seq`` on
        before = self.applied_seq
        commands = merge_tick(self, *args)
        built["advanced"] += self.applied_seq != before
        return commands

    monkeypatch.setattr(harness, "TelemetryPacket", telemetry_packet)
    monkeypatch.setattr(twin, "apply_joint_state", apply_joint_state_spy)
    monkeypatch.setattr(TwinEngine, "merge_tick", merge_tick_spy)
    res = simulate(with_outputs(load_config(CONFIGS / "example.yaml"), tmp_path))
    assert res.control_ticks == 2000
    assert built["telemetry"] == res.telemetry_sent <= 121
    assert 0 < built["applied"] == built["advanced"] <= res.merge_ticks


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

    def spy(leader, follower, kp, kd, ext):
        seen.append(list(ext))
        return pd_step(leader, follower, kp, kd, ext)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "pd_step", spy)
        simulate(cfg)
    return seen


CONTACT = load_config(CONFIGS / "contact.yaml")


@given(yaw=st.floats(-np.pi, np.pi), xyz=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       stiffness=st.floats(10.0, 1000.0))
@settings(max_examples=8, deadline=None)
# a yaw whose copied zone moved its orientation by an ulp while zones
# renormalized a unit quaternion on every construction
@example(yaw=0.6646006270837113, xyz=(0.0, 0.0, 0.0), stiffness=10.0)
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


def rows_one_at_a_time(rows) -> str:
    """The trace text of ``(t_ns, leader, follower)`` rows, each rendered on
    its own: the reference for ``harness.trace_rows``."""
    return "".join(f"{t_ns}," + ",".join(map(repr, leader)) + ","
                   + ",".join(map(repr, follower)) + "\n"
                   for t_ns, leader, follower in rows)


# signed zeros, subnormals, the smallest normal, and values whose repr
# switches to an exponent (1e16, 1e-5) or is near overflow
CELLS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                                   1e16, -1e16, 1e-5, 1e308, -1e308, 0.1, 1 / 3]),
                  st.floats(allow_nan=False))


# a merge tick's flush holds 16 or 17 rows (a merge tick every 16.7 ms)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 1, 2, 9]), st.sampled_from([0, 1, 16, 17]), st.data())
def test_trace_rows_render_as_one_row_at_a_time(dof, n_rows, data):
    row = st.tuples(st.integers(0, 2**63 - 1), st.lists(CELLS, min_size=dof, max_size=dof),
                    st.lists(CELLS, min_size=dof, max_size=dof))
    rows = data.draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    values = [v for t_ns, leader, follower in rows for v in (t_ns, *leader, *follower)]
    assert harness.trace_rows(values, dof) == rows_one_at_a_time(rows)


def test_a_robot_without_movable_joints_traces_only_the_time(tmp_path):
    urdf = tmp_path / "point.urdf"
    urdf.write_text("<robot name='point'><link name='base'/></robot>")
    cfg = scenario(str(urdf), trace_path=str(tmp_path / "trace.csv"),
                   leader=LeaderConfig(centers=(0.0,), amplitudes=(0.0,)))
    res = simulate(cfg)
    text = Path(cfg.trace_path).read_text()
    assert text == "time_ns,,\n" + "".join(f"{k * 1_000_000},,\n" for k in range(500))
    assert res.trace_hash == hashlib.sha256(text.encode()).hexdigest()


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
    on_tick = [r for r in logged(cfg.log_path)
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
            # the twin builds the frame the follower decodes
            assert type(cmds[0]) is CommandFrame
            assert decode_command(encode_command(cmds[0])) == cmds[0]

    def test_state_hash_stable_without_input(self):
        a, b = self.engine(), self.engine()
        assert a.state_hash() == b.state_hash()
        a.merge_tick(merge_tick_time(1), [self.tele(0, q=(0.5, 0.0))], [])
        assert a.state_hash() != b.state_hash()


class TestMeasureLatency:
    def test_reference_profile_statistics(self):
        cfg = load_config(CONFIGS / "reference_latency.yaml")
        stats = measure_latency(cfg, n_samples=2000)
        net, proc, total = stats.deltas
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
    # a non-finite delay parameter or leader value, asset times that run
    # backwards, a mocap rate or seed the run cannot use, a non-finite filter
    # or grasp value, a gripper schedule that is empty or runs backwards, a
    # negative gain, a seed under a link (every link's derives from the
    # scenario seed), a vector whose norm overflows, an integer too large
    # for a float and two outputs that name one file
    BAD_SECTIONS = [
        ("top", {"duraton_s": 1.0}, "unknown ScenarioConfig key 'duraton_s'"),
        ("leader", {"leader": {"centres": [0.0]}}, "leader: unknown"),
        ("link", {"telemetry_link": {"lss": 0.1}}, "telemetry_link: unknown"),
        ("link-seed", {"teleop_link": {"seed": 5}}, "teleop_link: unknown"),
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
        ("gains-kp-negative", {"gains_kp": -1.0}, "gains_kp must be finite and >= 0"),
        ("station-yaw-nan", {"station_yaw": NAN}, "station_yaw must be finite"),
        ("station-yaw-inf", {"station_yaw": -INF}, "station_yaw must be finite"),
        # an integer beyond the largest float
        ("duration-int-overflow", {"duration_s": 10 ** 400},
         "duration_s is too large for a float"),
        ("tracker-noise-int-overflow", {"tracker_noise_sigma": 10 ** 400},
         "tracker_noise_sigma is too large for a float"),
        ("gains-kp-int-overflow", {"gains_kp": 10 ** 400}, "gains_kp is too large for a float"),
        ("gains-kd-int-overflow", {"gains_kd": 10 ** 400}, "gains_kd is too large for a float"),
        ("station-yaw-int-overflow", {"station_yaw": -10 ** 400},
         "station_yaw is too large for a float"),
        ("station-position-int-overflow", {"station_position": [0, 10 ** 400, 0]},
         "int too large to convert to float"),
        ("zone-stiffness-int-overflow", {"zones": [{**ZONE, "stiffness": 10 ** 400}]},
         "zones: .*int too large to convert to float"),
        ("leader-center-int-overflow", {"leader": {"centers": [10 ** 400]}},
         "leader: .*int too large to convert to float"),
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
        ("zone-center-short", {"zones": [{**ZONE, "center": [0, 0]}]},
         "zones: .*center must be 3 finite values"),
        ("zone-center-nan", {"zones": [{**ZONE, "center": [0, NAN, 0]}]},
         "zones: .*center must be 3 finite values"),
        ("zone-half-extents-short", {"zones": [{**ZONE, "half_extents": [0.1, 0.1]}]},
         "zones: .*half_extents must be 3 finite positive values"),
        ("zone-half-extents-nan", {"zones": [{**ZONE, "half_extents": [1, 1, NAN]}]},
         "zones: .*half_extents must be 3 finite positive values"),
        ("zone-orientation-short", {"zones": [{**ZONE, "orientation": [1, 0, 0]}]},
         "zones: .*orientation must be 4 finite values"),
        ("zone-orientation-nan", {"zones": [{**ZONE, "orientation": [NAN, 0, 0, 0]}]},
         "zones: .*orientation must be 4 finite values"),
        ("zone-stiffness-nan", {"zones": [{**ZONE, "stiffness": NAN}]},
         "zones: .*stiffness must be finite and >= 0"),
        ("asset-position-nan", {"assets": [{**ASSET, "position": [0, 0, NAN]}]},
         "assets: .*positions must be 3 finite values"),
        ("asset-position-short", {"assets": [{**ASSET, "position": [0, 0]}]},
         "assets: .*positions must be 3 finite values"),
        ("asset-waypoint-inf", {"assets": [{**ASSET, "waypoints": [[1.0, [0, INF, 1]]]}]},
         "assets: .*positions must be 3 finite values"),
        ("asset-object-id-above-byte", {"assets": [{**ASSET, "object_id": 256}]},
         "assets: .*object_id must be an integer in 0-255"),
        # a tracker period of 0 ns; checked at load only, never run
        ("mocap-rate-above-1ghz", {"mocap_rate_hz": 10 ** 9 + 1},
         "mocap_rate_hz must be an integer in 1 to 10\\*\\*9"),
        ("seed-negative", {"seed": -1}, "seed must be an integer in 0 to 2\\*\\*64 - 1"),
        ("seed-above-u64", {"seed": 2 ** 64}, "seed must be an integer in 0 to 2\\*\\*64 - 1"),
        ("filter-up-axis-nan", {"filter": {"up_axis": [0, NAN, 1]}},
         "filter: .*up_axis must be 3 finite values"),
        ("filter-up-axis-overflow", {"filter": {"up_axis": [1e200, 0, 0]}},
         "filter: .*norm of .* overflows"),
        ("zone-orientation-overflow", {"zones": [{**ZONE, "orientation": [1e200, 0, 0, 0]}]},
         "zones: .*norm of .* overflows"),
        ("filter-vmax-nan", {"filter": {"vmax": NAN}}, "filter: .*vmax must be positive"),
        ("filter-stable-tol-inf", {"filter": {"stable_tol": INF}},
         "filter: .*stable_tol must be finite and positive"),
        ("filter-stable-count-nan", {"filter": {"stable_count": NAN}},
         "filter: .*stable_count must be >= 2"),
        # the counts are deque lengths: a float, a bool or an integer too
        # large for one crashed simulate in MocapFilter
        ("filter-window-float", {"filter": {"window": 7.5}},
         "filter: .*window must be an integer in \\[5, 15\\], got 7.5"),
        ("filter-window-bool", {"filter": {"window": True}},
         "filter: .*window must be an integer in \\[5, 15\\], got True"),
        ("filter-stable-count-float", {"filter": {"stable_count": 2.5}},
         "filter: .*stable_count must be >= 2 and <= 100, an integer, got 2.5"),
        ("filter-stable-count-huge", {"filter": {"stable_count": 10 ** 400}},
         "filter: .*stable_count must be >= 2 and <= 100, an integer, got 1000"),
        ("filter-stable-count-bool", {"filter": {"stable_count": True}},
         "filter: .*stable_count must be >= 2 and <= 100, an integer, got True"),
        ("grasp-stall-eps-nan", {"grasp": {"stall_eps": NAN}},
         "grasp: .*grasp config values must be finite and strictly positive"),
        ("grasp-release-eps-inf", {"grasp": {"release_eps": INF}},
         "grasp: .*grasp config values must be finite and strictly positive"),
        ("gripper-schedule-backwards", {"leader": {"gripper_schedule": [[0.5, 0.08],
                                                                        [0.2, 0.0]]}},
         "leader: .*gripper_schedule needs steps whose times do not decrease"),
        ("gripper-schedule-empty", {"leader": {"gripper_schedule": []}},
         "leader: .*gripper_schedule needs steps whose times do not decrease"),
        # outputs that share a file, which simulate would write twice at once
        ("log-trace-same-file", {"log_path": "run.out", "trace_path": "run.out"},
         "log_path and trace_path resolve to the same file"),
        ("log-stats-same-file", {"log_path": "run.out", "stats_path": "./run.out"},
         "log_path and stats_path resolve to the same file"),
        ("trace-stats-same-file", {"trace_path": "out/../run.csv", "stats_path": "run.csv",
                                   "log_path": "run.dtrl"},
         "trace_path and stats_path resolve to the same file"),
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
            "gains_kp": 50, "gains_kd": 5,
            "leader": {"centers": [0.1, 0.2], "amplitudes": [0.3, 0.4],
                       "frequencies": [0.5, 0.6], "phases": [0.7, 0.8],
                       "gripper_schedule": [[0, 0.04], [1, 0.02]]},
            "teleop_link": {"delay": {"kind": "constant", "ms": 1.5}, "loss": 0.1},
            "telemetry_link": {"delay": {"kind": "uniform", "lo_ms": 1, "hi_ms": 2},
                               "loss": 0.2},
            "mocap_link": {"delay": {"kind": "normal", "mu_ms": 2, "sigma_ms": 0.5},
                           "loss": 0.3},
            "command_link": {"delay": {"kind": "empirical", "samples_ms": [1, 2]},
                             "loss": 0.4},
            "processing_delay": {"kind": "constant", "ms": 0.5},
            "filter": {"window": 7, "vmax": 1.0, "up_axis": [0, 1, 0],
                       "stable_count": 4, "stable_tol": 0.01},
            "grasp": {"stall_eps": 2e-3, "stall_count": 3, "closed_threshold": 2e-3,
                      "release_eps": 3e-3},
            "zones": [{"id": "z", "center": [1, 2, 3], "half_extents": [0.1, 0.2, 0.3],
                       "orientation": [0, 1, 0, 0], "stiffness": 100,
                       "attached_asset": "a"}],
            "assets": [{"name": "a", "object_id": 1, "position": [1, 2, 3],
                        "waypoints": [[1, [2, 3, 4]]], "occlusions": [[0.5, 0.6]]}],
            "station_position": [1, 2, 3], "station_yaw": -1,
            "tracker_noise_sigma": 0, "mocap_rate_hz": 60, "ee_link": "tip",
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
                    # a float field given an integer holds a float
                    assert not isinstance(default, float) or type(value) is float, f.name

        check(config_from_dict(given), given)
