"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single pass/fail line so a full run doubles as a
checklist. Oracles here are written from first principles (closed-form
kinematics, sorted-order quantiles, brute-force automata) and never call
the code paths they judge.
"""

import itertools
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from twinsync.geometry import Pose, quat_rotate
from twinsync.grasp import (AssetTracker, FallbackState, GraspConfig,
                            GraspPhase, GripperTracker, fallback_step)
from twinsync.harness import measure_latency, simulate
from twinsync.latency import LatencyRecorder, Stage
from twinsync.mocap import FilteredPose, FilterConfig, MocapFilter, PoseStatus
from twinsync.network import Throttle
from twinsync.robot import forward_kinematics, parse_urdf
from twinsync.scenario import (DelayModel, LeaderConfig, LinkConfig, ScenarioConfig,
                               load_config)
from twinsync.teleop import (ControllerGains, FollowerState, LeaderProfile,
                             leader_trajectory, pd_step)
from twinsync.twin import replay
from twinsync.wire import MocapPacket
from twinsync.zones import ProhibitedZone, counterforce, query

REPO = Path(__file__).parent.parent
CONFIGS = REPO / "configs"
ASSETS = REPO / "assets"

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

IDENT = np.array([1.0, 0.0, 0.0, 0.0])


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{name}]: FAIL")
        raise
    print(f"criterion {num:2d} [{name}]: PASS")


def test_01_latency_replication():
    with criterion(1, "latency replication"):
        t0 = time.perf_counter()
        cfg = load_config(CONFIGS / "reference_latency.yaml")
        stats = measure_latency(cfg, n_samples=20_000)
        net = stats.by_kind("ingress_to_socket")
        proc = stats.by_kind("socket_to_applied")
        total = stats.by_kind("ingress_to_applied")
        assert abs(net.median_ms - 3.6) <= 0.02 * 3.6
        assert net.iqr_ms == 0.0
        assert abs(proc.median_ms - 1.08) <= 0.02 * 1.08
        assert abs(proc.iqr_ms - 0.96) <= 0.05 * 0.96
        assert abs(total.median_ms - 4.68) <= 0.05 * 4.68
        assert stats.n == 20_000
        assert time.perf_counter() - t0 < 10.0


def test_02_throttle():
    with criterion(2, "telemetry throttle"):
        th = Throttle()
        samples = {}
        emissions = []
        for k in range(10_000):  # 1000 Hz for 10 simulated seconds
            t_ns = k * 1_000_000
            samples[k] = t_ns
            emissions += th.offer(t_ns, k)
        emissions += th.flush(10_000_000_000)
        assert 599 <= len(emissions) <= 601
        for tick_time, k in emissions:
            # the emitted sample is the most recent input at its tick
            assert samples[k] <= tick_time
            assert tick_time - samples[k] <= 1_000_000


def test_03_fk_oracle():
    with criterion(3, "forward kinematics"):
        model = parse_urdf(PLANAR)
        rng = np.random.default_rng(101)
        for _ in range(1000):
            q1, q2 = rng.uniform(-np.pi, np.pi, 2)
            got = forward_kinematics(model, [q1, q2])["tip"].translation
            want = np.array([0.5 * np.cos(q1) + 0.5 * np.cos(q1 + q2),
                             0.5 * np.sin(q1) + 0.5 * np.sin(q1 + q2), 0.0])
            assert np.allclose(got, want, atol=1e-9)

        text = (ASSETS / "panda.urdf").read_text()
        counts = {}
        for j in ET.fromstring(text).findall("joint"):
            counts[j.get("type")] = counts.get(j.get("type"), 0) + 1
        panda = parse_urdf(text)
        assert sum(1 for j in panda.joints if j.kind == "revolute") \
            == counts["revolute"] == 7
        assert sum(1 for j in panda.joints if j.kind == "prismatic") \
            == counts["prismatic"] == 2


def test_04_filter_suite():
    with criterion(4, "mocap filter"):
        def pkt(i, pos, quality=1, dt_ns=10_000_000):
            return MocapPacket(0, i, i * dt_ns, pos, IDENT, quality)

        # constant-input identity after warm-up
        f = MocapFilter(FilterConfig(window=9, vmax=10.0))
        for i in range(20):
            out = f.process(pkt(i, [0.3, -0.2, 1.1]))
        assert out.status is PoseStatus.STABLE
        assert np.allclose(out.position, [0.3, -0.2, 1.1], atol=1e-15)

        # ramp lag exactly (w - 1) / 2 samples for each legal extreme
        for w in (5, 9, 15):
            f = MocapFilter(FilterConfig(window=w, vmax=1e6))
            delta = 0.01
            for i in range(60):
                out = f.process(pkt(i, [i * delta, 0, 0]))
            assert abs(out.position[0] - (59 - (w - 1) / 2) * delta) < 1e-12

        # step beyond vmax: dropped, then relocated after exactly K frames
        for k_stable in (3, 5):
            f = MocapFilter(FilterConfig(window=5, vmax=0.5,
                                         stable_count=k_stable))
            for i in range(10):
                f.process(pkt(i, [0.0, 0, 0]))
            for j in range(k_stable):
                out = f.process(pkt(10 + j, [4.0, 0, 0]))
                if j < k_stable - 1:
                    assert out.status is PoseStatus.HOLDING
                    assert np.allclose(out.position, [0.0, 0, 0])
            assert out.status is PoseStatus.RELOCATED
            assert np.allclose(out.position, [4.0, 0, 0])

        # yaw-only output rotation on random quaternions
        f = MocapFilter(FilterConfig(window=5, vmax=1e6))
        rng = np.random.default_rng(104)
        for i in range(10_000):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            out = f.process(MocapPacket(0, i, i * 10_000_000,
                                        rng.uniform(-1, 1, 3), q, 1))
            assert abs(out.rotation[1]) < 1e-9
            assert abs(out.rotation[2]) < 1e-9
            assert abs(np.linalg.norm(out.rotation) - 1.0) < 1e-9


class _OracleGrasp:
    """Brute-force transcription of the grasp rules, kept deliberately
    separate from the implementation under test."""

    def __init__(self, eps, m, closed, release):
        self.eps, self.m, self.closed, self.release = eps, m, closed, release
        self.state, self.n, self.gw = "idle", 0, None

    def step(self, w, dw):
        if self.state == "idle":
            if dw < -self.eps:
                self.state, self.n = "closing", 0
        elif self.state == "closing":
            if dw > self.eps:
                self.state, self.n = "idle", 0
            elif abs(dw) < self.eps:
                if w <= self.closed:
                    self.state, self.n = "idle", 0
                else:
                    self.n += 1
                    if self.n >= self.m:
                        self.state, self.gw = "grasped", w
            else:
                self.n = 0
        elif w > self.gw + self.release:
            self.state, self.gw = "idle", None
        return self.state


def test_05_grasp_exhaustive():
    with criterion(5, "grasp automaton"):
        alphabet = (0.0, 0.0005, 0.02, 0.04, 0.08)
        names = {GraspPhase.IDLE: "idle", GraspPhase.CLOSING: "closing",
                 GraspPhase.GRASPED: "grasped"}
        cfg = GraspConfig(stall_count=2)
        for length in range(1, 9):
            for seq in itertools.product(alphabet, repeat=length):
                tr = GripperTracker(cfg)
                oracle = _OracleGrasp(cfg.stall_eps, cfg.stall_count,
                                      cfg.closed_threshold, cfg.release_eps)
                prev = seq[0]
                for w in seq:
                    got = tr.step(w, w - prev)
                    assert names[got] == oracle.step(w, w - prev), seq
                    prev = w

        # full closure at any constant rate never registers a grasp
        for steps in (5, 20, 80):
            tr = GripperTracker()
            widths = np.linspace(0.08, 0.0, steps)
            prev = widths[0]
            for w in widths:
                phase = tr.step(w, w - prev)
                assert phase is not GraspPhase.GRASPED
                prev = w
            for _ in range(20):
                assert tr.step(0.0, 0.0) is not GraspPhase.GRASPED


def test_06_fallback_physics_and_continuity():
    with criterion(6, "fallback physics"):
        s = FallbackState([0.0, 0.0, 2.0], [0.0, 0.0, 0.0])
        for _ in range(100):
            s = fallback_step(s, 1e-3)
        assert abs((2.0 - s.position[2]) - 0.5 * 9.81 * 0.1 ** 2) < 1e-4

        rng = np.random.default_rng(106)
        for scenario in range(100):
            start = rng.uniform([-1, -1, 0.5], [1, 1, 2.0])
            tracker = AssetTracker("a", Pose(start, IDENT))
            grip = Pose(start + rng.uniform(-0.1, 0.1, 3), IDENT)
            last = tracker.pose.translation
            prev_src = tracker.source
            for k in range(120):
                grasped = bool(rng.random() < 0.25)
                r = rng.random()
                if r < 0.3:
                    mocap = None  # occluded
                elif r < 0.5:
                    mocap = FilteredPose(last, IDENT,
                                         PoseStatus.HOLDING, k)
                else:
                    mocap = FilteredPose(start + rng.normal(0, 0.02, 3),
                                         IDENT, PoseStatus.STABLE, k)
                pose, src = tracker.update(grasped, grip, mocap, 1 / 60)
                if src is not prev_src:
                    # continuous up to float round-off in the frame change
                    jump = np.linalg.norm(np.subtract(pose.translation, last))
                    assert jump < 1e-12, (scenario, k, src)
                last, prev_src = pose.translation, src


def test_07_zone_oracle():
    with criterion(7, "prohibited zones"):
        rng = np.random.default_rng(107)
        for _ in range(4):
            half = rng.uniform(0.1, 1.0, 3)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            zone = ProhibitedZone("z", rng.uniform(-1, 1, 3), half,
                                  orientation=q)
            conj = np.array([q[0], -q[1], -q[2], -q[3]])
            for _ in range(10_000):
                local = rng.uniform(-1.5 * half, 1.5 * half)
                point = zone.pose.transform_point(local)
                rep = query(zone, point)
                inside = np.all(np.abs(local) <= half)
                if not inside:
                    assert rep is None
                    continue
                want_depth = float(np.min(half - np.abs(local)))
                assert abs(rep.depth - want_depth) < 1e-9
                # the direction is an outward face normal achieving that depth
                local_dir = quat_rotate(conj, rep.direction)
                i = int(np.argmax(np.abs(local_dir)))
                s = 1.0 if local_dir[i] > 0 else -1.0
                assert abs(abs(local_dir[i]) - 1.0) < 1e-9
                assert abs((half[i] - s * local[i]) - want_depth) < 1e-9

        # rigid-transform equivariance
        base = ProhibitedZone("z", [0, 0, 0], [0.4, 0.3, 0.2])
        for _ in range(1000):
            point = rng.uniform(-0.5, 0.5, 3)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            xf = Pose(rng.uniform(-2, 2, 3), q)
            moved = ProhibitedZone("z", xf.translation, base.half_extents,
                                   orientation=xf.rotation)
            a = query(base, point)
            b = query(moved, xf.transform_point(point))
            if a is None:
                assert b is None
            else:
                assert abs(a.depth - b.depth) < 1e-9
                assert np.allclose(quat_rotate(q, a.direction), b.direction,
                                   atol=1e-9)

        # counterforce vanishes continuously at the surface
        for eps in (1e-3, 1e-6, 1e-9):
            rep = query(base, [0.4 - eps, 0.0, 0.0])
            f = counterforce(rep, 500.0)
            assert np.linalg.norm(f) <= 500.0 * eps + 1e-12
        surface = query(base, [0.4, 0.0, 0.0])
        assert np.allclose(counterforce(surface, 500.0), np.zeros(3))


def test_08_teleop_convergence():
    with criterion(8, "teleop convergence"):
        kp, kd, target = 100.0, 20.0, 0.02
        leader = leader_trajectory(0.0, LeaderProfile.constant([target]))
        gains = ControllerGains([kp], [kd])
        follower = FollowerState([0.0], [0.0])

        # tiny-step RK4 reference for qdd = kp (q* - q) - kd qd
        h = 1e-5
        q, dq = 0.0, 0.0

        def accel(q_, dq_):
            return kp * (target - q_) - kd * dq_

        ref = {}
        for i in range(round(2.0 / h)):
            k1q, k1d = dq, accel(q, dq)
            k2q, k2d = dq + h / 2 * k1d, accel(q + h / 2 * k1q, dq + h / 2 * k1d)
            k3q, k3d = dq + h / 2 * k2d, accel(q + h / 2 * k2q, dq + h / 2 * k2d)
            k4q, k4d = dq + h * k3d, accel(q + h * k3q, dq + h * k3d)
            q += h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
            dq += h / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
            if (i + 1) % 100 == 0:
                ref[(i + 1) // 100] = q

        worst = 0.0
        for k in range(2000):
            _, follower = pd_step(leader, follower, gains, [0.0])
            worst = max(worst, abs(follower.q[0] - ref[k + 1]))
        assert abs(follower.q[0] - target) < 1e-3
        assert worst < 1e-4


def test_09_determinism_and_replay(tmp_path):
    with criterion(9, "determinism and replay"):
        robot = tmp_path / "planar.urdf"
        robot.write_text(PLANAR)
        log = tmp_path / "run.dtrl"
        cfg = ScenarioConfig(
            seed=909, duration_s=1.0, robot_path=str(robot),
            leader=LeaderConfig(centers=(0.0, 0.0), amplitudes=(0.3, 0.2),
                                frequencies=(0.5, 0.8), phases=(0.0, 1.0)),
            telemetry_link=LinkConfig(delay=DelayModel.uniform(0.5, 4.0),
                                      loss=0.05),
            mocap_link=LinkConfig(delay=DelayModel.uniform(0.2, 2.0),
                                  loss=0.02),
            processing_delay=DelayModel.uniform(0.1, 2.0),
            zones=(ProhibitedZone("near", [1.0, 0, 0], [0.3, 0.3, 0.3]),),
            log_path=str(log))
        a = simulate(cfg)
        b = simulate(cfg)
        assert a.trace_hash == b.trace_hash
        assert a.log_hash == b.log_hash
        assert a.state_hash == b.state_hash
        rep = replay(log, cfg)
        assert rep.state_hash == a.state_hash


def test_10_stats_oracle():
    with criterion(10, "latency statistics"):
        def oracle_quantile(xs, p):
            xs = sorted(xs)
            r = (len(xs) - 1) * p
            lo, hi = int(np.floor(r)), int(np.ceil(r))
            return xs[lo] + (r - lo) * (xs[hi] - xs[lo])

        rng = np.random.default_rng(110)
        for _ in range(100):
            n = int(rng.integers(1, 10_001))
            ingress = rng.integers(0, 10**9, n)
            d1 = rng.integers(0, 10**7, n)
            d2 = rng.integers(0, 10**7, n)
            rec = LatencyRecorder()
            for i in range(n):
                rec.record(i, Stage.INGRESS, int(ingress[i]))
                rec.record(i, Stage.SOCKET_RECV, int(ingress[i] + d1[i]))
                rec.record(i, Stage.APPLIED, int(ingress[i] + d1[i] + d2[i]))
            stats = rec.compute_stats()
            for kind, deltas in (("ingress_to_socket", d1),
                                 ("socket_to_applied", d2),
                                 ("ingress_to_applied", d1 + d2)):
                ms = deltas / 1e6
                s = stats.by_kind(kind)
                assert abs(s.median_ms - oracle_quantile(ms, 0.5)) < 1e-9
                assert abs(s.q1_ms - oracle_quantile(ms, 0.25)) < 1e-9
                assert abs(s.q3_ms - oracle_quantile(ms, 0.75)) < 1e-9
                lo = s.q1_ms - 1.5 * s.iqr_ms
                hi = s.q3_ms + 1.5 * s.iqr_ms
                assert s.outlier_count == int(np.sum((ms < lo) | (ms > hi)))
            # per-sequence stage additivity is exact in integer nanoseconds
            assert np.all((ingress + d1 + d2) - ingress == d1 + d2)


def test_11_live_loopback():
    with criterion(11, "live loopback"):
        from twinsync.live import loopback_self_test
        counters = loopback_self_test(n_packets=1000)
        assert counters.telemetry_applied >= 990
        assert counters.malformed == 0

        counters = loopback_self_test(n_packets=200, inject_malformed=10)
        assert counters.malformed >= 1
        assert counters.telemetry_applied >= 190
