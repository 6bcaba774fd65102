import numpy as np
import pytest

from twinsync.harness import simulate
from twinsync.network import DatagramLink
from twinsync.scenario import DelayModel, LeaderConfig, LinkConfig, ScenarioConfig
from twinsync.teleop import (ControllerGains, FollowerState, LeaderProfile,
                             leader_trajectory, pd_step)
from twinsync.wire import TelemetryPacket, decode_telemetry, encode_telemetry

ONE_JOINT = """
<robot name='one_joint'>
  <link name='base'/><link name='l1'/><link name='tip'/>
  <joint name='j1' type='revolute'>
    <parent link='base'/><child link='l1'/>
    <axis xyz='0 0 1'/><limit lower='-3.2' upper='3.2'/>
  </joint>
  <joint name='jtip' type='fixed'>
    <origin xyz='0.5 0 0'/>
    <parent link='l1'/><child link='tip'/>
  </joint>
</robot>
"""


class TestLeaderTrajectory:
    def test_zero_amplitude_constant(self):
        p = LeaderProfile.constant([0.3, -0.2])
        for t in (0.0, 0.5, 3.7):
            s = leader_trajectory(t, p)
            assert np.allclose(s.positions, [0.3, -0.2])
            assert np.allclose(s.velocities, 0.0)

    def test_sinusoid_value_and_velocity_at_peak(self):
        p = LeaderProfile([0.1], [0.5], [0.2], [0.0])
        s = leader_trajectory(1.25, p)  # 2*pi*0.2*1.25 = pi/2
        assert abs(s.positions[0] - 0.6) < 1e-12
        assert abs(s.velocities[0]) < 1e-12

    def test_limit_validation(self):
        p = LeaderProfile([0.0], [2.0], [0.1], [0.0])
        with pytest.raises(ValueError):
            p.validate_against_limits([-1.0], [1.0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            leader_trajectory(-0.1, LeaderProfile.constant([0.0]))


class TestPdStep:
    def test_zero_gains_zero_ext_inert(self):
        leader = leader_trajectory(0.0, LeaderProfile.constant([1.0]))
        follower = FollowerState([0.0], [0.0])
        gains = ControllerGains([0.0], [0.0])
        for _ in range(100):
            tau, follower = pd_step(leader, follower, gains, [0.0])
            assert tau[0] == 0.0
        assert follower.q[0] == 0.0 and follower.dq[0] == 0.0

    def test_converges_and_matches_reference_integrator(self):
        # static leader: the follower is the scalar system
        # qdd = kp (q* - q) - kd qd, checked against tiny-step RK4
        kp, kd, target = 100.0, 20.0, 0.02
        leader = leader_trajectory(0.0, LeaderProfile.constant([target]))
        gains = ControllerGains([kp], [kd])
        follower = FollowerState([0.0], [0.0])

        h = 1e-5
        q_ref, dq_ref = 0.0, 0.0

        def accel(q, dq):
            return kp * (target - q) - kd * dq

        ref_at = {}
        for i in range(round(2.0 / h)):
            k1q, k1d = dq_ref, accel(q_ref, dq_ref)
            k2q, k2d = dq_ref + h / 2 * k1d, accel(q_ref + h / 2 * k1q, dq_ref + h / 2 * k1d)
            k3q, k3d = dq_ref + h / 2 * k2d, accel(q_ref + h / 2 * k2q, dq_ref + h / 2 * k2d)
            k4q, k4d = dq_ref + h * k3d, accel(q_ref + h * k3q, dq_ref + h * k3d)
            q_ref += h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
            dq_ref += h / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
            step = i + 1
            if step % 100 == 0:  # every 1 ms
                ref_at[step // 100] = q_ref

        max_dev = 0.0
        for k in range(2000):
            _, follower = pd_step(leader, follower, gains, [0.0])
            max_dev = max(max_dev, abs(follower.q[0] - ref_at[k + 1]))
        assert abs(follower.q[0] - target) < 1e-3
        assert max_dev < 1e-4

    def test_dimension_mismatch(self):
        leader = leader_trajectory(0.0, LeaderProfile.constant([0.0, 0.0]))
        with pytest.raises(ValueError):
            pd_step(leader, FollowerState([0.0], [0.0]),
                    ControllerGains([1.0], [1.0]), [0.0])

    def test_passivity_energy_decreasing(self):
        leader = leader_trajectory(0.0, LeaderProfile.constant([0.0]))
        gains = ControllerGains([100.0], [20.0])
        follower = FollowerState([0.5], [0.0])
        energies = []
        for _ in range(3000):
            _, follower = pd_step(leader, follower, gains, [0.0])
            energies.append(0.5 * follower.dq[0] ** 2
                            + 0.5 * 100.0 * follower.q[0] ** 2)
        # total (kinetic + spring) energy decays monotonically with kd > 0
        tail = energies[1:]
        assert all(b <= a + 1e-15 for a, b in zip(energies, tail))
        assert energies[-1] < 1e-9



class TestForceFeedback:
    def test_delayed_over_link(self):
        # the follower's joint torque, external term included, rides the
        # telemetry packet; a 10 ms link delay shows it at the leader 10 ms later
        leader = leader_trajectory(0.0, LeaderProfile.constant([0.0]))
        tau, follower = pd_step(leader, FollowerState([0.0], [0.0]),
                                ControllerGains([100.0], [20.0]), [1.0])
        assert np.array_equal(tau, [1.0])
        link = DatagramLink(LinkConfig(delay=DelayModel.constant(10.0)))
        pkt = TelemetryPacket(0, 0, 5_000_000, follower.q, follower.dq, tau, 0.08, 0.0)
        link.send(5_000_000, encode_telemetry(pkt))
        assert link.poll(14_999_999) == []
        out = link.poll(15_000_000)
        assert len(out) == 1
        assert np.array_equal(decode_telemetry(out[0].payload).efforts, tau)


@pytest.fixture
def one_joint(tmp_path):
    p = tmp_path / "one_joint.urdf"
    p.write_text(ONE_JOINT)
    return str(p)


def teleop_scenario(robot_path, **kw):
    defaults = dict(robot_path=robot_path,
                    leader=LeaderConfig(centers=(0.0,), amplitudes=(0.1,),
                                        frequencies=(0.5,), phases=(0.0,)))
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestRunTeleop:
    def test_tick_count_and_throttled_deliveries(self, one_joint):
        res = simulate(teleop_scenario(one_joint, duration_s=1.0))
        assert res.control_ticks == 1000
        assert res.telemetry_sent <= 61
        assert res.telemetry_delivered == res.telemetry_sent

    def test_determinism(self, one_joint):
        cfg = teleop_scenario(one_joint, duration_s=0.5, seed=3,
                              telemetry_link=LinkConfig(delay=DelayModel.uniform(1, 5),
                                                        loss=0.05))
        a = simulate(cfg)
        b = simulate(cfg)
        assert a.trace_hash == b.trace_hash
        assert a.log_hash == b.log_hash

    def test_zero_duration(self, one_joint):
        res = simulate(teleop_scenario(one_joint, duration_s=0.0))
        assert res.control_ticks == 0
        assert res.telemetry_sent == 0 and res.telemetry_delivered == 0
