import itertools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twinsync.geometry import ZERO3, Pose, dot, quat_from_axis_angle, unit
from twinsync.grasp import (GRAVITY, GROUND_HEIGHT, AssetSource, AssetTracker,
                            FallbackState, GraspConfig, GraspPhase, GripperTracker,
                            fallback_step)
from twinsync.mocap import FilteredPose, PoseStatus

IDENT = np.array([1.0, 0.0, 0.0, 0.0])


def run_widths(widths, dt=1.0, config=None):
    """Feed a width sequence, deriving d_width by finite difference."""
    tr = GripperTracker(config)
    phases = []
    prev = widths[0]
    for w in widths:
        phases.append(tr.step(w, (w - prev) / dt))
        prev = w
    return phases, tr


class TestGripperTracker:
    def test_full_closure_never_grasps(self):
        # monotone close all the way to zero: nothing was caught
        widths = list(np.linspace(0.08, 0.0, 17)) + [0.0] * 10
        phases, tr = run_widths(widths)
        assert GraspPhase.GRASPED not in phases
        assert tr.phase is GraspPhase.IDLE

    def test_stall_mid_close_grasps(self):
        # close from 0.08, stall at 0.041 for the required count
        widths = list(np.linspace(0.08, 0.041, 9)) + [0.041] * 6
        phases, tr = run_widths(widths)
        assert tr.phase is GraspPhase.GRASPED
        assert tr.grasp_width == 0.041
        # exactly stall_count consecutive stalled samples were needed
        assert phases[-2] is GraspPhase.GRASPED
        assert phases[-3] is GraspPhase.CLOSING

    def test_release_on_reopen(self):
        widths = list(np.linspace(0.08, 0.041, 9)) + [0.041] * 6
        _, tr = run_widths(widths)
        assert tr.step(0.042, 0.001) is GraspPhase.GRASPED  # within release_eps
        assert tr.step(0.044, 0.002) is GraspPhase.IDLE
        assert tr.grasp_width is None

    def test_opening_aborts_closing(self):
        tr = GripperTracker()
        tr.step(0.08, -0.01)
        assert tr.phase is GraspPhase.CLOSING
        assert tr.step(0.081, 0.01) is GraspPhase.IDLE

    def test_interrupted_stall_resets_counter(self):
        tr = GripperTracker(GraspConfig(stall_count=3))
        tr.step(0.08, -0.01)
        tr.step(0.05, 0.0)
        tr.step(0.05, 0.0)
        tr.step(0.04, -0.01)  # moving again: counter must restart
        tr.step(0.04, 0.0)
        tr.step(0.04, 0.0)
        assert tr.phase is GraspPhase.CLOSING
        assert tr.step(0.04, 0.0) is GraspPhase.GRASPED

    def test_rejects_bad_samples(self):
        tr = GripperTracker()
        with pytest.raises(ValueError):
            tr.step(-0.01, 0.0)
        with pytest.raises(ValueError):
            tr.step(np.nan, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GraspConfig(stall_eps=0.0)
        with pytest.raises(ValueError):
            GraspConfig(stall_count=0)


class OracleGraspAutomaton:
    """Independent three-state transcription of the grasp rules."""

    def __init__(self, stall_eps=1e-3, stall_count=5, closed=1e-3, release=2e-3):
        self.eps, self.m, self.closed, self.release = \
            stall_eps, stall_count, closed, release
        self.state = "idle"
        self.n = 0
        self.gw = None

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
        else:
            if w > self.gw + self.release:
                self.state, self.gw = "idle", None
        return self.state


def test_exhaustive_width_sequences_match_oracle():
    # every width sequence of length <= 7 over a 5-value alphabet; the
    # 0.0005 spacing straddles the stall threshold in both directions
    alphabet = (0.0, 0.0005, 0.02, 0.04, 0.08)
    names = {GraspPhase.IDLE: "idle", GraspPhase.CLOSING: "closing",
             GraspPhase.GRASPED: "grasped"}
    cfg = GraspConfig(stall_count=2)
    for length in range(1, 8):
        for seq in itertools.product(alphabet, repeat=length):
            tr = GripperTracker(cfg)
            oracle = OracleGraspAutomaton(stall_count=2)
            prev = seq[0]
            for w in seq:
                got = tr.step(w, w - prev)
                want = oracle.step(w, w - prev)
                assert names[got] == want, seq
                prev = w


class TestFallback:
    def test_free_fall_displacement_exact(self):
        s = FallbackState([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        for _ in range(100):
            s = fallback_step(s, 1e-3)
        # closed form: dz = -g t^2 / 2 with t = 0.1 s
        assert abs(s.position[2] - (1.0 - 0.5 * 9.81 * 0.01)) < 1e-12
        assert abs(s.velocity[2] + 9.81 * 0.1) < 1e-12

    def test_step_size_invariance(self):
        a = FallbackState([0.0, 0.0, 2.0], [0.1, 0.0, 0.0])
        b = a
        for _ in range(50):
            a = fallback_step(a, 2e-3)
        b = fallback_step(b, 0.1)
        assert np.allclose(a.position, b.position, atol=1e-12)
        assert np.allclose(a.velocity, b.velocity, atol=1e-12)

    def test_ground_clamp(self):
        s = FallbackState([0.5, 0.5, 0.01], [0.0, 0.0, 0.0])
        for _ in range(1000):
            s = fallback_step(s, 1e-3)
        assert s.position[2] == 0.0
        assert np.array_equal(s.velocity, np.zeros(3))
        assert np.allclose(s.position[:2], [0.5, 0.5])

    def test_horizontal_velocity_preserved_until_ground(self):
        s = FallbackState([0.0, 0.0, 10.0], [1.0, 0.0, 0.0])
        s = fallback_step(s, 0.5)
        assert abs(s.position[0] - 0.5) < 1e-12
        assert abs(s.velocity[0] - 1.0) < 1e-12

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            fallback_step(FallbackState(np.zeros(3), np.zeros(3)), 0.0)


def generator_fallback_step(state, dt, up_axis):
    """``fallback_step`` in its generator-expression form."""
    up = unit(up_axis)
    fall = 0.5 * GRAVITY * dt * dt
    gdt = GRAVITY * dt
    p = tuple(x + v * dt - fall * u for x, v, u in zip(state.position, state.velocity, up))
    v = tuple(v - gdt * u for v, u in zip(state.velocity, up))
    height = dot(p, up)
    if height < GROUND_HEIGHT:
        p = tuple(x + (GROUND_HEIGHT - height) * u for x, u in zip(p, up))
        v = ZERO3
    return FallbackState(p, v)


SIGNED = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)
UP_AXES = st.tuples(SIGNED, SIGNED, SIGNED).filter(lambda a: dot(a, a) > 1e-6)


@given(position=st.tuples(SIGNED, SIGNED, SIGNED), velocity=st.tuples(SIGNED, SIGNED, SIGNED),
       dt=st.sampled_from([1 / 60, 1e-3]) | st.floats(1e-6, 0.5), up=UP_AXES)
@settings(max_examples=300)
@example(position=(-0.0, 0.0, 0.01), velocity=(0.0, -0.0, -1.0), dt=1 / 60,
         up=(0.0, 0.0, 1.0))  # clamped to the ground
@example(position=(0.3, 0.5, 0.2), velocity=(-0.0, 0.0, 0.0), dt=0.1,
         up=(0.0, -0.6, 0.8))  # tilted, clamped
@example(position=(0.0, -0.0, 5.0), velocity=(-0.0, -0.0, 0.0), dt=1e-3,
         up=(-0.0, 0.0, 2.0))  # free fall, signed zeros kept
def test_fallback_step_matches_the_generator_form(position, velocity, dt, up):
    state = FallbackState(position, velocity)
    got, want = fallback_step(state, dt, up), generator_fallback_step(state, dt, up)
    assert struct.pack("<6d", *got.position, *got.velocity) == \
        struct.pack("<6d", *want.position, *want.velocity)


def stable(pos, t_ns=0):
    return FilteredPose(np.asarray(pos, dtype=float), IDENT,
                        PoseStatus.STABLE, t_ns)


def holding(pos, t_ns=0):
    return FilteredPose(np.asarray(pos, dtype=float), IDENT,
                        PoseStatus.HOLDING, t_ns)


class TestAssetTracker:
    DT = 1.0 / 60.0

    def test_source_priority(self):
        at = AssetTracker("a", Pose([1.0, 0, 0], IDENT))
        grip = Pose([1.0, 0, 0.2], IDENT)
        at.update(True, grip, stable([1.0, 0, 0]), self.DT)
        assert at.source is AssetSource.GRIPPER_ATTACHED
        at.update(False, grip, stable([1.0, 0, 0]), self.DT)
        assert at.source is AssetSource.MOCAP
        at.update(False, grip, holding([1.0, 0, 0]), self.DT)
        assert at.source is AssetSource.PHYSICS_FALLBACK
        at.update(False, grip, None, self.DT)
        assert at.source is AssetSource.PHYSICS_FALLBACK

    def test_rigid_attachment_follows_gripper(self):
        at = AssetTracker("a", Pose([1.0, 0, 0], IDENT))
        base = Pose([1.0, 0, 0.2], IDENT)
        at.update(True, base, None, self.DT)
        pose0 = at.pose
        # translate and yaw the gripper: the asset must move rigidly
        yaw = quat_from_axis_angle([0, 0, 1], np.pi / 2)
        moved = Pose([2.0, 1.0, 0.5], yaw)
        at.update(True, moved, None, self.DT)
        pose1, src = at.pose, at.source
        assert src is AssetSource.GRIPPER_ATTACHED
        offset0 = base.inverse().compose(pose0).translation
        offset1 = moved.inverse().compose(pose1).translation
        assert np.allclose(offset0, offset1, atol=1e-12)

    def test_no_jump_at_any_switch(self):
        # randomized grasp/occlusion schedule: position continuous at the
        # tick where the source changes
        rng = np.random.default_rng(21)
        at = AssetTracker("a", Pose([0.5, 0, 0.3], IDENT))
        last = at.pose.translation
        prev_src = at.source
        grip = Pose([0.5, 0, 0.3], IDENT)
        for k in range(400):
            grasped = bool(rng.random() < 0.3)
            mode = rng.random()
            mocap = None if mode < 0.3 else (
                holding([0.5, 0, 0.3]) if mode < 0.5
                else stable(rng.normal([0.5, 0, 0.3], 0.05)))
            at.update(grasped, grip, mocap, self.DT)
            pose, src = at.pose, at.source
            if src is not prev_src:
                assert np.allclose(pose.translation, last, atol=1e-12), k
            last, prev_src = pose.translation, src

    def test_mocap_blend_converges_to_raw(self):
        at = AssetTracker("a", Pose([0.0, 0, 1.0], IDENT))
        # diverge via fallback, then hand back to a stable mocap stream
        for _ in range(30):
            at.update(False, Pose(), None, self.DT)
        target = stable([0.3, 0.1, 0.8])
        for _ in range(200):
            at.update(False, Pose(), target, self.DT)
            pose, src = at.pose, at.source
        assert src is AssetSource.MOCAP
        assert np.allclose(pose.translation, target.position, atol=1e-12)

    def test_fallback_inherits_velocity(self):
        at = AssetTracker("a", Pose([0.0, 0, 5.0], IDENT))
        at.update(False, Pose(), stable([0.0, 0, 5.0]), self.DT)
        at.update(False, Pose(), stable([0.06, 0, 5.0]), self.DT)
        # tracking lost: fallback starts from the mocap-implied velocity
        at.update(False, Pose(), None, self.DT)
        pose, src = at.pose, at.source
        assert src is AssetSource.PHYSICS_FALLBACK
        at.update(False, Pose(), None, self.DT)
        assert at.pose.translation[0] > pose.translation[0]
        assert at.pose.translation[2] < pose.translation[2]
