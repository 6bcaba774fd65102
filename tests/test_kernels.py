"""The float geometry kernels, the mocap filter mean, the control tick's
leader and PD step and the empirical-delay grid against their numpy
versions (``numpy_oracle``, ``np.linspace``), byte for byte, and ``dot``
against the left-to-right sum it promises."""

import struct
from fractions import Fraction

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import numpy_oracle as oracle
from twinsync import mocap
from twinsync.geometry import (Pose, dot, norm, quat_conjugate, quat_multiply,
                               quat_rotate, swing_twist)
from twinsync.mocap import FilterConfig, MocapFilter
from twinsync.scenario import _linspace
from twinsync.teleop import (ControllerGains, FollowerState, LeaderProfile, LeaderSample,
                             leader_samples, leader_trajectory, pd_step)
from twinsync.wire import MocapPacket

# zeros of both signs, subnormals, tiny, ordinary and huge magnitudes,
# whose products underflow or overflow
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-160, 1.0, -1.0,
           1e150, -1e160, 1e300, -1.7976931348623157e308]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)
INTS = st.integers(-1000, 1000)


def vectors(n):
    """float64 arrays, int64 arrays and tuples of Python ints of length n."""
    return (st.lists(FLOATS, min_size=n, max_size=n).map(np.array)
            | st.lists(INTS, min_size=n, max_size=n).map(np.array)
            | st.tuples(*[INTS] * n))


def same(got, want):
    """Equal dtype, shape and bytes. A NaN counts as equal to any NaN: its
    sign bit comes from whichever operand the machine code puts first, and
    means nothing (an infinite component can turn swing_twist's whole output
    to NaN)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    if got.dtype.kind == "f":
        assert (np.isnan(got) == np.isnan(want)).all()
        got, want = np.where(np.isnan(got), np.nan, got), np.where(np.isnan(want), np.nan, want)
    assert got.tobytes() == want.tobytes()


def both(fn, oracle_fn, *args):
    """Results of both, or the exception type both raise."""
    with np.errstate(all="ignore"):
        try:
            want = oracle_fn(*args)
        except ValueError:
            with pytest.raises(ValueError):
                fn(*args)
            return None
        return fn(*args), want


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(1, 9))
    return tuple(draw(st.lists(FLOATS, min_size=n, max_size=n)) for _ in range(2))


@given(vector_pairs())
def test_dot_is_the_sequential_sum(pair):
    a, b = pair
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total = total + x * y
    with np.errstate(all="ignore"):
        want = oracle.dot(a, b)
    same(np.float64(dot(a, b)), np.float64(total))
    same(np.float64(dot(a, b)), want)


def test_dot_does_not_fuse_multiply_and_add():
    a, b = (0.1, 0.2, 0.7), (0.4, 0.5, 0.6)
    # the chain fma(a2, b2, fma(a1, b1, a0*b0)), each step rounded once
    fused = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        fused = float(Fraction(x) * Fraction(y) + Fraction(fused))
    assert struct.pack("<d", fused) == struct.pack("<d", 0.5599999999999999)
    assert struct.pack("<d", dot(a, b)) == struct.pack("<d", 0.56)


def test_dot_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        dot((1.0, 2.0, 3.0), (1.0, 2.0))


@given(lo=FLOATS | INTS, hi=FLOATS | INTS, count=st.integers(0, 40))
@example(lo=0.12, hi=2.04, count=199)
@example(lo=0.5, hi=2.0, count=1)
@example(lo=1.5, hi=1.5, count=5)
@example(lo=-0.0, hi=-0.0, count=3)
@example(lo=0.0, hi=5e-324, count=4)  # the step underflows to 0
def test_empirical_grid_is_linspace(lo, hi, count):
    with np.errstate(all="ignore"):
        want = np.linspace(lo, hi, count)
        same(np.array(_linspace(lo, hi, count), dtype=float), want)


@given(v=vectors(3) | vectors(4) | st.lists(FLOATS, min_size=0, max_size=8))
def test_norm(v):
    with np.errstate(all="ignore"):
        same(np.float64(norm(v)), oracle.norm(v))


@given(a=vectors(4), b=vectors(4))
def test_quat_multiply(a, b):
    same(*both(quat_multiply, oracle.quat_multiply, a, b))


@given(q=vectors(4))
def test_quat_conjugate(q):
    same(*both(quat_conjugate, oracle.quat_conjugate, q))


@given(q=vectors(4), v=vectors(3))
def test_quat_rotate(q, v):
    same(*both(quat_rotate, oracle.quat_rotate, q, v))


@given(q=vectors(4), axis=vectors(3))
def test_swing_twist(q, axis):
    out = both(swing_twist, oracle.swing_twist, q, axis)
    if out is not None:
        (swing, twist), (want_swing, want_twist) = out
        same(swing, want_swing)
        same(twist, want_twist)


@given(t=vectors(3), q=vectors(4))
def test_pose_normalisation(t, q):
    out = both(Pose, oracle.Pose, t, q)
    if out is not None:
        got, want = out
        same(got.translation, want.translation)
        same(got.rotation, want.rotation)


UNIT = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 1e-3)


@given(ta=vectors(3), qa=UNIT, tb=vectors(3), qb=UNIT)
def test_pose_compose_and_inverse(ta, qa, tb, qb):
    with np.errstate(all="ignore"):
        a, b = Pose(ta, qa), Pose(tb, qb)
        oa, ob = oracle.Pose(ta, qa), oracle.Pose(tb, qb)
        for got, want in ((a.compose(b), oa.compose(ob)), (a.inverse(), oa.inverse()),
                          (a.inverse().compose(b), oa.inverse().compose(ob))):
            same(got.translation, want.translation)
            same(got.rotation, want.rotation)


# one frame of a tracker stream: ("move", noise) stays near the current
# spot, ("jump", noise) moves the spot 0.5 m, beyond the velocity gate, so
# the filter holds and then relocates; ("lost", _) is an untracked frame
NOISE = st.tuples(*[st.floats(-1e-3, 1e-3)] * 3)
STEPS = st.lists(st.tuples(st.sampled_from(["move", "move", "move", "jump", "lost"]),
                           NOISE), min_size=1, max_size=60)


@given(window=st.integers(5, 15), stable_count=st.integers(2, 12),
       start=st.tuples(*[st.floats(-50.0, 50.0)] * 3), steps=STEPS,
       quat=UNIT)
@settings(max_examples=150, deadline=None)
# a stream that relocates once, so every run compares a relocation mean
@example(window=5, stable_count=3, start=(0.3, -0.2, 0.1),
         steps=[("move", (1e-4, -2e-4, 3e-4))] * 6 + [("jump", (0.0, 0.0, 0.0))]
         + [("move", (-1e-4, 1e-4, 0.0))] * 4, quat=[0.9, 0.1, -0.2, 0.3])
def test_filter_matches_np_mean(window, stable_count, start, steps, quat):
    cfg = FilterConfig(window=window, stable_count=stable_count)
    quat = np.asarray(quat) / np.linalg.norm(quat)
    spot = np.asarray(start)
    packets = []
    for i, (kind, noise) in enumerate(steps):
        if kind == "jump":
            spot = spot + 0.5
        pos = spot + np.asarray(noise)
        packets.append(MocapPacket(1, i, i * 10_000_000, pos, quat,
                                   0 if kind == "lost" else 1))

    def run():
        f = MocapFilter(cfg)
        return [f.process(p) for p in packets], f.relocations

    got, relocations = run()
    with mock.patch.object(mocap, "_mean", oracle.filter_mean):
        want, want_relocations = run()
    assert relocations == want_relocations
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert (g.status, g.time_ns) == (w.status, w.time_ns)
            same(g.position, w.position)
            same(g.rotation, w.rotation)


@pytest.mark.parametrize("n", range(2, 16))
def test_mean_of_random_windows(n):
    rng = np.random.default_rng(n)
    signed_zeros = np.array([[-0.0, 0.0, -0.0]] * n)
    same(mocap._mean(signed_zeros.tolist()), np.mean(signed_zeros, axis=0))
    for scale in (1e-6, 1.0, 1e3):
        for _ in range(500):
            rows = rng.normal(size=(n, 3)) * scale
            same(mocap._mean(rows.tolist()), np.mean(rows, axis=0))


@st.composite
def leader_profiles(draw):
    dof = draw(st.integers(1, 9))

    def row(lo, hi):
        return draw(st.lists(st.floats(lo, hi) | st.sampled_from([0.0, -0.0]),
                             min_size=dof, max_size=dof))
    return LeaderProfile(row(-3.0, 3.0), row(-2.0, 2.0), row(0.0, 50.0), row(-7.0, 7.0))


# 200 ticks cross the leader's 64-tick chunks
@given(profile=leader_profiles(), n=st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_leader_samples_match_numpy(profile, n):
    rows = list(leader_samples(profile, n, 1_000_000))
    assert len(rows) == n
    for k, row in enumerate(rows):
        q, dq = oracle.leader_trajectory(k * 1_000_000 / 1e9, profile)
        same(row.positions, q)
        same(row.velocities, dq)


@given(profile=leader_profiles(), t=st.floats(0.0, 1e5))
def test_leader_trajectory_matches_numpy(profile, t):
    q, dq = oracle.leader_trajectory(t, profile)
    row = leader_trajectory(t, profile)
    same(row.positions, q)
    same(row.velocities, dq)


GAINS = st.floats(0.0, 1e6) | st.sampled_from([0.0, 5e-324, 1e300])


@st.composite
def pd_inputs(draw):
    dof = draw(st.integers(1, 9))
    vecs = [draw(st.lists(FLOATS, min_size=dof, max_size=dof)) for _ in range(5)]
    gains = [draw(st.lists(GAINS, min_size=dof, max_size=dof)) for _ in range(2)]
    return (*vecs, *gains, draw(st.floats(1e-6, 1.0) | st.just(1e-3)))


@given(pd_inputs())
def test_pd_step_matches_numpy(inputs):
    lq, ldq, q, dq, ext, kp, kd, dt = inputs
    tau, follower = pd_step(LeaderSample(lq, ldq, 0.08, 0.0), FollowerState(q, dq),
                            ControllerGains(kp, kd), ext, dt)
    with np.errstate(all="ignore"):
        want = oracle.pd_step(*map(np.array, (lq, ldq, q, dq, kp, kd, ext)), dt)
    for got, w in zip((tau, follower.q, follower.dq), want):
        same(got, w)
