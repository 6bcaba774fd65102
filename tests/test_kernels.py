"""The float geometry kernels, the mocap filter mean, the control tick's
leader and PD step, the empirical-delay grid and the emulator's random
draws against their numpy versions (``numpy_oracle``, ``np.linspace``,
``Generator.random`` and ``uniform``), byte for byte, ``dot`` against the
left-to-right sum it promises, and the transforms numpy has no twin for
against their bounds."""

import math
import re
import struct
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import numpy_oracle as oracle
from mocap_oracle import output
from twinsync import mocap
from twinsync.geometry import (IDENTITY_QUAT, ZERO3, Pose, _rotate, dot, floats, norm,
                               quat_conjugate, quat_from_axis_angle, quat_multiply, twist,
                               unit, unit_quat)
from twinsync.mocap import FilterConfig, MocapFilter, PoseStatus
from twinsync.network import delay_ms, doubles, normal
from twinsync.scenario import DelayModel, LeaderConfig, _linspace
from twinsync.teleop import (FollowerState, LeaderSample, leader_samples, leader_trajectory,
                             pd_step)
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
    means nothing (an infinite component can turn twist's whole output to
    NaN)."""
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


SEEDS = st.integers(0, 2**128 - 1)
# the largest double below 1, the top of the source's range
TOP = 1.0 - 2.0**-53


@given(seed=SEEDS, n=st.integers(1, 300))
def test_doubles_are_the_generators_random(seed, n):
    # call by call, across block boundaries, and the top 53 bits of each raw
    # PCG64 output: the draws rest on the bit generator and SeedSequence only
    u, rng = doubles(seed), np.random.default_rng(seed)
    raw = np.random.default_rng(seed).bit_generator
    for _ in range(n):
        d = u()
        assert type(d) is float
        assert d == rng.random() == (raw.random_raw() >> 11) * 2.0**-53


def test_doubles_of_a_spawned_seed_sequence():
    child = np.random.SeedSequence(42).spawn(3)[2]
    u, rng = doubles(child), np.random.default_rng(child)
    assert [u() for _ in range(130)] == [rng.random() for _ in range(130)]


@given(seed=SEEDS, lo=st.floats(0.0, 1e6) | st.integers(0, 20),
       span=st.floats(0.0, 1e6) | st.integers(0, 20))
def test_uniform_delay_is_the_generators_uniform(seed, lo, span):
    u, rng = doubles(seed), np.random.default_rng(seed)
    delay = DelayModel.uniform(lo, lo + span)
    for _ in range(70):
        same(np.float64(delay_ms(delay, u)), np.float64(rng.uniform(lo, lo + span)))


def test_constant_delay_draws_nothing():
    def source():
        raise AssertionError("a constant delay drew a double")
    assert delay_ms(DelayModel.constant(3.6), source) == 3.6


def test_empirical_index_stays_below_n():
    # a range stands in for n samples: indexing past its end raises
    for n in range(1, 10**6 + 1):
        assert delay_ms(SimpleNamespace(kind="empirical", params=(range(n),)),
                        lambda: TOP) == n - 1
    assert delay_ms(DelayModel.empirical([4.0, 5.0, 6.0]), lambda: 0.0) == 4.0


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (3.0, 2.0), (-1.0, 1e-4)])
def test_box_muller_moments(mu, sigma):
    # 200,000 seeded draws: the standard error of the mean is 0.0022 sigma,
    # of the standard deviation 0.0016 sigma
    u, drawn = doubles(7), [0]

    def counted():
        drawn[0] += 1
        return u()
    z = np.array([normal(counted, mu, sigma) for _ in range(200_000)])
    assert drawn[0] == 400_000  # exactly two doubles a draw
    assert abs(z.mean() - mu) < 0.01 * sigma
    assert abs(z.std() - sigma) < 0.01 * sigma
    # the tails reach past 4 sigma and stay inside the 8.6 sigma bound at TOP
    assert 4.0 < np.abs(z - mu).max() / sigma <= math.sqrt(-2.0 * math.log(2.0**-53))


UNIT_DOUBLES = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, TOP])


@given(u1=UNIT_DOUBLES, u2=UNIT_DOUBLES, mu=st.floats(-1e3, 1e3), sigma=st.floats(0.0, 1e3))
def test_truncated_normal_delay_is_never_negative(u1, u2, mu, sigma):
    d = delay_ms(DelayModel.normal(mu, sigma), iter([u1, u2]).__next__)
    assert math.isfinite(d) and d >= 0.0
    assert d == max(0.0, normal(iter([u1, u2]).__next__, mu, sigma))


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
def test_rotate(q, v):
    # on the vector as floats, as every caller passes it
    same(*both(lambda q, v: _rotate(q, *floats(v)), oracle.quat_rotate, q, v))


@given(q=vectors(4), axis=vectors(3))
def test_twist(q, axis):
    # about the axis made unit, as the mocap filter takes its up axis
    out = both(lambda q, axis: twist(q, unit(axis)), oracle.twist, q, axis)
    if out is not None:
        same(*out)


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


def oracle_compose(pose, pair):
    """The oracle's ``Pose.compose`` with a raw (translation, rotation)
    pair, not a renormalized pose, on its right."""
    t, q = pair
    o = oracle.Pose(pose.translation, pose.rotation)
    return oracle.Pose(o.translation + oracle.quat_rotate(o.rotation, t),
                       oracle.quat_multiply(o.rotation, q))


def compose_raised(pose, pair):
    """Whether ``pose.compose(pair)`` and the oracle's both raise
    ValueError; if neither does, their poses match byte for byte."""
    out = both(pose.compose, partial(oracle_compose, pose), pair)
    if out is None:
        return True
    got, want = out
    same(got.translation, want.translation)
    same(got.rotation, want.rotation)
    return False


def motion(kind, axis, value):
    """A joint's motion at ``value`` as the kinematics walk takes it, a raw
    (translation, rotation) pair: a revolute joint's ``quat_from_axis_angle``
    after ``Pose``'s renormalization, or a prismatic joint's shift along
    its axis."""
    if kind == "revolute":
        return ZERO3, unit_quat(quat_from_axis_angle(axis, value))
    return tuple(a * value for a in axis), IDENTITY_QUAT


AXES = st.tuples(*[st.floats(-1.0, 1.0) | st.just(-0.0)] * 3).filter(
    lambda a: norm(a) > 1e-3)


@given(t=vectors(3), q=UNIT, kind=st.sampled_from(["revolute", "prismatic"]),
       axis=AXES, value=st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0]))
def test_pose_compose_takes_joint_motions(t, q, kind, axis, value):
    assert not compose_raised(Pose(t, q), motion(kind, axis, value))


SIGNED_ZEROS = Pose((-0.0, 0.0, -0.0), (1.0, -0.0, 0.0, -0.0))
TURNED = Pose((0.3, -0.2, 0.1), (0.6, 0.0, -0.8, 0.0))
# raw pairs of the shapes of joint motions, with signed zeros;
# (pair, how the rotation product's norm stands): "unit" within 1e-12 of
# 1, "off" further, which compose must renormalize, or "zero" (or with a
# norm that underflows to zero), which it must reject
RAW_PAIRS = {
    "identity": ((ZERO3, IDENTITY_QUAT), "unit"),
    "signed-zero-shift": (((-0.0, -0.0, 0.0), IDENTITY_QUAT), "unit"),
    "shift": (((-0.0, 0.5, -0.0), IDENTITY_QUAT), "unit"),
    "negated-identity": ((ZERO3, (-1.0, 0.0, -0.0, 0.0)), "unit"),
    "turn": ((ZERO3, motion("revolute", (0.0, -0.0, 1.0), -0.7)[1]), "unit"),
    "long-rotation": (((0.1, -0.0, 0.3), (1.0 + 1e-9, 0.0, 0.0, 0.0)), "off"),
    "short-rotation": ((ZERO3, (0.6, 0.0, 0.8 - 3e-12, -0.0)), "off"),
    "zero-rotation": ((ZERO3, (0.0, -0.0, 0.0, -0.0)), "zero"),
    "underflowing-rotation": (((1.0, 2.0, 3.0), (1e-200, 0.0, 0.0, 0.0)), "zero"),
}


@pytest.mark.parametrize("pose", [SIGNED_ZEROS, TURNED], ids=["signed-zeros", "turned"])
@pytest.mark.parametrize("name", sorted(RAW_PAIRS))
def test_pose_compose_takes_raw_pairs(pose, name):
    pair, product = RAW_PAIRS[name]
    if product != "zero":
        off = abs(norm(quat_multiply(pose.rotation, pair[1])) - 1.0) > 1e-12
        assert off == (product == "off")
    assert compose_raised(pose, pair) == (product == "zero")


def three_call_inverse(pose):
    """``Pose.inverse`` as ``quat_conjugate``, ``_rotate`` and ``unit_quat``."""
    qi = quat_conjugate(pose.rotation)
    x, y, z = _rotate(qi, *pose.translation)
    return Pose.of((-x, -y, -z), unit_quat(qi))


SIGNED = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
# raw rotations: near unit, off unit, zero, underflowing or overflowing norms
RAW_ROTATIONS = (st.tuples(SIGNED, SIGNED, SIGNED, SIGNED)
                 | UNIT.map(lambda q: tuple(q / np.linalg.norm(q)))
                 | st.sampled_from([(0.0, -0.0, 0.0, -0.0), (1e-200, 0.0, -0.0, 0.0),
                                    (1e200, 1e200, 0.0, -0.0), (-1.0, 0.0, -0.0, 0.0)]))


@given(t=st.tuples(SIGNED, SIGNED, SIGNED), q=RAW_ROTATIONS)
@settings(max_examples=300)
def test_pose_inverse_is_the_three_calls(t, q):
    pose = Pose.of(t, q)
    try:
        want = three_call_inverse(pose)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            pose.inverse()
        return
    got = pose.inverse()
    assert struct.pack("<3d4d", *got.translation, *got.rotation) == \
        struct.pack("<3d4d", *want.translation, *want.rotation)


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
        outs = [output(f, p) for p in packets]
        return outs, sum(o is not None and o.status is PoseStatus.RELOCATED for o in outs)

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
    return LeaderConfig(row(-3.0, 3.0), row(-2.0, 2.0), row(0.0, 50.0), row(-7.0, 7.0))


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
    return (*vecs, draw(GAINS), draw(GAINS), draw(st.floats(1e-6, 1.0) | st.just(1e-3)))


@given(pd_inputs())
# finite inputs whose sums overflow, which the one-sum finite check passes
# on to the value-by-value check
@example(([1e308, 1e308], [0.0, 0.0], [-1e308, -1e308], [0.0, 0.0], [1e308, 1e308],
          1.0, 1.0, 1e-3))
@example(([1.0], [0.0], [1e308], [0.0], [1e308], 1e300, 0.0, 1e-3))
def test_pd_step_matches_numpy(inputs):
    lq, ldq, q, dq, ext, kp, kd, dt = inputs
    tau, follower = pd_step(LeaderSample(lq, ldq, 0.08, 0.0), FollowerState(q, dq),
                            kp, kd, ext, dt)
    # the oracle broadcasts the scalar gains over the joint arrays
    with np.errstate(all="ignore"):
        want = oracle.pd_step(*map(np.array, (lq, ldq, q, dq, kp, kd, ext)), dt)
    for got, w in zip((tau, follower.q, follower.dq), want):
        same(got, w)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("vector", ["lq", "q", "ext"])
@pytest.mark.parametrize("at", [0, 2])
@pytest.mark.parametrize("fill", [0.5, 1e308])
def test_pd_step_rejects_non_finite_input(bad, vector, at, fill):
    # with 0.5 the sum alone sees the bad value; with 1e308 the other values
    # overflow the sum as well, and the value-by-value check must see it
    given = {name: [fill] * 3 for name in ("lq", "ldq", "q", "dq", "ext")}
    given[vector][at] = bad
    with pytest.raises(ValueError, match="non-finite input"):
        pd_step(LeaderSample(given["lq"], given["ldq"], 0.08, 0.0),
                FollowerState(given["q"], given["dq"]), 1.0, 1.0, given["ext"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pd_step_passes_non_finite_velocities_through(bad):
    # ldq and dq are not checked: a non-finite one runs into the result
    lq, ldq, q, dq, ext = [0.5, 1.0], [bad, 0.0], [0.0, 0.2], [0.0, bad], [0.0, 0.1]
    tau, follower = pd_step(LeaderSample(lq, ldq, 0.08, 0.0), FollowerState(q, dq),
                            10.0, 2.0, ext)
    with np.errstate(all="ignore"):
        want = oracle.pd_step(*map(np.array, (lq, ldq, q, dq, 10.0, 2.0, ext)), 1e-3)
    for got, w in zip((tau, follower.q, follower.dq), want):
        same(got, w)
