import itertools
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mocap_oracle import EagerMocapFilter, counting_relocations, output
from numpy_oracle import quat_to_matrix
from twinsync.geometry import quat_from_axis_angle, quat_multiply
from twinsync.mocap import FilterConfig, MocapFilter, PoseStatus
from twinsync.wire import MocapPacket

UP = np.array([0.0, 0.0, 1.0])
FRAME_NS = 10_000_000
IDENT = np.array([1.0, 0.0, 0.0, 0.0])


def packet(t_ns, pos, quat=IDENT, quality=1, object_id=0):
    return MocapPacket(object_id, 0, t_ns, pos, quat, quality)


def feed(filt, positions, t0=0, dt_ns=10_000_000, quality=None):
    outs = []
    for i, p in enumerate(positions):
        q = 1 if quality is None else quality[i]
        outs.append(output(filt, packet(t0 + i * dt_ns, p, quality=q)))
    return outs


class TestSlidingMean:
    """The accepted-sample window mean inside MocapFilter."""

    def test_constant_identity(self):
        f = MocapFilter(FilterConfig(window=5))
        outs = feed(f, [[1.0, 2.0, 3.0]] * 10)
        assert np.allclose(outs[-1].position, [1.0, 2.0, 3.0])

    def test_ramp_lag(self):
        # arithmetic ramp k*delta: steady-state mean lags by (w-1)/2 steps
        f = MocapFilter(FilterConfig(window=5))
        delta = 0.001  # 0.1 m/s at 100 Hz, inside the default 2 m/s gate
        outs = feed(f, [[k * delta, 0, 0] for k in range(50)])
        assert all(o.status is not PoseStatus.HOLDING for o in outs)
        assert abs(outs[-1].position[0] - (49 - 2) * delta) < 1e-12

    def test_first_sample_passthrough(self):
        out = output(MocapFilter(), packet(0, [7.0, 0, 0]))
        assert np.array_equal(out.position, [7.0, 0, 0])
        assert out.status is PoseStatus.WARMING_UP

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            MocapFilter().process(packet(0, [np.nan, 0, 0]))


class TestConstrainUpright:
    """The filter's rotation: the twist of the frame's quaternion about the
    up axis, its swing discarded."""

    def upright(self, q):
        f = MocapFilter(FilterConfig(up_axis=UP))
        return output(f, packet(0, [0.0, 0.0, 0.0], q)).rotation

    def test_pure_yaw_unchanged(self):
        q = quat_from_axis_angle(UP, np.deg2rad(30))
        assert np.allclose(self.upright(q), q, atol=1e-12)

    def test_pure_pitch_becomes_identity(self):
        q = quat_from_axis_angle([0, 1, 0], np.deg2rad(10))
        out = self.upright(q)
        assert np.allclose(np.abs(out[0]), 1.0, atol=1e-9)

    def test_composite_keeps_yaw(self):
        # heading-extraction oracle: yaw from the rotated x axis projection
        yaw = quat_from_axis_angle(UP, np.deg2rad(30))
        pitch = quat_from_axis_angle([0, 1, 0], np.deg2rad(10))
        q = quat_multiply(yaw, pitch)
        out = self.upright(q)
        x_world = quat_to_matrix(q) @ np.array([1.0, 0, 0])
        heading = np.arctan2(x_world[1], x_world[0])
        expected = quat_from_axis_angle(UP, heading)
        assert np.allclose(out, expected, atol=1e-9) or \
            np.allclose(out, -expected, atol=1e-9)

    def test_yaw_only_invariant_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            out = self.upright(q)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9
            assert abs(out[1]) < 1e-9 and abs(out[2]) < 1e-9


class TestVelocityGate:
    """The gate inside ``MocapFilter.process``: after a first frame at the
    origin, the next is accepted (WARMING_UP) when its implied speed is
    within vmax, and held (HOLDING) when it is not."""

    def second(self, pos, dt_ns=FRAME_NS, vmax=0.5):
        f = MocapFilter(FilterConfig(vmax=vmax))
        assert f.process(packet(0, [0.0, 0.0, 0.0])) is PoseStatus.WARMING_UP
        return f.process(packet(dt_ns, pos))

    def test_zero_displacement(self):
        assert self.second([0.0, 0.0, 0.0]) is PoseStatus.WARMING_UP

    def test_big_jump_dropped(self):
        # 1 m in 10 ms = 100 m/s >> 0.5 m/s
        assert self.second([1.0, 0.0, 0.0]) is PoseStatus.HOLDING

    def test_boundary_inclusive(self):
        # 5 mm in 10 ms is exactly 0.5 m/s
        assert self.second([0.005, 0.0, 0.0]) is PoseStatus.WARMING_UP
        assert self.second([-0.005, 0.0, 0.0]) is PoseStatus.WARMING_UP
        assert self.second([0.0050000000000001, 0.0, 0.0]) is PoseStatus.HOLDING

    def test_bad_dt(self):
        # a frame at the previous one's time takes dt = 1e-12 s, not 0, and
        # raises nothing: it passes only within vmax * 1e-12 s of the last
        assert self.second([0.0, 0.0, 0.0], dt_ns=0) is PoseStatus.WARMING_UP
        assert self.second([1e-13, 0.0, 0.0], dt_ns=0) is PoseStatus.WARMING_UP
        assert self.second([1e-6, 0.0, 0.0], dt_ns=0) is PoseStatus.HOLDING


class TestPipeline:
    def cfg(self, **kw):
        defaults = dict(window=5, vmax=0.5, stable_count=3, stable_tol=0.01)
        defaults.update(kw)
        return FilterConfig(**defaults)

    def test_clean_constant_stream(self):
        f = MocapFilter(self.cfg())
        outs = feed(f, [[1.0, 2.0, 0.5]] * 10)
        assert outs[-1].status is PoseStatus.STABLE
        assert np.allclose(outs[-1].position, [1.0, 2.0, 0.5])
        assert outs[0].status is PoseStatus.WARMING_UP

    def test_lost_frames_hold(self):
        f = MocapFilter(self.cfg())
        feed(f, [[1.0, 0, 0]] * 6)
        out = output(f, packet(100_000_000, [9, 9, 9], quality=0))
        assert out.status is PoseStatus.HOLDING
        assert np.allclose(out.position, [1.0, 0, 0])

    def test_occlusion_then_relocation(self):
        # object moves while occluded: frames at the new position are gated,
        # after stable_count consistent frames the filter relocates
        f = MocapFilter(self.cfg())
        feed(f, [[0.0, 0, 0]] * 6)
        outs = feed(f, [[2.0, 0, 0]] * 3, t0=60_000_000)
        assert outs[0].status is PoseStatus.HOLDING
        assert outs[1].status is PoseStatus.HOLDING
        assert outs[2].status is PoseStatus.RELOCATED
        assert np.allclose(outs[2].position, [2.0, 0, 0])
        # subsequent frames at the new position are accepted normally
        assert f.process(packet(100_000_000, [2.0, 0, 0])) is PoseStatus.STABLE

    def test_single_outlier_ages_out(self):
        f = MocapFilter(self.cfg())
        feed(f, [[0.0, 0, 0]] * 6)
        assert f.process(packet(60_000_000, [5.0, 0, 0])) is PoseStatus.HOLDING  # gated
        outs = feed(f, [[0.0, 0, 0]] * 5, t0=70_000_000)
        assert PoseStatus.RELOCATED not in [o.status for o in outs]
        assert outs[-1].status is PoseStatus.STABLE

    def test_alternating_never_relocates(self):
        f = MocapFilter(self.cfg())
        feed(f, [[0.0, 0, 0]] * 6)
        pts = [[3.0, 0, 0], [6.0, 0, 0]] * 6
        outs = feed(f, pts, t0=60_000_000)
        assert PoseStatus.RELOCATED not in [o.status for o in outs]

    def test_time_regression_rejected(self):
        # an older frame, as a reordering link delivers it, is dropped and
        # counted, returns None and leaves the output what it was
        f = MocapFilter(self.cfg())
        before = output(f, packet(100, [0, 0, 0]))
        assert f.process(packet(50, [1.0, 0, 0])) is None
        assert f.last_output is before
        assert f.stale == 1
        out = output(f, packet(10_000_100, [0, 0, 0]))
        assert out.time_ns == 10_000_100 and f.stale == 1

    def test_step_latency_exactly_w_samples(self):
        # a gate-passing step reaches the new value in exactly w samples
        for w in (5, 9, 15):
            f = MocapFilter(FilterConfig(window=w, vmax=1000.0,
                                         stable_count=3, stable_tol=0.01))
            feed(f, [[0.0, 0, 0]] * (w + 2))
            outs = feed(f, [[1.0, 0, 0]] * w, t0=10**9)
            assert abs(outs[-1].position[0] - 1.0) < 1e-12
            assert outs[-2].position[0] < 1.0

    def test_output_is_convex_combination(self):
        rng = np.random.default_rng(8)
        f = MocapFilter(self.cfg(vmax=1000.0))
        lo, hi = np.full(3, np.inf), np.full(3, -np.inf)
        for i in range(200):
            p = rng.uniform(-1, 1, 3)
            lo, hi = np.minimum(lo, p), np.maximum(hi, p)
            out = output(f, packet(i * 10_000_000, p))
            assert np.all(out.position >= lo - 1e-12)
            assert np.all(out.position <= hi + 1e-12)


class OracleRelocator:
    """Independent transcription of the gate + stable-buffer rules."""

    def __init__(self, vmax, dt, k, tol):
        self.vmax, self.dt, self.k, self.tol = vmax, dt, k, tol
        self.accepted = None
        self.buffer = []
        self.events = []

    def step(self, idx, pos):
        pos = np.asarray(pos, dtype=float)
        if self.accepted is None or \
                np.linalg.norm(pos - self.accepted) / self.dt <= self.vmax:
            self.accepted = pos
            self.buffer = []
            return
        self.buffer.append(pos)
        self.buffer = self.buffer[-self.k:]
        if len(self.buffer) == self.k and all(
                np.linalg.norm(a - b) <= self.tol
                for a in self.buffer for b in self.buffer):
            self.events.append(idx)
            self.accepted = np.mean(self.buffer, axis=0)
            self.buffer = []


def test_relocation_matches_oracle_exhaustively():
    # all drop/accept sequences of length <= 12 over a 2-position alphabet
    A, B = np.array([0.0, 0, 0]), np.array([10.0, 0, 0])
    k = 3
    dt_ns = 10_000_000
    for length in range(1, 13):
        for seq in itertools.product((A, B), repeat=length):
            f = MocapFilter(FilterConfig(window=5, vmax=0.5,
                                         stable_count=k, stable_tol=0.01))
            oracle = OracleRelocator(vmax=0.5, dt=dt_ns / 1e9, k=k, tol=0.01)
            events = []
            for i, p in enumerate(seq):
                if f.process(packet(i * dt_ns, p)) is PoseStatus.RELOCATED:
                    events.append(i)
                oracle.step(i, p)
            assert events == oracle.events, (length, seq)


def packed(out):
    """A filter output as bytes, or None."""
    if out is None:
        return None
    return struct.pack("<3d4dq", *out.position, *out.rotation, out.time_ns), out.status


QUATS = [(1.0, 0.0, 0.0, 0.0), (1.0, -0.0, 0.0, -0.0), (-1.0, 0.0, -0.0, 0.0),
         tuple(quat_from_axis_angle((0.0, 0.0, 1.0), 0.9)),
         tuple(quat_multiply(quat_from_axis_angle((0.0, 1.0, 0.0), 0.3),
                             quat_from_axis_angle((0.0, 0.0, 1.0), -2.0))),
         (0.0, 1.0, 0.0, 0.0)]  # a half turn about x: the degenerate twist
# near-zero offsets, signed zeros and the smallest subnormals included, so
# that a relocation can average to a -0.0
OFFSET = st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | st.floats(-2e-3, 2e-3)
# one frame: "move" near the current spot, "jump" 1 m on, beyond the gate,
# "rest" exactly on the spot, "lost" untracked, "stale" older than the last
# frame, "dup" at the last frame's time; whether a second filter reads it
FRAMES = st.lists(st.tuples(
    st.sampled_from(["move", "move", "rest", "rest", "jump", "lost", "stale", "dup"]),
    st.tuples(OFFSET, OFFSET, OFFSET), st.sampled_from(range(len(QUATS))),
    st.booleans()), min_size=1, max_size=50)
SPOT = st.tuples(*[st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)] * 3)


@given(window=st.integers(5, 15), stable_count=st.integers(2, 6), spot=SPOT,
       frames=FRAMES)
@settings(max_examples=200, deadline=None)
# a relocation mean with a -0.0, which the window [mean] would average to +0.0
@example(window=5, stable_count=3, spot=(0.0, -1.0, 0.0),
         frames=[("rest", (0.0,) * 3, 0, True), ("jump", (0.0, -5e-324, 0.0), 0, False),
                 ("rest", (0.0,) * 3, 0, False), ("rest", (0.0,) * 3, 0, False),
                 ("lost", (0.0,) * 3, 0, True)])
# a relocation before warm-up, then a WARMING_UP frame
@example(window=9, stable_count=2, spot=(0.5, -0.0, 0.0),
         frames=[("rest", (0.0,) * 3, 1, True), ("jump", (0.0,) * 3, 3, True),
                 ("rest", (0.0,) * 3, 4, False), ("move", (1e-3, 0.0, -0.0), 2, True)])
def test_state_keeping_filter_matches_the_eager_one(window, stable_count, spot, frames):
    cfg = FilterConfig(window=window, vmax=0.5, stable_count=stable_count, stable_tol=0.01)
    ref, filt, sparse = EagerMocapFilter(cfg), MocapFilter(cfg), MocapFilter(cfg)
    relocations = Counter()
    process = counting_relocations(MocapFilter.process, relocations)
    t_ns = 0
    for i, (kind, offset, quat, read) in enumerate(frames):
        if kind == "jump":
            spot = tuple(x + 1.0 for x in spot)
        if kind == "stale":
            time_ns = t_ns - FRAME_NS // 2
        elif kind == "dup":
            time_ns = t_ns
        else:
            t_ns = time_ns = t_ns + FRAME_NS
        pos = spot if kind == "rest" else tuple(x + d for x, d in zip(spot, offset))
        pkt = MocapPacket(1, i, time_ns, pos, QUATS[quat], 0 if kind == "lost" else 1)
        stale = ref.stale
        want = ref.process(pkt)
        status = (process(filt, pkt), process(sparse, pkt))
        # the eager filter returns its unchanged output for a stale frame
        assert status == ((None if want is None or ref.stale > stale else want.status),) * 2
        assert packed(filt.last_output) == packed(want)
        if read:
            assert packed(sparse.last_output) == packed(want)
        for f in (filt, sparse):
            assert (f.stale, relocations[f]) == (ref.stale, ref.relocations)
    assert packed(sparse.last_output) == packed(ref.last_output)
