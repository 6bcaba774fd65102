import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import numpy_oracle as oracle

from twinsync.network import DatagramLink, StreamLink, Throttle
from twinsync.scenario import DelayModel, LinkConfig

MS = 1_000_000


class TestThrottle:
    def test_1khz_for_one_second(self):
        th = Throttle()
        emissions = []
        for k in range(1000):
            emissions += th.offer(k * MS, k)
        assert 59 <= len(emissions) <= 61
        # each emission is the most recent sample at its tick
        for tick_time, sample in emissions:
            assert sample * MS <= tick_time < (sample + 1) * MS

    def test_10hz_no_duplication(self):
        th = Throttle()
        emissions = []
        for k in range(10):
            emissions += th.offer(k * 100 * MS, k)
        emissions += th.flush(1_000 * MS)
        assert len(emissions) == 10
        assert [s for _, s in emissions] == list(range(10))

    def test_single_sample(self):
        th = Throttle()
        out = th.offer(0, "x")
        out += th.flush(10**9)
        assert len(out) == 1 and out[0][1] == "x"

    def test_non_monotone_rejected(self):
        th = Throttle()
        th.offer(100, 1)
        with pytest.raises(ValueError):
            th.offer(99, 2)

    def test_rate_bound_any_window(self):
        # random arrivals, rate over any 1 s window stays <= 60
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.integers(1, 5 * MS, 5000))
        th = Throttle()
        emitted = []
        offered = set()
        for i, t in enumerate(times):
            offered.add(i)
            emitted += th.offer(int(t), i)
        for j, (t0, _) in enumerate(emitted):
            in_window = [e for e in emitted[j:] if e[0] < t0 + 10**9]
            assert len(in_window) <= 60
        assert all(s in offered for _, s in emitted)


class TestDatagramLink:
    def test_constant_delay(self):
        link = DatagramLink(LinkConfig(delay=DelayModel.constant(3.6)))
        for k in range(10):
            link.send(k * MS, k)
        out = link.poll(10**9)
        assert len(out) == 10
        for d in out:
            assert d.time_ns - d.send_time_ns == int(3.6 * MS)

    def test_total_loss(self):
        link = DatagramLink(LinkConfig(loss=1.0, seed=1))
        for k in range(100):
            link.send(k, k)
        assert link.poll(10**12) == []
        assert link.dropped == 100

    def test_seeded_determinism(self):
        def run():
            link = DatagramLink(LinkConfig(delay=DelayModel.uniform(1, 5), seed=7))
            for k in range(50):
                link.send(k * MS, k)
            return [(d.time_ns, d.payload) for d in link.poll(10**12)]
        assert run() == run()

    def test_never_duplicates(self):
        link = DatagramLink(LinkConfig(delay=DelayModel.uniform(0, 10),
                                       loss=0.3, seed=9))
        for k in range(500):
            link.send(k * MS, k)
        payloads = [d.payload for d in link.poll(10**12)]
        assert len(payloads) == len(set(payloads))
        assert len(payloads) + link.dropped == 500


class TestStreamLink:
    def test_head_of_line_blocking(self):
        # A delayed 5 ms, B delayed 1 ms: B waits for A
        link = StreamLink(LinkConfig(delay=DelayModel.empirical([5.0, 1.0]), seed=0))
        link._delay_ms = iter([5.0, 1.0]).__next__
        link.send(0, "A")
        link.send(0, "B")
        out = link.poll(10**9)
        assert [d.payload for d in out] == ["A", "B"]
        assert out[0].time_ns == 5 * MS
        assert out[1].time_ns == 5 * MS  # blocked behind A

    def test_loss_rejected(self):
        with pytest.raises(ValueError):
            StreamLink(LinkConfig(loss=0.5))

    def test_empty(self):
        link = StreamLink(LinkConfig())
        assert link.poll(10**9) == []

    def test_order_and_count_preserved(self):
        link = StreamLink(LinkConfig(delay=DelayModel.uniform(0, 10), seed=5))
        for k in range(200):
            link.send(k * MS, k)
        out = link.poll(10**12)
        assert [d.payload for d in out] == list(range(200))
        times = [d.time_ns for d in out]
        assert times == sorted(times)


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel.constant(-1)
    with pytest.raises(ValueError):
        DelayModel.uniform(5, 1)
    with pytest.raises(ValueError):
        DelayModel.empirical([])
    with pytest.raises(ValueError):
        LinkConfig(loss=1.5)


def test_truncated_normal_clamps_at_zero():
    m = DelayModel.normal(0.1, 50.0)
    rng = np.random.default_rng(0)
    assert min(m.sample_ms(rng) for _ in range(1000)) >= 0.0


DELAY_MS = st.floats(0.0, 50.0) | st.integers(0, 20)


def delays(kind, lo, span):
    return DelayModel.constant(lo) if kind == "constant" else DelayModel.uniform(lo, lo + span)


# the links draw their doubles 64 at a time; up to 300 sends cross several blocks
@given(kind=st.sampled_from(["constant", "uniform"]), lo=DELAY_MS, span=DELAY_MS,
       loss=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
       seed=st.integers(0, 2**63), gaps=st.lists(st.integers(0, 3 * MS), max_size=300))
def test_block_draws_give_the_per_send_stream(kind, lo, span, loss, seed, gaps):
    cfg = LinkConfig(delay=delays(kind, lo, span), loss=loss, seed=seed)
    link, ref = DatagramLink(cfg), oracle.DatagramLink(cfg)
    times = list(itertools.accumulate(gaps))
    outcomes = []
    for i, t in enumerate(times):
        dropped = link.dropped
        link.send(t, i)
        ref.send(t)
        outcomes.append([None, t, link.dropped > dropped])
    for d in link.poll(10**15):
        assert d.send_time_ns == times[d.payload]
        outcomes[d.payload][0] = d.time_ns
    assert [tuple(o) for o in outcomes] == ref.outcomes

    stream, ref = StreamLink(dataclasses.replace(cfg, loss=0.0)), \
        oracle.StreamLink(dataclasses.replace(cfg, loss=0.0))
    for i, t in enumerate(times):
        stream.send(t, i)
        ref.send(t)
    got = [(d.time_ns, d.send_time_ns, False) for d in stream.poll(10**15)]
    assert got == ref.outcomes
