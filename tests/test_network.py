import dataclasses
import itertools

import pytest
from hypothesis import example, given, strategies as st

import numpy_oracle as oracle

from twinsync.network import DatagramLink, StreamLink, delay_ms, doubles
from twinsync.scenario import DelayModel, LinkConfig

MS = 1_000_000


class TestDatagramLink:
    def test_constant_delay(self):
        link = DatagramLink(LinkConfig(delay=DelayModel.constant(3.6)), 0)
        for k in range(10):
            link.send(k * MS, k)
        out = link.poll(10**9)
        assert len(out) == 10
        for d in out:  # each payload is its send time in ms
            assert d.time_ns - d.payload * MS == int(3.6 * MS)

    def test_total_loss(self):
        link = DatagramLink(LinkConfig(loss=1.0), 1)
        for k in range(100):
            link.send(k, k)
        assert link.poll(10**12) == []
        assert link.dropped == 100

    def test_seeded_determinism(self):
        def run():
            link = DatagramLink(LinkConfig(delay=DelayModel.uniform(1, 5)), 7)
            for k in range(50):
                link.send(k * MS, k)
            return [(d.time_ns, d.payload) for d in link.poll(10**12)]
        assert run() == run()

    def test_never_duplicates(self):
        link = DatagramLink(LinkConfig(delay=DelayModel.uniform(0, 10), loss=0.3), 9)
        for k in range(500):
            link.send(k * MS, k)
        payloads = [d.payload for d in link.poll(10**12)]
        assert len(payloads) == len(set(payloads))
        assert len(payloads) + link.dropped == 500

    @pytest.mark.parametrize("config", [LinkConfig(delay=DelayModel.uniform(0, 10), loss=0.3),
                                        LinkConfig(delay=DelayModel.constant(2.0))],
                             ids=["lossy", "lossless"])
    def test_send_says_whether_it_queued(self, config):
        link = DatagramLink(config, 9)
        queued = [k for k in range(500) if link.send(k * MS, k)]
        assert queued == [d.payload for d in sorted(link.poll(10**12),
                                                    key=lambda d: d.payload)]
        assert len(queued) + link.dropped == 500


class TestStreamLink:
    def test_head_of_line_blocking(self):
        # A delayed 5 ms, B delayed 1 ms: B waits for A. The seed is the
        # first whose two doubles index the samples 5.0, then 1.0.
        def indices(seed):
            u = doubles(seed)
            return [int(2 * u()), int(2 * u())]
        seed = next(s for s in itertools.count() if indices(s) == [0, 1])
        link = StreamLink(LinkConfig(delay=DelayModel.empirical([5.0, 1.0])), seed)
        link.send(0, "A")
        link.send(0, "B")
        out = link.poll(10**9)
        assert [d.payload for d in out] == ["A", "B"]
        assert out[0].time_ns == 5 * MS
        assert out[1].time_ns == 5 * MS  # blocked behind A

    def test_loss_rejected(self):
        with pytest.raises(ValueError):
            StreamLink(LinkConfig(loss=0.5), 0)

    def test_empty(self):
        link = StreamLink(LinkConfig(), 0)
        assert link.poll(10**9) == []

    def test_order_and_count_preserved(self):
        link = StreamLink(LinkConfig(delay=DelayModel.uniform(0, 10)), 5)
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
    u = doubles(0)
    assert min(delay_ms(m, u) for _ in range(1000)) >= 0.0


DELAY_MS = st.floats(0.0, 50.0) | st.integers(0, 20)


def delays(kind, lo, span):
    return DelayModel.constant(lo) if kind == "constant" else DelayModel.uniform(lo, lo + span)


# the links draw their doubles 64 at a time; up to 300 sends cross several blocks.
# A lossless link with a constant delay, loss 0.0 or -0.0, skips its draws
@given(kind=st.sampled_from(["constant", "uniform"]), lo=DELAY_MS, span=DELAY_MS,
       loss=st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0]),
       seed=st.integers(0, 2**63), gaps=st.lists(st.integers(0, 3 * MS), max_size=300))
@example(kind="constant", lo=3.6, span=0, loss=0.0, seed=5, gaps=[MS] * 100)
@example(kind="constant", lo=2.5e-7, span=0, loss=-0.0, seed=6, gaps=[0, 1, MS] * 30)
@example(kind="constant", lo=0, span=0, loss=1.0, seed=7, gaps=[MS] * 100)
@example(kind="uniform", lo=1.0, span=0, loss=0.0, seed=8, gaps=[MS] * 100)
def test_block_draws_give_the_per_send_stream(kind, lo, span, loss, seed, gaps):
    cfg = LinkConfig(delay=delays(kind, lo, span), loss=loss)
    link, ref = DatagramLink(cfg, seed), oracle.DatagramLink(cfg, seed)
    times = list(itertools.accumulate(gaps))
    outcomes = []
    for i, t in enumerate(times):
        dropped = link.dropped
        link.send(t, i)
        ref.send(t)
        outcomes.append([None, t, link.dropped > dropped])
    for d in link.poll(10**15):
        outcomes[d.payload][0] = d.time_ns
    assert [tuple(o) for o in outcomes] == ref.outcomes

    stream, ref = StreamLink(dataclasses.replace(cfg, loss=0.0), seed), \
        oracle.StreamLink(dataclasses.replace(cfg, loss=0.0), seed)
    for i, t in enumerate(times):
        stream.send(t, i)
        ref.send(t)
    got = [(d.time_ns, times[d.payload], False) for d in stream.poll(10**15)]
    assert got == ref.outcomes
