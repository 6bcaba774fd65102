import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latency_oracle import DictLatencyRecorder
from twinsync import harness
from twinsync.latency import (DeltaSummary, LatencyRecorder, Stage, export_stats,
                              format_table)
from twinsync.scenario import load_config

# the oracles and the random inputs below use numpy; the module does not
np = pytest.importorskip("numpy")

MS = 1_000_000
CONFIGS = Path(__file__).parent.parent / "configs"
# the kinds of ``LatencyStats.deltas``, in its order
KINDS = ("ingress_to_socket", "socket_to_applied", "ingress_to_applied")


def record_sample(rec, seq, ingress_ms, socket_ms, applied_ms):
    rec.record(seq, Stage.INGRESS, int(ingress_ms * MS))
    rec.record(seq, Stage.SOCKET_RECV, int(socket_ms * MS))
    rec.record(seq, Stage.APPLIED, int(applied_ms * MS))


class TestRecorder:
    def test_stage_deltas(self):
        rec = LatencyRecorder()
        record_sample(rec, 0, 10.0, 13.6, 14.68)
        net, proc, total = rec.compute_stats().deltas
        assert (net.kind, proc.kind, total.kind) == KINDS
        assert abs(net.median_ms - 3.6) < 1e-9
        assert abs(proc.median_ms - 1.08) < 1e-9
        assert abs(total.median_ms - 4.68) < 1e-9

    def test_five_point_quartiles(self):
        # {1,2,3,4,5} ms -> median 3, q1 2, q3 4, iqr 2
        rec = LatencyRecorder()
        for i, d in enumerate([1, 2, 3, 4, 5]):
            record_sample(rec, i, 0.0, d, d)
        s = rec.compute_stats().deltas[0]  # ingress_to_socket
        assert (s.median_ms, s.q1_ms, s.q3_ms, s.iqr_ms) == (3.0, 2.0, 4.0, 2.0)
        assert s.outlier_count == 0

    def test_singleton(self):
        rec = LatencyRecorder()
        record_sample(rec, 0, 0.0, 2.5, 3.0)
        s = rec.compute_stats().deltas[0]  # ingress_to_socket
        assert s.n == 1 and s.median_ms == s.q1_ms == s.q3_ms == 2.5
        assert s.iqr_ms == 0.0 and s.outlier_count == 0

    def test_duplicate_stamp_rejected(self):
        rec = LatencyRecorder()
        rec.record(0, Stage.INGRESS, 100)
        with pytest.raises(ValueError, match="duplicate"):
            rec.record(0, Stage.INGRESS, 200)

    def test_stage_regression_rejected(self):
        rec = LatencyRecorder()
        rec.record(0, Stage.INGRESS, 100)
        with pytest.raises(ValueError, match="regression"):
            rec.record(0, Stage.SOCKET_RECV, 50)
        rec2 = LatencyRecorder()
        rec2.record(0, Stage.APPLIED, 100)
        with pytest.raises(ValueError, match="regression"):
            rec2.record(0, Stage.SOCKET_RECV, 90)

    def test_incomplete_sequences_excluded(self):
        rec = LatencyRecorder()
        record_sample(rec, 0, 0.0, 1.0, 2.0)
        rec.record(1, Stage.INGRESS, 0)  # lost in transit: never delivered
        rec.record(1, Stage.SOCKET_RECV, 5 * MS)
        assert rec.complete_count() == 1
        assert rec.compute_stats().n == 1

    def test_no_complete_samples(self):
        rec = LatencyRecorder()
        rec.record(0, Stage.INGRESS, 0)
        with pytest.raises(ValueError):
            rec.compute_stats()

    def test_delta_additivity(self):
        rng = np.random.default_rng(6)
        rec = LatencyRecorder()
        for i in range(500):
            t0 = float(rng.uniform(0, 100))
            record_sample(rec, i, t0, t0 + rng.uniform(0, 5),
                          t0 + rng.uniform(5, 9))
        assert [d.n for d in rec.compute_stats().deltas] == [500] * len(KINDS)

    def test_outlier_fences(self):
        rec = LatencyRecorder()
        deltas = [1.0] * 20 + [100.0]  # iqr 0: anything off the plateau flags
        for i, d in enumerate(deltas):
            record_sample(rec, i, 0.0, d, d)
        s = rec.compute_stats().deltas[0]  # ingress_to_socket
        assert s.iqr_ms == 0.0 and s.outlier_count == 1


def quantile_oracle(values, p):
    """Sort-and-interpolate at rank (n-1)p, written from the definition."""
    xs = sorted(values)
    r = (len(xs) - 1) * p
    lo = int(np.floor(r))
    hi = int(np.ceil(r))
    return xs[lo] + (r - lo) * (xs[hi] - xs[lo])


def test_quantiles_match_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 10_001))
        # whole-nanosecond delays: the recorder stamps integer ns
        deltas = np.floor(rng.uniform(0.0, 50.0, n) * MS) / MS
        rec = LatencyRecorder()
        for i, d in enumerate(deltas):
            record_sample(rec, i, 0.0, d, d)
        s = rec.compute_stats().deltas[0]  # ingress_to_socket
        assert abs(s.median_ms - quantile_oracle(deltas, 0.5)) < 1e-9
        assert abs(s.q1_ms - quantile_oracle(deltas, 0.25)) < 1e-9
        assert abs(s.q3_ms - quantile_oracle(deltas, 0.75)) < 1e-9
        lo = s.q1_ms - 1.5 * s.iqr_ms
        hi = s.q3_ms + 1.5 * s.iqr_ms
        assert s.outlier_count == int(np.sum((deltas < lo) | (deltas > hi)))


def numpy_summary(kind, deltas_ms):
    """A delta summary as numpy computes it, the oracle of the module's."""
    d = np.array(deltas_ms)
    q1, med, q3 = np.quantile(d, [0.25, 0.5, 0.75], method="linear")
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    return DeltaSummary(kind, len(d), float(med), float(q1), float(q3), float(iqr),
                        int(np.sum((d < lo) | (d > hi))))


# few distinct delays give ties and plateaus, many give spread and outliers
DELAYS_NS = st.integers(0, 50 * MS) | st.sampled_from([0, 1, MS, 3 * MS]) \
    | st.integers(0, 2 ** 53)


@given(delays=st.lists(st.tuples(DELAYS_NS, DELAYS_NS), min_size=1, max_size=200))
@settings(max_examples=300, deadline=None)
def test_summaries_match_numpy_bit_for_bit(delays):
    rec = LatencyRecorder()
    for seq, (to_socket, to_applied) in enumerate(delays):
        rec.record(seq, Stage.INGRESS, 0)
        rec.record(seq, Stage.SOCKET_RECV, to_socket)
        rec.record(seq, Stage.APPLIED, to_socket + to_applied)
    want = [numpy_summary(kind, [ns / 1e6 for ns in column]) for kind, column in zip(
        KINDS, ([a for a, _ in delays], [b for _, b in delays],
                      [a + b for a, b in delays]))]
    got = rec.compute_stats().deltas
    assert got == tuple(want)
    # the same bits, not just equal values: -0.0 and 0.0 would compare equal
    assert [repr(d) for d in got] == [repr(d) for d in want]


# a few sequence numbers and times, so that stamps collide: duplicates,
# also of completed sequences, regressions and sequences left incomplete
STAMP = st.tuples(st.integers(0, 5), st.sampled_from(Stage), st.integers(0, 40))
# a sample stamped in order, so that many sequences complete, out of order
SAMPLE = st.builds(lambda seq, t0, d1, d2: [(seq, Stage.INGRESS, t0),
                                            (seq, Stage.SOCKET_RECV, t0 + d1),
                                            (seq, Stage.APPLIED, t0 + d1 + d2)],
                   st.integers(0, 12), st.integers(0, 40), st.integers(0, 9),
                   st.integers(0, 9))


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except ValueError as e:
        return type(e), str(e)


@given(stamps=st.lists(STAMP.map(lambda x: [x]) | SAMPLE, max_size=40).map(
    lambda groups: [x for g in groups for x in g]))
@settings(max_examples=400, deadline=None)
def test_recorder_matches_the_dict_oracle(stamps):
    rec, oracle = LatencyRecorder(), DictLatencyRecorder()
    for seq, stage, t in stamps:
        assert outcome(lambda: rec.record(seq, stage, t)) == \
            outcome(lambda: oracle.record(seq, stage, t))
        assert rec.complete_count() == oracle.complete_count()
        got, want = outcome(rec.compute_stats), outcome(oracle.compute_stats)
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("seed", [7, 1234, 31337])
def test_measure_latency_exports_as_the_oracle(monkeypatch, seed):
    cfg = dataclasses.replace(load_config(CONFIGS / "reference_latency.yaml"), seed=seed)
    got = export_stats(harness.measure_latency(cfg))
    monkeypatch.setattr(harness, "LatencyRecorder", DictLatencyRecorder)
    assert got == export_stats(harness.measure_latency(cfg))


def held_per_sample(recorder_class, n=20_000):
    """The heap a recorder of ``n`` completed in-order samples holds, per sample."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec = recorder_class()
        for i in range(n):
            t = i * 16_666_667
            rec.record(i, Stage.INGRESS, t)
            rec.record(i, Stage.SOCKET_RECV, t + 3_600_000)
            rec.record(i, Stage.APPLIED, t + 4_000_000)
        return (tracemalloc.get_traced_memory()[0] - base) / n
    finally:
        tracemalloc.stop()


def test_completed_samples_are_packed():
    # each completed sample keeps its three deltas and its number as eight-
    # byte values: about 34 bytes, where the dict of stamps held 389
    held, oracle = held_per_sample(LatencyRecorder), held_per_sample(DictLatencyRecorder)
    assert held <= oracle / 2
    assert held < 40


class TestExport:
    def make(self):
        rec = LatencyRecorder()
        for i, d in enumerate([1, 2, 3, 4, 5]):
            record_sample(rec, i, 0.0, d, d + 0.5)
        return rec.compute_stats()

    def test_deterministic(self):
        assert export_stats(self.make()) == export_stats(self.make())

    def test_roundtrip(self):
        stats = self.make()
        records = [json.loads(line) for line in export_stats(stats).splitlines()]
        fields = [f.name for f in dataclasses.fields(DeltaSummary)]
        assert tuple(DeltaSummary(*(r[f] for f in fields)) for r in records) == stats.deltas
        assert {r["n"] for r in records} == {stats.n}

    def test_three_lines(self):
        lines = export_stats(self.make()).strip().splitlines()
        assert len(lines) == 3

    def test_table_has_all_kinds(self):
        table = format_table(self.make())
        for kind in KINDS:
            assert kind in table
