"""Three-stage latency stamping and boxplot summary statistics.

Stages: Ingress (send-side scheduling), SocketRecv (socket delivery),
Applied (processing done). Quantiles use linear interpolation at rank
(n-1)*p, bit for bit ``numpy.quantile(..., method="linear")``; outliers
fall outside the Tukey 1.5*IQR fences. The module needs no numpy.

A completed sample costs the recorder 32 bytes: its three deltas as
doubles and its sequence number as a 64-bit integer, which rejects a later
stamp for it. Only the sequences still missing a stage keep their stamps.
"""

from __future__ import annotations

import enum
import json
import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass

NS_PER_MS = 1_000_000.0


class Stage(enum.IntEnum):
    INGRESS = 0
    SOCKET_RECV = 1
    APPLIED = 2


@dataclass(frozen=True)
class DeltaSummary:
    kind: str
    n: int
    median_ms: float
    q1_ms: float
    q3_ms: float
    iqr_ms: float
    outlier_count: int


@dataclass(frozen=True)
class LatencyStats:
    n: int
    deltas: tuple[DeltaSummary, ...]  # ingress_to_socket, socket_to_applied, ingress_to_applied


def _quantile(xs: list[float], p: float) -> float:
    """The linear quantile of the sorted ``xs`` at rank (n-1)*p, between
    its neighbours ``a`` and ``b`` as numpy's ``_lerp`` interpolates:
    ``b - (b-a)*(1-t)`` when ``t >= 0.5``, else ``a + (b-a)*t``."""
    r = (len(xs) - 1) * p
    i = math.floor(r)
    t = r - i
    a, b = xs[i], xs[min(i + 1, len(xs) - 1)]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _summarize(kind: str, deltas_ms) -> DeltaSummary:
    xs = sorted(deltas_ms)
    q1, med, q3 = (_quantile(xs, p) for p in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = sum(1 for x in xs if x < lo or x > hi)
    return DeltaSummary(kind, len(xs), med, q1, q3, iqr, outliers)


def _reject(seq: int, stage: Stage, time_ns: int, stamps) -> None:
    """Raise the error of a stamp that the flat ``stamps`` of its sequence
    do not admit, checked as ``record`` always has: a duplicate first, then
    an earlier stage stamped after ``time_ns``, then a later stage held."""
    held = dict(zip(stamps[::2], stamps[1::2]))
    if stage in held:
        raise ValueError(f"duplicate stamp for seq {seq} stage {stage.name}")
    if any(s < stage and t > time_ns for s, t in held.items()):
        raise ValueError(f"stage regression for seq {seq}")
    later = min(s for s in held if s > stage)
    raise ValueError(f"stage regression for seq {seq}: {later.name} already recorded")


class LatencyRecorder:
    """Collects per-sequence stage stamps and summarizes the deltas.

    A sequence's stamps are kept until its third, ``APPLIED``, completes
    it. Its three deltas then go to three ``array('d')`` and its number to
    a sorted ``array('q')``, so a further stamp for it is still a
    duplicate: 32 bytes per completed sample. Sequence numbers must fit
    64 bits, as the wire's 32-bit ones and the emulator's tick indices do.
    A stamp for an earlier stage than one already recorded is a
    regression, so the stamps a sequence holds are in stage order and in
    time order."""

    def __init__(self):
        # the stamps of each incomplete sequence, flat: stage, time, stage, time
        self._open: dict[int, list] = {}
        # the numbers of the completed sequences, sorted
        self._complete = array("q")
        # ingress_to_socket, socket_to_applied, ingress_to_applied, in ms
        self._deltas = (array("d"), array("d"), array("d"))

    def record(self, seq: int, stage: Stage, time_ns: int) -> None:
        stamps = self._open.get(seq)
        if stamps is None:
            done = self._complete
            if done and seq <= done[-1] and done[bisect_left(done, seq)] == seq:
                # a completed sequence holds every stage
                raise ValueError(f"duplicate stamp for seq {seq} stage {stage.name}")
            self._open[seq] = [stage, time_ns]
            return
        # the stamps held are in stage and time order, so the last one is
        # the latest of both: a later stage at a time no earlier is valid
        if not (stamps[-2] < stage and stamps[-1] <= time_ns):
            _reject(seq, stage, time_ns, stamps)
        if len(stamps) == 2:
            stamps += stage, time_ns
            return
        # the third stamp: INGRESS and SOCKET_RECV are held, this is APPLIED
        del self._open[seq]
        done = self._complete
        if done and seq < done[-1]:  # completed out of order
            insort(done, seq)
        else:
            done.append(seq)
        t0, t1 = stamps[1], stamps[3]
        d01, d12, d02 = self._deltas
        d01.append((t1 - t0) / NS_PER_MS)
        d12.append((time_ns - t1) / NS_PER_MS)
        d02.append((time_ns - t0) / NS_PER_MS)

    def complete_count(self) -> int:
        return len(self._complete)

    def compute_stats(self) -> LatencyStats:
        """Summaries over complete sequences (all three stages present)."""
        if not self._complete:
            raise ValueError("no complete latency samples")
        d01, d12, d02 = self._deltas
        return LatencyStats(len(d01), (
            _summarize("ingress_to_socket", d01),
            _summarize("socket_to_applied", d12),
            _summarize("ingress_to_applied", d02),
        ))


def export_stats(stats: LatencyStats) -> str:
    """Line-delimited JSON, one record per delta kind, stable field order."""
    if not stats.deltas:
        raise ValueError("empty stats")
    lines = []
    for d in stats.deltas:
        iqr = d.iqr_ms
        rec = {
            "kind": d.kind,
            "n": d.n,
            "median_ms": d.median_ms,
            "q1_ms": d.q1_ms,
            "q3_ms": d.q3_ms,
            "iqr_ms": d.iqr_ms,
            "fence_low_ms": d.q1_ms - 1.5 * iqr,
            "fence_high_ms": d.q3_ms + 1.5 * iqr,
            "outlier_count": d.outlier_count,
        }
        lines.append(json.dumps(rec, sort_keys=False))
    return "\n".join(lines) + "\n"


def format_table(stats: LatencyStats) -> str:
    header = f"{'delta':<20} {'n':>8} {'median ms':>10} {'q1 ms':>8} " \
             f"{'q3 ms':>8} {'iqr ms':>8} {'outliers':>8}"
    rows = [header, "-" * len(header)]
    for d in stats.deltas:
        rows.append(f"{d.kind:<20} {d.n:>8} {d.median_ms:>10.3f} {d.q1_ms:>8.3f} "
                    f"{d.q3_ms:>8.3f} {d.iqr_ms:>8.3f} {d.outlier_count:>8}")
    return "\n".join(rows)
