"""Three-stage latency stamping and boxplot summary statistics.

Stages: Ingress (send-side scheduling), SocketRecv (socket delivery),
Applied (processing done). Quantiles use linear interpolation at rank
(n-1)*p, bit for bit ``numpy.quantile(..., method="linear")``; outliers
fall outside the Tukey 1.5*IQR fences. The module needs no numpy.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

NS_PER_MS = 1_000_000.0


class Stage(enum.IntEnum):
    INGRESS = 0
    SOCKET_RECV = 1
    APPLIED = 2


_STAGES = tuple(Stage)  # iterating the enum class itself costs a call per member


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


def _summarize(kind: str, deltas_ms: list[float]) -> DeltaSummary:
    xs = sorted(deltas_ms)
    q1, med, q3 = (_quantile(xs, p) for p in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = sum(1 for x in xs if x < lo or x > hi)
    return DeltaSummary(kind, len(xs), med, q1, q3, iqr, outliers)


class LatencyRecorder:
    """Collects per-sequence stage stamps and summarizes the deltas."""

    def __init__(self):
        self._stamps: dict[int, dict[Stage, int]] = {}

    def record(self, seq: int, stage: Stage, time_ns: int) -> None:
        stages = self._stamps.setdefault(seq, {})
        if stage in stages:
            raise ValueError(f"duplicate stamp for seq {seq} stage {stage.name}")
        for earlier in _STAGES:
            if earlier < stage and earlier in stages and stages[earlier] > time_ns:
                raise ValueError(f"stage regression for seq {seq}")
        for later in _STAGES:
            if later > stage and later in stages:
                raise ValueError(f"stage regression for seq {seq}: "
                                 f"{later.name} already recorded")
        stages[stage] = time_ns

    def complete_count(self) -> int:
        return sum(1 for s in self._stamps.values() if len(s) == 3)

    def compute_stats(self) -> LatencyStats:
        """Summaries over complete sequences (all three stages present)."""
        complete = [s for s in self._stamps.values() if len(s) == 3]
        if not complete:
            raise ValueError("no complete latency samples")
        d01 = [(s[Stage.SOCKET_RECV] - s[Stage.INGRESS]) / NS_PER_MS for s in complete]
        d12 = [(s[Stage.APPLIED] - s[Stage.SOCKET_RECV]) / NS_PER_MS for s in complete]
        d02 = [(s[Stage.APPLIED] - s[Stage.INGRESS]) / NS_PER_MS for s in complete]
        return LatencyStats(len(complete), (
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
