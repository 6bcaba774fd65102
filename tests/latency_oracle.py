"""The latency recorder as it was before it packed completed samples: a
dict of stage stamps per sequence number, kept for the whole run. Kept as
the reference that ``LatencyRecorder`` must match: the same error for
every stamp it rejects, the same ``complete_count`` and the same
``compute_stats``, bit for bit."""

from twinsync.latency import NS_PER_MS, LatencyStats, Stage, _summarize

_STAGES = tuple(Stage)


class DictLatencyRecorder:
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
