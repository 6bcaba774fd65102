"""The mocap filter as it was before it built poses on read: every frame
builds its ``FilteredPose`` and ``process`` returns it, gating each frame
with ``velocity_gate``. Kept as the reference that the state-keeping
``MocapFilter`` must match bit for bit, and ``output``, which feeds a frame
to either and returns its pose; ``counting_relocations`` counts a filter's
relocations from the statuses ``process`` returns."""

from collections import deque

from twinsync.geometry import twist, unit
from twinsync.mocap import (QUALITY_LOST, FilterConfig, FilteredPose, PoseStatus,
                            _distance, _mean)


def counting_relocations(process, counts):
    """``process`` (``MocapFilter.process``) that also adds each relocation,
    each RELOCATED status it returns, to ``counts[filter]``."""
    def spy(filt, raw):
        status = process(filt, raw)
        counts[filt] += status is PoseStatus.RELOCATED
        return status
    return spy


def velocity_gate(prev_accepted, candidate, dt: float, vmax: float) -> bool:
    """True iff the implied speed is within vmax (boundary inclusive)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _distance(candidate, prev_accepted) / dt <= vmax


def output(filt, packet) -> FilteredPose | None:
    """Feed ``packet`` to ``filt`` and return the pose it leaves."""
    filt.process(packet)
    return filt.last_output


class EagerMocapFilter:
    """The filter that builds a pose for every frame it is fed."""

    def __init__(self, config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        self._up = unit(self.config.up_axis)
        self._window = deque(maxlen=self.config.window)
        self._dropped = deque(maxlen=self.config.stable_count)
        self._prev_accepted = None
        self._prev_time_ns = None
        self.last_output = None
        self._warmed_up = False
        self.relocations = 0
        self.stale = 0

    def _stable(self) -> bool:
        if len(self._dropped) < self.config.stable_count:
            return False
        pts = self._dropped
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if _distance(pts[i], pts[j]) > self.config.stable_tol:
                    return False
        return True

    def _hold(self, time_ns: int):
        if self.last_output is None:
            return None
        self.last_output = FilteredPose(self.last_output.position,
                                        self.last_output.rotation,
                                        PoseStatus.HOLDING, time_ns)
        return self.last_output

    def process(self, raw):
        if self._prev_time_ns is not None and raw.time_ns < self._prev_time_ns:
            self.stale += 1
            return self.last_output
        dt = None
        if self._prev_time_ns is not None:
            dt = max((raw.time_ns - self._prev_time_ns) / 1e9, 1e-12)
        self._prev_time_ns = raw.time_ns

        if raw.quality == QUALITY_LOST:
            return self._hold(raw.time_ns)

        pos = raw.position
        accepted = (self._prev_accepted is None
                    or velocity_gate(self._prev_accepted, pos, dt, self.config.vmax))
        if not accepted:
            self._dropped.append(pos)
            if self._stable():
                mean = _mean(self._dropped)
                self._dropped.clear()
                self._window.clear()
                self._window.append(mean)
                self._prev_accepted = mean
                self.relocations += 1
                self.last_output = FilteredPose(mean, twist(raw.quaternion, self._up),
                                                PoseStatus.RELOCATED, raw.time_ns)
                return self.last_output
            return self._hold(raw.time_ns)

        self._dropped.clear()
        self._prev_accepted = pos
        self._window.append(pos)
        if len(self._window) >= self.config.window:
            self._warmed_up = True
        status = PoseStatus.STABLE if self._warmed_up else PoseStatus.WARMING_UP
        self.last_output = FilteredPose(_mean(self._window),
                                        twist(raw.quaternion, self._up), status,
                                        raw.time_ns)
        return self.last_output
