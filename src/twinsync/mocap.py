"""Tracker-frame jitter mitigation.

Pipeline per tracked object: quality check -> inter-sample velocity gate
-> sliding-window mean + upright-rotation constraint on accepted samples.
Gated-out samples feed a stable-state buffer; once the last K dropped
frames agree, the filter relocates to their mean. The gate runs before
the mean so outliers never pollute the window. Frames that arrive older
than the last one processed are counted as stale and dropped.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import floats, norm, twist, unit
from .wire import MocapPacket

QUALITY_LOST = 0


class PoseStatus(enum.Enum):
    WARMING_UP = "warming_up"
    STABLE = "stable"
    HOLDING = "holding"
    RELOCATED = "relocated"


@dataclass(frozen=True)
class FilterConfig:
    window: int = 9
    vmax: float = 2.0  # m/s
    up_axis: tuple = (0.0, 0.0, 1.0)
    stable_count: int = 10
    stable_tol: float = 0.005  # m

    def __post_init__(self):
        if not 5 <= self.window <= 15:
            raise ValueError("window must be in [5, 15]")
        if self.vmax <= 0:
            raise ValueError("vmax must be positive")
        if self.stable_count < 2:
            raise ValueError("stable_count must be >= 2")
        if self.stable_tol <= 0:
            raise ValueError("stable_tol must be positive")
        object.__setattr__(self, "up_axis", unit(floats(self.up_axis)))


class FilteredPose(NamedTuple):
    position: tuple
    rotation: tuple  # yaw-only quaternion about up_axis
    status: PoseStatus
    time_ns: int


def constrain_upright(q, up_axis) -> tuple:
    """Twist component of q about up_axis (swing discarded)."""
    return twist(q, unit(up_axis))


def _distance(a, b) -> float:
    ax, ay, az = a
    bx, by, bz = b
    return norm((ax - bx, ay - by, az - bz))


def velocity_gate(prev_accepted, candidate, dt: float, vmax: float) -> bool:
    """True iff the implied speed is within vmax (boundary inclusive)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _distance(candidate, prev_accepted) / dt <= vmax


def _mean(rows) -> tuple:
    """Mean of 3-vectors given as float sequences: ``np.mean(rows, axis=0)``
    bit for bit, which sums the rows in order onto +0.0 and divides by the
    count."""
    sx = sy = sz = 0.0
    for x, y, z in rows:
        sx += x
        sy += y
        sz += z
    n = len(rows)
    return (sx / n, sy / n, sz / n)


class MocapFilter:
    """Single-object jitter mitigation state machine."""

    def __init__(self, config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        self._up = unit(self.config.up_axis)  # as constrain_upright takes it
        self._window: deque = deque(maxlen=self.config.window)
        self._dropped: deque = deque(maxlen=self.config.stable_count)
        self._prev_accepted: tuple | None = None
        self._prev_time_ns: int | None = None
        self._last_output: FilteredPose | None = None
        self._warmed_up = False
        self.relocations = 0
        self.stale = 0

    @property
    def last_output(self) -> FilteredPose | None:
        return self._last_output

    def _stable(self) -> bool:
        if len(self._dropped) < self.config.stable_count:
            return False
        pts = self._dropped
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if _distance(pts[i], pts[j]) > self.config.stable_tol:
                    return False
        return True

    def _hold(self, time_ns: int) -> FilteredPose | None:
        if self._last_output is None:
            return None
        self._last_output = FilteredPose(self._last_output.position,
                                         self._last_output.rotation,
                                         PoseStatus.HOLDING, time_ns)
        return self._last_output

    def process(self, raw: MocapPacket) -> FilteredPose | None:
        """Feed one tracker frame; returns the current pose, or None before
        any frame was ever accepted.

        A frame older than the last one processed, as a reordering link
        delivers, is stale: it is counted in ``stale`` and dropped, and the
        last output is returned unchanged.
        """
        if self._prev_time_ns is not None and raw.time_ns < self._prev_time_ns:
            self.stale += 1
            return self._last_output
        dt = None
        if self._prev_time_ns is not None:
            dt = max((raw.time_ns - self._prev_time_ns) / 1e9, 1e-12)
        self._prev_time_ns = raw.time_ns

        if raw.quality == QUALITY_LOST:
            return self._hold(raw.time_ns)

        pos = raw.position
        if not all(map(math.isfinite, pos)):
            raise ValueError("non-finite mocap position")

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
                self._last_output = FilteredPose(mean, twist(raw.quaternion, self._up),
                                                 PoseStatus.RELOCATED, raw.time_ns)
                return self._last_output
            return self._hold(raw.time_ns)

        self._dropped.clear()
        self._prev_accepted = pos
        self._window.append(pos)
        if len(self._window) >= self.config.window:
            self._warmed_up = True
        status = PoseStatus.STABLE if self._warmed_up else PoseStatus.WARMING_UP
        self._last_output = FilteredPose(_mean(self._window),
                                         twist(raw.quaternion, self._up), status,
                                         raw.time_ns)
        return self._last_output
