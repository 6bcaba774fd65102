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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import norm, swing_twist
from .wire import MocapPacket

QUALITY_LOST = 0
QUALITY_TRACKED = 1


class PoseStatus(enum.Enum):
    WARMING_UP = "warming_up"
    STABLE = "stable"
    HOLDING = "holding"
    RELOCATED = "relocated"


@dataclass(frozen=True)
class FilterConfig:
    window: int = 9
    vmax: float = 2.0  # m/s
    up_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
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
        axis = np.asarray(self.up_axis, dtype=float)
        n = norm(axis)
        if n == 0:
            raise ValueError("up_axis must be non-zero")
        object.__setattr__(self, "up_axis", axis / n)


@dataclass(frozen=True)
class FilteredPose:
    position: np.ndarray
    rotation: np.ndarray  # yaw-only quaternion about up_axis
    status: PoseStatus
    time_ns: int


def constrain_upright(q: np.ndarray, up_axis: np.ndarray) -> np.ndarray:
    """Twist component of q about up_axis (swing discarded)."""
    _, twist = swing_twist(np.asarray(q, dtype=float), up_axis)
    return twist


def velocity_gate(prev_accepted: np.ndarray, candidate: np.ndarray,
                  dt: float, vmax: float) -> bool:
    """True iff the implied speed is within vmax (boundary inclusive)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    speed = norm(np.asarray(candidate) - np.asarray(prev_accepted)) / dt
    return speed <= vmax


def _mean(rows) -> np.ndarray:
    """Mean of 3-vectors given as float sequences: ``np.mean(rows, axis=0)``
    bit for bit, which sums the rows in order onto +0.0 and divides by the
    count."""
    sx = sy = sz = 0.0
    for x, y, z in rows:
        sx += x
        sy += y
        sz += z
    n = len(rows)
    return np.array([sx / n, sy / n, sz / n])


class MocapFilter:
    """Single-object jitter mitigation state machine."""

    def __init__(self, config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        self._window: deque = deque(maxlen=self.config.window)
        self._dropped: deque = deque(maxlen=self.config.stable_count)
        self._prev_accepted: np.ndarray | None = None
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
        pts = np.asarray(self._dropped)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if norm(pts[i] - pts[j]) > self.config.stable_tol:
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

        pos = np.asarray(raw.position, dtype=float)
        if not np.isfinite(pos).all():
            raise ValueError("non-finite mocap position")

        accepted = (self._prev_accepted is None
                    or velocity_gate(self._prev_accepted, pos, dt, self.config.vmax))
        if not accepted:
            self._dropped.append(pos)
            if self._stable():
                mean = _mean([p.tolist() for p in self._dropped])
                self._dropped.clear()
                self._window.clear()
                self._window.append(mean.tolist())
                self._prev_accepted = mean
                self.relocations += 1
                rot = constrain_upright(raw.quaternion, self.config.up_axis)
                self._last_output = FilteredPose(mean, rot, PoseStatus.RELOCATED,
                                                 raw.time_ns)
                return self._last_output
            return self._hold(raw.time_ns)

        self._dropped.clear()
        self._prev_accepted = pos
        self._window.append(pos.tolist())
        if len(self._window) >= self.config.window:
            self._warmed_up = True
        status = PoseStatus.STABLE if self._warmed_up else PoseStatus.WARMING_UP
        rot = constrain_upright(raw.quaternion, self.config.up_axis)
        self._last_output = FilteredPose(_mean(self._window), rot, status, raw.time_ns)
        return self._last_output
