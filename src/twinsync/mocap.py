"""Tracker-frame jitter mitigation.

Pipeline per tracked object: quality check -> inter-sample velocity gate
-> sliding-window mean + upright-rotation constraint on accepted samples.
Gated-out samples feed a stable-state buffer; once the last K dropped
frames agree, the filter relocates to their mean. The gate runs before
the mean so outliers never pollute the window. Frames that arrive older
than the last one processed are counted as stale and dropped.

A frame only updates the filter's state; the filtered pose, the window
mean and the twist, is built when ``last_output`` is read, once per
change, so frames that a later frame supersedes cost no pose.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .geometry import floats, twist, unit
from .wire import MocapPacket

QUALITY_LOST = 0


class PoseStatus(enum.Enum):
    WARMING_UP = "warming_up"
    STABLE = "stable"
    HOLDING = "holding"
    RELOCATED = "relocated"


# the members as module globals, for the hot paths to read: on Python 3.11
# reading a member off its class costs about 77 ns, a global about 5 ns
WARMING_UP = PoseStatus.WARMING_UP
STABLE = PoseStatus.STABLE
HOLDING = PoseStatus.HOLDING
RELOCATED = PoseStatus.RELOCATED


@dataclass(frozen=True)
class FilterConfig:
    window: int = 9
    vmax: float = 2.0  # m/s
    up_axis: tuple = (0.0, 0.0, 1.0)
    stable_count: int = 10
    stable_tol: float = 0.005  # m

    def __post_init__(self):
        # written so that NaN fails too; the counts are deque lengths, and
        # stable_count is capped since each dropped frame compares every pair
        if not (type(self.window) is int and 5 <= self.window <= 15):
            raise ValueError(f"window must be an integer in [5, 15], got {self.window!r}")
        if not self.vmax > 0:
            raise ValueError(f"vmax must be positive, got {self.vmax!r}")
        if not (type(self.stable_count) is int and 2 <= self.stable_count <= 100):
            raise ValueError("stable_count must be >= 2 and <= 100, an integer, got "
                             f"{self.stable_count!r}")
        if not 0.0 < self.stable_tol < math.inf:
            raise ValueError(f"stable_tol must be finite and positive, got {self.stable_tol!r}")
        up = floats(self.up_axis)
        if len(up) != 3 or not all(map(math.isfinite, up)):
            raise ValueError(f"up_axis must be 3 finite values, got {up}")
        object.__setattr__(self, "up_axis", unit(up))


class FilteredPose(NamedTuple):
    position: tuple
    rotation: tuple  # yaw-only quaternion about up_axis
    status: PoseStatus
    time_ns: int


def _distance(a, b) -> float:
    """``norm(a - b)`` of two 3-vectors, written out."""
    ax, ay, az = a
    bx, by, bz = b
    dx, dy, dz = ax - bx, ay - by, az - bz
    return math.sqrt(dx * dx + dy * dy + dz * dz)


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
    """Single-object jitter mitigation state machine.

    ``process`` updates the state and returns its status; ``last_output``
    builds the pose of that state on its first read after a change. A
    pose is the mean of the window and the twist of the last accepted or
    relocating frame's quaternion, which a hold or a stale frame leaves as
    they are. The window's newest entry is the last accepted position, or
    the relocation's mean, and the velocity gate measures from it.
    """

    def __init__(self, config: FilterConfig | None = None):
        self.config = config or FilterConfig()
        # unit() again, though the config's axis is unit already: it still
        # moves the last bits of about a third of all directions, and the
        # twists, so the poses and pins of a tilted up axis, rest on them
        self._up = unit(self.config.up_axis)
        self._window: deque = deque(maxlen=self.config.window)
        self._dropped: deque = deque(maxlen=self.config.stable_count)
        self._prev_time_ns: int | None = None
        self._quat: tuple | None = None  # of the last accepted frame
        self._pose: tuple | None = None  # (position, rotation) once built
        self._status: PoseStatus | None = None
        self._time_ns: int | None = None
        self._output: FilteredPose | None = None  # once built
        self._warmed_up = False
        self.stale = 0

    @property
    def last_output(self) -> FilteredPose | None:
        """The current pose, or None before any frame was ever accepted."""
        if self._output is None and self._status is not None:
            if self._pose is None:
                self._pose = (_mean(self._window), twist(self._quat, self._up))
            self._output = FilteredPose(*self._pose, self._status, self._time_ns)
        return self._output

    def _stable(self) -> bool:
        if len(self._dropped) < self.config.stable_count:
            return False
        pts = self._dropped
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if _distance(pts[i], pts[j]) > self.config.stable_tol:
                    return False
        return True

    def _hold(self, time_ns: int) -> PoseStatus | None:
        if self._status is not None:
            self._status, self._time_ns, self._output = HOLDING, time_ns, None
        return self._status

    def process(self, raw: MocapPacket) -> PoseStatus | None:
        """Feed one tracker frame; returns the status it leaves, or None
        for a frame that changes nothing: a stale one, or any before a
        frame was ever accepted. So each RELOCATED return is one relocation.

        A frame older than the last one processed, as a reordering link
        delivers, is stale: it is counted in ``stale`` and dropped, and the
        state is left unchanged.
        """
        if self._prev_time_ns is not None and raw.time_ns < self._prev_time_ns:
            self.stale += 1
            return None
        dt = None
        if self._prev_time_ns is not None:
            dt = max((raw.time_ns - self._prev_time_ns) / 1e9, 1e-12)
        self._prev_time_ns = raw.time_ns

        if raw.quality == QUALITY_LOST:
            return self._hold(raw.time_ns)

        pos = raw.position  # finite: MocapPacket rejects a tracked sample that is not
        window, accepted = self._window, True
        if window:  # the velocity gate, boundary inclusive
            (x, y, z), (px, py, pz) = pos, window[-1]
            dx, dy, dz = x - px, y - py, z - pz
            accepted = math.sqrt(dx * dx + dy * dy + dz * dz) / dt <= self.config.vmax
        if not accepted:
            self._dropped.append(pos)
            if not self._stable():
                return self._hold(raw.time_ns)
            mean = _mean(self._dropped)
            self._dropped.clear()
            window.clear()
            window.append(mean)
            # built now, as the window [mean] would average a -0.0 to +0.0
            self._pose = (mean, twist(raw.quaternion, self._up))
            status = RELOCATED
        else:
            self._dropped.clear()
            window.append(pos)
            if len(window) >= self.config.window:
                self._warmed_up = True
            self._quat = raw.quaternion
            self._pose = None
            status = STABLE if self._warmed_up else WARMING_UP
        self._status, self._time_ns, self._output = status, raw.time_ns, None
        return status
