"""Deterministic emulated network links.

Links are driven by an external discrete-event clock in nanoseconds:
``send(t, payload)`` schedules deliveries, ``poll(now)`` drains everything
due. All randomness comes from the seed each link is built with, through
``doubles``. A link's schema, ``LinkConfig`` and its ``DelayModel``, is
declared in ``scenario``. A link carries whatever it is sent: ``simulate``
sends telemetry at its own merge ticks, so nothing here downsamples.
"""

from __future__ import annotations

import heapq
import math
from array import array
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .scenario import DelayModel, LinkConfig

NS_PER_MS = 1_000_000


def doubles(seed):
    """The emulator's one random source: a callable returning the doubles
    successive ``default_rng(seed).random()`` calls would, drawn 64 at a time.
    Draws transform these, so runs rest only on PCG64 and ``SeedSequence``."""
    rng = np.random.default_rng(seed)
    return chain.from_iterable(array("d", rng.random(n).tobytes()) for n in repeat(64)).__next__


def normal(u, mu: float, sigma: float) -> float:
    """``mu + sigma * z``, ``z`` from the next two doubles of ``u`` by the
    cosine branch of Box–Muller; ``1 - u`` is in (0, 1], so its log is finite."""
    r = math.sqrt(-2.0 * math.log(1.0 - u()))
    return mu + sigma * (r * math.cos(2.0 * math.pi * u()))


def delay_ms(delay: DelayModel, u) -> float:
    """A delay drawn from the double source ``u``: a constant draws none, a
    uniform one (``Generator.uniform``'s ``lo + (hi - lo) * u``), a normal
    two, truncated at zero, and an empirical one, ``samples[int(u * n)]``."""
    if delay.kind == "constant":
        return delay.params[0]
    if delay.kind == "uniform":
        lo, hi = delay.params
        return lo + (hi - lo) * u()
    if delay.kind == "normal":
        return max(0.0, normal(u, *delay.params))
    samples = delay.params[0]
    return samples[int(u() * len(samples))]


def delay_ns(delay: DelayModel, u) -> int:
    """``delay_ms``'s draw, rounded to whole nanoseconds."""
    return int(round(delay_ms(delay, u) * NS_PER_MS))


class Delivery(NamedTuple):
    time_ns: int
    payload: object


class DatagramLink:
    """Unreliable, possibly-reordering link with per-packet sampled delay,
    drawn from the double stream of ``seed``."""

    def __init__(self, config: LinkConfig, seed: int):
        self.config = config
        self._u = doubles(seed)
        self._heap: list[tuple[int, int, Delivery]] = []
        self._count = 0
        self.sent = 0
        self.dropped = 0
        # a lossless link with a constant delay reads nothing of its stream:
        # its loss draws never drop a packet, and no other draw reads them
        self._fixed_ns = (delay_ns(config.delay, self._u)
                          if config.loss == 0.0 and config.delay.kind == "constant"
                          else None)

    def send(self, time_ns: int, payload) -> bool:
        """Queue ``payload`` for delivery; False when the link lost it."""
        self.sent += 1
        wait_ns = self._fixed_ns
        if wait_ns is None:
            # the loss double, then the delay, on every send, lost or not
            lost = self._u() < self.config.loss
            wait_ns = delay_ns(self.config.delay, self._u)
            if lost:
                self.dropped += 1
                return False
        d = Delivery(time_ns + wait_ns, payload)
        heapq.heappush(self._heap, (d.time_ns, self._count, d))
        self._count += 1
        return True

    def poll(self, now_ns: int) -> list[Delivery]:
        out = []
        while self._heap and self._heap[0][0] <= now_ns:
            out.append(heapq.heappop(self._heap)[2])
        return out

    @property
    def pending(self) -> int:
        return len(self._heap)


class StreamLink:
    """Lossless in-order link with head-of-line blocking.

    Delivery time = max(send time + sampled delay, previous delivery time),
    the delays drawn from the double stream of ``seed``.
    """

    def __init__(self, config: LinkConfig, seed: int):
        if config.loss != 0.0:
            raise ValueError("stream links cannot be lossy")
        self.config = config
        self._u = doubles(seed)
        self._queue: list[Delivery] = []
        self._last_delivery_ns = 0
        self.sent = 0

    def send(self, time_ns: int, payload) -> None:
        self.sent += 1
        t = max(time_ns + delay_ns(self.config.delay, self._u), self._last_delivery_ns)
        self._last_delivery_ns = t
        self._queue.append(Delivery(t, payload))

    def poll(self, now_ns: int) -> list[Delivery]:
        out = []
        while self._queue and self._queue[0].time_ns <= now_ns:
            out.append(self._queue.pop(0))
        return out

    @property
    def pending(self) -> int:
        return len(self._queue)
