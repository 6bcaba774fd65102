"""Keep-latest throttling and deterministic emulated network links.

Links are driven by an external discrete-event clock in nanoseconds:
``send(t, payload)`` schedules deliveries, ``poll(now)`` drains everything
due. All randomness comes from the per-link seed.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

NS_PER_MS = 1_000_000


@dataclass(frozen=True)
class DelayModel:
    """One-way delay distribution, parameters in milliseconds."""

    kind: str  # constant | uniform | normal | empirical
    params: tuple = ()

    def __post_init__(self):
        if self.kind == "constant":
            (d,) = self.params
            if d < 0:
                raise ValueError("constant delay must be >= 0")
        elif self.kind == "uniform":
            lo, hi = self.params
            if lo < 0 or hi < lo:
                raise ValueError("uniform delay requires 0 <= lo <= hi")
        elif self.kind == "normal":
            mu, sigma = self.params
            if sigma < 0:
                raise ValueError("normal delay requires sigma >= 0")
        elif self.kind == "empirical":
            samples = self.params[0]
            if len(samples) == 0 or min(samples) < 0:
                raise ValueError("empirical delay requires non-empty, non-negative samples")
        else:
            raise ValueError(f"unknown delay model {self.kind!r}")

    def sample_ms(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "uniform":
            return rng.uniform(*self.params)
        if self.kind == "normal":
            # truncated at zero
            return max(0.0, rng.normal(*self.params))
        samples = self.params[0]
        return samples[rng.integers(len(samples))]

    @staticmethod
    def constant(ms: float = 0.0) -> "DelayModel":
        return DelayModel("constant", (ms,))

    @staticmethod
    def uniform(lo_ms: float, hi_ms: float) -> "DelayModel":
        return DelayModel("uniform", (lo_ms, hi_ms))

    @staticmethod
    def normal(mu_ms: float, sigma_ms: float) -> "DelayModel":
        return DelayModel("normal", (mu_ms, sigma_ms))

    @staticmethod
    def empirical(samples_ms) -> "DelayModel":
        return DelayModel("empirical", (tuple(samples_ms),))


def _doubles(rng: np.random.Generator):
    """The doubles successive ``rng.random()`` calls return, drawn 64 at a
    time: ``Generator.random(n)`` fills from the same stream."""
    while True:
        yield from array("d", rng.random(64).tobytes())


def _link_draws(delay: DelayModel, rng: np.random.Generator):
    """``(random, delay_ms)``: zero-argument callables that draw a link's
    loss double and its delay from ``rng`` in per-send order.

    A constant delay draws nothing and a uniform one a single double,
    ``Generator.uniform``'s ``lo + (hi - lo) * u``, so both links read one
    stream of doubles drawn in blocks. Normal and empirical delays draw
    from ``rng`` on each send.
    """
    if delay.kind == "constant":
        (d,) = delay.params
        return partial(next, _doubles(rng)), lambda: d
    if delay.kind == "uniform":
        u = _doubles(rng)
        lo, hi = map(float, delay.params)
        span = hi - lo
        return partial(next, u), lambda: lo + span * next(u)
    return rng.random, partial(delay.sample_ms, rng)


@dataclass(frozen=True)
class LinkConfig:
    delay: DelayModel = field(default_factory=lambda: DelayModel.constant(0.0))
    loss: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")


class Throttle:
    """Downsample a timestamped stream to ``target_hz`` by keep-latest.

    ``offer`` returns the (tick_time, sample) emissions due up to the
    sample's timestamp. A tick with no new sample since the previous
    emission emits nothing.
    """

    def __init__(self, target_hz: int = 60):
        if target_hz <= 0:
            raise ValueError("target_hz must be positive")
        self.target_hz = target_hz
        self._tick = 0
        self._next_ns = 0
        self._last_time = None
        self._latest = None
        self._latest_idx = -1
        self._emitted_idx = -1
        self._offered = 0

    def _tick_time(self, k: int) -> int:
        return (k * 1_000_000_000) // self.target_hz

    def _drain(self, until_ns: int, out: list):
        while self._next_ns <= until_ns:
            if self._latest_idx > self._emitted_idx:
                out.append((self._next_ns, self._latest))
                self._emitted_idx = self._latest_idx
            self._tick += 1
            self._next_ns = self._tick_time(self._tick)

    def offer(self, time_ns: int, sample) -> list:
        if self._last_time is not None and time_ns < self._last_time:
            raise ValueError("non-monotone input timestamps")
        self._last_time = time_ns
        out: list = []
        # ticks strictly before this sample see only earlier samples
        self._drain(time_ns - 1, out)
        self._latest = sample
        self._latest_idx = self._offered
        self._offered += 1
        self._drain(time_ns, out)
        return out

    def flush(self, until_ns: int) -> list:
        """Run remaining ticks up to ``until_ns`` without new input."""
        out: list = []
        self._drain(until_ns, out)
        return out


class Delivery(NamedTuple):
    time_ns: int
    send_time_ns: int
    payload: object


class DatagramLink:
    """Unreliable, possibly-reordering link with per-packet sampled delay."""

    def __init__(self, config: LinkConfig):
        self.config = config
        self._random, self._delay_ms = _link_draws(
            config.delay, np.random.default_rng(config.seed))
        self._heap: list[tuple[int, int, Delivery]] = []
        self._count = 0
        self.sent = 0
        self.dropped = 0

    def send(self, time_ns: int, payload) -> None:
        self.sent += 1
        lost = self._random() < self.config.loss
        delay_ns = int(round(self._delay_ms() * NS_PER_MS))
        if lost:
            self.dropped += 1
            return
        d = Delivery(time_ns + delay_ns, time_ns, payload)
        heapq.heappush(self._heap, (d.time_ns, self._count, d))
        self._count += 1

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

    Delivery time = max(send time + sampled delay, previous delivery time).
    """

    def __init__(self, config: LinkConfig):
        if config.loss != 0.0:
            raise ValueError("stream links cannot be lossy")
        self.config = config
        _, self._delay_ms = _link_draws(config.delay,
                                        np.random.default_rng(config.seed))
        self._queue: list[Delivery] = []
        self._last_delivery_ns = 0
        self.sent = 0

    def send(self, time_ns: int, payload) -> None:
        self.sent += 1
        delay_ns = int(round(self._delay_ms() * NS_PER_MS))
        t = max(time_ns + delay_ns, self._last_delivery_ns)
        self._last_delivery_ns = t
        self._queue.append(Delivery(t, time_ns, payload))

    def poll(self, now_ns: int) -> list[Delivery]:
        out = []
        while self._queue and self._queue[0].time_ns <= now_ns:
            out.append(self._queue.pop(0))
        return out

    @property
    def pending(self) -> int:
        return len(self._queue)
