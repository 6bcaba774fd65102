"""In-memory span tracer that wraps twinsync's public functions in place.

A target is patched where callers look it up: a module-level function is
replaced in every loaded ``twinsync`` module that holds it (``harness``
imports ``forward_kinematics`` by name, so patching ``twinsync.robot``
alone would miss its calls), and a method is replaced on its class.
Each call appends one span ``[name, start_ns, end_ns, parent, child_ns]``
to a list; parents come from a per-thread stack, so spans recorded by the
live bridge's receiver threads nest correctly. ``uninstall`` restores
every original. ``geometry`` is deliberately not wrapped: its functions
run tens of thousands of times per pass and the wrapper would dominate.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

NAME, START, END, PARENT, CHILD = range(5)

# (span name, module, attribute path). A target missing from the program
# is skipped, so the benchmark keeps running across refactors; its
# metrics then read 0.
TARGETS = (
    ("robot.forward_kinematics", "twinsync.robot", "forward_kinematics"),
    ("robot.apply_joint_state", "twinsync.robot", "apply_joint_state"),
    ("robot.parse_urdf", "twinsync.robot", "parse_urdf"),
    ("scenario.load_config", "twinsync.scenario", "load_config"),
    ("harness.numeric_jacobian", "twinsync.harness", "numeric_jacobian"),
    ("harness.simulate", "twinsync.harness", "simulate"),
    ("harness.replay", "twinsync.harness", "replay"),
    ("harness.merge_tick", "twinsync.harness", "TwinEngine.merge_tick"),
    ("teleop.pd_step", "twinsync.teleop", "pd_step"),
    ("teleop.leader_trajectory", "twinsync.teleop", "leader_trajectory"),
    ("mocap.process", "twinsync.mocap", "MocapFilter.process"),
    ("grasp.asset_update", "twinsync.grasp", "AssetTracker.update"),
    ("grasp.gripper_step", "twinsync.grasp", "GripperTracker.step"),
    ("zones.query", "twinsync.zones", "query"),
    ("zones.update_dynamic", "twinsync.zones", "update_dynamic"),
    ("wire.encode_telemetry", "twinsync.wire", "encode_telemetry"),
    ("wire.decode_telemetry", "twinsync.wire", "decode_telemetry"),
    ("wire.encode_mocap", "twinsync.wire", "encode_mocap"),
    ("wire.decode_mocap", "twinsync.wire", "decode_mocap"),
    ("wire.encode_command", "twinsync.wire", "encode_command"),
    ("wire.decode_command", "twinsync.wire", "decode_command"),
    ("network.datagram_send", "twinsync.network", "DatagramLink.send"),
    ("network.datagram_poll", "twinsync.network", "DatagramLink.poll"),
    ("network.stream_send", "twinsync.network", "StreamLink.send"),
    ("network.stream_poll", "twinsync.network", "StreamLink.poll"),
    ("network.throttle_offer", "twinsync.network", "Throttle.offer"),
    ("recordlog.append", "twinsync.recordlog", "LogWriter.append"),
    # simulate's in-memory log writer; the same layer as LogWriter.append
    ("recordlog.append", "twinsync.harness", "_BufWriter.append"),
    ("recordlog.read_log", "twinsync.recordlog", "read_log"),
    ("latency.record", "twinsync.latency", "LatencyRecorder.record"),
    ("latency.compute_stats", "twinsync.latency", "LatencyRecorder.compute_stats"),
    ("live.merge_once", "twinsync.live", "LiveBridge.merge_once"),
)


class Tracer:
    """Records spans for the wrapped targets between install and uninstall.

    ``observers`` maps a span name to ``fn(args, result)``, called after
    each successful call; the benchmark uses them for counts such as zone
    hits, filter outcomes and per-link traffic.
    """

    def __init__(self, observers=None):
        self.spans: list[list] = []
        self.observers = dict(observers or {})
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), 0, stack[-1] if stack else None, 0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every target present; returns the targets not found."""
        missing = []
        found = []
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
            else:
                found.append((name, owner if owner_name else None, leaf, original))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "twinsync" or n.startswith("twinsync.")]
        for name, cls, leaf, original in found:
            wrapper = self._wrap(name, original)
            if cls is not None:
                self._patch(cls, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return missing

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def clear(self) -> None:
        del self.spans[:]


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive and self time in microseconds.

    Self time is a span's duration minus the durations of its direct
    children, so every nanosecond is attributed to exactly one span.
    """
    for s in spans:
        s[CHILD] = 0
    for s in spans:
        parent = s[PARENT]
        if parent is not None:
            parent[CHILD] += s[END] - s[START]
    out: dict[str, dict] = {}
    for s in spans:
        rec = out.setdefault(s[NAME], {"calls": 0, "us": 0.0, "self_us": 0.0})
        dur = s[END] - s[START]
        rec["calls"] += 1
        rec["us"] += dur / 1e3
        rec["self_us"] += (dur - s[CHILD]) / 1e3
    return out


def starts(spans, name: str) -> list[int]:
    """Start times (ns) of every span with this name, in call order."""
    return [s[START] for s in spans if s[NAME] == name]
