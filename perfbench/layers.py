"""Per-layer metrics computed from one traced pass.

A pass is one ``run_once`` of a workload: one ``simulate``, one
``replay`` or one burst of live datagrams. Unless its name says
otherwise, a ``*.self_us`` metric is the layer's total self time in the
pass, in microseconds, and ``*.calls`` its call count in the pass. A
layer a workload does not run reads 0. Names, units and directions are
listed under ``per_layer`` in ``BENCHMARK.json``; ``run.py`` refuses to
report a set of metrics that differs from that list.

``README.md`` says which end-to-end metric each layer should move, and on
which workload.
"""

from __future__ import annotations

import statistics
from itertools import pairwise

from tracer import starts, summarize
from twinsync.wire import MOCAP_MAGIC, TELEMETRY_MAGIC

LINKS = ("telemetry", "mocap", "teleop", "command")

# Counts that depend only on the seed; every traced pass must repeat them.
DETERMINISTIC = (
    "robot.forward_kinematics.calls", "harness.numeric_jacobian.calls",
    "harness.commands_delivered", "mocap.process.calls", "mocap.relocations",
    "recordlog.log_bytes", "zones.query.hit_ratio",
    *(f"network.{link}.{what}" for link in LINKS for what in ("sent", "dropped")),
)

_ACCEPTED = {"stable", "warming_up", "relocated"}
_MAGIC = {TELEMETRY_MAGIC: "telemetry", MOCAP_MAGIC: "mocap"}


class Counters:
    """Counts taken from traced calls' arguments and results."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.zone_hits = 0
        self.mocap_accepted = 0
        self.relocations = 0
        self.merged = 0
        self.links: dict[int, dict] = {}

    def observers(self) -> dict:
        return {"zones.query": self._query, "mocap.process": self._mocap,
                "network.datagram_send": self._send,
                "network.stream_send": self._send,
                "live.merge_once": self._merge}

    def _query(self, args, result) -> None:
        self.zone_hits += result is not None

    def _mocap(self, args, result) -> None:
        status = getattr(getattr(result, "status", None), "value", None)
        self.mocap_accepted += status in _ACCEPTED
        self.relocations += status == "relocated"

    def _send(self, args, result) -> None:
        link, payload = args[0], args[-1]
        entry = self.links.get(id(link))
        if entry is None:
            if type(link).__name__ == "StreamLink":
                kind = "command"
            elif isinstance(payload, (bytes, bytearray)):
                kind = _MAGIC.get(int.from_bytes(payload[:2], "little"), "other")
            else:
                kind = "teleop"
            entry = self.links[id(link)] = {"kind": kind, "link": link, "sent": 0,
                                            "max_pending": 0}
        entry["sent"] += 1
        entry["max_pending"] = max(entry["max_pending"], getattr(link, "pending", 0))

    def _merge(self, args, result) -> None:
        self.merged += result


def pass_metrics(spans, counters: Counters, units: int, log_bytes: int) -> dict:
    """The per-layer metrics of one pass (trace.* and setup ones excluded)."""
    s = summarize(spans)

    def get(name, field="self_us"):
        return s.get(name, {}).get(field, 0)

    m = {
        "robot.forward_kinematics.calls": get("robot.forward_kinematics", "calls"),
        "robot.forward_kinematics.self_us": get("robot.forward_kinematics"),
        "robot.apply_joint_state.self_us": get("robot.apply_joint_state"),
        "harness.numeric_jacobian.calls": get("harness.numeric_jacobian", "calls"),
        "harness.numeric_jacobian.us": get("harness.numeric_jacobian", "us"),
        # the follower decodes each command frame the stream link delivers
        "harness.commands_delivered": get("wire.decode_command", "calls"),
        "harness.simulate.self_us_per_tick":
            get("harness.simulate") / units if get("harness.simulate", "calls") else 0,
        "harness.merge_tick.self_us": get("harness.merge_tick"),
        "harness.replay.self_us": get("harness.replay"),
        "teleop.pd_step.self_us": get("teleop.pd_step"),
        "teleop.leader_trajectory.self_us": get("teleop.leader_trajectory"),
        "mocap.process.self_us": get("mocap.process"),
        "mocap.process.calls": get("mocap.process", "calls"),
        "mocap.accepted_ratio": _ratio(counters.mocap_accepted,
                                       get("mocap.process", "calls")),
        "mocap.relocations": counters.relocations,
        "grasp.asset_update.self_us": get("grasp.asset_update"),
        "grasp.gripper_step.self_us": get("grasp.gripper_step"),
        "zones.query.self_us": get("zones.query"),
        "zones.query.hit_ratio": _ratio(counters.zone_hits, get("zones.query", "calls")),
        "zones.update_dynamic.self_us": get("zones.update_dynamic"),
        "network.datagram_send.self_us": get("network.datagram_send"),
        "network.datagram_poll.self_us": get("network.datagram_poll"),
        "network.stream_poll.self_us": get("network.stream_poll"),
        "network.throttle_offer.self_us": get("network.throttle_offer"),
        "recordlog.append.self_us": get("recordlog.append"),
        "recordlog.log_bytes": log_bytes,
        "recordlog.read_log.ms": get("recordlog.read_log", "us") / 1e3,
        "latency.record.self_us": get("latency.record"),
        "latency.compute_stats.ms": get("latency.compute_stats", "us") / 1e3,
        "live.merge_once.self_us": get("live.merge_once"),
        "live.merge_once.msgs_per_call": _ratio(counters.merged,
                                                get("live.merge_once", "calls")),
    }
    for op in ("encode", "decode"):
        for kind in ("telemetry", "mocap", "command"):
            m[f"wire.{op}_{kind}.self_us"] = get(f"wire.{op}_{kind}")
    for link in LINKS:
        entries = [e for e in counters.links.values() if e["kind"] == link]
        m[f"network.{link}.sent"] = sum(e["sent"] for e in entries)
        m[f"network.{link}.dropped"] = sum(getattr(e["link"], "dropped", 0)
                                           for e in entries)
        m[f"network.{link}.max_pending"] = max((e["max_pending"] for e in entries),
                                               default=0)
    # tick time: the interval between successive pd_step calls
    ticks = [(b - a) / 1e3 for a, b in pairwise(starts(spans, "teleop.pd_step"))]
    if len(ticks) >= 100:
        q = statistics.quantiles(ticks, n=100)
        m["teleop.tick_us.p50"], m["teleop.tick_us.p99"] = q[49], q[98]
    else:
        m["teleop.tick_us.p50"] = statistics.median(ticks) if ticks else 0
        m["teleop.tick_us.p99"] = max(ticks, default=0)
    m["teleop.tick_over_budget_ratio"] = _ratio(sum(t > 1000.0 for t in ticks),
                                                len(ticks))
    return m


def setup_metrics(spans) -> dict:
    """Mean per-call time of the set-up layers over the given spans."""
    s = summarize(spans)
    out = {}
    for name in ("scenario.load_config", "robot.parse_urdf"):
        rec = s.get(name)
        out[f"{name}.ms"] = rec["us"] / rec["calls"] / 1e3 if rec else 0
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0
