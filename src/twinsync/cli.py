"""Command-line surface: simulate, measure-latency, replay, parse-urdf, fk, live."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .robot import UrdfError, forward_kinematics, parse_urdf
from .scenario import ConfigError, ScenarioConfig, load_config
from .twin import replay


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "duration", None) is not None:
        overrides["duration_s"] = args.duration
    if getattr(args, "robot", None) is not None:
        overrides["robot_path"] = args.robot
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_simulate(args) -> int:
    from .harness import simulate  # the emulator needs numpy; replay does not
    from .latency import format_table
    cfg = _load(args)
    result = simulate(cfg)
    print(f"control ticks       {result.control_ticks}")
    print(f"merge ticks         {result.merge_ticks}")
    print(f"telemetry sent      {result.telemetry_sent}")
    print(f"telemetry delivered {result.telemetry_delivered}")
    print(f"commands sent       {result.commands_sent}")
    print(f"mocap stale         {result.mocap_stale}")
    print(f"state hash          {result.state_hash}")
    print(f"trace hash          {result.trace_hash}")
    print(f"log hash            {result.log_hash}")
    if result.stats is not None:
        print(format_table(result.stats))
    return 0


def cmd_measure_latency(args) -> int:
    from .harness import measure_latency
    from .latency import export_stats, format_table
    cfg = _load(args)
    stats = measure_latency(cfg, n_samples=args.samples)
    if cfg.stats_path:
        Path(cfg.stats_path).write_text(export_stats(stats))
    print(format_table(stats))
    return 0


def cmd_replay(args) -> int:
    cfg = _load(args)
    result = replay(args.log, cfg, skip_bad=args.skip_bad)
    print(f"records          {result.records}")
    print(f"merge ticks      {result.merge_ticks}")
    print(f"skipped payloads {result.skipped}")
    print(f"state hash       {result.state_hash}")
    return 0


def cmd_parse_urdf(args) -> int:
    text = Path(args.model).read_text() if args.model != "-" else sys.stdin.read()
    model = parse_urdf(text)
    print(f"robot    {model.name}")
    print(f"root     {model.root}")
    print(f"links    {len(model.links)}")
    print(f"joints   {len(model.joints)} ({model.dof} movable)")
    for j in model.joints:
        lim = f" [{j.lower:.4f}, {j.upper:.4f}]" if j.kind != "fixed" else ""
        print(f"  {j.name}: {j.kind} {j.parent} -> {j.child}{lim}")
    return 0


def cmd_fk(args) -> int:
    text = Path(args.model).read_text() if args.model != "-" else sys.stdin.read()
    model = parse_urdf(text)
    positions = [float(x) for x in args.positions.split(",")] if args.positions \
        else [0.0] * model.dof
    poses = forward_kinematics(model, positions)
    for name in sorted(poses):
        p = poses[name]
        t = " ".join(f"{v:+.6f}" for v in p.translation)
        q = " ".join(f"{v:+.6f}" for v in p.rotation)
        print(f"{name}: t=({t}) q=({q})")
    return 0


def cmd_live(args) -> int:
    from .live import LiveBridge, loopback_self_test
    if args.self_test:
        counters = loopback_self_test(args.packets)
        print(f"telemetry applied {counters.telemetry_applied}/{args.packets}")
        print(f"malformed skipped {counters.malformed}")
        return 0 if counters.telemetry_applied >= 0.99 * args.packets else 1
    bridge = LiveBridge(host=args.host, telemetry_port=args.telemetry_port,
                        mocap_port=args.mocap_port, command_port=args.command_port)
    bridge.start()
    print(f"telemetry udp {bridge.telemetry_addr}")
    print(f"mocap udp     {bridge.mocap_addr}")
    print(f"command tcp   {bridge.command_addr}")
    try:
        bridge.run(args.duration if args.duration is not None else 1e9)
    except KeyboardInterrupt:
        pass
    finally:
        bridge.stop()
    c = bridge.counters
    print(f"telemetry applied {c.telemetry_applied}, mocap applied "
          f"{c.mocap_applied}, malformed {c.malformed}, command channel "
          f"{'up' if c.command_channel_up else 'down'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twinsync",
                                     description="Digital-twin sync engine and "
                                                 "teleoperation network testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file (YAML or JSON)")
        p.add_argument("--seed", type=int, help="override scenario seed")
        p.add_argument("--duration", type=float, help="override duration (s)")
        p.add_argument("--robot", help="override robot description path")

    p = sub.add_parser("simulate", help="run an emulated scenario")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("measure-latency", help="staged latency measurement")
    common(p)
    p.add_argument("--samples", type=int, default=20_000)
    p.set_defaults(func=cmd_measure_latency)

    p = sub.add_parser("replay", help="replay a recorded .dtrl log")
    p.add_argument("log")
    common(p)
    p.add_argument("--skip-bad", action="store_true",
                   help="skip bad records instead of halting")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("parse-urdf", help="parse and summarize a robot description")
    p.add_argument("--model", required=True, help="URDF path, or - for stdin")
    p.set_defaults(func=cmd_parse_urdf)

    p = sub.add_parser("fk", help="forward kinematics for given joint positions")
    p.add_argument("--model", required=True, help="URDF path, or - for stdin")
    p.add_argument("--positions", help="comma-separated joint positions")
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("live", help="live-socket bridge")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--telemetry-port", type=int, default=0)
    p.add_argument("--mocap-port", type=int, default=0)
    p.add_argument("--command-port", type=int, default=0)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--self-test", action="store_true",
                   help="loopback send/receive check")
    p.add_argument("--packets", type=int, default=1000)
    p.set_defaults(func=cmd_live)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (ConfigError, UrdfError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
