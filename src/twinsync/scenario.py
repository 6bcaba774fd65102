"""Scenario configuration: schema, defaults, validation, file loading.

Config files are YAML (or JSON) mappings. The config dataclasses are the
schema: each key of a section names a field, which holds the default, and
``__post_init__`` converts (vectors to float tuples, the scenario's real
scalars to floats) and checks. An unknown key, a non-mapping section or an
integer too large for a float is a ``ConfigError`` naming the section. The
sections are the run's own inputs: ``simulate`` drives the leader from
``LeaderConfig`` and the follower from ``gains_kp`` and ``gains_kd``, and
derives every link's random stream from the scenario ``seed``. See
configs/example.yaml for the full surface. The module needs neither numpy
nor yaml: yaml is imported only to read a non-JSON file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .geometry import floats
from .grasp import GraspConfig
from .mocap import FilterConfig
from .zones import ProhibitedZone


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DelayModel:
    """One-way delay distribution, parameters in milliseconds as finite floats."""

    kind: str  # constant | uniform | normal | empirical
    params: tuple = ()

    def __post_init__(self):
        empirical = self.kind == "empirical"
        values = floats(self.params[0] if empirical else self.params)
        object.__setattr__(self, "params", (values,) if empirical else values)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{self.kind} delay parameters must be finite, got {values}")
        if self.kind == "constant":
            (d,) = values
            if d < 0:
                raise ValueError("constant delay must be >= 0")
        elif self.kind == "uniform":
            lo, hi = values
            if lo < 0 or hi < lo:
                raise ValueError("uniform delay requires 0 <= lo <= hi")
        elif self.kind == "normal":
            mu, sigma = values
            if sigma < 0:
                raise ValueError("normal delay requires sigma >= 0")
        elif empirical:
            if len(values) == 0 or min(values) < 0:
                raise ValueError("empirical delay requires non-empty, non-negative samples")
        else:
            raise ValueError(f"unknown delay model {self.kind!r}")

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
        return DelayModel("empirical", (samples_ms,))


@dataclass(frozen=True)
class LinkConfig:
    delay: DelayModel = field(default_factory=lambda: DelayModel.constant(0.0))
    loss: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")


@dataclass(frozen=True)
class AssetConfig:
    name: str
    object_id: int
    position: tuple
    # piecewise-linear ground-truth motion: list of (t_s, xyz) waypoints
    waypoints: tuple = ()
    # tracker occlusion windows: list of (t0_s, t1_s)
    occlusions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "position", floats(self.position))
        object.__setattr__(self, "waypoints",
                           tuple((float(t), floats(p)) for t, p in self.waypoints))
        object.__setattr__(self, "occlusions",
                           tuple((float(t0), float(t1)) for t0, t1 in self.occlusions))
        # written so that a NaN time fails the checks too
        times = [0.0, *(t for t, _ in self.waypoints)]
        if not all(a <= b for a, b in zip(times, times[1:])):
            raise ValueError(f"waypoint times must not decrease from 0, got {times[1:]}")
        if not all(t0 <= t1 for t0, t1 in self.occlusions):
            raise ValueError(f"an occlusion window ends before it starts: {self.occlusions}")
        # the wire codecs carry object_id in one unsigned byte
        if not (isinstance(self.object_id, int) and 0 <= self.object_id <= 255):
            raise ValueError(f"object_id must be an integer in 0-255, got {self.object_id!r}")
        for p in (self.position, *(p for _, p in self.waypoints)):
            if len(p) != 3 or not all(map(math.isfinite, p)):
                raise ValueError(f"positions must be 3 finite values, got {p}")

    def true_position(self, t: float) -> tuple:
        pts = ((0.0, self.position), *self.waypoints)
        for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
            if t <= t1:
                if t <= t0:
                    return p0
                a = (t - t0) / (t1 - t0)
                return tuple(x0 + a * (x1 - x0) for x0, x1 in zip(p0, p1))
        return pts[-1][1]

    def occluded(self, t: float) -> bool:
        return any(t0 <= t <= t1 for t0, t1 in self.occlusions)


@dataclass(frozen=True)
class LeaderConfig:
    """Per-joint sinusoids plus a scripted gripper-width schedule:
    q_i(t) = center_i + amplitude_i * sin(2*pi*freq_i*t + phase_i), and
    ``gripper_schedule`` holds (t_s, width_m) steps, piecewise constant."""

    centers: tuple = (0.0,)
    amplitudes: tuple = (0.0,)
    frequencies: tuple = (0.0,)
    phases: tuple = (0.0,)
    gripper_schedule: tuple = ((0.0, 0.08),)

    def __post_init__(self):
        for name in ("centers", "amplitudes", "frequencies", "phases"):
            object.__setattr__(self, name, floats(getattr(self, name)))
        object.__setattr__(self, "gripper_schedule",
                           tuple((float(t), float(w)) for t, w in self.gripper_schedule))
        # centers and amplitudes, NaN included, are checked against the
        # joint limits by harness.leader_profile
        for name in ("frequencies", "phases"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(math.isfinite(t) and math.isfinite(w) for t, w in self.gripper_schedule):
            raise ValueError("gripper_schedule times and widths must be finite, got "
                             f"{self.gripper_schedule}")
        # the leader's gripper follows the steps in order, from the first one
        times = [t for t, _ in self.gripper_schedule]
        if not times or not all(a <= b for a, b in zip(times, times[1:])):
            raise ValueError(f"gripper_schedule needs steps whose times do not decrease, "
                             f"got {times}")

    def gripper_at(self, t: float) -> float:
        width = self.gripper_schedule[0][1]
        for ts, w in self.gripper_schedule:
            if t >= ts:
                width = w
            else:
                break
        return width


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    duration_s: float = 1.0
    robot_path: str | None = None
    robot_id: int = 0
    gains_kp: float = 100.0
    gains_kd: float = 20.0
    leader: LeaderConfig = field(default_factory=LeaderConfig)
    teleop_link: LinkConfig = field(default_factory=LinkConfig)
    telemetry_link: LinkConfig = field(default_factory=LinkConfig)
    mocap_link: LinkConfig = field(default_factory=LinkConfig)
    command_link: LinkConfig = field(default_factory=LinkConfig)
    processing_delay: DelayModel = field(default_factory=lambda: DelayModel.constant(0.0))
    filter: FilterConfig = field(default_factory=FilterConfig)
    grasp: GraspConfig = field(default_factory=GraspConfig)
    zones: tuple[ProhibitedZone, ...] = ()
    assets: tuple[AssetConfig, ...] = ()
    station_position: tuple = (0.0, 0.0, 0.0)
    station_yaw: float = 0.0
    tracker_noise_sigma: float = 1e-4  # m, per axis
    mocap_rate_hz: int = 120
    ee_link: str | None = None  # default: deepest link in the chain
    stats_path: str | None = None
    trace_path: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "station_position", floats(self.station_position))
        for name in ("duration_s", "tracker_noise_sigma", "gains_kp", "gains_kd",
                     "station_yaw"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except OverflowError:  # an integer beyond the largest float
                raise ConfigError(f"{name} is too large for a float") from None
        # written so that NaN fails too
        for name in ("duration_s", "tracker_noise_sigma", "gains_kp", "gains_kd"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if not math.isfinite(self.station_yaw):
            raise ConfigError(f"station_yaw must be finite, got {self.station_yaw!r}")
        if len(self.station_position) != 3 or not all(map(math.isfinite,
                                                           self.station_position)):
            raise ConfigError("station_position must be 3 finite values, got "
                              f"{self.station_position}")
        # SeedSequence takes no negative seed, and the log header holds a u64
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise ConfigError(f"seed must be an integer in 0 to 2**64 - 1, got {self.seed!r}")
        # above 1 GHz the tracker period, 10**9 // rate ns, is 0: every frame
        # would fall due at t = 0
        if not (isinstance(self.mocap_rate_hz, int) and 0 < self.mocap_rate_hz <= 10 ** 9):
            raise ConfigError(f"mocap_rate_hz must be an integer in 1 to 10**9, "
                              f"got {self.mocap_rate_hz!r}")
        # the wire codecs carry robot_id in one unsigned byte
        if not (isinstance(self.robot_id, int) and 0 <= self.robot_id <= 255):
            raise ConfigError(f"robot_id must be an integer in 0-255, got {self.robot_id!r}")
        ids = [a.object_id for a in self.assets]
        if 0 in ids or len(set(ids)) != len(ids):
            raise ConfigError("asset object_ids must be unique and nonzero "
                              "(0 is the station)")
        # an attached zone names the asset it follows, so the names are keys
        names = [a.name for a in self.assets]
        if len(set(names)) != len(names):
            raise ConfigError(f"asset names must be unique, got {names}")
        zone_ids = [z.zone_id for z in self.zones]
        if len(set(zone_ids)) != len(zone_ids):
            raise ConfigError(f"zone ids must be unique, got {zone_ids}")
        for z in self.zones:
            if z.attached_asset is not None and z.attached_asset not in names:
                raise ConfigError(f"zone {z.zone_id!r}: attached_asset "
                                  f"{z.attached_asset!r} names no asset")
        # simulate writes each output as it runs, so two that share a file
        # would interleave into one corrupt file
        outputs = {}  # each output's resolved file, and the field naming it
        for name in ("log_path", "trace_path", "stats_path"):
            if getattr(self, name):
                path = os.path.realpath(getattr(self, name))
                if path in outputs:
                    raise ConfigError(f"{outputs[path]} and {name} resolve to the "
                                      f"same file {path!r}")
                outputs[path] = name


def _delay_from_dict(d: dict) -> DelayModel:
    """A ``kind`` and the keyword arguments of its ``DelayModel`` factory;
    ``empirical`` also takes a ``lo_ms``/``hi_ms``/``count`` evenly spaced
    grid shorthand in place of ``samples_ms``."""
    if not isinstance(d, dict):
        raise ConfigError(f"expected a mapping, got {d!r}")
    params = dict(d)
    kind = params.pop("kind", "constant")
    if kind not in ("constant", "uniform", "normal", "empirical"):
        raise ConfigError(f"unknown delay kind {kind!r}")
    if kind == "empirical" and "samples_ms" not in params:
        params["samples_ms"] = _linspace(params.pop("lo_ms"), params.pop("hi_ms"),
                                         params.pop("count"))
    return getattr(DelayModel, kind)(**params)


def _linspace(lo, hi, count: int) -> list[float]:
    """``numpy.linspace(lo, hi, count).tolist()`` in floats, bit for bit:
    ``i * step + lo``, or ``i / div * span + lo`` if the step underflows to
    0, with the last point ``hi``."""
    lo, hi, div = float(lo), float(hi), max(count - 1, 1)
    span = hi - lo
    step = span / div
    grid = [(i / div * span if step == 0 else i * step) + lo for i in range(count)]
    return grid[:-1] + [hi] if count > 1 else grid


def _build(cls, mapping, **converters):
    """``cls(**mapping)`` for a config section, each value first passed
    through its key's converter if it has one; errors name the key."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"expected a mapping, got {mapping!r}")
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in names:
            raise ConfigError(f"unknown {cls.__name__} key {key!r}")
        try:
            kwargs[key] = converters[key](value) if key in converters else value
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"{key}: {e}") from e
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"invalid {cls.__name__}: {e}") from e


def _zone(d) -> ProhibitedZone:
    # the one YAML key that is not its field's name: ``id`` is ``zone_id``
    if isinstance(d, dict):
        d = {("zone_id" if k == "id" else k): v for k, v in d.items()}
    return _build(ProhibitedZone, d)


def config_from_dict(d: dict) -> ScenarioConfig:
    link = partial(_build, LinkConfig, delay=_delay_from_dict)
    return _build(ScenarioConfig, d, leader=partial(_build, LeaderConfig),
                  teleop_link=link, telemetry_link=link, mocap_link=link,
                  command_link=link, processing_delay=_delay_from_dict,
                  filter=partial(_build, FilterConfig),
                  grasp=partial(_build, GraspConfig),
                  zones=lambda zs: tuple(map(_zone, zs)),
                  assets=lambda zs: tuple(_build(AssetConfig, a) for a in zs))


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if path.suffix == ".json":
        parse, malformed = json.loads, json.JSONDecodeError
    else:
        import yaml  # only for YAML files, so JSON configs load without it
        parse, malformed = yaml.safe_load, yaml.YAMLError
    try:
        data = parse(path.read_text())
    except malformed as e:
        raise ConfigError(f"malformed config file {path}: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    cfg = config_from_dict(data)
    if cfg.robot_path is not None and not Path(cfg.robot_path).exists():
        # robot paths may be given relative to the config file
        candidate = path.parent / cfg.robot_path
        if candidate.exists():
            cfg = replace(cfg, robot_path=str(candidate))
        else:
            raise ConfigError(f"robot description not found: {cfg.robot_path}")
    return cfg
