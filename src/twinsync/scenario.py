"""Scenario configuration: schema, defaults, validation, file loading.

Config files are YAML (or JSON) mappings; every field has a default so a
scenario only states what it changes. See configs/example.yaml for the
full surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .grasp import GraspConfig
from .mocap import FilterConfig
from .network import DelayModel, LinkConfig
from .zones import ProhibitedZone


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class AssetConfig:
    name: str
    object_id: int
    position: np.ndarray
    # piecewise-linear ground-truth motion: list of (t_s, xyz) waypoints
    waypoints: tuple = ()
    # tracker occlusion windows: list of (t0_s, t1_s)
    occlusions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))

    def true_position(self, t: float) -> np.ndarray:
        if not self.waypoints:
            return self.position
        pts = [(0.0, self.position)] + [(ts, np.asarray(p, dtype=float))
                                        for ts, p in self.waypoints]
        for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
            if t <= t1:
                if t <= t0:
                    return p0
                a = (t - t0) / (t1 - t0)
                return p0 + a * (p1 - p0)
        return pts[-1][1]

    def occluded(self, t: float) -> bool:
        return any(t0 <= t <= t1 for t0, t1 in self.occlusions)


@dataclass(frozen=True)
class LeaderConfig:
    centers: tuple = (0.0,)
    amplitudes: tuple = (0.0,)
    frequencies: tuple = (0.0,)
    phases: tuple = (0.0,)
    gripper_schedule: tuple = ((0.0, 0.08),)


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
    station_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    station_yaw: float = 0.0
    tracker_noise_sigma: float = 1e-4  # m, per axis
    mocap_rate_hz: int = 120
    ee_link: str | None = None  # default: deepest link in the chain
    stats_path: str | None = None
    trace_path: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "station_position",
                           np.asarray(self.station_position, dtype=float))
        if self.duration_s < 0:
            raise ConfigError("duration must be >= 0")
        if self.mocap_rate_hz <= 0:
            raise ConfigError("mocap_rate_hz must be positive")
        if self.tracker_noise_sigma < 0:
            raise ConfigError("tracker_noise_sigma must be >= 0")
        ids = [a.object_id for a in self.assets]
        if 0 in ids or len(set(ids)) != len(ids):
            raise ConfigError("asset object_ids must be unique and nonzero "
                              "(0 is the station)")


def _delay_from_dict(d: dict) -> DelayModel:
    kind = d.get("kind", "constant")
    if kind == "constant":
        return DelayModel.constant(d.get("ms", 0.0))
    if kind == "uniform":
        return DelayModel.uniform(d["lo_ms"], d["hi_ms"])
    if kind == "normal":
        return DelayModel.normal(d["mu_ms"], d["sigma_ms"])
    if kind == "empirical":
        if "samples_ms" in d:
            return DelayModel.empirical(d["samples_ms"])
        # evenly spaced grid shorthand for symmetric empirical distributions
        return DelayModel.empirical(
            np.linspace(d["lo_ms"], d["hi_ms"], d["count"]).tolist())
    raise ConfigError(f"unknown delay kind {kind!r}")


def _link_from_dict(d: dict, default_seed: int) -> LinkConfig:
    return LinkConfig(delay=_delay_from_dict(d.get("delay", {})),
                      loss=d.get("loss", 0.0),
                      seed=d.get("seed", default_seed))


def config_from_dict(d: dict) -> ScenarioConfig:
    try:
        kwargs: dict = {}
        for key in ("seed", "duration_s", "robot_path", "robot_id", "gains_kp",
                    "gains_kd", "tracker_noise_sigma", "mocap_rate_hz", "ee_link",
                    "station_yaw", "stats_path", "trace_path", "log_path"):
            if key in d:
                kwargs[key] = d[key]
        seed = kwargs.get("seed", 0)
        if "station_position" in d:
            kwargs["station_position"] = np.asarray(d["station_position"], dtype=float)
        for link in ("teleop_link", "telemetry_link", "mocap_link", "command_link"):
            if link in d:
                kwargs[link] = _link_from_dict(d[link], seed)
        if "processing_delay" in d:
            kwargs["processing_delay"] = _delay_from_dict(d["processing_delay"])
        if "leader" in d:
            ld = d["leader"]
            kwargs["leader"] = LeaderConfig(
                centers=tuple(ld.get("centers", (0.0,))),
                amplitudes=tuple(ld.get("amplitudes", (0.0,))),
                frequencies=tuple(ld.get("frequencies", (0.0,))),
                phases=tuple(ld.get("phases", (0.0,))),
                gripper_schedule=tuple((float(t), float(w)) for t, w in
                                       ld.get("gripper_schedule", ((0.0, 0.08),))))
        if "filter" in d:
            fd = d["filter"]
            kwargs["filter"] = FilterConfig(
                window=fd.get("window", 9), vmax=fd.get("vmax", 2.0),
                up_axis=np.asarray(fd.get("up_axis", (0.0, 0.0, 1.0)), dtype=float),
                stable_count=fd.get("stable_count", 10),
                stable_tol=fd.get("stable_tol", 0.005))
        if "grasp" in d:
            gd = d["grasp"]
            kwargs["grasp"] = GraspConfig(
                stall_eps=gd.get("stall_eps", 1e-3),
                stall_count=gd.get("stall_count", 5),
                closed_threshold=gd.get("closed_threshold", 1e-3),
                release_eps=gd.get("release_eps", 2e-3))
        if "zones" in d:
            kwargs["zones"] = tuple(
                ProhibitedZone(z["id"], np.asarray(z["center"], dtype=float),
                               np.asarray(z["half_extents"], dtype=float),
                               np.asarray(z.get("orientation", (1, 0, 0, 0)), dtype=float),
                               z.get("stiffness", 500.0),
                               z.get("attached_asset"))
                for z in d["zones"])
        if "assets" in d:
            kwargs["assets"] = tuple(
                AssetConfig(a["name"], a["object_id"],
                            np.asarray(a["position"], dtype=float),
                            tuple((float(t), tuple(p)) for t, p in a.get("waypoints", ())),
                            tuple((float(t0), float(t1)) for t0, t1 in
                                  a.get("occlusions", ())))
                for a in d["assets"])
        return ScenarioConfig(**kwargs)
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"invalid scenario config: {e}") from e


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    data = json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)
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
