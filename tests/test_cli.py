import importlib.metadata as md
import re
import socket
import sys
import threading
import time
from pathlib import Path

import pytest
import yaml

from twinsync.cli import main
from twinsync.harness import simulate
from twinsync.scenario import load_config

REPO = Path(__file__).parent.parent
CONFIGS = REPO / "configs"
PANDA = REPO / "assets" / "panda.urdf"

PLANAR = """
<robot name='planar'>
  <link name='base'/><link name='l1'/><link name='tip'/>
  <joint name='j1' type='revolute'>
    <parent link='base'/><child link='l1'/>
    <axis xyz='0 0 1'/><limit lower='-6.3' upper='6.3'/>
  </joint>
  <joint name='jtip' type='fixed'>
    <origin xyz='1 0 0'/>
    <parent link='l1'/><child link='tip'/>
  </joint>
</robot>
"""


@pytest.fixture
def robot_file(tmp_path):
    p = tmp_path / "planar.urdf"
    p.write_text(PLANAR)
    return str(p)


def test_parse_urdf_summary(capsys):
    assert main(["parse-urdf", "--model", str(PANDA)]) == 0
    out = capsys.readouterr().out
    assert "7 movable" not in out  # 7 revolute + 2 prismatic fingers
    assert "9 movable" in out
    assert "revolute" in out and "prismatic" in out


def test_parse_urdf_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(PLANAR))
    assert main(["parse-urdf", "--model", "-"]) == 0
    assert "planar" in capsys.readouterr().out


def test_fk_positions(capsys, robot_file):
    assert main(["fk", "--model", robot_file, "--positions", "1.5707963267948966"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"tip: t=\(([^)]+)\)", out)
    x, y, _ = (float(v) for v in m.group(1).split())
    assert abs(x) < 1e-6 and abs(y - 1.0) < 1e-6


def test_fk_bad_positions(capsys, robot_file):
    assert main(["fk", "--model", robot_file, "--positions", "1,2,3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_nonzero(capsys):
    assert main(["frobnicate"]) != 0
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_model_file(capsys):
    assert main(["parse-urdf", "--model", "no/such/file.urdf"]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_urdf_reports_an_axis_without_xyz(capsys, tmp_path):
    path = tmp_path / "bare_axis.urdf"
    path.write_text(PLANAR.replace("<axis xyz='0 0 1'/>", "<axis/>"))
    assert main(["parse-urdf", "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: expected 3 values in axis of joint 'j1'")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, text", [("bad.yaml", "seed: [1, 2\n"),
                                        ("bad.json", '{"seed": [1, 2\n')])
def test_malformed_config_file_reported(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["simulate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: malformed config file {path}: ")
    assert "Traceback" not in err


def test_measure_latency_table(capsys):
    code = main(["measure-latency", "--config",
                 str(CONFIGS / "reference_latency.yaml"), "--samples", "20000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ingress_to_socket" in out
    assert "3.600" in out
    assert "1.080" in out


def test_simulate_then_replay_hashes_match(capsys, tmp_path, robot_file):
    cfg = {
        "seed": 11,
        "duration_s": 0.5,
        "robot_path": robot_file,
        "leader": {"centers": [0.0], "amplitudes": [0.3],
                   "frequencies": [0.5], "phases": [0.0]},
        "telemetry_link": {"delay": {"kind": "constant", "ms": 2.0}},
        "log_path": str(tmp_path / "run.dtrl"),
    }
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    assert main(["simulate", "--config", str(cfg_path)]) == 0
    sim_out = capsys.readouterr().out
    sim_hash = re.search(r"state hash\s+([0-9a-f]{64})", sim_out).group(1)

    assert main(["replay", str(tmp_path / "run.dtrl"),
                 "--config", str(cfg_path)]) == 0
    rep_out = capsys.readouterr().out
    rep_hash = re.search(r"state hash\s+([0-9a-f]{64})", rep_out).group(1)
    assert sim_hash == rep_hash


def test_replay_takes_no_mode(capsys, tmp_path):
    # replay returns nothing before its last tick, so it has no timed mode
    assert main(["replay", str(tmp_path / "run.dtrl"), "--mode", "timed"]) == 2
    assert "unrecognized arguments: --mode timed" in capsys.readouterr().err


def test_misspelt_ee_link_stops_simulate_and_replay(capsys, tmp_path, robot_file):
    cfg = {"duration_s": 0.2, "robot_path": robot_file,
           "log_path": str(tmp_path / "run.dtrl")}
    good, bad = tmp_path / "good.yaml", tmp_path / "bad.yaml"
    good.write_text(yaml.safe_dump(cfg))
    bad.write_text(yaml.safe_dump({**cfg, "ee_link": "tpi"}))
    assert main(["simulate", "--config", str(good)]) == 0
    log = (tmp_path / "run.dtrl").read_bytes()
    capsys.readouterr()
    for argv in (["simulate", "--config", str(bad)],
                 ["replay", str(tmp_path / "run.dtrl"), "--config", str(bad)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: ee_link 'tpi' names no link" in err
    # the failed run stopped before its first tick: it wrote no log
    assert (tmp_path / "run.dtrl").read_bytes() == log


def test_simulate_seed_override_changes_hash(capsys, tmp_path, robot_file):
    # the file states a seed; --seed must still reach the link it declares
    cfg = {"seed": 5, "duration_s": 0.2, "robot_path": robot_file,
           "tracker_noise_sigma": 0.0,
           "telemetry_link": {"delay": {"kind": "uniform",
                                        "lo_ms": 0.5, "hi_ms": 4.0}}}
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    hashes, delays = [], []
    for seed in ("1", "2"):
        assert main(["simulate", "--config", str(cfg_path), "--seed", seed]) == 0
        out = capsys.readouterr().out
        hashes.append(re.search(r"log hash\s+([0-9a-f]{64})", out).group(1))
        delays.append(re.search(r"^ingress_to_socket .*$", out, re.M).group(0))
    assert hashes[0] != hashes[1]
    assert delays[0] != delays[1]


def test_simulate_reports_the_delivered_telemetry(capsys, tmp_path, robot_file):
    # a reordering link delivers packets the twin supersedes unapplied, so
    # the count printed is the link's, and says so
    cfg = {"seed": 3, "duration_s": 1.0, "robot_path": robot_file,
           "telemetry_link": {"delay": {"kind": "uniform", "lo_ms": 0.0, "hi_ms": 40.0}}}
    cfg_path = tmp_path / "s.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    delivered = int(re.search(r"^telemetry delivered +(\d+)$", out, re.M).group(1))
    assert delivered == simulate(load_config(cfg_path)).telemetry_delivered
    assert "telemetry applied" not in out


def test_live_self_test(capsys):
    assert main(["live", "--self-test", "--packets", "200"]) == 0
    assert "telemetry applied" in capsys.readouterr().out


@pytest.mark.parametrize("packets", ["0", "-3"])
def test_live_self_test_that_sends_nothing_fails(capsys, packets):
    assert main(["live", "--self-test", "--packets", packets]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "error: n_packets must be positive" in err


def test_live_reports_the_command_channel(capsys):
    assert main(["live", "--duration", "0"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == ("telemetry applied 0, mocap applied 0, malformed 0, "
                    "command channel up")


def test_live_reports_a_closed_command_channel(capsys):
    with socket.socket() as probe:  # a port that is free now
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    def connect_and_close():
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                return
            except ConnectionRefusedError:  # not listening yet
                time.sleep(0.01)

    peer = threading.Thread(target=connect_and_close)
    peer.start()
    try:
        assert main(["live", "--duration", "0.5", "--command-port", str(port)]) == 0
    finally:
        peer.join(timeout=10.0)
    assert not peer.is_alive()
    assert capsys.readouterr().out.splitlines()[-1].endswith("command channel down")


def _declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"].get("scripts", {})


def _twinsync_installed():
    try:
        md.distribution("twinsync")
    except md.PackageNotFoundError:
        return False
    return True


def test_console_script_registered():
    # Checks the declaration in the source tree, so it holds without an
    # install; an EntryPoint resolves its target the way a console-script
    # wrapper does.
    value = _declared_scripts().get("twinsync")
    assert value == "twinsync.cli:main"
    ep = md.EntryPoint(name="twinsync", value=value, group="console_scripts")
    assert ep.load() is main


@pytest.mark.skipif(not _twinsync_installed(),
                    reason="no twinsync distribution is installed")
def test_installed_console_script_matches_pyproject():
    # An install from another checkout or an older pyproject.toml is stale.
    eps = md.distribution("twinsync").entry_points
    installed = {ep.name: ep.value for ep in eps
                 if ep.group == "console_scripts"}
    assert installed.get("twinsync") == _declared_scripts()["twinsync"]
