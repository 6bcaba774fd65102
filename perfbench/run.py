"""twinsync benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads:

- teleop_free: ``simulate`` with the zone out of reach; no contact path.
- teleop_contact: ``simulate`` with a command on almost every merge tick.
- replay_multi_asset: ``replay`` of a seeded log with four moving,
  occluded assets; the merge loop's read side only.
- live_loopback: a ``LiveBridge`` fed over loopback UDP by a closed-loop
  sender.

With ``--trace 0`` the end-to-end metrics are measured in fresh processes,
one after another, that share the ``--seconds`` budget: one ``memory``
process, then ``WORKERS`` times ``SETUPS_EACH`` set-up-only processes
followed by one ``timed`` process (see ``worker.py``):

- ``us_per_op``: microseconds per unit of work, at the reference speed
  of ``calib.py``. A unit is a 1 kHz control tick (``simulate``), a 60 Hz
  merge tick (``replay``) or an applied datagram (live). Each run's host
  time is scaled by ``calib.KERNEL_REF_S`` over the mean time of a fixed
  kernel timed just before and just after it, and the figure is the
  median over the runs of every timed process. The host the benchmark was
  developed on switches between two speeds about 1.8x apart, in phases
  that can outlast a whole run; the kernel slows in the same phases, so
  the scaled figure repeats where no estimator over raw times does. The
  raw median is printed next to it.
- ``setup_s``: the program's imports, config load, input generation and
  socket bind, after numpy is imported, scaled the same way by the kernel
  timed just before and just after it; the median over every process's
  set-up. The set-up-only processes are spread over the run so that the
  median does not rest on one burst of host noise. The raw median is
  printed next to it.
- ``heap_peak_mb``: the peak heap of one run over the heap at its start,
  from the ``memory`` process; for ``simulate`` this is the log and trace
  it holds in memory.
- ``peak_rss_mb``: peak resident set size of the whole process, mostly
  the interpreter and numpy; median over the timed processes.

With ``--trace 1`` one worker wraps every layer and reports the per-layer
metrics listed under ``per_layer`` in ``BENCHMARK.json`` instead. Correctness checks run outside
the timed region in both modes; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 4
SETUPS_EACH = 3
DEADLINE_S = 170



def estimate(runs: list[float]) -> float:
    """The us_per_op of a list of scaled per-run values."""
    return statistics.median(runs)


# the workloads, and how each one's us_per_op reads in its own terms:
# (name, unit, scale)
NATIVE = {
    "teleop_free": ("sim_us_per_tick", "us", None),
    "teleop_contact": ("sim_us_per_tick", "us", None),
    "replay_multi_asset": ("replay_merge_ticks_per_s", "1/s", 1e6),
    "live_loopback": ("live_pkts_per_s", "1/s", 1e6),
}


def run_worker(args, mode: str, seconds: float, outdir: Path, timeout: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--outdir", str(outdir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, results: list[dict]) -> tuple[dict, list[str]]:
    timed = [r for r in results if "per_op_us" in r]
    runs = [x for r in timed for x in r["per_op_us"]]
    raw = statistics.median(x for r in timed for x in r["raw_per_op_us"])
    value = estimate(runs)
    setups = [r["setup_s"] for r in results]
    raw_setup = statistics.median(r["setup_raw_s"] for r in results)
    heap = next(r["heap_peak_mb"] for r in results if "heap_peak_mb" in r)
    metrics = {
        "us_per_op": metric(value, "us"),
        "setup_s": metric(statistics.median(setups), "s"),
        "heap_peak_mb": metric(heap, "MB"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
    }
    name, unit, scale = NATIVE[workload]
    native = (lambda v: scale / v) if scale else (lambda v: v)
    lines = [
        f"{name:<26} {native(value):>14.4f} {unit:<5} median of {len(runs)} runs "
        f"at the reference speed (raw host median {native(raw):.4f})",
        f"{'us_per_op':<26} {value:>14.4f} {'us':<5} the same, as us per unit of work",
        f"{'setup_s':<26} {metrics['setup_s']['value']:>14.4f} {'s':<5} median of "
        f"{len(setups)} set-ups at the reference speed (fastest {min(setups):.4f}, "
        f"slowest {max(setups):.4f}, raw host median {raw_setup:.4f})",
        f"{'heap_peak_mb':<26} {heap:>14.4f} {'MB':<5} one run under tracemalloc",
        f"{'peak_rss_mb':<26} {metrics['peak_rss_mb']['value']:>14.4f} {'MB':<5} "
        f"median over {len(timed)} timed processes",
    ]
    return metrics, lines


def measure(args, outdir: Path, started: float) -> list[dict]:
    """Run the worker processes in order; see the module docstring."""
    def run(mode, seconds=0.0):
        remaining = DEADLINE_S - (time.monotonic() - started)
        return run_worker(args, mode, seconds, outdir, timeout=max(remaining, 1.0))

    if args.trace:
        return [run("traced", args.seconds)]
    budget_end = started + args.seconds
    results = [run("memory")]
    for i in range(WORKERS):
        results += [run("setup") for _ in range(SETUPS_EACH)]
        share = (budget_end - time.monotonic()) / (WORKERS - i)
        results.append(run("timed", max(share, 0.1)))
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description="twinsync benchmark")
    ap.add_argument("--workload", required=True, choices=NATIVE)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "twinsync" / "__init__.py").is_file():
        print(f"no twinsync sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    started = time.monotonic()
    outdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        results = measure(args, outdir, started)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    # every worker ran the same seeded inputs, so their outputs must agree
    hashes = [{k: v for k, v in r["details"].items() if k.endswith("_hash")}
              for r in results if r["details"]]
    for h in hashes[1:]:
        attempted += 1
        if h != hashes[0]:
            failed += 1
            problems.append("workers disagree on output hashes")

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"{'traced' if args.trace else 'untraced'}, {len(results)} process(es)")
    if args.trace:
        layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per_layer = results[0]["per_layer"]
        metrics = {k: metric(per_layer[k], layer_units[k]) for k in wanted
                   if k in per_layer}
        for k in wanted:
            if k in per_layer:
                print(f"  {k:<36} {per_layer[k]:>14.4f} {layer_units[k]}")
        missing = results[0]["missing_targets"]
        if missing:
            print(f"  not traced (absent from the program): {', '.join(missing)}")
    else:
        metrics, lines = end_to_end(args.workload, results)
        for line in lines:
            print("  " + line)
    ratio = failed / attempted if attempted else 0.0
    print(f"  {'ops_failed_ratio':<26} {ratio:>14.4f} {'':<5} {failed} failed of "
          f"{attempted} attempted")
    details = next((r["details"] for r in results if r["details"]), {})
    print(f"  details (not pinned): {json.dumps(details, sort_keys=True)}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    if sorted(metrics) != sorted(wanted):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
