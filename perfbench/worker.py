"""One measurement process of the benchmark; ``run.py`` starts several.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|memory|timed|traced --outdir DIR

Run with ``PYTHONPATH=src``. Set-up (the program's imports, config,
inputs) is timed from just after numpy is imported, and reported raw and
scaled to the reference speed of ``calib.py`` by the kernel timed just
before and just after it. Each run's time per unit of work is reported
the same two ways. The per-layer times of a traced run are raw. Then, by
mode:

- ``setup``: nothing more; the process is one sample of ``setup_s``.
- ``memory``: an untimed warm-up run, then one run under ``tracemalloc``,
  whose peak over the heap at its start is ``heap_peak_mb``.
- ``timed``: repeats the workload's operation until ``--seconds`` have
  passed and reports each run's microseconds per unit of work.
- ``traced``: makes a second instance of the workload with every layer
  wrapped, alternates untraced and traced runs, and reports the per-layer
  metrics of the traced run that ``us_per_op``'s estimator picks.

Either way the last line on stdout is one JSON object.
"""

import time

import numpy  # noqa: F401  before the set-up clock starts: see setup_done()

import calib

calib.kernel()  # the first call pays for warming up the interpreter
KERNEL_BEFORE_S = calib.kernel_s()
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from run import estimate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_scaled(wl):
    """One ``run_once`` and its microseconds per unit of work: raw, and
    scaled to the reference speed by the kernel timed on either side."""
    before = calib.kernel_s()
    t0 = time.perf_counter()
    result = wl.run_once()
    raw = (time.perf_counter() - t0) * 1e6 / wl.units_per_run
    return result, raw, raw * 2 * calib.KERNEL_REF_S / (before + calib.kernel_s())


def timed_runs(wl, seconds: float) -> tuple[list[float], list[float]]:
    """Repeat ``run_once`` for ``seconds``; checks stay outside the timing.
    Returns each run's scaled and raw microseconds per unit of work."""
    per_op, raw_per_op = [], []
    deadline = time.perf_counter() + seconds
    while True:
        result, raw, us = run_scaled(wl)
        per_op.append(us)
        raw_per_op.append(raw)
        wl.check(result)
        if time.perf_counter() >= deadline:
            return per_op, raw_per_op


def setup_done() -> dict:
    """The set-up time so far, raw and scaled to the reference speed by
    the kernel timed before it and now. numpy's own import is left out:
    no change to twinsync can move it, and on the development host it
    alone flipped between about 0.15 and 0.08 s for minutes at a time."""
    raw = time.perf_counter() - T_START
    return {"setup_s": raw * 2 * calib.KERNEL_REF_S / (KERNEL_BEFORE_S + calib.kernel_s()),
            "setup_raw_s": raw}


def report(wl, setup: dict, **extra) -> dict:
    return {**setup, "attempted": wl.attempted, "failed": wl.failed,
            "problems": wl.problems, "details": wl.details(), **extra}


def setup_only(name, seed, seconds, outdir) -> dict:
    import workloads

    wl = workloads.make(name, seed, outdir)
    setup = setup_done()
    wl.finish()
    return report(wl, setup)


def memory(name, seed, seconds, outdir) -> dict:
    """Peak heap of one run over the heap at its start. ``tracemalloc``
    also counts numpy's buffers, so this is what the operation holds:
    for ``simulate`` the whole log and trace, which grow with its length."""
    import workloads

    wl = workloads.make(name, seed, outdir)
    setup = setup_done()
    # a first run fills the program's one-time caches, which are not what
    # a run holds
    wl.check(wl.run_once())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = wl.run_once()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    wl.check(result)
    wl.finish()
    return report(wl, setup, heap_peak_mb=peak / 1e6)


def untraced(name, seed, seconds, outdir) -> dict:
    import workloads

    wl = workloads.make(name, seed, outdir)
    setup = setup_done()
    per_op, raw_per_op = timed_runs(wl, seconds)
    wl.finish()
    return report(wl, setup, per_op_us=per_op, raw_per_op_us=raw_per_op,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def traced(name, seed, seconds, outdir) -> dict:
    import layers
    import tracer
    import workloads

    plain = workloads.make(name, seed, outdir)
    setup = setup_done()
    counters = layers.Counters()
    tr = tracer.Tracer(counters.observers())
    missing = tr.install()
    try:
        # a second instance, made under the tracer so that its set-up is
        # traced and the live bridge's receiver threads keep the wrapped
        # decoders
        (outdir / "traced").mkdir(exist_ok=True)
        wl = workloads.make(name, seed, outdir / "traced")
    finally:
        tr.uninstall()
    setup_spans = list(tr.spans)

    # untraced and traced runs alternate, so both see the same host noise
    plain_per_op, passes = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        result, _, per_op = run_scaled(plain)
        plain_per_op.append(per_op)
        plain.check(result)

        tr.install()
        try:
            tr.clear()
            counters.reset()
            result, _, per_op = run_scaled(wl)
            spans = list(tr.spans)
        finally:
            tr.uninstall()
        wl.check(result)
        metrics = layers.pass_metrics(spans, counters, wl.units_per_run, wl.log_bytes())
        if not passes:
            metrics.update(layers.setup_metrics(setup_spans + spans))
        passes.append((per_op, metrics))
    plain.finish()
    wl.finish()

    attempted = plain.attempted + wl.attempted
    failed = plain.failed + wl.failed
    problems = plain.problems + wl.problems
    for key in layers.DETERMINISTIC:
        attempted += 1
        values = {m[key] for _, m in passes}
        if len(values) > 1:
            failed += 1
            problems.append(f"{key} differs between traced runs: {sorted(values)}")
    if name == "teleop_contact":
        # the follower computes one Jacobian per command delivered to it
        for _, m in passes:
            attempted += 1
            jac, cmds = m["harness.numeric_jacobian.calls"], m["harness.commands_delivered"]
            if jac != cmds:
                failed += 1
                problems.append(f"{jac} numeric_jacobian calls for {cmds} commands "
                                f"delivered")
    attempted += 1
    if plain.details().get("state_hash") != wl.details().get("state_hash"):
        failed += 1
        problems.append("tracing changed the final state_hash")

    # report the traced run that us_per_op's estimator would pick
    plain_us = estimate(plain_per_op)
    traced_us = estimate([p for p, _ in passes])
    _, per_layer = min(passes, key=lambda p: abs(p[0] - traced_us))
    per_layer = {**passes[0][1], **per_layer}
    per_layer["trace.overhead_us_per_op"] = traced_us - plain_us
    per_layer["trace.overhead_ratio"] = traced_us / plain_us - 1
    return {**setup, "per_op_us": plain_per_op,
            "traced_per_op_us": [p for p, _ in passes], "per_layer": per_layer,
            "missing_targets": missing, "attempted": attempted, "failed": failed,
            "problems": problems, "details": wl.details()}


MODES = {"setup": setup_only, "memory": memory, "timed": untraced, "traced": traced}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=MODES)
    ap.add_argument("--outdir", type=Path, required=True)
    args = ap.parse_args()
    os.chdir(ROOT)

    import twinsync
    expected = (ROOT / "src" / "twinsync").resolve()
    if Path(twinsync.__file__).resolve().parent != expected:
        print(f"twinsync imported from {twinsync.__file__}, not {expected}; "
              f"run with PYTHONPATH=src", file=sys.stderr)
        return 2
    run = MODES[args.mode]
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.outdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
