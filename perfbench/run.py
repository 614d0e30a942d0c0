#!/usr/bin/env python3
"""powerlab's benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the benchmark uses the checkout's own
``src/`` and ``scenarios/`` and nothing installed.  Workloads are
defined in ``workloads.py``: ``suite-stripes``, ``anomaly-absorb``,
``machines`` and ``starved``.

With ``--trace 0`` it measures end-to-end metrics, each workload in
fresh interpreters: ``setup_s`` is the median, over the measuring
process and one more process started every two seconds while it runs,
of the time from starting the interpreter to the moment the first check
could begin.  The measuring process runs timed passes for ``--seconds``
(closed loop, one pass after another).  Pass times are reported in
units of ``ref``, the time of a fixed pure-Python loop that the same
process runs just before and just after each pass: this machine's speed
drifts by a quarter over seconds, and the ratio cancels most of it.  ``wall_ref``
is the median pass, ``wall_tail_ref`` the pass at the highest
percentile with at least ten passes beyond it, ``points_per_ref`` the
(simulated member, input) points per ``ref`` of pass time, and
``peak_rss_mb`` that process's peak resident set.  The same figures in
seconds are printed above the result line.

With ``--trace 1`` it runs a fixed number of passes untraced, then the
same passes traced (``tracing.py``), followed by the layer-rate probe,
and prints the per-layer metrics and the layer-rate table.  The traced
reports must equal the untraced ones exactly.

Every report is checked against a known answer; ``failed_share`` is the
share of checks that did not match.  The last line of stdout is one
JSON object: ``correct``, ``attempted`` (checks), ``failed`` and
``metrics``.  ``--smoke`` runs a few passes only, to test the harness.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_PASSES = 12
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def _worker(workload: str, seed: int, mode: str, *extra: str) -> tuple:
    """Run one worker process to completion; returns (start time, its
    JSON result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _report_problems(result: dict) -> None:
    for line in result["problems"][:10]:
        print(f"known-answer mismatch: {line}")


def _scaled(res: dict) -> list:
    """Each pass in units of the reference loops run just before and
    after it, fastest first."""
    refs = res["refs"]
    return sorted(t * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(res["times"]))


def measure(args) -> tuple:
    extra = ("--passes", "2") if args.smoke else ("--seconds", str(args.seconds))
    started, res = _worker(args.workload, args.seed, "measure", *extra)
    setups = [res["ready"] - started] + res["setups"]
    _report_problems(res)
    times, refs = res["times"], res["refs"]
    n = len(times)
    scaled = _scaled(res)
    tail_ix = max(n - 1 - TAIL_BEYOND, 0)
    per_pass = res["points"][0]
    print(f"passes: {n}; points per pass: {per_pass}; setups: {len(setups)}")
    print(f"tail: pass {tail_ix + 1} of {n} from the fastest"
          f" (p{100 * (tail_ix + 1) / n:.0f}, {n - 1 - tail_ix} passes beyond it)")
    print(f"reference loop: median {statistics.median(refs) * 1e3:.3f} ms over {len(refs)} runs")
    print(f"in seconds: wall_s {statistics.median(times):.6g},"
          f" wall_tail_s {sorted(times)[tail_ix]:.6g}")
    print(f"digest: {_combined(res['digests'])}")
    wall = statistics.median(scaled)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_ref": (wall, "ref"),
        "wall_tail_ref": (scaled[tail_ix], "ref"),
        "points_per_ref": (per_pass / wall, "1/ref"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    return metrics, res["checks"], res["failed"]


def trace(args) -> tuple:
    passes = "1" if args.smoke else str(TRACE_PASSES)
    _, plain = _worker(args.workload, args.seed, "measure", "--passes", passes)
    spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
    _, traced = _worker(
        args.workload, args.seed, "trace", "--passes", passes, "--spans", str(spans)
    )
    _report_problems(plain)
    _report_problems(traced)
    attempted = plain["checks"] + traced["checks"] + 1  # + the comparison below
    failed = plain["failed"] + traced["failed"]
    # the rendered reports hold verdicts, witnesses, failures and Stats
    if plain["digests"] != traced["digests"]:
        failed += 1
        print("traced reports differ from the untraced ones")
    layers = dict(traced["layers"])
    # compared in reference-loop units, as the two processes ran at
    # different moments, and given back in seconds at the untraced speed
    layers["trace.overhead_s"] = (
        statistics.median(_scaled(traced)) - statistics.median(_scaled(plain))
    ) * statistics.median(plain["refs"])
    print(f"spans kept in {spans.relative_to(ROOT)}; digest: {_combined(plain['digests'])}")
    print("layer-rate table (traced; fixed probe work after the passes):")
    for label, key, unit in (
        ("term interpreter", "rate.term_fuel_per_s", "fuel/s"),
        ("CM interpreter", "rate.cm_steps_per_s", "steps/s"),
        ("TM interpreter", "rate.tm_steps_per_s", "steps/s"),
        ("checker self time per evaluation", "rate.checker_us_per_eval", "us"),
    ):
        print(f"  {label:34s} {layers[key]:>14,.1f} {unit}")
    for n in (10, 20):
        print(f"  compiled square at n={n:<2d}              "
              f"{layers[f'rate.square_n{n}_cm_steps']:>10,d} steps vs"
              f" {layers[f'rate.square_n{n}_fuel']:,d} term fuel")
    units = _per_layer_units()
    metrics = {name: (layers[name], unit) for name, unit in units.items()}
    return metrics, attempted, failed


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in _spec()["per_layer"]}


def _workload_names() -> list:
    return [w["name"] for w in _spec()["workloads"]]


def _combined(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="powerlab benchmark")
    p.add_argument("--workload", required=True, choices=_workload_names())
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few passes only")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "powerlab" / "__init__.py").is_file() or not (
        ROOT / "scenarios"
    ).is_dir():
        sys.stderr.write("perfbench: src/powerlab and scenarios/ are missing; "
                         "run from the root of a powerlab checkout\n")
        return 2
    print(f"workload: {args.workload}; seed: {args.seed}; trace: {args.trace}")
    print(f"python {platform.python_version()}; nproc {len(os.sched_getaffinity(0))};"
          f" loadavg at start {_loadavg()}")
    try:
        if args.trace:
            metrics, attempted, failed = trace(args)
        else:
            metrics, attempted, failed = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(f"loadavg at end {_loadavg()}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
