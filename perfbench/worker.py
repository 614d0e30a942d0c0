"""One benchmark process: set up a workload, then run passes over it.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
        [--seconds S | --passes P] [--spans FILE]

Modes:

``setup``    build the workload and stop; reports when it was ready.
``measure``  one untimed warm-up pass, then timed passes, each between
             two runs of the reference loop, until ``--seconds`` have
             passed, with a ``setup`` process timed every two seconds;
             or exactly ``--passes`` passes, without warm-up or set-up
             samples.
``trace``    exactly ``--passes`` passes with every layer wrapped in
             spans, then the layer-rate probe.

Every pass is checked against the known answers after its clock stops.
The last line of stdout is one JSON object for ``run.py``; the
``ready`` time is ``time.monotonic()``, which the parent compares with
the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer  # after workloads, which puts src/ on the path

SETUP_EVERY_S = 2.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--passes", type=int, default=None)
    p.add_argument("--spans", default=None, help="write the kept spans here (trace mode)")
    args = p.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else None
    checks = workloads.WORKLOADS[args.workload](tracer)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.mode != "setup":
        out.update(run_passes(checks, args, tracer))
    if tracer is not None:
        figures, evaluations, fuel_spent, problems = workloads.rate_probe(tracer)
        out["evaluations"] += evaluations
        out["fuel_spent"] += fuel_spent
        out["checks"] += 1
        out["failed"] += bool(problems)
        out["problems"] += problems
        if tracer.count["simcheck.traced_evals"] != out["evaluations"]:
            out["failed"] += 1
            out["problems"].append(
                f"traced {tracer.count['simcheck.traced_evals']} evaluations,"
                f" reports say {out['evaluations']}"
            )
        out["layers"] = layer_figures(tracer, out)
        out["layers"].update(figures)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(args.spans)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def setup_sample(args) -> float:
    """Seconds from starting a fresh interpreter on this workload to the
    moment its first check could begin."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--mode", "setup"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - started


def run_passes(checks, args, tracer) -> dict:
    clock = time.perf_counter
    res = {
        "times": [], "refs": [], "points": [], "digests": [], "setups": [], "checks": 0,
        "failed": 0, "problems": [], "evaluations": 0, "fuel_spent": 0,
    }
    fixed = args.passes is not None
    pass_ix = 0
    if not fixed:
        # warm-up: caches and allocator settle; checked but not timed
        _, _, results = workloads.run_pass(checks, args.seed, pass_ix, tracer, clock)
        _verify(results, res)
        pass_ix += 1
    start = clock()
    next_setup = start
    while (pass_ix < args.passes) if fixed else (clock() - start < args.seconds):
        # set-up samples spread over the run, to span the machine's slow
        # and fast spells
        if not fixed and clock() >= next_setup:
            res["setups"].append(setup_sample(args))
            next_setup += SETUP_EVERY_S
        res["refs"].append(reference_loop(clock))
        seconds, rendered, results = workloads.run_pass(checks, args.seed, pass_ix, tracer, clock)
        res["times"].append(seconds)
        res["points"].append(sum(workloads.points(r[2]) for r in results))
        res["digests"].append(workloads.digest(rendered))
        for _, _, reports, _ in results:
            res["evaluations"] += sum(r.stats.evaluations for r in reports)
            res["fuel_spent"] += sum(r.stats.fuel_spent for r in reports)
        _verify(results, res)
        pass_ix += 1
    res["refs"].append(reference_loop(clock))
    return res


def reference_loop(clock) -> float:
    """Seconds for a fixed pure-Python loop that uses no powerlab code.

    This machine's speed drifts by a quarter over seconds, alike for
    every Python workload; a pass time divided by the loops timed just
    before and after it cancels most of that drift and leaves the
    program's own speed."""
    start = clock()
    acc = 0
    table = {}
    for i in range(180_000):
        acc += i * i % 7
        table[i & 255] = acc
    return clock() - start


def _verify(results, res) -> None:
    for check, inputs, reports, aggregate in results:
        problems = check.verify(check, inputs, reports, aggregate)
        res["checks"] += 1
        if problems:
            res["failed"] += 1
            res["problems"] += problems[:3]


def layer_figures(tracer, out) -> dict:
    busy, own, count = tracer.busy, tracer.self_time, tracer.count
    evaluations = out["evaluations"]
    # the rate probe puts work on every layer, so no total below is 0
    return {
        "recdsl.busy_s": busy["recdsl"],
        "recdsl.fuel": count["recdsl.fuel"],
        "recdsl.fuel_per_s": count["recdsl.fuel"] / busy["recdsl"],
        "recdsl.exhausted": count["recdsl.exhausted"],
        "simcheck.evaluations": evaluations,
        "simcheck.fuel_spent": out["fuel_spent"],
        "simcheck.self_s": own["simcheck.check"],
        "simcheck.self_us_per_eval": own["simcheck.check"] * 1e6 / evaluations,
        "simcheck.useful_ratio": count["simcheck.useful_evals"] / count["simcheck.traced_evals"],
        "core.eval.self_s": own["core.eval"],
        "core.encode.calls": count["core.encode.calls"],
        "core.encode.busy_s": busy["core.encode"],
        "constructions.builtin.busy_s": busy["constructions.builtin"],
        "machines.cm.steps": count["machines.cm.fuel"],
        "machines.cm.busy_s": busy["machines.cm"],
        "machines.cm.steps_per_s": count["machines.cm.fuel"] / busy["machines.cm"],
        "machines.tm.steps": count["machines.tm.fuel"],
        "machines.tm.busy_s": busy["machines.tm"],
        "machines.tm.steps_per_s": count["machines.tm.fuel"] / busy["machines.tm"],
        "machines.compile.busy_s": busy["machines.compile"],
        "machines.compile.instructions": count["machines.compile.instructions"],
        "cli.load_s": busy["cli.load"],
        "cli.render_s": busy["cli.render"],
    }


if __name__ == "__main__":
    sys.exit(main())
