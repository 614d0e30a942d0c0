"""Tests of the benchmark harness itself: seeded inputs, reproducible
reports, known answers that catch a wrong report, and a short smoke run
of every workload, traced and untraced.

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=170
    )


def _digest(stdout: str) -> str:
    return next(line.split()[-1] for line in stdout.splitlines() if "digest:" in line)


def test_workloads_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_seed_draws_inputs(name):
    checks = workloads.WORKLOADS[name](None)
    first = [workloads.draw_inputs(7, 0, c) for c in checks]
    assert first == [workloads.draw_inputs(7, 0, c) for c in checks]
    assert first != [workloads.draw_inputs(8, 0, c) for c in checks]
    assert first != [workloads.draw_inputs(7, 1, c) for c in checks]
    for check, inputs in zip(checks, first):
        assert len(set(inputs)) == check.k
        assert list(inputs) == sorted(inputs)
        assert check.lo <= inputs[0] and inputs[-1] <= check.hi


def test_known_answer_catches_a_wrong_witness():
    check = workloads.WORKLOADS["suite-stripes"](None)[0]
    inputs = workloads.draw_inputs(1, 0, check)
    reports, aggregate = workloads.run_check(check, inputs)
    assert check.verify(check, inputs, reports, aggregate) == []
    members = list(reports[0].members)
    members[3] = dataclasses.replace(members[3], witness=members[4].witness)
    wrong = [dataclasses.replace(reports[0], members=tuple(members))]
    assert check.verify(check, inputs, wrong, aggregate) != []


@pytest.mark.parametrize("name", NAMES)
def test_smoke_is_correct_and_reproducible(name):
    runs = [_run("--workload", name, "--seed", seed, "--trace", "0", "--smoke")
            for seed in ("5", "5", "6")]
    for run in runs:
        assert run.returncode == 0, run.stderr
    last = json.loads(runs[0].stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    digests = [_digest(run.stdout) for run in runs]
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_matches_untraced(name):
    run = _run("--workload", name, "--seed", "5", "--trace", "1", "--smoke")
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = _run("--workload", NAMES[0], "--seed", "1", "--trace", "0",
               script=tmp_path / "perfbench" / "run.py")
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
