"""Golden structured outputs: every bundled scenario's ``--format
structured`` stdout, pinned by its sha256.

The structured document carries each claim's verdicts, witnesses,
failures and Stats (evaluations, fuel spent), so any drift in the
checker or in fuel accounting changes a hash.  When a change moves one
on purpose, regenerate with::

    for s in scenarios/*.json; do
        PYTHONPATH=src python -m powerlab.cli run "$s" --format structured | sha256sum
    done

and say in CHANGES.md which fields moved and why.
"""

import hashlib
from pathlib import Path

import pytest

from powerlab.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN_SHA256 = {
    "closure_constants": "f93974696142755e927bc9166c518ac68238db5fc442c935c9b536afe43ec5f1",
    "closure_successor": "47c39b1bc7c7396ccf3825c47fa017b835ea4c175958c4685b6c1e0c0dd20f84",
    "example_r1": "6be1ccf6d809cbb6511edd8d5c67c515435cfe62762fe9347c72c172899426bd",
    "example_r2": "c40ed5ec9f6327d4cad1a490a3decb5a7c3a3ab9dd45d81df83e813e8031b281",
    "isomorphism_rotation": "ceab73d0cf5cccb796ee96299238b1211b807b111d769ca13f3517a3b7800e1b",
    "probe_no_fit": "49432ae58f17004cf6b4695415a3d1d98c8e33114be80cd61b6ca3808c801105",
    "probe_stripes": "fa7b75be9e680c0140442275008b6b9fe09348ba46597875c9052d5b7f7ab7fb",
    "pullback_even_functions": "3b1d2c0bad22b4243ec1e1a856f2ee49555b141fd075b1d1b95d93558d694b36",
    "re_parity": "9a8914bfb1eafeb39c6feb685540e5a56a4b04c934a98071cd2ba490fd076d7b",
    "tm_rec_equivalence": "f79606c46e78c59e0c23f3245e2321b6c2a7fcc33c7ae10ada2d07019e1cdf1b",
    "tm_successor_witness": "0a601aa78ce1aaf7065b1d94eb26015aa9af2ffb67e04e838c5208f3d82554b9",
    "triangular_anomaly": "6be54808bccdbdb8ef98c3bbe3698adb86a2146dd37e69719023867099d7be49",
    "unknown_low_fuel": "ae86c26bda259298731b9d5478c7258b66666967639d631ecbe0e7e9c379b7cc",
}


def test_every_bundled_scenario_has_a_golden():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_structured_output_matches_golden(name, capsys):
    main(["run", str(SCENARIOS / f"{name}.json"), "--format", "structured"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name]
