"""Golden outputs: every bundled scenario's ``--format structured`` and
``--format text`` stdout, each pinned by its sha256.

The structured document carries each claim's verdicts, witnesses,
failures and Stats (evaluations, fuel spent), so any drift in the
checker or in fuel accounting changes a hash; the text rendering adds
the claim sentences and the encoding names.  When a change moves one on
purpose, regenerate with::

    for s in scenarios/*.json; do
        PYTHONPATH=src python -m powerlab.cli run "$s" --format structured | sha256sum
    done

and likewise with ``--format text``, and say in CHANGES.md which fields
moved and why.
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
    "isomorphism_rotation": "4450eb2b336ffcff294e5288021f3b9d300bf729f3ed2b790872d5d80edc115d",
    "probe_no_fit": "db24f6c058cd86119f83c77d3d9b5277994ffa31fd77085ced7530652c6a2a83",
    "probe_stripes": "27007f5428d47a8660852a599336262b2f5c7e0068b4fffd70386ae48582ded9",
    "pullback_even_functions": "d3411a8feb1f9f80ac6974f25f60420c8cca16f5c32a16f8e8a0964cee569b62",
    "re_parity": "9a8914bfb1eafeb39c6feb685540e5a56a4b04c934a98071cd2ba490fd076d7b",
    "tm_rec_equivalence": "4607aed3314cf57628ac0813284f9e7b49b9a6d38cbfecd58d329fa9b91a3d3b",
    "tm_successor_witness": "0a601aa78ce1aaf7065b1d94eb26015aa9af2ffb67e04e838c5208f3d82554b9",
    "triangular_anomaly": "ab65a0a916bac80d52423066fec526cf5a39cc2dbe2c47439d30d5cba0773151",
    "unknown_low_fuel": "ae86c26bda259298731b9d5478c7258b66666967639d631ecbe0e7e9c379b7cc",
}

TEXT_GOLDEN_SHA256 = {
    "closure_constants": "1d2a3fb220546cdab383122faf0b832e15c78eeefd38a0499b71c18a01666194",
    "closure_successor": "fc6b043ae1f1a6407392c04139c3649eb104a042bdd77fb687051035950be70e",
    "example_r1": "c8f65e1e0f6d662d18acbf0baeb838aa0c5ad5a147b7c039e78ace0c76f985cf",
    "example_r2": "04e44a91040362b44362bc2394ffe644e230ff80b926b980394b266eca19159a",
    "isomorphism_rotation": "5adcdb43decfa3c6877638e042c28c87de84b927aeb367d57cf9c15731e19428",
    "probe_no_fit": "87587758b1a7c6582d611ffc8610a5f4b4eed1f595c0f25d95a1dea4eae31fb9",
    "probe_stripes": "55f17f5a73bbfb0bddacf1cf2e5d805ea58f0919f87dd369648e410bb026d737",
    "pullback_even_functions": "cfaad83d32be57376632919c3cec552fe97331b552c326166c4dc7071d85d272",
    "re_parity": "e3fb49c4ba9f7b6b50308b0514398099555d89f5ce9b62106daad04a9c4dd859",
    "tm_rec_equivalence": "94dd318e6a7ad49d6e2969daafd3e314fe636a71999b79c5215ecd3c261fb276",
    "tm_successor_witness": "ceb30146c28728b848397fad957a633964c9e4ca5374afd44df22bd502839075",
    "triangular_anomaly": "ab71791bfbb589d5b28d93934b305979d7fd62d6cb6c8f1503b01784a433d695",
    "unknown_low_fuel": "62b50a3907786e58f97d553168bd1eafbac055f6828fa3e8c438e6b29e5f5113",
}


def test_every_bundled_scenario_has_a_golden():
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN_SHA256)
    assert sorted(TEXT_GOLDEN_SHA256) == sorted(GOLDEN_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_structured_output_matches_golden(name, capsys):
    main(["run", str(SCENARIOS / f"{name}.json"), "--format", "structured"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(TEXT_GOLDEN_SHA256))
def test_text_output_matches_golden(name, capsys):
    main(["run", str(SCENARIOS / f"{name}.json"), "--format", "text"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_GOLDEN_SHA256[name]
