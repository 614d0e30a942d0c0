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

TEXT_GOLDEN_SHA256 = {
    "closure_constants": "1d2a3fb220546cdab383122faf0b832e15c78eeefd38a0499b71c18a01666194",
    "closure_successor": "fc6b043ae1f1a6407392c04139c3649eb104a042bdd77fb687051035950be70e",
    "example_r1": "c8f65e1e0f6d662d18acbf0baeb838aa0c5ad5a147b7c039e78ace0c76f985cf",
    "example_r2": "04e44a91040362b44362bc2394ffe644e230ff80b926b980394b266eca19159a",
    "isomorphism_rotation": "03f393df2504b04a5a47eb8725079585c08325f49e406fe9912a6821c8552312",
    "probe_no_fit": "643c3634adcd73a8b6e24ef8c7c629cabf8f3c829a511e9dcd5670adb39b44f7",
    "probe_stripes": "064981f07fce40ae9f975a505d28aa293940ff588b69dfe194d54189cb211a69",
    "pullback_even_functions": "d5618d9ee3602a056581a8d1fbed45bf8e5f1fe2e558bce7f370cba06b74952d",
    "re_parity": "e3fb49c4ba9f7b6b50308b0514398099555d89f5ce9b62106daad04a9c4dd859",
    "tm_rec_equivalence": "779858662713c4928b5b13cfe4d1e7c39d1540ff6cb2565233721bb6e2e0a1d2",
    "tm_successor_witness": "ceb30146c28728b848397fad957a633964c9e4ca5374afd44df22bd502839075",
    "triangular_anomaly": "9fc1b4c1b72ae5ba76054204936cfdbcb64e71e6841d6a63cec74e4414374277",
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
