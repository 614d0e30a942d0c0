"""Front end: bundled scenarios, output formats, exit codes."""

import contextlib
import errno
import io
import json
import os
import pickle
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from powerlab.cli import (
    EXIT_REFUTED,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    EXIT_VERIFIED,
    MAX_MODEL_MEMBERS,
    MAX_PLAN_INPUTS,
    MAX_TRI_PREFIX,
    ScenarioError,
    build_encoding,
    build_models,
    build_plan,
    json_to_value,
    main,
    render_structured,
    render_text,
    run_scenario,
    value_to_json,
)
from powerlab.core import FUEL_EXHAUSTED, Converged, Diverged, Domain, FuelExhausted
from powerlab.simcheck import (
    CandidateFailure,
    Claim,
    MemberResult,
    SimReport,
    Stats,
    Verdict,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BUNDLED = {
    "example_r2": EXIT_VERIFIED,
    "example_r1": EXIT_VERIFIED,
    "triangular_anomaly": EXIT_VERIFIED,
    "tm_successor_witness": EXIT_VERIFIED,
    "closure_constants": EXIT_VERIFIED,
    "closure_successor": EXIT_REFUTED,
    "pullback_even_functions": EXIT_VERIFIED,
    "probe_stripes": EXIT_VERIFIED,
    "probe_no_fit": EXIT_REFUTED,
    "re_parity": EXIT_VERIFIED,
    "isomorphism_rotation": EXIT_VERIFIED,
    "tm_rec_equivalence": EXIT_VERIFIED,
    "unknown_low_fuel": EXIT_UNKNOWN,
}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_scenarios(name, capsys):
    code = main(["run", str(SCENARIOS / f"{name}.json")])
    out = capsys.readouterr().out
    assert code == BUNDLED[name], out
    assert f"scenario: {name}" in out


def test_structured_output_is_json_and_deterministic(capsys):
    argv = ["run", str(SCENARIOS / "example_r2.json"), "--format", "structured"]
    assert main(argv) == EXIT_VERIFIED
    first = capsys.readouterr().out
    assert main(argv) == EXIT_VERIFIED
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["scenario"] == "example_r2"
    assert doc["aggregate"] == "verified"
    report = doc["reports"][0]
    assert report["claim"]["encoding"] == "stripe(2,0)"
    witnesses = {m["member"]: m["witness"] for m in report["members"]}
    assert witnesses["succ"] == "stripe(2,0):succ"


def test_fuel_override_resolves_unknown(capsys):
    path = str(SCENARIOS / "unknown_low_fuel.json")
    assert main(["run", path]) == EXIT_UNKNOWN
    capsys.readouterr()
    assert main(["run", path, "--fuel", "1000000"]) == EXIT_VERIFIED


def test_inputs_override(capsys):
    path = str(SCENARIOS / "unknown_low_fuel.json")
    # restricted to a tiny input the low budget suffices
    assert main(["run", path, "--inputs", "0..1"]) == EXIT_VERIFIED
    capsys.readouterr()
    assert main(["run", path, "--inputs", "0,1,2"]) == EXIT_VERIFIED


def test_run_usage_errors(capsys, tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == EXIT_USAGE
    for doc in (
        {"check": "simulation"},
        {"name": "x", "check": "teleport", "models": {}, "plan": {}},
        {"name": "x", "check": "closure", "models": {"m": {"kind": "nope"}},
         "model": "m", "plan": {"inputs": {"range": [0, 1]}, "fuel": 10}},
        {"name": "x", "check": "closure", "models": {"m": {"kind": "dsl-terms", "members": []}},
         "model": "other", "plan": {"inputs": {"range": [0, 1]}, "fuel": 10}},
    ):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        assert main(["run", str(p)]) == EXIT_USAGE, doc
    err = capsys.readouterr().err
    assert "error" in err


def test_subcommand_required():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as e:
        main(["bogus"])
    assert e.value.code == EXIT_USAGE


def test_tri_commands(capsys):
    assert main(["tri", "--op", "f", "--i", "1", "--j", "2", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "11"
    assert main(["tri", "--op", "g", "--i", "2", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["tri", "--op", "pi", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["tri", "--op", "pi-inv", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["tri", "--op", "cycles", "--prefix", "100"]) == 0
    out = capsys.readouterr().out
    assert "longest closed cycle: 19" in out
    assert main(["tri", "--op", "f", "--i", "1"]) == EXIT_USAGE


def test_encode_commands(capsys):
    assert main(["encode", "--scheme", "stripe", "--d", "2", "--r", "0", "5"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    assert main(["encode", "--scheme", "stripe", "--d", "2", "--r", "0", "--decode", "10"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["encode", "--scheme", "stripe", "--d", "2", "--r", "0", "--decode", "7"]) == EXIT_REFUTED
    assert capsys.readouterr().out.strip() == "undefined"
    assert main(["encode", "--scheme", "bits", "5"]) == 0
    assert capsys.readouterr().out.strip() == '"10"'
    assert main(["encode", "--scheme", "bits", "--decode", "10"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["encode", "--scheme", "godel", "[[],[[],[]]]"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["encode", "--scheme", "godel", "--decode", "3"]) == 0
    assert capsys.readouterr().out.strip() == "[[], [[], []]]"
    assert main(["encode", "--scheme", "tri-pi", "7"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["encode", "--scheme", "identity", "7"]) == 0
    assert capsys.readouterr().out.strip() == "7"
    assert main(["encode", "--scheme", "stripe", "5"]) == EXIT_USAGE
    assert main(["encode", "--scheme", "godel", "not json"]) == EXIT_USAGE


def test_compile_command(capsys, tmp_path):
    assert main(["compile", "--term", "(C S S)"]) == 0
    text = capsys.readouterr().out
    assert "registers" in text and "inc" in text
    out = tmp_path / "plus2.cm"
    assert main(["compile", "--term", "(C S S)", "--output", str(out)]) == 0
    assert out.read_text() == text
    assert main(["compile", "--term", "(C S"]) == EXIT_USAGE
    assert main(["compile", "--term", "(R Z (P 3 3))"]) == EXIT_USAGE  # not unary
    capsys.readouterr()
    for text in ("(K 200001)", "(C ACK (K 100000) I)"):  # too many instructions
        assert main(["compile", "--term", text]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "program too large" in captured.err


@pytest.mark.parametrize("text", ["(M", "(C", "(R", "(R Z"])
def test_truncated_term_exits_3(text, capsys, tmp_path):
    _assert_one_line_usage_error(main(["compile", "--term", text]), capsys)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_model_a(kind="dsl-terms", members=[{"name": "t", "term": text}])))
    _assert_one_line_usage_error(main(["run", str(path)]), capsys)


def test_exec_command(capsys, tmp_path):
    cm = SCENARIOS / "machines" / "add_three.cm"
    assert main(["exec", "--machine", str(cm), "--input", "4", "--fuel", "1000"]) == 0
    assert capsys.readouterr().out.strip() == "converged: 7"
    tm = SCENARIOS / "machines" / "binary_successor.tm"
    assert main(["exec", "--machine", str(tm), "--input", "11", "--fuel", "1000"]) == 0
    assert capsys.readouterr().out.strip() == 'converged: "000"'
    spin = tmp_path / "spin.cm"
    spin.write_text("registers 1\ninput 0\noutput 0\nspin: jump spin\n")
    assert main(["exec", "--machine", str(spin), "--input", "0", "--fuel", "100"]) == EXIT_UNKNOWN
    assert capsys.readouterr().out.strip() == "fuel exhausted"
    assert main(["exec", "--machine", str(tmp_path / "x.txt"), "--input", "0"]) == EXIT_USAGE
    assert main(["exec", "--machine", str(tm), "--input", "12"]) == EXIT_USAGE
    assert main(["exec", "--machine", str(cm), "--input", "-1"]) == EXIT_USAGE
    assert main(["exec", "--machine", str(cm), "--input", "four"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "file, text, message",
    [
        ("twice.tm", "start a\nstart b\nhalt b\n", "twice: line 2: second start declaration"),
        ("far.cm", "registers 1\ninput 0\noutput 0\n\njump far\n", "far: line 5: unknown label 'far'"),
    ],
)
def test_exec_rejects_a_bad_program_naming_its_line(capsys, tmp_path, file, text, message):
    machine = tmp_path / file
    machine.write_text(text)
    code = main(["exec", "--machine", str(machine), "--input", "", "--fuel", "10"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.splitlines() == [f"powerlab: error: {message}"]


def test_exec_allocates_only_the_registers_a_machine_names(capsys, tmp_path):
    body = "input 0\noutput 1\nhalt\n"
    for declared in (2, 20_000_000_000):
        cm = tmp_path / f"r{declared}.cm"
        cm.write_text(f"registers {declared}\n{body}")
        assert main(["exec", "--machine", str(cm), "--input", "5", "--fuel", "10"]) == 0
        assert capsys.readouterr().out.strip() == "converged: 0"


def test_value_json_round_trip():
    for v in (0, 7, "0110", "", (), ((), ()), ((), ((), ()))):
        assert json_to_value(value_to_json(v)) == v
    with pytest.raises(ScenarioError):
        json_to_value(-1)
    with pytest.raises(ScenarioError):
        json_to_value(True)
    with pytest.raises(ScenarioError):
        json_to_value([[]])
    with pytest.raises(ScenarioError):
        json_to_value("012")


def test_build_encoding_compose_and_inverse():
    e = build_encoding(
        {"scheme": "compose", "steps": [
            {"scheme": "stripe", "d": 2, "r": 1},
            {"scheme": "stripe", "d": 2, "r": 0},
        ]}
    )
    # applied first to last: x -> 2x+1 -> 2(2x+1)
    assert e.encode(5) == 22
    inv = build_encoding({"scheme": "bits", "inverse": True})
    assert inv.encode("10") == 5
    with pytest.raises(ScenarioError):
        build_encoding({"scheme": "mystery"})
    with pytest.raises(ScenarioError):
        build_encoding({"scheme": "compose", "steps": []})


# (spec, describe(), inverse().describe() or the error inverse() raises)
_DESCRIBE_TABLE = [
    ({"scheme": "identity"}, "identity", "identity"),
    ({"scheme": "identity", "domain": "list"}, "identity", "identity"),
    ({"scheme": "stripe", "d": 3, "r": 1}, "stripe(3,1)", "stripe(3,1) has no total inverse"),
    ({"scheme": "tri-pi"}, "tri-pi", "tri-pi-inv"),
    ({"scheme": "tri-pi", "inverse": True}, "tri-pi-inv", "tri-pi"),
    ({"scheme": "bits"}, "bits", "bits-inv"),
    ({"scheme": "bits", "inverse": True}, "bits-inv", "bits"),
    ({"scheme": "godel"}, "godel", "godel-inv"),
    ({"scheme": "godel", "inverse": True}, "godel-inv", "godel"),
    (
        {"scheme": "re-rho", "oracle": {"name": "parity"}},
        "2n+h[parity]",
        "2n+h[parity] has no total inverse",
    ),
    (
        {"scheme": "re-rho", "oracle": {"name": "pseudorandom", "seed": 4}},
        "2n+h[pseudorandom[4]]",
        "2n+h[pseudorandom[4]] has no total inverse",
    ),
    ({"scheme": "table", "pairs": [[0, 2], [1, 0], [2, 1]]}, "table[3]", "table[3]"),
    (
        {"scheme": "compose", "steps": [{"scheme": "tri-pi"}, {"scheme": "bits"}]},
        "(bits . tri-pi)",
        "(tri-pi-inv . bits-inv)",
    ),
    (
        {"scheme": "compose", "steps": [{"scheme": "stripe", "d": 2, "r": 0}, {"scheme": "bits"}]},
        "(bits . stripe(2,0))",
        "stripe(2,0) has no total inverse",
    ),
    (
        {
            "scheme": "compose",
            "steps": [{"scheme": "bits"}, {"scheme": "bits", "inverse": True}],
            "inverse": True,
        },
        "(bits-inv . bits)",
        "(bits-inv . bits)",
    ),
]


@pytest.mark.parametrize("spec, name, inverse", _DESCRIBE_TABLE)
def test_encoding_names_and_inverse_names(spec, name, inverse):
    e = build_encoding(spec)
    assert e.describe() == name
    assert repr(e) == f"<Encoding {name}>"
    if inverse.endswith("has no total inverse"):
        with pytest.raises(ValueError) as info:
            e.inverse()
        assert str(info.value) == inverse
    else:
        inv = e.inverse()
        assert inv.describe() == inverse
        assert (inv.source, inv.target) == (e.target, e.source)
        assert inv.inverse().describe() == name


_SAMPLES = {
    Domain.NAT: tuple(range(12)),
    Domain.BITS: ("", "0", "1", "01", "110"),
    Domain.LIST: ((), ((), ()), (((), ()), ()), ((), ((), ()))),
}


def _behaviour(e):
    """What an encoding does on a few samples of each side, errors included."""
    seen = []
    for side, fn in (("encode", e.encode), ("decode", e.decode)):
        domain = e.source if side == "encode" else e.target
        for x in _SAMPLES[domain]:
            try:
                seen.append((side, x, fn(x)))
            except ValueError as exc:
                seen.append((side, x, str(exc)))
    return e.describe(), e.source, e.target, seen


@pytest.mark.parametrize(
    "spec",
    [spec for spec, _, _ in _DESCRIBE_TABLE if spec["scheme"] != "re-rho"],
    ids=lambda spec: spec["scheme"],
)
def test_encodings_pickle(spec):
    e = build_encoding(spec)
    back = pickle.loads(pickle.dumps(e))
    assert _behaviour(back) == _behaviour(e)
    try:
        inverse = e.inverse()
    except ValueError:
        return
    assert _behaviour(back.inverse()) == _behaviour(inverse)


def test_image_construction_through_run_scenario(tmp_path):
    doc = {
        "name": "image-demo",
        "check": "simulation",
        "models": {
            "base": {"kind": "dsl-terms", "members": [
                {"name": "succ", "term": "S"}, {"name": "zero", "term": "Z"}
            ]},
            "shifted": {"kind": "builtin-construction", "construction": "image",
                        "of": "base", "encoding": {"scheme": "stripe", "d": 3, "r": 0}},
        },
        "simulator": "shifted",
        "simulated": "base",
        "encoding": {"scheme": "stripe", "d": 3, "r": 0},
        "plan": {"inputs": {"range": [0, 20]}, "fuel": 10000},
    }
    name, check, reports, aggregate = run_scenario(doc, tmp_path)
    assert name == "image-demo" and check == "simulation"
    assert reports[0].aggregate.value == "verified" and aggregate is Verdict.VERIFIED


def test_self_referential_image_is_rejected(tmp_path):
    doc = {
        "name": "loop",
        "check": "closure",
        "models": {
            "a": {"kind": "builtin-construction", "construction": "image",
                  "of": "a", "encoding": {"scheme": "identity"}},
        },
        "model": "a",
        "plan": {"inputs": {"range": [0, 1]}, "fuel": 10},
    }
    with pytest.raises(ScenarioError, match="depends on itself"):
        run_scenario(doc, tmp_path)


_REC_SUITE = {"kind": "builtin-construction", "construction": "rec-suite"}


@pytest.mark.parametrize(
    "model, encoding, message",
    [
        (_REC_SUITE, {"scheme": ["stripe"]}, "unknown encoding scheme ['stripe']"),
        (_REC_SUITE, {"scheme": "identity", "domain": ["nat"]}, "unknown domain ['nat']"),
        (
            {"kind": "builtin-construction", "construction": "re",
             "oracle": {"name": ["zeros"]}, "role": "plain"},
            {"scheme": "identity"},
            "unknown oracle ['zeros']",
        ),
        (
            {"kind": "builtin-construction", "construction": ["tri"]},
            {"scheme": "identity"},
            "model 'a': unknown construction ['tri']",
        ),
        (
            {"kind": "builtin-construction", "construction": "tri", "role": ["A"]},
            {"scheme": "identity"},
            "model 'a': unknown tri role ['A']",
        ),
    ],
)
def test_names_that_are_not_strings_are_unknown(model, encoding, message, tmp_path):
    doc = {
        "name": "x",
        "check": "simulation",
        "models": {"a": model},
        "simulator": "a",
        "simulated": "a",
        "encoding": encoding,
        "plan": {"inputs": {"range": [0, 2]}, "fuel": 100},
    }
    with pytest.raises(ScenarioError) as info:
        run_scenario(doc, tmp_path)
    assert str(info.value) == message


def test_the_roles_of_one_pair_construction_share_their_members(tmp_path):
    tri = {"kind": "builtin-construction", "construction": "tri"}
    get = build_models(_mistyped(models={
        "a": {**tri, "role": "with-anchors"}, "b": {**tri, "role": "plain", "k_max": 5},
        "c": {**tri, "role": "plain", "k_max": 6},
    }), tmp_path, 0)
    anchored = set(map(id, get("a").members))
    assert set(map(id, get("b").members)) < anchored
    assert not set(map(id, get("c").members)) & anchored


def test_machine_members_from_inline_lines(tmp_path):
    doc = {
        "name": "inline",
        "check": "simulation",
        "models": {
            "machines": {"kind": "cm-programs", "members": [
                {"name": "bump", "lines": [
                    "registers 2", "input 0", "output 1",
                    "loop: decjz 0 done", "inc 1", "jump loop", "done: inc 1",
                ]}
            ]},
            "terms": {"kind": "dsl-terms", "members": [{"name": "succ", "term": "S"}]},
        },
        "simulator": "machines",
        "simulated": "terms",
        "encoding": {"scheme": "identity"},
        "plan": {"inputs": {"range": [0, 12]}, "fuel": 10000},
    }
    name, check, reports, aggregate = run_scenario(doc, tmp_path)
    assert reports[0].aggregate.value == "verified"
    assert reports[0].members[0].witness == "bump"


def _assert_one_line_usage_error(code, capsys):
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("powerlab: error:"), captured.err
    assert "Traceback" not in captured.err


def test_oversized_godel_code_exits_cleanly(capsys):
    code = main(["encode", "--scheme", "godel", "--decode", str(2**3000 - 1)])
    _assert_one_line_usage_error(code, capsys)


def test_godel_code_past_its_cap_exits_cleanly(capsys):
    # six levels of left nesting would make the code 2^65536
    code = main(["encode", "--scheme", "godel", "[[[[[[[],[]],[]],[]],[]],[]],[]]"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == "powerlab: error: godel code longer than GODEL_MAX_BITS (65536 bits)\n"


def test_deeply_nested_term_exits_cleanly(capsys, tmp_path):
    depth = 1200
    doc = {
        "name": "deep",
        "check": "closure",
        "models": {"deep": {"kind": "dsl-terms", "members": [
            {"name": "tower", "term": "(C S " * depth + "S" + ")" * depth}
        ]}},
        "model": "deep",
        "plan": {"inputs": {"range": [0, 2]}, "fuel": 10000},
    }
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(doc))
    code = main(["run", str(p)])
    _assert_one_line_usage_error(code, capsys)


def test_file_errors_name_the_path_and_the_reason(capsys, tmp_path):
    (tmp_path / "dir.cm").mkdir()
    runs = []
    for file, number in (("nope.cm", errno.ENOENT), ("dir.cm", errno.EISDIR)):
        doc = {
            "name": "files",
            "check": "closure",
            "models": {"m": {"kind": "cm-programs", "members": [{"name": "a", "file": file}]}},
            "model": "m",
            "plan": {"inputs": {"range": [0, 1]}, "fuel": 10},
        }
        p = tmp_path / f"{file}.json"
        p.write_text(json.dumps(doc))
        runs.append((["run", str(p)], tmp_path / file, os.strerror(number)))
    out = tmp_path / "no" / "dir" / "x.cm"
    runs.append((["compile", "--term", "S", "--output", str(out)], out, os.strerror(errno.ENOENT)))
    for argv, path, reason in runs:
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"powerlab: error: {path}: {reason}"]


def _mistyped(**changes):
    """A small simulation scenario with some of its fields replaced."""
    doc = {
        "name": "mistyped",
        "check": "simulation",
        "models": {"a": _REC_SUITE},
        "simulator": "a",
        "simulated": "a",
        "encoding": {"scheme": "identity"},
        "plan": {"inputs": {"range": [0, 2]}, "fuel": 100},
    }
    for key, value in changes.items():
        if key in ("a_sample", "b_sample", "fuel"):
            doc["plan"][key] = value
        else:
            doc[key] = value
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_mistyped(encoding={"scheme": "compose", "steps": 5}), "encoding: 'steps' is not a list"),
        (_mistyped(encoding={"scheme": "table", "pairs": 5}), "encoding: 'pairs' is not a list"),
        (
            _mistyped(models={"a": {"kind": "dsl-terms", "members": 5}}),
            "model 'a': 'members' is not a list",
        ),
        (_mistyped(b_sample=5), "plan: 'b_sample' is not a list"),
        (_mistyped(a_sample="iota"), "plan: 'a_sample' is not a list"),
        (_mistyped(fuel="big"), "plan: 'fuel' is not a whole number"),
    ],
)
def test_fields_of_the_wrong_json_type_exit_3(doc, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"powerlab: error: {message}\n"


def test_an_output_code_outside_the_simulating_domain_exits_3(tmp_path, capsys):
    # pred sends 1 to 0, whose code "01" no candidate over the naturals
    # can return: the check stops there instead of asking for it
    doc = _mistyped(encoding={"scheme": "table", "pairs": [[0, "01"], [1, 1], [2, 2]]}, b_sample=["pred"])
    doc["plan"]["inputs"] = {"range": [1, 2]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "powerlab: error: wrong domain: table[3] into a expects nat, got '01'\n"


def test_a_candidate_result_outside_its_domain_exits_3(tmp_path, capsys):
    # the image of succ through this table sends 5 to succ(0) = 1's code,
    # "01", which its own domain, the naturals, does not hold
    doc = _mistyped(models={
        "a": _REC_SUITE,
        "terms": {"kind": "dsl-terms", "members": [{"name": "s", "term": "S"}]},
        "image": {"kind": "builtin-construction", "construction": "image", "of": "terms",
                  "encoding": {"scheme": "table", "pairs": [[0, 5], [1, "01"]]}},
    }, simulator="image", b_sample=["succ"])
    doc["plan"]["inputs"] = {"list": [5]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "powerlab: error: wrong domain: push(table[2],s) output expects nat, got '01'\n"
    )


_IDENTITY = {"scheme": "identity"}
_ZEROS = {"name": "zeros"}

# The fields of each check kind, in a scenario over the one model "a".
_CHECK_FIELDS = {
    "simulation": {"simulator": "a", "simulated": "a", "encoding": _IDENTITY},
    "equivalence": {
        "simulator": "a", "simulated": "a", "encodings": [_IDENTITY, _IDENTITY], "mode": "strong",
    },
    "closure": {"model": "a"},
    "pullback-law": {"simulator": "a", "simulated": "a", "encoding": _IDENTITY},
    "probe": {"simulator": "a", "simulated": "a", "encodings": [_IDENTITY], "family_name": "f"},
}


def _scenario(check="simulation", model=_REC_SUITE, **fields):
    """A scenario of this check kind over model "a", with ``fields`` replaced."""
    doc = {
        "name": "strict", "check": check, "models": {"a": model, "b": _REC_SUITE},
        **_CHECK_FIELDS[check], "plan": {"inputs": {"range": [0, 2]}, "fuel": 100},
    }
    return {**doc, **fields}


def _construction(name, **fields):
    return {"kind": "builtin-construction", "construction": name, **fields}


_PROGRAMS = {
    "dsl-terms": {"kind": "dsl-terms", "members": [{"name": "s", "term": "S"}]},
    "cm-programs": {"kind": "cm-programs", "members": [
        {"name": "id", "lines": ["registers 1", "input 0", "output 0"]}
    ]},
    "tm-programs": {"kind": "tm-programs", "members": [
        {"name": "id", "lines": ["start done", "halt done"]}
    ]},
}
_MODELS = {
    **_PROGRAMS,
    "rec-suite": _REC_SUITE,
    "stripe": _construction("stripe", d=2, r=0),
    "tri": _construction("tri", role="A"),
    "re": _construction("re", oracle=_ZEROS, role="image"),
    "tm-witness": _construction("tm-witness", role="tm"),
    "image": _construction("image", of="b", encoding=_IDENTITY),
}
_ENCODINGS = {
    "identity": _IDENTITY,
    "stripe": {"scheme": "stripe", "d": 2, "r": 0},
    "tri-pi": {"scheme": "tri-pi"},
    "bits": {"scheme": "bits"},
    "godel": {"scheme": "godel"},
    "re-rho": {"scheme": "re-rho", "oracle": _ZEROS},
    "table": {"scheme": "table", "pairs": [[0, 0]]},
    "compose": {"scheme": "compose", "steps": [_IDENTITY]},
}

# Each object a scenario can hold: a scenario holding it, the path of keys
# to it, and what messages call it.
_OBJECTS = {
    **{f"scenario/{check}": (_scenario(check), [], "scenario") for check in _CHECK_FIELDS},
    **{
        f"model/{kind}": (_scenario("closure", model), ["models", "a"], "model 'a'")
        for kind, model in _MODELS.items()
    },
    "model/unused": (_scenario(), ["models", "b"], "model 'b'"),
    **{
        f"member/{kind}": (
            _scenario("closure", model), ["models", "a", "members", 0], "model 'a' member 0"
        )
        for kind, model in _PROGRAMS.items()
    },
    **{
        f"encoding/{scheme}": (_scenario(encoding=encoding), ["encoding"], "encoding")
        for scheme, encoding in _ENCODINGS.items()
    },
    "encoding/compose-step": (
        _scenario(encoding=_ENCODINGS["compose"]), ["encoding", "steps", 0], "encoding"
    ),
    "oracle/re-rho": (
        _scenario(encoding=_ENCODINGS["re-rho"]), ["encoding", "oracle"], "oracle"
    ),
    "oracle/re": (_scenario("closure", _MODELS["re"]), ["models", "a", "oracle"], "oracle"),
    "plan": (_scenario(), ["plan"], "plan"),
    "plan-inputs": (_scenario(), ["plan", "inputs"], "plan inputs"),
}


@pytest.mark.parametrize("doc, path, where", _OBJECTS.values(), ids=_OBJECTS.keys())
def test_every_object_refuses_an_unknown_field(doc, path, where, tmp_path, capsys):
    doc = json.loads(json.dumps(doc))
    obj = doc
    for key in path:
        obj = obj[key]
    obj["typo"] = 0
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", str(scenario)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"powerlab: error: {where} has no field 'typo'\n"


def _misspell(doc, obj, right, wrong):
    obj[wrong] = obj.pop(right)
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _misspell(doc, doc, "mode", "mod"), "scenario has no field 'mod'"),
        (
            lambda doc: _misspell(doc, doc["encodings"][1], "inverse", "invrse"),
            "encoding has no field 'invrse'",
        ),
    ],
    ids=["mod", "invrse"],
)
def test_a_misspelt_field_exits_3(edit, message, tmp_path, capsys):
    # read as absent, each would check a weaker claim: plain equivalence,
    # or tri-pi both ways
    doc = edit(json.loads((SCENARIOS / "isomorphism_rotation.json").read_text()))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"powerlab: error: {message}\n"


def test_encode_refuses_a_flag_its_scheme_does_not_read(capsys):
    assert main(["encode", "--scheme", "identity", "--d", "3", "5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "powerlab: error: encoding has no field 'd'\n"


# The scenarios whose full-fuel runs take a tenth of a second or more; the
# property below draws their budgets from a smaller range.
_HEAVY = {"example_r1", "example_r2", "probe_no_fit", "probe_stripes", "pullback_even_functions"}
_HEAVY_FUEL = 300


def _structured_verdicts(name: str, fuel: int) -> list:
    """The aggregate, then each report's aggregate and member verdicts,
    from ``run --format structured`` at this fuel."""
    argv = ["run", str(SCENARIOS / f"{name}.json"), "--format", "structured", "--fuel", str(fuel)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    doc = json.loads(out.getvalue())
    verdicts = [("aggregate", doc["aggregate"])]
    for ix, report in enumerate(doc["reports"]):
        verdicts.append((f"report {ix}", report["aggregate"]))
        verdicts += [(f"report {ix}: {m['member']}", m["verdict"]) for m in report["members"]]
    return verdicts


@st.composite
def _scenario_and_fuels(draw):
    name = draw(st.sampled_from(sorted(BUNDLED)))
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    top = _HEAVY_FUEL if name in _HEAVY else doc["plan"]["fuel"]
    low = draw(st.integers(1, top))
    return name, low, draw(st.integers(low, top))


@settings(max_examples=25, deadline=None)
@given(_scenario_and_fuels())
def test_more_fuel_never_changes_a_decided_verdict(case):
    name, low, high = case
    before = _structured_verdicts(name, low)
    after = _structured_verdicts(name, high)
    assert [where for where, _ in before] == [where for where, _ in after]
    for (where, was), (_, now) in zip(before, after):
        if was != "unknown":
            assert now == was, f"{name}, {where}: {was} at fuel {low}, {now} at fuel {high}"


def _with_plan(**plan):
    """``_mistyped``'s scenario with its plan fields replaced."""
    doc = _mistyped()
    doc["plan"].update(plan)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with_plan(candidate_limit="x"), "plan: 'candidate_limit' is not a whole number"),
        (_with_plan(inputs={"list": 5}), "plan inputs: 'list' is not a list"),
        (_with_plan(inputs={"range": 5}), "inputs range must be [lo, hi] with lo <= hi"),
        (_with_plan(inputs={"range": [0]}), "inputs range must be [lo, hi] with lo <= hi"),
        (
            _with_plan(inputs={"range": [0, 100_000_000_000]}),
            "plan has 100000000001 inputs, more than MAX_PLAN_INPUTS (1000000)",
        ),
        (
            _with_plan(inputs={"list": [0] * 1_000_001}),
            "plan has 1000001 inputs, more than MAX_PLAN_INPUTS (1000000)",
        ),
        (_with_plan(inputs={"range": [False, True]}), "inputs range must be [lo, hi] with lo <= hi"),
    ],
)
def test_malformed_plans_exit_3(doc, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"powerlab: error: {message}\n"


def test_plan_size_cap(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_mistyped()))
    for flag, count in (("0..100000000000", 100_000_000_001), ("7..1000007", 1_000_001)):
        code = main(["run", str(path), "--inputs", flag])
        assert capsys.readouterr().err == (
            f"powerlab: error: plan has {count} inputs, more than MAX_PLAN_INPUTS (1000000)\n"
        )
        assert code == EXIT_USAGE
    # the cap itself is allowed: a plan of exactly MAX_PLAN_INPUTS inputs is built
    plan = build_plan(_with_plan(inputs={"range": [5, MAX_PLAN_INPUTS + 4]}), None, None)
    assert len(plan.inputs) == MAX_PLAN_INPUTS and plan.inputs[-1] == MAX_PLAN_INPUTS + 4


def test_every_bundled_plan_is_under_the_cap():
    for name in BUNDLED:
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        assert len(build_plan(doc, None, None).inputs) <= MAX_PLAN_INPUTS, name


def test_tri_prefix_cap(capsys):
    code = main(["tri", "--op", "cycles", "--prefix", str(MAX_TRI_PREFIX + 1)])
    _assert_one_line_usage_error(code, capsys)
    code = main(["tri", "--op", "cycles", "--prefix", "1000000000"])
    _assert_one_line_usage_error(code, capsys)


_TRICKY_CHARS = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀"])
_JSON_TEXT = st.text(st.one_of(_TRICKY_CHARS, st.characters()))
_NATURALS = st.integers(min_value=0, max_value=10**40)
_VALUES = st.one_of(
    _NATURALS,
    st.text("01"),
    st.recursive(st.just(()), lambda inner: st.tuples(inner, inner), max_leaves=6),
)
_OUTCOMES = st.one_of(_VALUES.map(Converged), st.builds(Diverged), st.just(FUEL_EXHAUSTED))


@st.composite
def _documents(draw):
    """A scenario name, a check kind, a list of reports and an aggregate.
    Every string is one of a few texts, as each text costs hypothesis
    milliseconds to draw, and the failures share a few outcome objects."""
    text = st.sampled_from(draw(st.lists(_JSON_TEXT, min_size=1, max_size=3)))
    shared = st.sampled_from(draw(st.lists(_OUTCOMES, min_size=1, max_size=3)))
    failure = st.builds(CandidateFailure, text, _VALUES, shared, shared)
    member = st.builds(
        MemberResult, text, st.sampled_from(Verdict), st.none() | text,
        st.lists(failure, max_size=3).map(tuple), _NATURALS,
    )
    claim = st.builds(Claim, text, text, text, text, st.none() | text)
    report = st.builds(
        SimReport, claim, st.lists(member, max_size=3).map(tuple), st.sampled_from(Verdict),
        st.builds(Stats, _NATURALS, _NATURALS, _NATURALS), st.lists(text, max_size=2).map(tuple),
    )
    return draw(text), draw(text), draw(st.lists(report, max_size=3)), draw(st.sampled_from(Verdict))


def _outcome_document(out):
    if isinstance(out, Converged):
        return {"status": "converged", "value": value_to_json(out.value)}
    if isinstance(out, Diverged):
        return {"status": "diverged"}
    if isinstance(out, FuelExhausted):
        return {"status": "fuel-exhausted"}
    raise TypeError(out)


def _reference_document(name, check, reports, aggregate):
    """The document whose ``json.dumps(doc, sort_keys=True, indent=2)``
    bytes, and a line break, ``render_structured`` writes."""
    return {
        "scenario": name,
        "check": check,
        "aggregate": aggregate.value,
        "reports": [
            {
                "claim": {
                    "kind": r.claim.kind,
                    "left": r.claim.left,
                    "right": r.claim.right,
                    "encoding": r.claim.encoding,
                    "mode": r.claim.mode,
                },
                "aggregate": r.aggregate.value,
                "members": [
                    {
                        "member": m.member,
                        "verdict": m.verdict.value,
                        "witness": m.witness,
                        "undecided_inputs": m.undecided_inputs,
                        "failures": [
                            {
                                "candidate": f.candidate,
                                "input": value_to_json(f.input),
                                "expected": _outcome_document(f.expected),
                                "got": _outcome_document(f.got),
                            }
                            for f in m.failures
                        ],
                    }
                    for m in r.members
                ],
                "stats": {
                    "inputs": r.stats.inputs,
                    "evaluations": r.stats.evaluations,
                    "fuel_spent": r.stats.fuel_spent,
                },
                "notes": list(r.notes),
            }
            for r in reports
        ],
    }


def _reference_outcome_text(out):
    if out["status"] == "converged":
        return f"converged: {json.dumps(out['value'])}"
    if out["status"] == "diverged":
        return "diverged"
    return "fuel exhausted"


def _reference_text(doc):
    """``--format text`` read from the structured document ``doc``."""
    lines = [f"scenario: {doc['scenario']}", f"check: {doc['check']}"]
    for r in doc["reports"]:
        claim = r["claim"]
        if claim["mode"]:
            lines += ["", f"claim: {claim['left']} and {claim['right']} are equivalent"
                          f" via {claim['encoding']} ({claim['mode']})"]
        elif claim["kind"] == "closure":
            lines += ["", f"claim: {claim['left']} is closed under composition"]
        else:
            lines += ["", f"claim: {claim['left']} simulates {claim['right']} via {claim['encoding']}"]
        lines.append(f"verdict: {r['aggregate']}")
        for m in r["members"]:
            bits = [f"  {m['member']}: {m['verdict']}"]
            if m["witness"] is not None:
                bits.append(f"witness {m['witness']}")
            if m["undecided_inputs"]:
                bits.append(f"{m['undecided_inputs']} undecided inputs")
            lines.append(", ".join(bits))
            for f in m["failures"][:3]:
                lines.append(
                    f"    {f['candidate']} at input {json.dumps(f['input'])}: expected"
                    f" {_reference_outcome_text(f['expected'])}, got {_reference_outcome_text(f['got'])}"
                )
        stats = r["stats"]
        lines.append(
            f"stats: {stats['inputs']} inputs, {stats['evaluations']} evaluations,"
            f" {stats['fuel_spent']} fuel spent"
        )
        lines += [f"note: {note}" for note in r["notes"]]
    lines += ["", f"aggregate: {doc['aggregate']}"]
    return "\n".join(lines) + "\n"


def _assert_text_reads_the_structured_document(document):
    assert render_text(*document) == _reference_text(json.loads(render_structured(*document)))


@settings(max_examples=40, deadline=None)
@given(_documents())
def test_structured_output_of_generated_reports_matches_json_dumps(document):
    name, check, reports, aggregate = document
    expected = json.dumps(_reference_document(name, check, reports, aggregate), sort_keys=True, indent=2)
    assert render_structured(name, check, reports, aggregate) == expected + "\n"


@settings(max_examples=40, deadline=None)
@given(_documents())
def test_text_output_of_generated_reports_reads_the_structured_document(document):
    _assert_text_reads_the_structured_document(document)


def _one_member_document(failures):
    member = MemberResult("g", Verdict.REFUTED, None, tuple(failures), 0)
    report = SimReport(Claim("simulation", "a", "b", "e"), (member,), Verdict.REFUTED, Stats(1, 2, 3))
    return "odd", "simulation", [report], Verdict.REFUTED


# a Python map may return anything: the report says what json would
_OUT_OF_DOMAIN_FAILURES = tuple(
    CandidateFailure("f", v, Converged(v), FUEL_EXHAUSTED) for v in (True, None, 1.5, [1, (2, ())], -3)
)


def test_structured_output_outside_the_domains_is_json_dumps_or_its_type_error():
    document = _one_member_document(_OUT_OF_DOMAIN_FAILURES)
    expected = json.dumps(_reference_document(*document), sort_keys=True, indent=2) + "\n"
    assert render_structured(*document) == expected
    # and what json cannot write, or an unknown outcome, is a TypeError
    for bad in (CandidateFailure("f", object(), FUEL_EXHAUSTED, FUEL_EXHAUSTED),
                CandidateFailure("f", 0, "converged", FUEL_EXHAUSTED)):
        document = _one_member_document([bad])
        with pytest.raises(TypeError):
            json.dumps(_reference_document(*document), sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            render_structured(*document)


def test_text_output_outside_the_domains_reads_the_structured_document():
    # all of them, of which the text shows the first three, then each alone
    for shown in [_OUT_OF_DOMAIN_FAILURES, *([f] for f in _OUT_OF_DOMAIN_FAILURES)]:
        _assert_text_reads_the_structured_document(_one_member_document(shown))


def _bundled_document(name):
    """A bundled scenario's name, check, reports and aggregate, as ``run``
    computes them."""
    path = SCENARIOS / f"{name}.json"
    return run_scenario(json.loads(path.read_text()), path.parent)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_structured_output_of_a_bundled_scenario_matches_json_dumps(name):
    document = _bundled_document(name)
    expected = json.dumps(_reference_document(*document), sort_keys=True, indent=2) + "\n"
    assert render_structured(*document) == expected


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_text_output_of_a_bundled_scenario_reads_the_structured_document(name):
    _assert_text_reads_the_structured_document(_bundled_document(name))


def test_a_file_that_is_not_utf8_exits_naming_its_path(capsys, tmp_path):
    scenario = tmp_path / "bom.json"
    scenario.write_bytes(b"\xff\xfe{}")
    program = tmp_path / "bom.cm"
    program.write_bytes(b"\xff\xferegisters 1\n")
    member = tmp_path / "member.json"
    member.write_text(json.dumps({
        "name": "bytes",
        "check": "closure",
        "models": {"m": {"kind": "cm-programs", "members": [{"name": "a", "file": "bom.cm"}]}},
        "model": "m",
        "plan": {"inputs": {"range": [0, 1]}, "fuel": 10},
    }))
    runs = [
        (["run", str(scenario)], scenario),
        (["run", str(member)], program),
        (["exec", "--machine", str(program), "--input", "0"], program),
    ]
    for argv, path in runs:
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"powerlab: error: {path}: not UTF-8 (invalid start byte at byte 0)"
        ]


def _model_a(**spec):
    """``_mistyped``'s scenario with model 'a' replaced."""
    return _mistyped(models={"a": spec})


def _construction(construction, **spec):
    return _model_a(kind="builtin-construction", construction=construction, **spec)


@pytest.mark.parametrize(
    "doc",
    [
        _model_a(kind="dsl-terms", members=[5]),
        _model_a(kind="dsl-terms", members=[{"name": "s", "term": 5}]),
        _model_a(kind="tm-programs", members=[{"name": "t", "file": 5}]),
        _model_a(kind="dsl-terms", members=[{"name": ["s"], "term": "S"}]),
        _mistyped(simulator=["a"]),
        _mistyped(check="probe", encodings=5),
        _construction("stripe", d="2", r=0),
        _construction("tri", j_max="3", role="plain"),
        _construction("re", oracle={"name": "parity"}, i_max="8", role="plain"),
        # wrong types that truthiness or the report would otherwise take as they are
        _mistyped(encoding={"scheme": "identity", "inverse": "yes"}),
        _mistyped(name=5),
        _with_plan(inputs={"list": []}),
    ],
    ids=[
        "member", "term", "file", "name", "simulator", "encodings", "d", "j_max", "i_max",
        "inverse", "scenario-name", "empty-list",
    ],
)
def test_mistyped_fields_exit_3(doc, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    _assert_one_line_usage_error(main(["run", str(path)]), capsys)


def test_flags_stand_in_for_a_missing_fuel_and_inputs(tmp_path, capsys):
    doc = _mistyped()
    doc["plan"] = {}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--fuel", "100", "--inputs", "0..2"]) == EXIT_UNKNOWN
    assert "stats: 3 inputs" in capsys.readouterr().out
    assert main(["run", str(path), "--fuel", "100"]) == EXIT_USAGE
    assert capsys.readouterr().err == "powerlab: error: plan is missing 'inputs'\n"
    assert main(["run", str(path), "--inputs", "0,1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "powerlab: error: plan is missing 'fuel'\n"


@pytest.mark.parametrize(
    "doc",
    [
        _with_plan(candidate_limit=10**8),
        _construction("tri", j_max=10**30, role="plain"),
        _construction("tri", i_max=1000, j_max=1000, k_max=0, role="plain"),
        _construction("re", oracle={"name": "parity"}, i_max=10**30, role="plain"),
        _construction("re", oracle={"name": "parity"}, i_max=MAX_MODEL_MEMBERS, role="plain"),
    ],
    ids=["candidate_limit", "tri-j_max", "tri-members", "re-i_max", "re-members"],
)
def test_sizes_past_max_model_members_exit_3(doc, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    _assert_one_line_usage_error(main(["run", str(path)]), capsys)


def test_max_model_members_itself_is_allowed():
    plan = build_plan(_with_plan(candidate_limit=MAX_MODEL_MEMBERS), None, None)
    assert plan.candidate_limit == MAX_MODEL_MEMBERS


def _json_paths(doc, path=()):
    """The path to every field and list item of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


_OVERSIZED = 10**30
_MUTANT_VALUES = ("x", 5, -1, True, None, [], {}, [5], _OVERSIZED, 1.5)


@st.composite
def _mutants(draw):
    """A bundled scenario with one field, at any depth, set to a value of
    another JSON type or to an oversized number.  The plan's fuel only
    takes other types: a huge fuel is a legitimate budget."""
    name = draw(st.sampled_from(sorted(BUNDLED)))
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    path = draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    values = [
        v for v in _MUTANT_VALUES
        if type(v) is not type(old) or (v is _OVERSIZED and path != ("plan", "fuel"))
    ]
    parent[path[-1]] = draw(st.sampled_from(values))
    return name, path, doc


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    """A directory for mutated scenarios, holding the machine files the
    bundled ones name."""
    d = tmp_path_factory.mktemp("mutants")
    shutil.copytree(SCENARIOS / "machines", d / "machines")
    return d


@settings(max_examples=150, deadline=None)
@given(_mutants())
def test_a_mutated_scenario_exits_with_a_status_not_a_traceback(mutant_dir, mutant):
    name, path, doc = mutant
    scenario = mutant_dir / "mutant.json"
    scenario.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(scenario), "--fuel", str(_HEAVY_FUEL)])
    assert code in (EXIT_VERIFIED, EXIT_REFUTED, EXIT_UNKNOWN, EXIT_USAGE), (name, path)
    if code == EXIT_USAGE:
        assert len(err.getvalue().splitlines()) == 1, (name, path, err.getvalue())
