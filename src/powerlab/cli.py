"""Command line front end.

Five subcommands:

``run SCENARIO``
    Load a JSON scenario describing a claim between two models and
    check it.  Exit status encodes the verdict: 0 verified, 1 refuted,
    2 undecided, 3 usage or malformed input.

``tri``
    Evaluate the square-row family directly: members, the row-rotation
    permutation, its inverse, and cycle reports.

``encode``
    Apply an encoding (or its decode side) to a single value: one of the
    schemes ``identity``, ``stripe`` (``--d``, ``--r``), ``tri-pi``,
    ``bits`` and ``godel``, the entries of the scheme table whose
    parameters the flags supply.

``compile``
    Translate a unary recursion term to a counter-machine program.

``exec``
    Run a machine program from a file on one input under a fuel budget.

Scenario files are JSON objects::

    {
      "name": "...",
      "check": "simulation" | "equivalence" | "closure"
             | "pullback-law" | "probe",
      "models": {"key": MODEL, ...},
      "simulator": "key",            for simulation/pullback-law/probe
      "simulated": "key",
      "model": "key",                for closure
      "encoding": ENCODING,          for simulation/pullback-law
      "encodings": [ENCODING, ...],  pair for equivalence, family for probe
      "mode": "plain" | "strong" | "isomorphism",
      "family_name": "...",
      "plan": {"inputs": {"range": [lo, hi]} | {"list": [...]},
               "fuel": N, "a_sample": [...], "b_sample": [...],
               "candidate_limit": N}
    }

A MODEL is one of::

    {"kind": "dsl-terms", "members": [{"name": n, "term": t}, ...]}
    {"kind": "tm-programs", "members": [{"name": n, "file": p}
                                        | {"name": n, "lines": [...]}]}
    {"kind": "cm-programs", "members": ...same...}
    {"kind": "builtin-construction", "construction": ..., ...}

with builtin constructions ``rec-suite``, ``stripe`` (d, r),
``tri`` (i_max, j_max, k_max, role "with-anchors" or "plain"),
``re`` (oracle, i_max, role "plain" or "image"), ``tm-witness``
(role "tm" or "rec"), and ``image`` (of, encoding).

An ENCODING is ``{"scheme": ...}`` with schemes ``identity``,
``stripe`` (d, r), ``tri-pi``, ``bits``, ``godel``, ``re-rho``
(oracle), ``table`` (pairs), ``compose`` (steps, applied first to
last), each accepting ``"inverse": true`` where an inverse exists.

Values in JSON are untagged: naturals are numbers, bit strings are
strings of 0s and 1s, pure lists are ``[]`` or ``[head, tail]``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from powerlab.core import (
    Converged,
    Diverged,
    Domain,
    Encoding,
    FuelExhausted,
    IdentityEncoding,
    Model,
    Outcome,
    TableEncoding,
    compose_encodings,
    pushforward_model,
)
from powerlab.constructions import (
    GodelEncoding,
    OracleH,
    OracleStripeEncoding,
    StripeEncoding,
    TriPiEncoding,
    narrowness,
    oracle_parity,
    oracle_pseudorandom,
    oracle_zeros,
    re_models,
    stripe_model,
    tri_f,
    tri_g,
    tri_models,
    tri_pi,
    tri_pi_inverse,
)
from powerlab.machines import (
    BitsEncoding,
    cm_map,
    compile_rec_to_cm,
    parse_cm,
    parse_tm,
    render_cm,
    run_cm,
    run_tm,
    tm_map,
    tm_witness_models,
)
from powerlab.recdsl import parse_term, term_map
from powerlab.simcheck import (
    SimReport,
    TestPlan,
    Verdict,
    check_closure,
    check_equivalence,
    check_pullback_law,
    check_simulation,
    combine_verdicts,
    probe_encodings,
    probe_verdict,
)
from powerlab.terms import rec_suite_model, standard_suite

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

# The most inputs a plan may hold, from a scenario or ``run --inputs``:
# a plan is materialised before it is checked.  The largest bundled
# plan has 1,001 inputs.
MAX_PLAN_INPUTS = 10**6

# The largest window ``tri --op cycles --prefix`` accepts; the cycle
# census holds the whole prefix in memory (10**6 takes about 2 s).
MAX_TRI_PREFIX = 10**6

_EXIT_BY_VERDICT = {
    Verdict.VERIFIED: EXIT_VERIFIED,
    Verdict.REFUTED: EXIT_REFUTED,
    Verdict.UNKNOWN: EXIT_UNKNOWN,
}


class ScenarioError(ValueError):
    """A scenario file does not make sense."""


class _Parser(argparse.ArgumentParser):
    """Argparse that reserves exit status 3 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# JSON value and outcome conventions


def json_to_value(j):
    if isinstance(j, bool):
        raise ScenarioError("booleans are not values")
    if isinstance(j, int):
        if j < 0:
            raise ScenarioError(f"{j} is not a natural number")
        return j
    if isinstance(j, str):
        if any(c not in "01" for c in j):
            raise ScenarioError(f"{j!r} is not a bit string")
        return j
    if isinstance(j, list):
        if len(j) == 0:
            return ()
        if len(j) == 2:
            return (json_to_value(j[0]), json_to_value(j[1]))
        raise ScenarioError("a list value is [] or [head, tail]")
    raise ScenarioError(f"cannot read {j!r} as a value")


def value_to_json(v):
    if isinstance(v, tuple):
        if v == ():
            return []
        return [value_to_json(v[0]), value_to_json(v[1])]
    return v


def outcome_to_json(out: Outcome):
    if isinstance(out, Converged):
        return {"status": "converged", "value": value_to_json(out.value)}
    if isinstance(out, Diverged):
        return {"status": "diverged"}
    if isinstance(out, FuelExhausted):
        return {"status": "fuel-exhausted"}
    raise TypeError(out)


def outcome_to_text(out: dict) -> str:
    """One line for an outcome in its ``outcome_to_json`` form."""
    if out["status"] == "converged":
        return f"converged: {json.dumps(out['value'])}"
    if out["status"] == "diverged":
        return "diverged"
    return "fuel exhausted"


# ---------------------------------------------------------------------------
# Scenario loading


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioError(f"{where} is missing {key!r}")
    return doc[key]


def _as_list(value, key: str, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: {key!r} is not a list")
    return value


def _need_list(doc: dict, key: str, where: str) -> list:
    return _as_list(_need(doc, key, where), key, where)


def _as_whole_number(value, key: str, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{where}: {key!r} is not a whole number")
    return value


def _input_range(lo: int, hi: int) -> range:
    """Inputs lo..hi inclusive, refused before they are built when there
    are more than ``MAX_PLAN_INPUTS`` of them."""
    _check_plan_size(hi - lo + 1)
    return range(lo, hi + 1)


def _check_plan_size(count: int) -> None:
    if count > MAX_PLAN_INPUTS:
        raise ScenarioError(
            f"plan has {count} inputs, more than MAX_PLAN_INPUTS ({MAX_PLAN_INPUTS})"
        )


def _lookup(table: dict, name):
    """The entry of ``table`` for a name read from JSON, or None.  The
    name may be any JSON value, hashable or not."""
    return table.get(name) if isinstance(name, str) else None


_ORACLES = {
    "zeros": lambda seed: oracle_zeros(),
    "parity": lambda seed: oracle_parity(),
    "pseudorandom": oracle_pseudorandom,
}


def _build_oracle(spec, seed: int) -> OracleH:
    if not isinstance(spec, dict):
        raise ScenarioError("an oracle is an object with a name")
    name = _need(spec, "name", "oracle")
    build = _lookup(_ORACLES, name)
    if build is None:
        raise ScenarioError(f"unknown oracle {name!r}")
    return build(spec.get("seed", seed))


_DOMAINS = {"nat": Domain.NAT, "bits": Domain.BITS, "list": Domain.LIST}


def _identity_scheme(spec: dict, seed: int) -> Encoding:
    name = spec.get("domain", "nat")
    domain = _lookup(_DOMAINS, name)
    if domain is None:
        raise ScenarioError(f"unknown domain {name!r}")
    return IdentityEncoding(domain)


def _table_scheme(spec: dict, seed: int) -> Encoding:
    pairs = _need_list(spec, "pairs", "table")
    return TableEncoding(tuple((json_to_value(a), json_to_value(b)) for a, b in pairs))


def _compose_scheme(spec: dict, seed: int) -> Encoding:
    steps = _need_list(spec, "steps", "compose")
    if not steps:
        raise ScenarioError("compose needs at least one step")
    built = [build_encoding(s, seed) for s in steps]
    e = built[0]
    for step in built[1:]:
        e = compose_encodings(step, e)
    return e


# Every encoding scheme: the parameters its spec must carry, and how to
# build it from the spec and the scenario's seed.
_SCHEMES = {
    "identity": ((), _identity_scheme),
    "stripe": (("d", "r"), lambda spec, seed: StripeEncoding(spec["d"], spec["r"])),
    "tri-pi": ((), lambda spec, seed: TriPiEncoding()),
    "bits": ((), lambda spec, seed: BitsEncoding()),
    "godel": ((), lambda spec, seed: GodelEncoding()),
    "re-rho": (
        ("oracle",),
        lambda spec, seed: OracleStripeEncoding(_build_oracle(spec["oracle"], seed)),
    ),
    "table": (("pairs",), _table_scheme),
    "compose": (("steps",), _compose_scheme),
}

# The schemes ``encode`` offers: those whose parameters its flags supply.
_ENCODE_FLAGS = ("d", "r")
_ENCODE_SCHEMES = tuple(
    scheme for scheme, (params, _) in _SCHEMES.items() if set(params) <= set(_ENCODE_FLAGS)
)


def build_encoding(spec, seed: int = 0) -> Encoding:
    if not isinstance(spec, dict):
        raise ScenarioError("an encoding is an object with a scheme")
    scheme = _need(spec, "scheme", "encoding")
    entry = _lookup(_SCHEMES, scheme)
    if entry is None:
        raise ScenarioError(f"unknown encoding scheme {scheme!r}")
    params, build = entry
    for param in params:
        _need(spec, param, scheme)
    e = build(spec, seed)
    if spec.get("inverse", False):
        e = e.inverse()
    return e


def _machine_text(member: dict, base_dir: Path) -> str:
    if "file" in member:
        return (base_dir / member["file"]).read_text()
    if "lines" in member:
        return "\n".join(member["lines"]) + "\n"
    raise ScenarioError(f"member {member.get('name')!r} needs a file or lines")


def _build_model(key: str, spec, base_dir: Path, seed: int, get) -> Model:
    if not isinstance(spec, dict):
        raise ScenarioError(f"model {key!r} is not an object")
    kind = _need(spec, "kind", f"model {key!r}")
    name = spec.get("name", key)
    if kind == "dsl-terms":
        members = tuple(
            term_map(parse_term(_need(m, "term", f"member of {key!r}")), _need(m, "name", f"member of {key!r}"))
            for m in _need_list(spec, "members", f"model {key!r}")
        )
        return Model(name, Domain.NAT, members)
    if kind == "tm-programs":
        members = tuple(
            tm_map(parse_tm(_machine_text(m, base_dir), name=m["name"]))
            for m in _need_list(spec, "members", f"model {key!r}")
        )
        return Model(name, Domain.BITS, members)
    if kind == "cm-programs":
        members = tuple(
            cm_map(parse_cm(_machine_text(m, base_dir), name=m["name"]))
            for m in _need_list(spec, "members", f"model {key!r}")
        )
        return Model(name, Domain.NAT, members)
    if kind == "builtin-construction":
        return _build_construction(key, spec, seed, get, name)
    raise ScenarioError(f"model {key!r} has unknown kind {kind!r}")


def _image_construction(name: str, key: str, spec: dict, seed: int, get) -> Model:
    inner = get(_need(spec, "of", f"model {key!r}"))
    e = build_encoding(_need(spec, "encoding", f"model {key!r}"), seed)
    return pushforward_model(e, inner, name=name)


# Every builtin construction: how to build it from (name, key, spec,
# seed, get), and, when it builds a pair of models, the role names that
# pick each one.
_CONSTRUCTIONS = {
    "rec-suite": (lambda name, *_: rec_suite_model(name), None),
    "stripe": (
        lambda name, key, spec, *_: stripe_model(
            _need(spec, "d", key), _need(spec, "r", key), standard_suite(), name=name
        ),
        None,
    ),
    "tri": (
        lambda name, key, spec, *_: tri_models(
            spec.get("i_max", 3), spec.get("j_max", 3), spec.get("k_max", 5)
        ),
        (("with-anchors", "A"), ("plain", "B")),
    ),
    "re": (
        lambda name, key, spec, seed, get: re_models(
            _build_oracle(_need(spec, "oracle", key), seed), spec.get("i_max", 8)
        ),
        (("image",), ("plain",)),
    ),
    "tm-witness": (lambda *_: tm_witness_models(), (("tm",), ("rec",))),
    "image": (_image_construction, None),
}


def _build_construction(key: str, spec: dict, seed: int, get, name: str) -> Model:
    which = _need(spec, "construction", f"model {key!r}")
    entry = _lookup(_CONSTRUCTIONS, which)
    if entry is None:
        raise ScenarioError(f"model {key!r}: unknown construction {which!r}")
    build, roles = entry
    built = build(name, key, spec, seed, get)
    if roles is None:
        return built
    role = _need(spec, "role", f"model {key!r}")
    for names, model in zip(roles, built):
        if role in names:
            return model
    raise ScenarioError(f"model {key!r}: unknown {which} role {role!r}")


def build_models(doc: dict, base_dir: Path, seed: int):
    specs = _need(doc, "models", "scenario")
    if not isinstance(specs, dict) or not specs:
        raise ScenarioError("'models' must be a non-empty object")
    built: dict = {}
    in_progress: set = set()

    def get(key: str) -> Model:
        if key not in specs:
            raise ScenarioError(f"no model named {key!r} in this scenario")
        if key not in built:
            if key in in_progress:
                raise ScenarioError(f"model {key!r} depends on itself")
            in_progress.add(key)
            built[key] = _build_model(key, specs[key], base_dir, seed, get)
            in_progress.discard(key)
        return built[key]

    return get


def build_plan(
    doc: dict,
    fuel_override: Optional[int],
    inputs_override,
) -> TestPlan:
    spec = _need(doc, "plan", "scenario")
    if not isinstance(spec, dict):
        raise ScenarioError("'plan' must be an object")
    if inputs_override is not None:
        inputs = inputs_override
    else:
        ispec = _need(spec, "inputs", "plan")
        if not isinstance(ispec, dict):
            raise ScenarioError("plan inputs must be an object")
        if "range" in ispec:
            bounds = ispec["range"]
            if not (
                isinstance(bounds, list)
                and len(bounds) == 2
                and all(isinstance(b, int) for b in bounds)
                and bounds[0] <= bounds[1]
            ):
                raise ScenarioError("inputs range must be [lo, hi] with lo <= hi")
            inputs = _input_range(*bounds)
        elif "list" in ispec:
            inputs = [json_to_value(x) for x in _as_list(ispec["list"], "list", "plan inputs")]
        else:
            raise ScenarioError("plan inputs need a range or a list")
    _check_plan_size(len(inputs))
    inputs = tuple(inputs)
    fuel = fuel_override if fuel_override is not None else _need(spec, "fuel", "plan")
    fuel = _as_whole_number(fuel, "fuel", "plan")
    candidate_limit = _as_whole_number(spec.get("candidate_limit", 64), "candidate_limit", "plan")
    a_sample, b_sample = (
        None if spec.get(key) is None else tuple(_as_list(spec[key], key, "plan"))
        for key in ("a_sample", "b_sample")
    )
    try:
        return TestPlan(
            inputs=inputs,
            fuel=fuel,
            a_sample=a_sample,
            b_sample=b_sample,
            candidate_limit=candidate_limit,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


_CHECKS = ("simulation", "equivalence", "closure", "pullback-law", "probe")


def run_scenario(
    doc: dict,
    base_dir: Path,
    fuel: Optional[int] = None,
    inputs=None,
    seed: int = 0,
) -> tuple[str, str, list]:
    """Returns (scenario name, check kind, list of reports)."""
    if not isinstance(doc, dict):
        raise ScenarioError("a scenario is a JSON object")
    name = _need(doc, "name", "scenario")
    check = _need(doc, "check", "scenario")
    if check not in _CHECKS:
        raise ScenarioError(f"unknown check {check!r}, expected one of {', '.join(_CHECKS)}")
    get = build_models(doc, base_dir, seed)
    plan = build_plan(doc, fuel, inputs)
    if check == "closure":
        model = get(_need(doc, "model", "closure scenario"))
        return name, check, [check_closure(model, plan)]
    if check == "probe":
        a = get(_need(doc, "simulator", "probe scenario"))
        b = get(_need(doc, "simulated", "probe scenario"))
        family = [
            build_encoding(e, seed) for e in _need(doc, "encodings", "probe scenario")
        ]
        reports = probe_encodings(
            a, b, family, plan, family_name=doc.get("family_name", "family")
        )
        return name, check, reports
    a = get(_need(doc, "simulator", f"{check} scenario"))
    b = get(_need(doc, "simulated", f"{check} scenario"))
    if check == "simulation":
        e = build_encoding(_need(doc, "encoding", "simulation scenario"), seed)
        return name, check, [check_simulation(a, b, e, plan)]
    if check == "pullback-law":
        e = build_encoding(_need(doc, "encoding", "pullback-law scenario"), seed)
        return name, check, [check_pullback_law(a, b, e, plan)]
    pair = _need(doc, "encodings", "equivalence scenario")
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ScenarioError("equivalence needs exactly two encodings [forward, backward]")
    e_ab = build_encoding(pair[0], seed)
    e_ba = build_encoding(pair[1], seed)
    mode = doc.get("mode", "plain")
    try:
        report = check_equivalence(a, b, e_ab, e_ba, plan, mode=mode)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return name, check, [report]


# ---------------------------------------------------------------------------
# Rendering


def report_to_json(r: SimReport) -> dict:
    return {
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
                        "expected": outcome_to_json(f.expected),
                        "got": outcome_to_json(f.got),
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


def scenario_to_json(name: str, check: str, reports: list, aggregate: Verdict) -> dict:
    """The document both output formats render."""
    return {
        "scenario": name,
        "check": check,
        "aggregate": aggregate.value,
        "reports": [report_to_json(r) for r in reports],
    }


_json_string = json.encoder.encode_basestring_ascii


def indented_json(o) -> str:
    """``o`` exactly as ``json.dumps(o, sort_keys=True, indent=2)`` writes
    it, for documents built from plain dicts with string keys, lists and
    JSON scalars, as reports are.  ``indent`` makes ``json`` fall back to
    its pure-Python encoder; this writer calls the C string escaper
    directly and is several times faster on reports."""
    chunks: list = []
    _write_json(o, "\n", chunks)
    return "".join(chunks)


def _write_json(o, newline: str, out: list) -> None:
    """Append ``o`` to ``out``; ``newline`` is a line break followed by
    the indentation of the line ``o`` starts on."""
    t = type(o)
    if t is str:
        out.append(_json_string(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif t is int:
        out.append(int.__repr__(o))
    elif t is dict or t is list or t is tuple:
        if not o:
            out.append("{}" if t is dict else "[]")
            return
        inner = newline + "  "
        lead, sep = inner, "," + inner
        if t is dict:
            out.append("{")
            for k in sorted(o):
                out.append(lead)
                out.append(_json_string(k))
                out.append(": ")
                _write_json(o[k], inner, out)
                lead = sep
            out.append(newline + "}")
        else:
            out.append("[")
            for item in o:
                out.append(lead)
                _write_json(item, inner, out)
                lead = sep
            out.append(newline + "]")
    else:
        # floats, and anything json rejects with the same TypeError
        out.append(json.dumps(o))


def render_structured(name: str, check: str, reports: list, aggregate: Verdict) -> str:
    return indented_json(scenario_to_json(name, check, reports, aggregate)) + "\n"


def _render_member_line(m: dict) -> str:
    bits = [f"  {m['member']}: {m['verdict']}"]
    if m["witness"] is not None:
        bits.append(f"witness {m['witness']}")
    if m["undecided_inputs"]:
        bits.append(f"{m['undecided_inputs']} undecided inputs")
    return ", ".join(bits)


def _claim_line(claim: dict) -> str:
    if claim["mode"]:
        return (
            f"claim: {claim['left']} and {claim['right']} are equivalent"
            f" via {claim['encoding']} ({claim['mode']})"
        )
    if claim["kind"] == "closure":
        return f"claim: {claim['left']} is closed under composition"
    return f"claim: {claim['left']} simulates {claim['right']} via {claim['encoding']}"


def render_text(name: str, check: str, reports: list, aggregate: Verdict) -> str:
    doc = scenario_to_json(name, check, reports, aggregate)
    lines = [f"scenario: {doc['scenario']}", f"check: {doc['check']}"]
    for r in doc["reports"]:
        lines += ["", _claim_line(r["claim"]), f"verdict: {r['aggregate']}"]
        for m in r["members"]:
            lines.append(_render_member_line(m))
            for f in m["failures"][:3]:
                lines.append(
                    f"    {f['candidate']} at input {json.dumps(f['input'])}:"
                    f" expected {outcome_to_text(f['expected'])}, got {outcome_to_text(f['got'])}"
                )
        stats = r["stats"]
        lines.append(
            f"stats: {stats['inputs']} inputs, {stats['evaluations']} evaluations,"
            f" {stats['fuel_spent']} fuel spent"
        )
        lines += [f"note: {note}" for note in r["notes"]]
    lines += ["", f"aggregate: {doc['aggregate']}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers


def _parse_inputs_flag(text: str) -> tuple | range:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ScenarioError(f"bad inputs range {text!r}, expected lo..hi")
        if lo > hi:
            raise ScenarioError(f"bad inputs range {text!r}, expected lo..hi")
        return _input_range(lo, hi)
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ScenarioError(f"bad inputs {text!r}, expected lo..hi or a comma list")


def _cmd_run(args) -> int:
    path = Path(args.scenario)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}")
    inputs = _parse_inputs_flag(args.inputs) if args.inputs else None
    name, check, reports = run_scenario(
        doc, path.parent, fuel=args.fuel, inputs=inputs, seed=args.seed
    )
    combine = probe_verdict if check == "probe" else combine_verdicts
    aggregate = combine(r.aggregate for r in reports)
    if args.format == "structured":
        sys.stdout.write(render_structured(name, check, reports, aggregate))
    else:
        sys.stdout.write(render_text(name, check, reports, aggregate))
    return _EXIT_BY_VERDICT[aggregate]


def _require_flags(args, names, op):
    for flag in names:
        if getattr(args, flag) is None:
            raise ScenarioError(f"tri --op {op} needs --{flag}")


def _cmd_tri(args) -> int:
    if args.op == "f":
        _require_flags(args, ("i", "j", "n"), "f")
        print(tri_f(args.i, args.j, args.n))
    elif args.op == "g":
        _require_flags(args, ("i", "n"), "g")
        print(tri_g(args.i, args.n))
    elif args.op == "pi":
        _require_flags(args, ("n",), "pi")
        print(tri_pi(args.n))
    elif args.op == "pi-inv":
        _require_flags(args, ("n",), "pi-inv")
        print(tri_pi_inverse(args.n))
    else:
        if args.prefix > MAX_TRI_PREFIX:
            raise ScenarioError(
                f"tri --prefix {args.prefix} is above MAX_TRI_PREFIX ({MAX_TRI_PREFIX})"
            )
        rep = narrowness(TriPiEncoding(), args.prefix)
        print(f"prefix: [0, {rep.prefix})")
        print(f"permutation on prefix: {'yes' if rep.is_permutation_on_prefix else 'no'}")
        print(f"longest closed cycle: {rep.max_cycle_length}")
        if rep.bound_if_narrow is not None:
            print(f"iteration order bound: {rep.bound_if_narrow}")
        else:
            print("iteration order bound: unknown on this prefix")
        print(f"escaped elements: {rep.escaped_elements}")
        census = " ".join(f"{length}x{count}" for length, count in rep.cycle_lengths_histogram)
        print(f"cycle lengths: {census or 'none'}")
    return 0


def _cmd_encode(args) -> int:
    params = _SCHEMES[args.scheme][0]
    if any(getattr(args, flag) is None for flag in params):
        flags = " and ".join(f"--{flag}" for flag in params)
        raise ScenarioError(f"encode --scheme {args.scheme} needs {flags}")
    spec = {flag: getattr(args, flag) for flag in params}
    e = build_encoding(dict(spec, scheme=args.scheme))
    raw = args.value
    if args.decode:
        domain = e.target
    else:
        domain = e.source
    if domain is Domain.NAT:
        try:
            value = int(raw)
        except ValueError:
            raise ScenarioError(f"{raw!r} is not a natural number")
    elif domain is Domain.BITS:
        value = raw
    else:
        try:
            value = json_to_value(json.loads(raw))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{raw!r} is not a JSON list value: {exc}")
    if not domain.contains(value):
        raise ScenarioError(f"{raw!r} is not in the {domain.value} domain")
    if args.decode:
        back = e.decode(value)
        if back is None:
            print("undefined")
            return EXIT_REFUTED
        print(json.dumps(value_to_json(back)))
        return EXIT_VERIFIED
    print(json.dumps(value_to_json(e.encode(value))))
    return EXIT_VERIFIED


def _cmd_compile(args) -> int:
    term = parse_term(args.term)
    program = compile_rec_to_cm(term, name=args.name)
    text = render_cm(program)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_exec(args) -> int:
    path = Path(args.machine)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}")
    if path.suffix == ".tm":
        bits = args.input
        if any(c not in "01" for c in bits):
            raise ScenarioError(f"{bits!r} is not a bit string")
        out = run_tm(parse_tm(text, name=path.stem), bits, args.fuel)
    elif path.suffix == ".cm":
        try:
            n = int(args.input)
        except ValueError:
            raise ScenarioError(f"{args.input!r} is not a natural number")
        if n < 0:
            raise ScenarioError(f"{args.input!r} is not a natural number")
        out = run_cm(parse_cm(text, name=path.stem), n, args.fuel)
    else:
        raise ScenarioError(f"{path} must end in .tm or .cm")
    print(outcome_to_text(outcome_to_json(out)))
    if isinstance(out, Converged):
        return EXIT_VERIFIED
    if isinstance(out, Diverged):
        return EXIT_REFUTED
    return EXIT_UNKNOWN


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="powerlab", description="compare models of computation at finite scale")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="check the claim in a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--fuel", type=int, default=None, help="override the plan's fuel budget")
    run_p.add_argument(
        "--inputs", default=None, help="override the plan's inputs: lo..hi or a comma list"
    )
    run_p.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output format"
    )
    run_p.add_argument(
        "--seed", type=int, default=0, help="seed for pseudorandom oracles without one"
    )

    tri_p = sub.add_parser("tri", help="evaluate the square-row family")
    tri_p.add_argument(
        "--op", required=True, choices=("f", "g", "pi", "pi-inv", "cycles")
    )
    tri_p.add_argument("--i", type=int, default=None)
    tri_p.add_argument("--j", type=int, default=None)
    tri_p.add_argument("--n", type=int, default=None)
    tri_p.add_argument("--prefix", type=int, default=100, help="window for --op cycles")

    enc_p = sub.add_parser("encode", help="apply a catalogued encoding to one value")
    enc_p.add_argument("--scheme", required=True, choices=_ENCODE_SCHEMES)
    for flag in _ENCODE_FLAGS:
        enc_p.add_argument(f"--{flag}", type=int, default=None)
    enc_p.add_argument("--decode", action="store_true", help="run the decode side")
    enc_p.add_argument("value", help="the value to carry across")

    comp_p = sub.add_parser("compile", help="translate a unary term to a counter machine")
    comp_p.add_argument("--term", required=True, help="term text")
    comp_p.add_argument("--name", default=None, help="program name")
    comp_p.add_argument("--output", default=None, help="write the program here instead of stdout")

    exec_p = sub.add_parser("exec", help="run a .tm or .cm program on one input")
    exec_p.add_argument("--machine", required=True, help="program file")
    exec_p.add_argument("--input", required=True, help="input value")
    exec_p.add_argument("--fuel", type=int, default=10**6)

    return p


_HANDLERS = {
    "run": _cmd_run,
    "tri": _cmd_tri,
    "encode": _cmd_encode,
    "compile": _cmd_compile,
    "exec": _cmd_exec,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SystemExit:
        raise
    except (ScenarioError, ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        sys.stderr.write(f"powerlab: error: {message}\n")
        return EXIT_USAGE
    except RecursionError:
        sys.stderr.write("powerlab: error: input nests too deeply to process\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
