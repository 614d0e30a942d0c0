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

A scenario file is a JSON object: a claim between models, the encodings
it names, and a plan of inputs and fuel.  Its schema is the field tables
below, one per kind of object, each giving a field's JSON type, its
default or that it is required, and its bounds: ``_SCENARIO``, then
``_CHECKS`` by check kind; ``_PLAN`` and ``_INPUTS``; ``_MODEL``, then
``_MODEL_KINDS`` and ``_CONSTRUCTIONS``; ``_ENCODING``, then ``_SCHEMES``
and ``_ORACLE``.  README.md outlines it, and ``scenarios/`` holds
thirteen worked examples.

Values in JSON are untagged: naturals are numbers, bit strings are
strings of 0s and 1s, pure lists are ``[]`` or ``[head, tail]``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import reduce
from pathlib import Path
from typing import NamedTuple, Optional

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
    apply,
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
    tm_map,
    tm_witness_models,
)
from powerlab.recdsl import parse_term, term_map
from powerlab.simcheck import (
    Claim,
    MemberResult,
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
from powerlab.terms import rec_suite_model

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

# The most inputs a plan may hold, from a scenario or ``run --inputs``:
# a plan is materialised before it is checked.  The largest bundled
# plan has 1,001 inputs.
MAX_PLAN_INPUTS = 10**6

# The most maps a scenario may make powerlab build for one model or one
# candidate pool: a ``candidate_limit``, the members of a ``tri`` or ``re``
# construction.  All are built before a check starts; at 10**5 a ``tri``
# model takes about 0.6 s and 70 MB, an ``re`` model 1.4 s and 115 MB.
# The bundled scenarios ask for at most 64.
MAX_MODEL_MEMBERS = 10**5

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


def outcome_to_text(out: Outcome) -> str:
    """One line for an outcome."""
    if isinstance(out, Converged):
        return f"converged: {json.dumps(value_to_json(out.value))}"
    if isinstance(out, Diverged):
        return "diverged"
    if isinstance(out, FuelExhausted):
        return "fuel exhausted"
    raise TypeError(out)


# ---------------------------------------------------------------------------
# Scenario loading: each builder checks its object against a field table on
# entry, in one pass, then only indexes the fields it gets back.

_REQUIRED = object()


class Field(NamedTuple):
    """A field's JSON type: str, int (a whole number, not a boolean),
    bool, list, dict, or a table whose keys are the strings it may take
    (where its values are ``(fields, build)`` pairs, the string picks a
    kind, whose fields join the object's).  Then its default,
    ``_REQUIRED`` when it has none; bounds on a number or on the size of
    a list or object; what each item of a list must be; and a message,
    formatted with ``where`` and ``value``, that replaces the standard
    ones for any fault in the field."""

    type: object
    default: object = _REQUIRED
    lo: Optional[int] = None
    hi: Optional[int] = None
    items: Optional["Field"] = None
    error: Optional[str] = None


_TYPE_NAMES = {
    str: "a string", int: "a whole number", bool: "a boolean", list: "a list", dict: "an object",
}


def _fault(value, field: Field, label: str) -> Optional[str]:
    """What is wrong with ``value`` as ``field``, or None."""
    t = field.type
    if type(t) is dict:
        known = type(value) is str and value in t
        return None if known else f"{label} is {value!r}, not one of {', '.join(t)}"
    if type(value) is not t:
        return f"{label} is not {_TYPE_NAMES[t]}"
    sized = t is list or t is dict
    size = len(value) if sized else value
    shown = f"has {size} entries" if sized else f"is {size}"
    if field.lo is not None and size < field.lo:
        return f"{label} {shown}, below the least allowed, {field.lo}"
    if field.hi is not None and size > field.hi:
        return f"{label} {shown}, above the most allowed, {field.hi}"
    for ix, item in enumerate(value if field.items else ()):
        fault = _fault(item, field.items, f"{label} item {ix}")
        if fault is not None:
            return fault
    return None


def _fields(obj, table: dict, where: str, **defaults) -> dict:
    """``obj``'s fields: each field of ``table``, and of the kinds its
    fields pick, checked, or given its default when it is missing (or
    null, where the default is null).  ``defaults`` replace the tables'
    where they depend on context.  A field no table names is refused."""
    if type(obj) is not dict:
        raise ScenarioError(f"{where} is not an object")
    out = {}
    fields = list(table.items())
    for key, field in fields:  # grows by each kind's fields as it is met
        if obj.get(key) is None and (key not in obj or field.default is None):
            out[key] = defaults.get(key, field.default)
            if out[key] is _REQUIRED:
                raise ScenarioError(f"{where} is missing {key!r}")
            continue
        value = out[key] = obj[key]
        fault = _fault(value, field, repr(key))
        if fault is not None:
            message = field.error or "{where}: {fault}"
            raise ScenarioError(message.format(where=where, value=value, fault=fault))
        if type(field.type) is dict and type(field.type[value]) is tuple:
            fields += field.type[value][0].items()
    for key in obj:
        if key not in out:
            raise ScenarioError(f"{where} has no field {key!r}")
    return out


_ORACLES = {
    "zeros": lambda seed: oracle_zeros(),
    "parity": lambda seed: oracle_parity(),
    "pseudorandom": oracle_pseudorandom,
}

# The seed defaults to the scenario's.
_ORACLE = {"name": Field(_ORACLES, error="unknown oracle {value!r}"), "seed": Field(int, None)}


def _build_oracle(spec, seed: int) -> OracleH:
    f = _fields(spec, _ORACLE, "oracle", seed=seed)
    return _ORACLES[f["name"]](f["seed"])


def _compose_scheme(f: dict, seed: int) -> Encoding:
    steps = [build_encoding(s, seed) for s in f["steps"]]
    return reduce(lambda e, step: compose_encodings(step, e), steps)


_DOMAINS = {d.value: d for d in Domain}
_DOMAIN = Field(_DOMAINS, "nat", error="unknown domain {value!r}")
_STRIPE = {"d": Field(int, lo=1), "r": Field(int, lo=0)}

# Every encoding scheme: its fields, and how to build it from them and
# the scenario's seed.
_SCHEMES = {
    "identity": ({"domain": _DOMAIN}, lambda f, seed: IdentityEncoding(_DOMAINS[f["domain"]])),
    "stripe": (_STRIPE, lambda f, seed: StripeEncoding(f["d"], f["r"])),
    "tri-pi": ({}, lambda f, seed: TriPiEncoding()),
    "bits": ({}, lambda f, seed: BitsEncoding()),
    "godel": ({}, lambda f, seed: GodelEncoding()),
    "re-rho": (
        {"oracle": Field(dict)},
        lambda f, seed: OracleStripeEncoding(_build_oracle(f["oracle"], seed)),
    ),
    "table": (
        {"pairs": Field(list, items=Field(list, lo=2, hi=2))},
        lambda f, seed: TableEncoding(tuple(tuple(map(json_to_value, p)) for p in f["pairs"])),
    ),
    "compose": ({"steps": Field(list, lo=1)}, _compose_scheme),
}

_ENCODING = {
    "scheme": Field(_SCHEMES, error="unknown encoding scheme {value!r}"),
    "inverse": Field(bool, False),
}

# The schemes ``encode`` offers: those whose required fields its flags supply.
_ENCODE_FLAGS = ("d", "r")
_ENCODE_SCHEMES = tuple(
    scheme for scheme, (table, _) in _SCHEMES.items()
    if all(key in _ENCODE_FLAGS for key, field in table.items() if field.default is _REQUIRED)
)


def build_encoding(spec, seed: int = 0) -> Encoding:
    f = _fields(spec, _ENCODING, "encoding")
    e = _SCHEMES[f["scheme"]][1](f, seed)
    return e.inverse() if f["inverse"] else e


def _tri_construction(f: dict, where: str, *_) -> tuple:
    i, j, k = f["i_max"], f["j_max"], f["k_max"]
    count = i * j + i + k + 2  # the identity, k + 1 constants, each f(i, j) and g(i)
    if count > MAX_MODEL_MEMBERS:
        raise ScenarioError(
            f"{where} has {count} members, more than MAX_MODEL_MEMBERS ({MAX_MODEL_MEMBERS})"
        )
    return tri_models(i, j, k)


def _role(construction: str, roles: dict) -> Field:
    """The field of a construction that builds a pair of models: which
    one, by its index in the pair."""
    return Field(roles, error=f"{{where}}: unknown {construction} role {{value!r}}")


_SIZE = Field(int, lo=0, hi=MAX_MODEL_MEMBERS)

# Every builtin construction, and every model kind: its fields, and how to
# build it from them, the model's description for messages, the scenario's
# directory and seed, ``get``, which builds a model of the scenario by key,
# and (model kinds only) the pairs that ``_construction_model`` keeps.
_CONSTRUCTIONS = {
    "rec-suite": ({}, lambda f, *_: rec_suite_model(f["name"])),
    "stripe": (_STRIPE, lambda f, *_: stripe_model(f["d"], f["r"], name=f["name"])),
    "tri": (
        {"i_max": _SIZE._replace(default=3), "j_max": _SIZE._replace(default=3),
         "k_max": _SIZE._replace(default=5),
         "role": _role("tri", {"with-anchors": 0, "A": 0, "plain": 1, "B": 1})},
        _tri_construction,
    ),
    "re": (
        {"oracle": Field(dict), "i_max": Field(int, 8, 0, MAX_MODEL_MEMBERS - 1),
         "role": _role("re", {"image": 0, "plain": 1})},
        lambda f, where, base_dir, seed, get: re_models(
            _build_oracle(f["oracle"], seed), f["i_max"]
        ),
    ),
    "tm-witness": (
        {"role": _role("tm-witness", {"tm": 0, "rec": 1})}, lambda *_: tm_witness_models()
    ),
    "image": (
        {"of": Field(str), "encoding": Field(dict)},
        lambda f, where, base_dir, seed, get: pushforward_model(
            build_encoding(f["encoding"], seed), get(f["of"]), name=f["name"]
        ),
    ),
}


def _construction_model(f: dict, where: str, base_dir: Path, seed: int, get, pairs: dict) -> Model:
    """A construction's model.  A pair construction is built once per
    scenario for its fields other than ``role``, and kept in ``pairs``, so
    its two roles share their member objects."""
    table, build = _CONSTRUCTIONS[f["construction"]]
    if "role" not in table:
        return build(f, where, base_dir, seed, get)
    key = (f["construction"], repr([f[k] for k in table if k != "role"]))
    if key not in pairs:
        pairs[key] = build(f, where, base_dir, seed, get)
    return pairs[key][table["role"].type[f["role"]]]


_MEMBERS = {"members": Field(list)}


def _listed(domain: Domain, table: dict, make):
    """How to build a model of the members a scenario lists: each an
    object checked against ``table`` and made a map by ``make``."""

    def build(f: dict, where: str, base_dir: Path, *_) -> Model:
        members = [_fields(m, table, f"{where} member {i}") for i, m in enumerate(f["members"])]
        return Model(f["name"], domain, tuple(make(m, base_dir) for m in members))

    return (_MEMBERS, build)


def _term(m: dict, base_dir: Path):
    return term_map(parse_term(m["term"]), m["name"])


def _read_text(path: Path) -> str:
    """The text of a file the user names, as UTF-8; other bytes are a
    ``ScenarioError`` giving the path and the reason."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})")


_PROGRAM = {
    "name": Field(str), "file": Field(str, None), "lines": Field(list, None, items=Field(str)),
}


def _programs(parse, to_map, domain: Domain):
    """How to build a model of the member programs of one machine
    language, each read from its file or its lines."""

    def make(m: dict, base_dir: Path):
        if m["file"] is not None:
            text = _read_text(base_dir / m["file"])
        elif m["lines"] is not None:
            text = "\n".join(m["lines"]) + "\n"
        else:
            raise ScenarioError(f"member {m['name']!r} needs a file or lines")
        return to_map(parse(text, name=m["name"]))

    return _listed(domain, _PROGRAM, make)


# Each machine language: how to read a program, make it a map, and that
# map's domain.  ``exec`` picks one by file suffix, scenarios by model kind.
_MACHINES = {"tm": (parse_tm, tm_map, Domain.BITS), "cm": (parse_cm, cm_map, Domain.NAT)}

_MODEL_KINDS = {
    "dsl-terms": _listed(Domain.NAT, {"name": Field(str), "term": Field(str)}, _term),
    **{f"{lang}-programs": _programs(*how) for lang, how in _MACHINES.items()},
    "builtin-construction": (
        {"construction": Field(_CONSTRUCTIONS, error="{where}: unknown construction {value!r}")},
        _construction_model,
    ),
}

# The name defaults to the model's key.
_MODEL = {"kind": Field(_MODEL_KINDS), "name": Field(str, None)}


def build_models(doc: dict, base_dir: Path, seed: int):
    specs = _fields(doc, _SCENARIO, "scenario")["models"]
    built: dict = {}
    pairs: dict = {}
    in_progress: set = set()

    def get(key: str) -> Model:
        if key not in specs:
            raise ScenarioError(f"no model named {key!r} in this scenario")
        if key not in built:
            if key in in_progress:
                raise ScenarioError(f"model {key!r} depends on itself")
            in_progress.add(key)
            where = f"model {key!r}"
            f = _fields(specs[key], _MODEL, where, name=key)
            built[key] = _MODEL_KINDS[f["kind"]][1](f, where, base_dir, seed, get, pairs)
            in_progress.discard(key)
        return built[key]

    return get


_PLAN = {
    "inputs": Field(dict),
    "fuel": Field(int, lo=1),
    "candidate_limit": Field(int, 64, 0, MAX_MODEL_MEMBERS),
    "a_sample": Field(list, None, items=Field(str)),
    "b_sample": Field(list, None, items=Field(str)),
}

_RANGE_ERROR = "inputs range must be [lo, hi] with lo <= hi"
# One of the two is needed; a range wins over a list.
_INPUTS = {
    "range": Field(list, None, 2, 2, items=Field(int), error=_RANGE_ERROR),
    "list": Field(list, None, lo=1),
}


def build_plan(
    doc: dict, fuel_override: Optional[int], inputs_override: Optional[dict]
) -> TestPlan:
    """The scenario's plan.  ``fuel_override`` and ``inputs_override`` (an
    inputs object, as in a plan), when given, replace the plan's own."""
    plan = _fields(doc, _SCENARIO, "scenario")["plan"]
    overrides = {"fuel": fuel_override, "inputs": inputs_override}
    f = _fields({**plan, **{k: v for k, v in overrides.items() if v is not None}}, _PLAN, "plan")
    given = _fields(f["inputs"], _INPUTS, "plan inputs")
    if given["range"] is not None:
        lo, hi = given["range"]
        if lo > hi:
            raise ScenarioError(_RANGE_ERROR)
        count = hi - lo + 1
    elif given["list"] is not None:
        count = len(given["list"])
    else:
        raise ScenarioError("plan inputs need a range or a list")
    # refused before a range is built
    if count > MAX_PLAN_INPUTS:
        raise ScenarioError(
            f"plan has {count} inputs, more than MAX_PLAN_INPUTS ({MAX_PLAN_INPUTS})"
        )
    if given["range"] is not None:
        inputs = tuple(range(lo, hi + 1))
    else:
        inputs = tuple(json_to_value(x) for x in given["list"])
    a_sample, b_sample = (None if f[k] is None else tuple(f[k]) for k in ("a_sample", "b_sample"))
    return TestPlan(inputs, f["fuel"], a_sample, b_sample, f["candidate_limit"])


def _one_way(check):
    """How to run a check of one encoding between two models."""
    return lambda f, get, plan, seed: [
        check(get(f["simulator"]), get(f["simulated"]), build_encoding(f["encoding"], seed), plan)
    ]


def _run_equivalence(f: dict, get, plan: TestPlan, seed: int) -> list:
    a, b = get(f["simulator"]), get(f["simulated"])
    e_ab, e_ba = (build_encoding(e, seed) for e in f["encodings"])
    return [check_equivalence(a, b, e_ab, e_ba, plan, mode=f["mode"])]


def _run_probe(f: dict, get, plan: TestPlan, seed: int) -> list:
    a, b = get(f["simulator"]), get(f["simulated"])
    family = [build_encoding(e, seed) for e in f["encodings"]]
    return probe_encodings(a, b, family, plan, family_name=f["family_name"])


_SIDES = {"simulator": Field(str), "simulated": Field(str)}
_ONE_WAY = {**_SIDES, "encoding": Field(dict)}
_PAIR = Field(list, lo=2, hi=2, error="equivalence needs exactly two encodings [forward, backward]")
_MODES = dict.fromkeys(("plain", "strong", "isomorphism"))

# Every check kind: its fields besides the common ones, and how to run it
# from them, ``get``, the plan and the seed, giving a list of reports.
_CHECKS = {
    "simulation": (_ONE_WAY, _one_way(check_simulation)),
    "equivalence": (
        {**_SIDES, "encodings": _PAIR, "mode": Field(_MODES, "plain")}, _run_equivalence
    ),
    "closure": (
        {"model": Field(str)}, lambda f, get, plan, seed: [check_closure(get(f["model"]), plan)]
    ),
    "pullback-law": (_ONE_WAY, _one_way(check_pullback_law)),
    "probe": (
        {**_SIDES, "encodings": Field(list), "family_name": Field(str, "family")}, _run_probe
    ),
}

_SCENARIO = {
    "name": Field(str), "check": Field(_CHECKS), "models": Field(dict, lo=1), "plan": Field(dict),
}


def run_scenario(
    doc: dict, base_dir: Path, fuel: Optional[int] = None, inputs: Optional[dict] = None,
    seed: int = 0,
) -> tuple[str, str, list, Verdict]:
    """Returns (scenario name, check kind, list of reports, aggregate
    verdict), the arguments of ``render_text`` and ``render_structured``.
    A probe's reports combine by ``probe_verdict``, every other check's
    by ``combine_verdicts``.  ``fuel`` and ``inputs`` override the
    plan's, as in ``build_plan``."""
    f = _fields(doc, _SCENARIO, "scenario")
    get = build_models(doc, base_dir, seed)
    plan = build_plan(doc, fuel, inputs)
    for key in f["models"]:  # so each is checked, whether the claim names it or not
        get(key)
    reports = _CHECKS[f["check"]][1](f, get, plan, seed)
    combine = probe_verdict if f["check"] == "probe" else combine_verdicts
    return f["name"], f["check"], reports, combine(r.aggregate for r in reports)


# ---------------------------------------------------------------------------
# Rendering


_json_string = json.encoder.encode_basestring_ascii

def _list(items: list, newline: str) -> str:
    """Items already written as JSON, as a JSON list; ``newline`` is a
    line break followed by the indentation of the line the list starts on."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _template(indent: int, keys: tuple) -> str:
    """The template of an object that starts on a line indented ``indent``
    spaces, laid out as ``json.dumps(sort_keys=True, indent=2)`` writes it.
    ``keys`` lists its keys in sorted order: a name, whose value is a
    ``%s`` that takes a value already written as JSON, or a one-entry dict
    from a name to the key list of a nested object."""
    newline = "\n" + " " * indent
    inner = newline + "  "
    pairs = []
    for key in keys:
        if type(key) is dict:
            ((key, nested),) = key.items()
            pairs.append(f'"{key}": ' + _template(indent + 2, nested))
        else:
            pairs.append(f'"{key}": %s')
    return "{" + inner + ("," + inner).join(pairs) + newline + "}"


# ``render_structured``'s document, one template per object of its fixed
# schema, at the indentation the object has in the document.
_DOCUMENT = _template(0, ("aggregate", "check", "reports", "scenario")) + "\n"
_REPORT = _template(4, (
    "aggregate", {"claim": ("encoding", "kind", "left", "mode", "right")}, "members", "notes",
    {"stats": ("evaluations", "fuel_spent", "inputs")},
))
_MEMBER = _template(8, ("failures", "member", "undecided_inputs", "verdict", "witness"))
_FAILURE = _template(12, ("candidate", "expected", "got", "input"))
_CONVERGED = _template(14, ("status", "value")) % ('"converged"', "%s")
_DIVERGED = _template(14, ("status",)) % '"diverged"'
_EXHAUSTED = _template(14, ("status",)) % '"fuel-exhausted"'


def _text_or_null(s: Optional[str]) -> str:
    return "null" if s is None else _json_string(s)


def _value_text(v, newline: str) -> str:
    """``value_to_json(v)`` as JSON; ``newline`` as in ``_list``."""
    t = type(v)
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _json_string(v)
    if t is tuple:
        inner = newline + "  "
        return _list([_value_text(x, inner) for x in v], newline)
    # no value of a domain: whatever a map returned, as ``json`` writes it
    return json.dumps(value_to_json(v), sort_keys=True, indent=2).replace("\n", newline)


def _outcome_text(out: Outcome) -> str:
    """An outcome as JSON at a failure's indentation: its status and,
    when it converged, its value."""
    if isinstance(out, Converged):
        return _CONVERGED % _value_text(out.value, "\n                ")
    if isinstance(out, Diverged):
        return _DIVERGED
    if isinstance(out, FuelExhausted):
        return _EXHAUSTED
    raise TypeError(out)


def render_structured(name: str, check: str, reports: list, aggregate: Verdict) -> str:
    """The reports as JSON, written by the templates above: the bytes of
    ``json.dumps(doc, sort_keys=True, indent=2)`` and a line break, for the
    document ``doc`` whose objects the templates hold.
    Strings go through ``json``'s C escaper.  Each ``Outcome`` object is
    written once and its text reused, looked up by id: the reports keep
    every outcome alive meanwhile, so no id is reused."""
    esc = _json_string
    texts: dict = {}

    def outcome(out: Outcome) -> str:
        text = texts.get(id(out))
        if text is None:
            text = texts[id(out)] = _outcome_text(out)
        return text

    def member(m: MemberResult) -> str:
        failures = [
            _FAILURE % (esc(c), outcome(e), outcome(g), _value_text(x, "\n              "))
            for c, x, e, g in m.failures
        ]
        return _MEMBER % (
            _list(failures, "\n          "), esc(m.member), m.undecided_inputs,
            esc(m.verdict.value), _text_or_null(m.witness),
        )

    def report(r: SimReport) -> str:
        c, s = r.claim, r.stats
        return _REPORT % (
            esc(r.aggregate.value),
            esc(c.encoding), esc(c.kind), esc(c.left), _text_or_null(c.mode), esc(c.right),
            _list([member(m) for m in r.members], "\n      "),
            _list([esc(note) for note in r.notes], "\n      "),
            s.evaluations, s.fuel_spent, s.inputs,
        )

    return _DOCUMENT % (
        esc(aggregate.value), esc(check), _list([report(r) for r in reports], "\n  "), esc(name)
    )


def _claim_line(c: Claim) -> str:
    if c.mode:
        return f"claim: {c.left} and {c.right} are equivalent via {c.encoding} ({c.mode})"
    if c.kind == "closure":
        return f"claim: {c.left} is closed under composition"
    return f"claim: {c.left} simulates {c.right} via {c.encoding}"


def _member_lines(m: MemberResult) -> list:
    """A member's verdict line, then its first three failures."""
    bits = [f"  {m.member}: {m.verdict.value}"]
    if m.witness is not None:
        bits.append(f"witness {m.witness}")
    if m.undecided_inputs:
        bits.append(f"{m.undecided_inputs} undecided inputs")
    return [", ".join(bits)] + [
        f"    {c} at input {json.dumps(value_to_json(x))}:"
        f" expected {outcome_to_text(e)}, got {outcome_to_text(g)}"
        for c, x, e, g in m.failures[:3]
    ]


def render_text(name: str, check: str, reports: list, aggregate: Verdict) -> str:
    """The reports for a reader, with at most three failures per member."""
    lines = [f"scenario: {name}", f"check: {check}"]
    for r in reports:
        lines += ["", _claim_line(r.claim), f"verdict: {r.aggregate.value}"]
        for m in r.members:
            lines += _member_lines(m)
        s = r.stats
        lines.append(
            f"stats: {s.inputs} inputs, {s.evaluations} evaluations, {s.fuel_spent} fuel spent"
        )
        lines += [f"note: {note}" for note in r.notes]
    lines += ["", f"aggregate: {aggregate.value}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers


def _parse_inputs_flag(text: str) -> dict:
    """``run --inputs`` as a plan's inputs object."""
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            return {"range": [int(lo), int(hi)]}
        return {"list": [int(x) for x in text.split(",")]}
    except ValueError:
        raise ScenarioError(f"bad inputs {text!r}, expected lo..hi or a comma list")


def _cmd_run(args) -> int:
    path = Path(args.scenario)
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}")
    inputs = _parse_inputs_flag(args.inputs) if args.inputs else None
    document = run_scenario(doc, path.parent, fuel=args.fuel, inputs=inputs, seed=args.seed)
    render = render_structured if args.format == "structured" else render_text
    sys.stdout.write(render(*document))
    return _EXIT_BY_VERDICT[document[3]]


def _tri_cycles(prefix: int) -> str:
    """The cycle census of the triangular rotation on [0, prefix)."""
    if prefix > MAX_TRI_PREFIX:
        raise ScenarioError(f"tri --prefix {prefix} is above MAX_TRI_PREFIX ({MAX_TRI_PREFIX})")
    rep = narrowness(TriPiEncoding(), prefix)
    bound = rep.bound_if_narrow
    if bound is None:
        bound = "unknown on this prefix"
    census = " ".join(f"{length}x{count}" for length, count in rep.cycle_lengths_histogram)
    return "\n".join((
        f"prefix: [0, {rep.prefix})",
        f"permutation on prefix: {'yes' if rep.is_permutation_on_prefix else 'no'}",
        f"longest closed cycle: {rep.max_cycle_length}",
        f"iteration order bound: {bound}",
        f"escaped elements: {rep.escaped_elements}",
        f"cycle lengths: {census or 'none'}",
    ))


# Each ``tri`` op: the flags it reads, in order, and the function of their
# values whose result it prints.
_TRI_OPS = {
    "f": (("i", "j", "n"), tri_f),
    "g": (("i", "n"), tri_g),
    "pi": (("n",), tri_pi),
    "pi-inv": (("n",), tri_pi_inverse),
    "cycles": (("prefix",), _tri_cycles),
}


def _cmd_tri(args) -> int:
    flags, op = _TRI_OPS[args.op]
    values = [getattr(args, flag) for flag in flags]
    for flag, value in zip(flags, values):
        if value is None:
            raise ScenarioError(f"tri --op {args.op} needs --{flag}")
    print(op(*values))
    return 0


def _parse_value(raw: str, domain: Domain):
    """A command-line argument as a value of ``domain``: a natural number,
    a bit string, or a list value written as JSON."""
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
    return value


def _cmd_encode(args) -> int:
    spec = {flag: getattr(args, flag) for flag in _ENCODE_FLAGS if getattr(args, flag) is not None}
    e = build_encoding(dict(spec, scheme=args.scheme))
    value = _parse_value(args.value, e.target if args.decode else e.source)
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
    lang = path.suffix[1:]
    if lang not in _MACHINES:
        raise ScenarioError(f"{path} must end in .tm or .cm")
    parse, to_map, domain = _MACHINES[lang]
    program = to_map(parse(_read_text(path), name=path.stem))
    out = apply(program, _parse_value(args.input, domain), args.fuel)
    print(outcome_to_text(out))
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
    tri_p.add_argument("--op", required=True, choices=tuple(_TRI_OPS))
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
    except OSError as exc:
        # a file that cannot be read or written: its path and the reason
        message = str(exc) if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        sys.stderr.write(f"powerlab: error: {message}\n")
        return EXIT_USAGE
    except (ScenarioError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        sys.stderr.write(f"powerlab: error: {message}\n")
        return EXIT_USAGE
    except RecursionError:
        sys.stderr.write("powerlab: error: input nests too deeply to process\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
