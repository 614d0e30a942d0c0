"""The benchmark's four workloads: what each builds, runs and expects.

A workload is a list of checks.  Set-up builds every check's models and
encodings once (through the scenario loader where a scenario exists).
A pass runs each check once on inputs drawn from the seed and renders
its structured report, as ``powerlab run --format structured`` does.
Each check's inputs are ``k`` draws from its range, one from each of
``k`` equal strata, so every pass has the same size and spread; pass
``i`` of seed ``s`` always draws the same inputs.

Every report is compared with a known answer from ``oracle``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from powerlab.cli import build_encoding, build_models, build_plan, render_structured  # noqa: E402
from powerlab.constructions import TriPiEncoding, tri_models  # noqa: E402
from powerlab.core import (  # noqa: E402
    Converged,
    Diverged,
    Domain,
    IdentityEncoding,
    Model,
    apply,
    apply_with_cost,
)
from powerlab.machines import cm_map, compile_rec_to_cm, tm_witness_models  # noqa: E402
from powerlab.simcheck import (  # noqa: E402
    TestPlan,
    Verdict,
    check_equivalence,
    check_pullback_law,
    check_simulation,
    combine_verdicts,
    probe_encodings,
)
from powerlab.recdsl import eval_term  # noqa: E402
from powerlab.terms import rec_suite_model, standard_suite  # noqa: E402

import oracle  # noqa: E402


@dataclass
class Check:
    """One claim, checked once per pass.  ``verify(check, inputs,
    reports, aggregate)`` returns the problems found, empty when the
    reports match the known answer."""

    name: str
    kind: str  # simulation | pullback-law | probe | equivalence
    a: Model  # the simulating side
    b: Model  # the simulated side
    encodings: tuple
    lo: int
    hi: int
    k: int
    fuel: int
    candidate_limit: int
    verify: Callable
    mode: str = "plain"
    family_name: str = "family"
    claims: tuple = ()  # oracle.Claim per report (direct and law for pullback-law)
    code: Optional[Callable] = None  # equivalence: the forward coding of plan inputs


def _span(tracer, layer):
    return tracer.span(layer) if tracer is not None else nullcontext()


# --------------------------------------------------------------------------
# Inputs


def draw_inputs(seed: int, pass_ix: int, check: Check) -> tuple:
    """``check.k`` inputs from ``check.lo..check.hi``, one per stratum,
    ascending; the same seed, pass and check always give the same."""
    rng = random.Random(f"{seed}/{pass_ix}/{check.name}")
    n = check.hi - check.lo + 1
    k = check.k
    return tuple(
        check.lo + (i * n) // k + rng.randrange((i + 1) * n // k - (i * n) // k)
        for i in range(k)
    )


# --------------------------------------------------------------------------
# Running a check


def run_check(check: Check, inputs: tuple, tracer=None):
    """Returns (reports, aggregate) for one check on these inputs."""
    plan = TestPlan(inputs=inputs, fuel=check.fuel, candidate_limit=check.candidate_limit)
    if tracer is not None:
        tracer.begin_check()
    with _span(tracer, "simcheck.check"):
        if check.kind == "simulation":
            reports = [check_simulation(check.a, check.b, check.encodings[0], plan)]
        elif check.kind == "pullback-law":
            reports = [check_pullback_law(check.a, check.b, check.encodings[0], plan)]
        elif check.kind == "probe":
            reports = probe_encodings(
                check.a, check.b, check.encodings, plan, family_name=check.family_name
            )
        else:
            e_ab, e_ba = check.encodings
            reports = [check_equivalence(check.a, check.b, e_ab, e_ba, plan, mode=check.mode)]
    if check.kind == "probe":
        got = {r.aggregate for r in reports}
        if Verdict.VERIFIED in got:
            aggregate = Verdict.VERIFIED
        elif Verdict.UNKNOWN in got:
            aggregate = Verdict.UNKNOWN
        else:
            aggregate = Verdict.REFUTED
    else:
        aggregate = combine_verdicts(r.aggregate for r in reports)
    if tracer is not None:
        _count_useful(tracer, check, inputs, reports)
    return reports, aggregate


def _count_useful(tracer, check: Check, inputs: tuple, reports) -> None:
    """Evaluations whose result the verdict needed: the simulated side
    on its own plan inputs, and the reported witnesses."""
    sides = [check.b]
    side_inputs = set(inputs)
    if check.kind == "equivalence":
        sides.append(check.a)
        side_inputs |= {check.code(x) for x in inputs}
    simulated = {id(w) for side in sides for w in side.members}
    names = {m.witness for r in reports for m in r.members if m.witness is not None}
    witnesses = {
        id(w)
        for w in list(check.a.members) + list(check.b.members) + tracer.enumerated
        if w.name in names
    }
    total = useful = 0
    for wid, xs in tracer.eval_calls.items():
        total += len(xs)
        if wid in witnesses:
            useful += len(xs)
        elif wid in simulated:
            useful += sum(1 for x in xs if x in side_inputs)
    tracer.count["simcheck.traced_evals"] += total
    tracer.count["simcheck.useful_evals"] += useful


def points(reports) -> int:
    """(simulated member, input) points a check decided or attempted."""
    return sum(len(r.members) * r.stats.inputs for r in reports)


# --------------------------------------------------------------------------
# Comparing reports with known answers


def _plain(out):
    if isinstance(out, Converged):
        return out.value
    if isinstance(out, Diverged):
        return oracle.DIVERGED
    return "fuel-exhausted"


def member_tuples(report) -> list:
    return [
        (
            m.member,
            m.verdict.value,
            m.witness,
            tuple((f.candidate, f.input, _plain(f.expected), _plain(f.got)) for f in m.failures),
        )
        for m in report.members
    ]


def _compare(label, got_members, want_members, got_agg, want_agg) -> list:
    problems = []
    if got_agg != want_agg:
        problems.append(f"{label}: aggregate {got_agg}, expected {want_agg}")
    if len(got_members) != len(want_members):
        problems.append(f"{label}: {len(got_members)} members, expected {len(want_members)}")
    for got, want in zip(got_members, want_members):
        if got != want:
            problems.append(f"{label}: member {got[0]} is {got[1:]}, expected {want[1:]}")
    return problems


def _expected_reports(check: Check, inputs: tuple, reports) -> list:
    """[(members, aggregate)] per report at full fuel.  For pullback-law
    the law side follows the direct side's reported witnesses, as the
    checker's rule says."""
    if check.kind == "pullback-law":
        direct, law = check.claims
        direct_members = direct.report(inputs)
        own_direct = member_tuples(reports[0])[: len(direct.members)]
        law_members = oracle.pullback_report(law, inputs, own_direct)
        d_agg, l_agg = oracle.aggregate(direct_members), oracle.aggregate(law_members)
        return [(direct_members + law_members, d_agg if d_agg == l_agg else "refuted")]
    if check.kind == "equivalence":
        fwd, bwd = check.claims
        codes = tuple(check.code(x) for x in inputs)
        members = fwd.report(inputs) + bwd.report(codes)
        return [(members, oracle.aggregate(members))]
    out = []
    for claim in check.claims:
        members = claim.report(inputs)
        out.append((members, oracle.aggregate(members)))
    return out


def verify_exact(check: Check, inputs: tuple, reports, aggregate) -> list:
    """Verdicts, witnesses and failure lists equal the known answer."""
    expected = _expected_reports(check, inputs, reports)
    if len(expected) != len(reports):
        return [f"{check.name}: {len(reports)} reports, expected {len(expected)}"]
    problems = []
    for ix, ((want, want_agg), rep) in enumerate(zip(expected, reports)):
        problems += _compare(
            f"{check.name}[{ix}]", member_tuples(rep), want, rep.aggregate.value, want_agg
        )
    aggs = [agg for _, agg in expected]
    want_agg = oracle.probe_aggregate(aggs) if check.kind == "probe" else oracle.aggregate(
        [(None, a) for a in aggs]
    )
    if aggregate.value != want_agg:
        problems.append(f"{check.name}: aggregate {aggregate.value}, expected {want_agg}")
    return problems


def verify_monotone(check: Check, inputs: tuple, reports, aggregate) -> list:
    """Under a small budget only decided results are bound: by fuel
    monotonicity each decided verdict equals the full-fuel one, each
    witness really matches, and each recorded failure is a real
    mismatch."""
    expected = _expected_reports(check, inputs, reports)
    claims = check.claims
    problems = []
    for ix, ((want, want_agg), rep) in enumerate(zip(expected, reports)):
        label = f"{check.name}[{ix}]"
        by_member = {m[0]: m for m in want}
        if rep.aggregate is not Verdict.UNKNOWN and rep.aggregate.value != want_agg:
            problems.append(f"{label}: aggregate {rep.aggregate.value}, full fuel {want_agg}")
        for member, verdict, witness, failures in member_tuples(rep):
            claim = claims[ix] if check.kind == "probe" else claims[
                1 if member.startswith("pullback:") else 0
            ]
            g = member[len(claim.prefix):]
            if verdict != "unknown" and verdict != by_member[member][1]:
                problems.append(f"{label}: {member} {verdict}, full fuel {by_member[member][1]}")
            if witness is not None and not claim.agrees(g, witness, inputs):
                problems.append(f"{label}: {member} witness {witness} does not match")
            for cand, x, exp, got in failures:
                if (exp, got) != (claim.want(g, x), claim.run(cand, x)) or exp == got:
                    problems.append(f"{label}: {member} failure of {cand} at {x} is not real")
    if aggregate is not Verdict.UNKNOWN:
        aggs = [agg for _, agg in expected]
        want_agg = oracle.probe_aggregate(aggs) if check.kind == "probe" else aggs[0]
        if aggregate.value != want_agg:
            problems.append(f"{check.name}: aggregate {aggregate.value}, full fuel {want_agg}")
    return problems


def verify_unknown(check: Check, inputs: tuple, reports, aggregate) -> list:
    """The README's answer for ``unknown_low_fuel``: undecided."""
    if aggregate is Verdict.UNKNOWN and all(
        m.verdict is Verdict.UNKNOWN for r in reports for m in r.members
    ):
        return []
    return [f"{check.name}: {aggregate.value}, expected unknown"]


# --------------------------------------------------------------------------
# Building checks


def _names(model: Model) -> list:
    return [m.name for m in model.members]


def scenario_check(name: str, k: int, tracer, verify=verify_exact, fuel=None) -> Check:
    """A check loaded from ``scenarios/<name>.json``, with plan inputs
    drawn per pass and, optionally, its fuel overridden."""
    with _span(tracer, "cli.load"):
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        get = build_models(doc, SCENARIOS, 0)
        plan = build_plan(doc, fuel, None)
        a, b = get(doc["simulator"]), get(doc["simulated"])
        if "encoding" in doc:
            specs = [doc["encoding"]]
        else:
            specs = doc["encodings"]
        encodings = tuple(build_encoding(s) for s in specs)
    lo, hi = doc["plan"]["inputs"]["range"]
    return Check(
        doc["name"], doc["check"], a, b, encodings, lo, hi, k, plan.fuel,
        plan.candidate_limit, verify, doc.get("mode", "plain"),
        doc.get("family_name", "family"), _suite_claims(doc["check"], a, b, specs),
    )


def _suite_claims(kind: str, a: Model, b: Model, specs) -> tuple:
    """Known answers for the suite scenarios: ``a`` on a stripe (or the
    suite itself) simulating the suite through stripe or identity
    codings.  Other scenarios set their claims themselves."""
    members, pool = _names(b), _names(a)
    if kind == "equivalence":
        return ()
    if kind == "pullback-law":
        d, r = specs[0]["d"], specs[0]["r"]
        return (
            oracle.stripe_claim(members, pool, d, r),
            oracle.pullback_law_claim(members, pool, d, r),
        )
    if specs[0]["scheme"] == "identity":
        return (oracle.identity_claim(members, pool, ""),)
    return tuple(oracle.stripe_claim(members, pool, s["d"], s["r"]) for s in specs)


def _traced(check: Check, tracer) -> Check:
    if tracer is None:
        return check
    return replace(
        check,
        a=tracer.wrap_model(check.a),
        b=tracer.wrap_model(check.b),
        encodings=tuple(tracer.wrap_encoding(e) for e in check.encodings),
    )


SUITE_STRIPE_SCENARIOS = (
    "example_r1", "example_r2", "pullback_even_functions", "probe_stripes", "probe_no_fit",
)


def build_suite_stripes(tracer) -> list:
    return [_traced(scenario_check(n, 4, tracer), tracer) for n in SUITE_STRIPE_SCENARIOS]


def build_anomaly(tracer) -> list:
    """The square-row family at size 8.  Both models come from one
    ``tri_models`` call, so they share their member objects (the
    scenario loader builds each role separately and would not)."""
    with _span(tracer, "cli.load"):
        doc = json.loads((SCENARIOS / "triangular_anomaly.json").read_text())
        plan = build_plan(doc, None, None)
        encoding = build_encoding(doc["encoding"])
    large, small = tri_models(8, 8, 16)
    check = Check(
        "anomaly-absorb", "simulation", small, large, (encoding,), 0, 5000, 400,
        plan.fuel, 300, verify_tri,
    )
    return [_traced(check, tracer)]


def verify_tri(check: Check, inputs: tuple, reports, aggregate) -> list:
    want = [(m, "verified", oracle.tri_witness(m), ()) for m in _names(check.b)]
    rep = reports[0]
    return _compare(check.name, member_tuples(rep), want, rep.aggregate.value, "verified") + (
        [] if aggregate is Verdict.VERIFIED else [f"{check.name}: aggregate {aggregate.value}"]
    )


def compile_suite(tracer) -> Model:
    """The suite compiled to counter machines, named ``cm:<term>``."""
    members = []
    for name, term in standard_suite():
        with _span(tracer, "machines.compile"):
            program = compile_rec_to_cm(term, name=f"cm:{name}")
        if tracer is not None:
            tracer.count["machines.compile.instructions"] += len(program.instructions)
        members.append(cm_map(program))
    return Model("cm-suite", Domain.NAT, tuple(members))


def _differential(programs) -> Callable:
    """A verify function: the suite's answer, and every compiled
    program's output equal to ``eval_term`` of its term on each input
    (once per input).  The term interpreter shares no code with the
    compiler."""
    done = set()

    def verify(check: Check, inputs: tuple, reports, aggregate) -> list:
        problems = verify_exact(check, inputs, reports, aggregate)
        for x in set(inputs) - done:
            done.add(x)
            for (name, term), program in zip(standard_suite(), programs):
                want = eval_term(term, [x], check.fuel)
                got = apply(program, x, check.fuel)
                if got != want:
                    problems.append(f"{check.name}: cm:{name}({x}) gave {got}, eval_term {want}")
        return problems

    return verify


def build_machines(tracer) -> list:
    suite = rec_suite_model()
    cm = compile_suite(tracer)
    compiled = Check(
        "cm-suite", "simulation", cm, suite, (IdentityEncoding(),), 0, 13, 7, 10**7, 64,
        _differential(cm.members),
        claims=(oracle.identity_claim(_names(suite), _names(cm), "cm:"),),
    )
    tape = scenario_check("tm_rec_equivalence", 1024, tracer)
    tape = replace(
        tape, lo=0, hi=16383, claims=oracle.tape_claims(_names(tape.a), _names(tape.b)),
        code=oracle.nat_to_bits,
    )
    return [_traced(compiled, tracer), _traced(tape, tracer)]


def build_starved(tracer) -> list:
    checks = [
        scenario_check(n, 5, tracer, verify_monotone, fuel=3000)
        for n in ("example_r2", "pullback_even_functions", "probe_stripes")
    ]
    checks.append(scenario_check("unknown_low_fuel", 5, tracer, verify_unknown, fuel=40))
    return [_traced(c, tracer) for c in checks]


# Why each workload was chosen, and the layer metrics it should move, is
# recorded in BENCHMARK.json.
WORKLOADS = {
    "suite-stripes": build_suite_stripes,
    "anomaly-absorb": build_anomaly,
    "machines": build_machines,
    "starved": build_starved,
}


# --------------------------------------------------------------------------
# A pass


def run_pass(checks: list, seed: int, pass_ix: int, tracer=None, clock=None):
    """Run every check once.  Returns (seconds, rendered outputs, per
    check (check, inputs, reports, aggregate)); the clock covers the
    checks and the rendering, not the input draws."""
    draws = [draw_inputs(seed, pass_ix, c) for c in checks]
    results = []
    rendered = []
    start = clock()
    with _span(tracer, "bench.pass"):
        for check, inputs in zip(checks, draws):
            reports, aggregate = run_check(check, inputs, tracer)
            with _span(tracer, "cli.render"):
                rendered.append(render_structured(check.name, check.kind, reports, aggregate))
            results.append((check, inputs, reports, aggregate))
    return clock() - start, rendered, results


def digest(rendered: list) -> str:
    h = hashlib.sha256()
    for text in rendered:
        h.update(text.encode())
    return h.hexdigest()


# --------------------------------------------------------------------------
# The layer-rate table


def rate_probe(tracer) -> tuple:
    """Fixed work on each layer, timed by the tracer's spans: the suite
    and its compiled programs on inputs 0..10 (and ``square`` at 20),
    the tape witnesses on the codes of 0..2047, and the square-row check
    at size 3 on inputs 0..1000.  Returns (figures, evaluations,
    fuel spent, problems)."""
    before = tracer.totals()
    problems = []
    with tracer.span("bench.probe"):
        terms = tracer.wrap_model(rec_suite_model())
        cm = tracer.wrap_model(compile_suite(tracer))
        cm_steps = term_fuel = 0
        square = {}
        pairs = list(zip(terms.members, cm.members))
        points = [(x, t, c) for x in range(11) for t, c in pairs]
        points += [(20, t, c) for t, c in pairs if t.name == "square"]
        for x, term, program in points:
            want, fuel = apply_with_cost(term, x, 10**7)
            got, steps = apply_with_cost(program, x, 10**7)
            if got != want:
                problems.append(f"probe: {program.name}({x}) gave {got}, the term {want}")
            term_fuel += fuel
            cm_steps += steps
            if term.name == "square" and x in (10, 20):
                square[x] = (steps, fuel)
        tape, _ = tm_witness_models()
        for m in tracer.wrap_model(tape).members:
            for x in range(2048):
                code = oracle.nat_to_bits(x)
                if apply(m, code, 10**5) != Converged(oracle.TAPE[m.name](code)):
                    problems.append(f"probe: {m.name} on {code!r} is wrong")
        large, small = tri_models(3, 3, 5)
        tri = _traced(
            Check("probe-tri", "simulation", small, large, (TriPiEncoding(),), 0, 1000, 1001,
                  10**5, 64, verify_tri),
            tracer,
        )
        inputs = tuple(range(1001))
        mid = tracer.totals()
        reports, aggregate = run_check(tri, inputs, tracer)
        checker_self = tracer.self_time["simcheck.check"] - mid["self"].get("simcheck.check", 0)
        problems += verify_tri(tri, inputs, reports, aggregate)
    after = tracer.totals()

    def delta(kind, key):
        return after[kind].get(key, 0) - before[kind].get(key, 0)

    evaluations = reports[0].stats.evaluations
    figures = {
        "rate.term_fuel_per_s": delta("count", "recdsl.fuel") / delta("busy", "recdsl"),
        "rate.cm_steps_per_s": delta("count", "machines.cm.fuel") / delta("busy", "machines.cm"),
        "rate.tm_steps_per_s": delta("count", "machines.tm.fuel") / delta("busy", "machines.tm"),
        "rate.checker_us_per_eval": checker_self / evaluations * 1e6,
        "rate.square_n10_cm_steps": square[10][0],
        "rate.square_n10_fuel": square[10][1],
        "rate.square_n20_cm_steps": square[20][0],
        "rate.square_n20_fuel": square[20][1],
        "machines.compile.steps_per_fuel": cm_steps / term_fuel,
    }
    return figures, evaluations, reports[0].stats.fuel_spent, problems
