"""Finite-scale verification of simulation claims between models.

The central check: model A simulates model B through an encoding when
every sampled member g of B has a witness f in A's candidate pool with
encode(g(x)) and f(encode(x)) equal as outcomes on every planned input.
Everything runs under a fuel budget, so verdicts are three-valued:

* Verified: a witness agreed on every input, all of them decided.
* Refuted: every candidate disagreed somewhere it was decided.  This is
  sound relative to the candidate pool and the plan, nothing more.
* Unknown: fuel ran out before any candidate was pinned down.

Candidates are taken in listed order, then from the model's enumerator,
and the first fully decided witness is the one reported.  Exhausted
evaluations are never treated as divergence; they only taint a point as
undecided.

Values are validated where they enter a check, and not on every
evaluation.  ``_sides`` tests the plan's inputs against the simulated
side's domain.  Each encoding in a check keeps one table of codes
(``_Codes``): the plan's inputs, then each distinct converged output of
the simulated side, each encoded once, with ``Encoding.encode`` testing
the value against its source, and each code tested against the
simulating side's domain when it is made, so every code a check
compares is a value a candidate could return.  Across two domains the
reverse direction of an equivalence takes as its inputs the codes of
the plan's inputs that the forward direction computed and validated,
and does not encode the plan's inputs again.  ``maps_agree`` tests
every input against both maps' domains, and ``Model.candidates`` each
map the models enumerate against its model's domain.  A converged
result outside its map's domain is refused by one rule on every path,
``PartialMap._refuse``: by ``_converged`` in ``check_closure`` and
``maps_agree``, by ``BuiltinMap`` on both of its paths, by
``_match_member`` for any other candidate's fresh result but an ``int``
or ``str`` equal to the validated expected value, and by ``_simulate``
for a simulated member's output that fails to encode.  A
value that passes costs one call of its domain's ``contains``, a plain
function; a ``DomainMismatch`` message is built only for a value that
fails.  Evaluations then run unchecked, so a value the checker never
saw (and so never validated) must not reach a map.

No encoding is trusted to be injective: after the hunt, ``_collision``
reads the table of codes in order, and a second value with the same
code as an earlier one refutes the check with a note naming both values
and their code.

Every check takes its samples and candidate pools from one call of
``_sides``, which first validates the plan's inputs, and evaluates
through one ``_Runner``: one memo per check, shared by all its parts.
``_report`` is the one place a ``SimReport`` and its ``Stats`` are made,
and a report's ``Stats`` count the fresh evaluations made for it.

The runner keeps one memo per map object, from input value to raw
result (``core._box``): a converged value as the value itself, a
``Diverged`` or ``FUEL_EXHAUSTED`` outcome as it is.  Results are
compared raw, and ``Outcome`` and ``CandidateFailure`` objects are built
only for failures that reach a report.  Every miss is evaluated one
input at a time: the simulated side point by point, and each candidate
only up to its first mismatch, so ``Stats`` counts exactly the
evaluations the hunt needed.  The two loops that evaluate,
``_Runner.run_many`` and ``_match_member``, evaluate each miss
themselves, store each result in the memo, count in locals and add
their totals to the runner once, on every exit.  A map whose type is
exactly ``BuiltinMap`` is evaluated by calling its ``fn`` in the loop,
at one unit of fuel a point, as its ``_run`` charges (the direct path);
every other map, wrappers and ``BuiltinMap`` subclasses included,
through the check's one evaluation function, ``_Runner.evaluate``,
which runs ``_run`` (the general path).  A point costs one comparison
when it matches; only a mismatch asks whether it was undecided.

Below the memos the runner keeps one term-result table, from a ``Term``
object to its results and spends by input.  The evaluation function
carries it, in its ``Fuel`` cell, to every map an evaluation enters, so a
pushed-forward or pulled-back candidate whose inner term the simulated
side has already run at that input reuses the result, and still counts
as one evaluation that spent the recorded fuel.  The table dies with
the runner, so no result outlives its check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from powerlab.core import (
    FUEL_EXHAUSTED,
    BuiltinMap,
    Diverged,
    Domain,
    DomainMismatch,
    Encoding,
    Model,
    Outcome,
    PartialMap,
    Value,
    _box,
    _evaluator,
    pullback,
)
from powerlab.constructions import godel_decode
from powerlab.machines import nat_to_bits


class Verdict(Enum):
    VERIFIED = "verified"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


def _first_present(verdicts, order: tuple) -> Verdict:
    """The first verdict of ``order`` among ``verdicts``; the last one of
    ``order`` when ``verdicts`` is empty."""
    got = set(verdicts)
    return next((v for v in order if v in got), order[-1])


def combine_verdicts(verdicts) -> Verdict:
    """Refuted dominates, then Unknown; Verified only when unanimous."""
    return _first_present(verdicts, (Verdict.REFUTED, Verdict.UNKNOWN, Verdict.VERIFIED))


def probe_verdict(verdicts) -> Verdict:
    """A probe succeeds when any encoding in the family fits, and is only
    refuted when every one of them is: Verified dominates, then Unknown."""
    return _first_present(verdicts, (Verdict.VERIFIED, Verdict.UNKNOWN, Verdict.REFUTED))


@dataclass(frozen=True)
class TestPlan:
    """What to test: inputs for the simulated side, the fuel budget,
    optional name filters for either side's sample, and how far to read
    each model's enumerator when hunting witnesses."""

    __test__ = False  # not a pytest class, despite the name

    inputs: tuple
    fuel: int
    a_sample: Optional[tuple] = None
    b_sample: Optional[tuple] = None
    candidate_limit: int = 64

    def __post_init__(self):
        if len(self.inputs) == 0:
            raise ValueError("a plan needs at least one input")
        if self.fuel < 1:
            raise ValueError("fuel must be at least 1")
        if self.candidate_limit < 0:
            raise ValueError("candidate_limit must not be negative")


def plan_over_range(lo: int, hi: int, fuel: int, **kw) -> TestPlan:
    """Inputs lo..hi inclusive."""
    return TestPlan(inputs=tuple(range(lo, hi + 1)), fuel=fuel, **kw)


class CandidateFailure(NamedTuple):
    """Where one candidate was first caught disagreeing: a tuple, since a
    check that refutes builds one per candidate it tried."""

    candidate: str
    input: Value
    expected: Outcome
    got: Outcome


@dataclass(frozen=True)
class MemberResult:
    member: str
    verdict: Verdict
    witness: Optional[str]
    failures: tuple  # of CandidateFailure
    undecided_inputs: int


@dataclass(frozen=True)
class Claim:
    kind: str  # simulation | equivalence | closure | pullback-law
    left: str  # the simulating side
    right: str  # the simulated side
    encoding: str
    mode: Optional[str] = None


@dataclass(frozen=True)
class Stats:
    inputs: int
    evaluations: int
    fuel_spent: int


@dataclass(frozen=True)
class SimReport:
    claim: Claim
    members: tuple  # of MemberResult
    aggregate: Verdict
    stats: Stats
    notes: tuple = ()


class _Runner:
    """Applies maps under one fixed budget and remembers every result.

    Each map has one memo, ``memos[id(m)]``, a dict from input value to
    raw result (``core._box``): a converged value as the value itself,
    a ``Diverged`` or ``FUEL_EXHAUSTED`` outcome as it is.  No raw result
    is ``None``, so ``memo.get(x)`` is ``None`` exactly when ``x`` has
    not been evaluated.  Within a single check the budget never changes,
    so remembering exhausted results is sound too.  The memo is keyed by
    value, so wherever two sides of a check hold the same map object the
    second side reuses what the first evaluated; and ``id(m)`` is a sound
    key because a check holds all its maps alive until it ends.

    Every miss is evaluated by the loop that needs it (``run_many`` or
    ``_match_member``): a map whose type is exactly ``BuiltinMap`` by a
    call of its ``fn``, charged one unit, and any other map through
    ``evaluate``, the one function ``core._evaluator`` built for the
    runner.  The loop stores the result in the memo and adds what it
    counted to ``evaluations`` and ``fuel_spent`` for ``_report``.  A
    repeated input is a hit.

    Under the memos lies ``table``, the runner's one term-result table
    (see ``core.Fuel``), which ``evaluate`` carries in its ``Fuel``
    cell, so a memo miss counts as one evaluation with the same spend
    whether the table held its term's result or not.  Recorded spends
    are sound because the budget never changes within the runner; the
    table lives and dies with the runner, never on a map or a term.

    Inputs are not checked here: callers pass only values validated
    against the map's domain.  That also keeps the memo sound, since
    equal values of one domain have one type (``True`` and ``1`` would
    share an entry, but ``True`` never gets this far)."""

    def __init__(self, fuel: int):
        self.memos: dict = {}
        self.table: dict = {}
        self.evaluate = _evaluator(fuel, self.table)
        self.evaluations = 0
        self.fuel_spent = 0
        self._boxes: dict = {}

    def memo(self, m: PartialMap) -> dict:
        memo = self.memos.get(id(m))
        if memo is None:
            memo = self.memos[id(m)] = {}
        return memo

    def run(self, m: PartialMap, x: Value):
        """The raw result of ``m`` at ``x``."""
        return self.run_many(m, (x,))[0]

    def run_many(self, m: PartialMap, xs) -> list:
        """The raw results of ``m`` at each of ``xs``, in order."""
        memo = self.memo(m)
        fn = m.fn if type(m) is BuiltinMap else None
        evaluate = self.evaluate
        evaluations = spent = 0
        out = []
        for x in xs:
            got = memo.get(x)
            if got is None:
                if fn is not None:
                    # a value the caller tests (``_converged``); ``_simulate``
                    # by encoding it
                    got = fn(x)
                    if got is None:
                        got = m._refuse(got)
                    spent += 1
                else:
                    got, used = evaluate(m, x)
                    spent += used
                memo[x] = got
                evaluations += 1
            out.append(got)
        self.evaluations += evaluations
        self.fuel_spent += spent
        return out

    def outcome(self, raw) -> Outcome:
        """The outcome for a raw result, to go into a report; one object
        per result object, as the results themselves are shared."""
        box = self._boxes.get(id(raw))
        if box is None:
            box = self._boxes[id(raw)] = _box(raw)  # holds raw, so its id stays taken
        return box


def _select(members, wanted, model_name: str):
    if wanted is None:
        return list(members)
    by_name = {m.name: m for m in members}
    out = []
    for name in wanted:
        if name not in by_name:
            raise KeyError(f"model {model_name!r} has no member {name!r}")
        out.append(by_name[name])
    return out


def _sides(a: Model, b: Model, plan: TestPlan, both: bool = False) -> list:
    """``b``'s sampled members and ``a``'s candidate pool (then, if ``both``,
    ``a``'s sampled members and ``b``'s pool), each model's candidates read
    once, after the plan's inputs are checked against ``b``'s domain."""
    contains = b.domain.contains
    for x in plan.inputs:
        if not contains(x):
            b.domain.check(x, f"plan for {b.name}")
    pool = a.candidates(plan.candidate_limit)
    sides = [_select(b.members, plan.b_sample, b.name), _select(pool, plan.a_sample, a.name)]
    if both:
        b_pool = pool if b is a else b.candidates(plan.candidate_limit)
        sides += [_select(a.members, plan.a_sample, a.name), _select(b_pool, plan.b_sample, b.name)]
    return sides


def _report(claim: Claim, plan: TestPlan, members, runner, notes=(), aggregate=None) -> SimReport:
    """The report of a check on ``plan``: its ``Stats`` count the check's
    ``runner``'s evaluations since its previous report.  The aggregate,
    unless given, combines the members' verdicts."""
    members = tuple(members)
    if aggregate is None:
        aggregate = combine_verdicts(r.verdict for r in members)
    stats = Stats(len(plan.inputs), runner.evaluations, runner.fuel_spent)
    runner.evaluations = runner.fuel_spent = 0
    return SimReport(claim, members, aggregate, stats, tuple(notes))


def _match_member(g_name: str, points: list, pool: Sequence[PartialMap], runner: _Runner) -> MemberResult:
    """Hunt through the pool for the first candidate matching ``points``:
    triples (x, the candidate side's input for x, the raw result expected
    there or None where the simulated side is undecided).

    Each candidate is evaluated only up to its first mismatch, and the
    candidates after a witness not at all.  Mismatches are kept raw until
    the member turns out not to be verified.  A fresh converged result
    outside the candidate's domain is refused (``PartialMap._refuse``).
    Every caller validates the expected results against the pool's
    domain (``_Codes`` in ``_simulate``, ``_converged`` in
    ``check_closure``, the encoding in ``check_pullback_law``), so a
    fresh ``int`` or ``str`` equal to the expected value and of its type
    is not tested again; a tuple is, as equal tuples need not both be
    pure lists."""
    evaluate = runner.evaluate
    evaluations = spent = 0
    unknown_candidate = None
    failures = []  # (candidate, x, expected, got), raw
    for f in pool:
        memo = runner.memo(f)
        undecided = 0
        fn = f.fn if type(f) is BuiltinMap else None
        contains = f.domain.contains
        for x, y, want in points:
            got = memo.get(y)
            if got is None:
                if fn is not None:
                    got = fn(y)
                    if not contains(got):  # None too: no domain holds it
                        got = f._refuse(got)
                    spent += 1
                else:
                    got, used = evaluate(f, y)
                    tg = type(got)
                    if not ((tg is int or tg is str) and tg is type(want) and got == want):
                        if not contains(got):  # diverged, exhausted, or refused
                            _converged(f, got)
                    spent += used
                memo[y] = got
                evaluations += 1
            if got != want:
                # no raw result is None, and FUEL_EXHAUSTED equals no
                # value and no Diverged: one test decides a matching point
                if want is None or got is FUEL_EXHAUSTED:
                    undecided += 1
                else:
                    failures.append((f.name, x, want, got))
                    break
        else:
            if undecided == 0:
                runner.evaluations += evaluations
                runner.fuel_spent += spent
                return MemberResult(g_name, Verdict.VERIFIED, f.name, (), 0)
            if unknown_candidate is None:
                unknown_candidate = f.name
    runner.evaluations += evaluations
    runner.fuel_spent += spent
    verdict = Verdict.REFUTED if unknown_candidate is None else Verdict.UNKNOWN
    box = runner.outcome
    return MemberResult(
        g_name,
        verdict,
        None,
        tuple(CandidateFailure(c, x, box(want), box(got)) for c, x, want, got in failures),
        sum(1 for p in points if p[2] is None),
    )


class _Codes(dict):
    """One encoding's table of codes in a check, from (type, value), so
    that True is not taken for 1, to its code, tested against ``a``'s
    domain when made: the plan's inputs first, then each distinct
    converged output in the order met.  An exhausted result maps to None
    (undecided), and a ``Diverged`` to itself, never stored."""

    def __init__(self, e: Encoding, a: Model):
        super().__init__()
        self.e, self.a = e, a

    def __missing__(self, key):
        v = key[1]
        if isinstance(v, Diverged):
            return v
        code = None
        if v is not FUEL_EXHAUSTED:  # no domain holds None: no code is None
            code = self.e.encode(v)
            if not self.a.domain.contains(code):
                self.a.domain.check(code, f"{self.e.describe()} into {self.a.name}")
        self[key] = code
        return code


def _collision(e: Encoding, codes: _Codes) -> list:
    """The note on the first collision among ``codes``, or no note: the
    first value, in the table's order, given a code that an earlier value
    was given.  A collision shows that ``e`` is not injective.  No
    ``decode`` is read, so nothing the encoding says about itself is
    trusted."""
    sources: dict = {}  # each code to the first value given it
    for (_, x), y in codes.items():
        if y is not None:
            first = sources.setdefault(y, x)
            if first != x:
                return [f"{e.describe()} is not injective: {first!r} and {x!r} both encode to {y!r}"]
    return []


def _simulate(runner: _Runner, a: Model, b: Model, e: Encoding, inputs: tuple, bs, pool) -> tuple:
    """The results of ``b``'s members ``bs`` hunting ``a``'s ``pool`` through
    ``e`` on ``inputs``, the notes of its faults (``_collision``'s, which
    refutes the check whatever the hunt found), and the codes of
    ``inputs``, in order, each validated against ``a``'s domain."""
    if e.source is not b.domain or e.target is not a.domain:
        raise DomainMismatch(
            f"encoding {e.describe()} maps {e.source.value} to {e.target.value}, "
            f"but the claim needs {b.domain.value} to {a.domain.value}"
        )
    codes = _Codes(e, a)
    ys = [codes[type(x), x] for x in inputs]
    want = codes.__getitem__
    results = []
    for g in bs:
        outs = runner.run_many(g, inputs)
        try:
            points = list(zip(inputs, ys, map(want, zip(map(type, outs), outs))))
        except DomainMismatch:
            for v in outs:  # an output outside g's domain is g's fault
                _converged(g, v)
            raise
        results.append(_match_member(g.name, points, pool, runner))
    return results, _collision(e, codes), ys


def _refuted_by(faults) -> Optional[Verdict]:
    """The aggregate that faults force on a report, or None to combine
    its members' verdicts."""
    return Verdict.REFUTED if faults else None


def check_simulation(a: Model, b: Model, e: Encoding, plan: TestPlan) -> SimReport:
    """Does ``a`` simulate ``b`` through ``e`` on this plan?

    For every sampled g in b, hunts a's candidate pool for an f with
    encode(g(x)) = f(encode(x)) as outcomes on all planned inputs.
    """
    runner = _Runner(plan.fuel)
    results, faults, _ = _simulate(runner, a, b, e, plan.inputs, *_sides(a, b, plan))
    claim = Claim("simulation", a.name, b.name, e.describe())
    return _report(claim, plan, results, runner, faults, _refuted_by(faults))


def _converged(m: PartialMap, raw) -> bool:
    """Whether ``raw``, a result of ``m``, converged; a converged value
    outside ``m``'s domain is refused (``PartialMap._refuse``)."""
    if raw is FUEL_EXHAUSTED or isinstance(raw, Diverged):
        return False
    if not m.domain.contains(raw):
        m._refuse(raw)
    return True


def check_closure(model: Model, plan: TestPlan) -> SimReport:
    """Is the sample closed under composition?  Every pairwise composite
    must match some member of the candidate pool on the planned inputs.

    Each composite f*g is hunted as soon as its points are made, as
    ``_simulate`` hunts each member: g's results are validated before f
    runs on them, and f's before the hunt reads them."""
    members, pool = _sides(model, model, plan)
    runner = _Runner(plan.fuel)
    results = []
    for f in members:
        for g in members:
            points = []
            for x, mid in zip(plan.inputs, runner.run_many(g, plan.inputs)):
                want = runner.run(f, mid) if _converged(g, mid) else mid
                _converged(f, want)
                points.append((x, x, None if want is FUEL_EXHAUSTED else want))
            results.append(_match_member(f"{f.name}*{g.name}", points, pool, runner))
    return _report(Claim("closure", model.name, model.name, "identity"), plan, results, runner)


def check_pullback_law(a: Model, b: Model, e: Encoding, plan: TestPlan) -> SimReport:
    """Check a simulation two ways: directly, and through pulled-back
    candidates on the source side.  The two sides must agree; their
    agreement is the finite-scale shadow of the pullback law."""
    bs, pool = _sides(a, b, plan)
    runner = _Runner(plan.fuel)
    sim, faults, _ = _simulate(runner, a, b, e, plan.inputs, bs, pool)
    pulled = {f.name: pullback(e, f, name=f.name) for f in pool}
    law_results = []
    for g, simres in zip(bs, sim):
        points = [
            (x, x, None if out is FUEL_EXHAUSTED else out)
            for x, out in zip(plan.inputs, runner.run_many(g, plan.inputs))
        ]
        law_pool = list(pulled.values()) if simres.witness is None else [pulled[simres.witness]]
        law_results.append(_match_member(f"pullback:{g.name}", points, law_pool, runner))
    sim_agg, law_agg = (combine_verdicts(r.verdict for r in rs) for rs in (sim, law_results))
    consistent = sim_agg is law_agg
    notes = (
        f"direct side: {sim_agg.value}",
        f"pullback side: {law_agg.value}",
        "pullback law: consistent" if consistent else "pullback law: violated",
        *faults,
    )
    return _report(
        Claim("pullback-law", a.name, b.name, e.describe()),
        plan,
        sim + law_results,
        runner,
        notes,
        sim_agg if consistent and not faults else Verdict.REFUTED,
    )


def _domain_prefix(domain: Domain, n: int) -> tuple:
    """The first ``n`` values of a domain in canonical order: 0..n-1 for
    the naturals, bit strings by length then lexicographically, and the
    Gödel decodings of 0..n-1 for pure lists."""
    if domain is Domain.NAT:
        return tuple(range(n))
    if domain is Domain.BITS:
        return tuple(nat_to_bits(i) for i in range(n))
    return tuple(godel_decode(i) for i in range(n))


def check_equivalence(
    a: Model,
    b: Model,
    e_ab: Encoding,
    e_ba: Encoding,
    plan: TestPlan,
    mode: str = "plain",
) -> SimReport:
    """Simulation both ways; ``strong`` additionally demands the
    encodings be bijections on the tested prefixes, ``isomorphism`` that
    they invert each other there.  ``e_ab`` must reach each of the first
    N values of a's domain in canonical order, N the number of planned
    inputs, and ``e_ba`` every planned input.

    ``e_ab`` carries b-side values into a, ``e_ba`` the other way.  When
    the domains differ, the reverse direction is tested on the image of
    the planned inputs.
    """
    if mode not in ("plain", "strong", "isomorphism"):
        raise ValueError(f"unknown equivalence mode {mode!r}")
    bs, a_pool, as_, b_pool = _sides(a, b, plan, both=True)
    runner = _Runner(plan.fuel)
    fwd, faults, codes = _simulate(runner, a, b, e_ab, plan.inputs, bs, a_pool)
    # in a's domain: the plan's inputs, or their codes, which fwd validated
    rev_inputs = plan.inputs if a.domain is b.domain else tuple(codes)
    bwd, bwd_faults, _ = _simulate(runner, b, a, e_ba, rev_inputs, as_, b_pool)
    faults += bwd_faults
    # each test of the modes below refutes at its first failing value; no
    # domain holds None
    if mode != "plain":
        prefix = _domain_prefix(a.domain, len(plan.inputs))
        for enc, values in ((e_ab, prefix), (e_ba, plan.inputs)):
            bad = next((v for v in values if enc.decode(v) is None), None)
            if bad is not None:
                faults.append(f"{enc.describe()} misses {bad!r}: not a bijection on the tested prefix")
    if mode == "isomorphism":
        for there, back, values in ((e_ab, e_ba, plan.inputs), (e_ba, e_ab, rev_inputs)):
            bad = next((v for v in values if back.encode(there.encode(v)) != v), None)
            if bad is not None:
                faults.append(f"encodings do not invert each other at {bad!r}")
    members = [replace(r, member=f"{d}:{r.member}") for d, rs in (("fwd", fwd), ("bwd", bwd)) for r in rs]
    fwd_agg, bwd_agg = (combine_verdicts(r.verdict for r in rs) for rs in (fwd, bwd))
    return _report(
        Claim("equivalence", a.name, b.name, f"{e_ab.describe()}/{e_ba.describe()}", mode),
        plan,
        members,
        runner,
        (f"forward: {fwd_agg.value}", f"backward: {bwd_agg.value}", *faults),
        _refuted_by(faults),
    )


def probe_encodings(
    a: Model,
    b: Model,
    family: Sequence[Encoding],
    plan: TestPlan,
    family_name: str = "family",
) -> list:
    """Try a whole family of encodings for the same simulation claim.

    Returns one report per encoding, in family order.  When none of
    them verifies, every report is annotated to say the refutation is
    relative to this family only; a cleverer encoding may still exist.
    """
    encodings = list(family)
    if not encodings:
        raise ValueError("empty family: nothing to probe")
    bs, pool = _sides(a, b, plan)
    runner = _Runner(plan.fuel)
    reports = []
    for e in encodings:
        results, faults, _ = _simulate(runner, a, b, e, plan.inputs, bs, pool)
        claim = Claim("simulation", a.name, b.name, e.describe())
        reports.append(_report(claim, plan, results, runner, faults, _refuted_by(faults)))
    if probe_verdict(r.aggregate for r in reports) is not Verdict.VERIFIED:
        tag = f"no encoding in {family_name} verified; refutation relative to this family only"
        reports = [replace(r, notes=r.notes + (tag,)) for r in reports]
    return reports


@dataclass(frozen=True)
class Agreement:
    """Extensional comparison of two maps on shared inputs."""

    equal: bool
    mismatches: tuple  # of (input, left outcome, right outcome)
    undecided: int


def maps_agree(m1: PartialMap, m2: PartialMap, inputs, fuel: int) -> Agreement:
    """Outcome-level agreement of two maps; exhausted points are
    undecided, and equality holds only with zero mismatches and zero
    undecided points."""
    runner = _Runner(fuel)
    mismatches = []
    undecided = 0
    for x in inputs:
        m1.domain.check(x, m1.name)
        m2.domain.check(x, m2.name)
        left = runner.run(m1, x)
        right = runner.run(m2, x)
        _converged(m1, left)
        _converged(m2, right)
        if left is FUEL_EXHAUSTED or right is FUEL_EXHAUSTED:
            undecided += 1
            continue
        if left != right:
            mismatches.append((x, runner.outcome(left), runner.outcome(right)))
    return Agreement(not mismatches and undecided == 0, tuple(mismatches), undecided)
