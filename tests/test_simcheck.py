"""The simulation checker itself: verdicts, witnesses, laws, probes."""

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import isqrt
from pathlib import Path

import pytest

from powerlab.cli import _CHECKS, build_encoding, build_models, build_plan, render_structured
from powerlab import cli, recdsl, simcheck
from powerlab.core import (
    FUEL_EXHAUSTED,
    BuiltinMap,
    Converged,
    Diverged,
    Domain,
    DomainMismatch,
    Encoding,
    IdentityEncoding,
    Model,
    PartialMap,
    TableMap,
    _OutOfFuel,
    _box,
    _evaluator,
    apply_with_cost,
    compose_encodings,
    identity_map,
    pullback,
    pushforward,
)
from powerlab.constructions import (
    GodelEncoding,
    StripeEncoding,
    TriPiEncoding,
    kappa_map,
    stripe_family,
    stripe_model,
    tri_models,
)
from powerlab.machines import BitsEncoding, bits_to_nat, nat_to_bits
from powerlab.recdsl import ConstK, S, TermMap, parse_term, term_map, to_text
from powerlab.simcheck import (
    CandidateFailure,
    Stats,
    TestPlan,
    _Runner,
    Verdict,
    check_closure,
    check_equivalence,
    check_pullback_law,
    check_simulation,
    combine_verdicts,
    maps_agree,
    plan_over_range,
    probe_encodings,
    probe_verdict,
)
from powerlab.terms import HALF, standard_suite

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

V, R, U = Verdict.VERIFIED, Verdict.REFUTED, Verdict.UNKNOWN

SUITE3 = [("zero", parse_term("Z")), ("succ", parse_term("S")), ("plus2", parse_term("(C S S)"))]


def suite_model(pairs, name):
    return Model(name, Domain.NAT, tuple(term_map(t, n) for n, t in pairs))


def test_combine_verdicts_precedence():
    assert combine_verdicts([]) is V
    assert combine_verdicts([V, V]) is V
    assert combine_verdicts([V, U]) is U
    assert combine_verdicts([U, R, V]) is R


def test_probe_verdict_needs_one_fit():
    # a family fits when any member verifies; refuted only when all refute
    assert probe_verdict([R, V, U]) is V
    assert probe_verdict([V]) is V
    assert probe_verdict([R, U, R]) is U
    assert probe_verdict([U, U]) is U
    assert probe_verdict([R, R]) is R


def test_plan_validation():
    with pytest.raises(ValueError):
        TestPlan(inputs=(), fuel=10)
    with pytest.raises(ValueError):
        TestPlan(inputs=(1,), fuel=0)
    with pytest.raises(ValueError):
        TestPlan(inputs=(1,), fuel=10, candidate_limit=-1)
    assert plan_over_range(0, 4, 9).inputs == (0, 1, 2, 3, 4)


def test_stripe_simulation_verified_with_witnesses():
    b = suite_model(SUITE3, "plain")
    a = stripe_model(2, 0, SUITE3, name="striped")
    report = check_simulation(a, b, StripeEncoding(2, 0), plan_over_range(0, 40, 10**5))
    assert report.aggregate is V
    by_member = {r.member: r for r in report.members}
    assert by_member["succ"].witness == "stripe(2,0):succ"
    assert by_member["zero"].witness == "stripe(2,0):zero"
    assert report.stats.inputs == 41
    assert report.stats.fuel_spent > 0


def test_refutation_carries_per_candidate_failures():
    a = Model("only-ident", Domain.NAT, (identity_map(),))
    b = Model("succ", Domain.NAT, (term_map(S(), "succ"),))
    report = check_simulation(a, b, IdentityEncoding(), plan_over_range(0, 5, 10**4))
    assert report.aggregate is R
    (res,) = report.members
    assert res.verdict is R and res.witness is None
    (failure,) = res.failures
    assert failure.candidate == "identity"
    assert failure.input == 0
    assert failure.expected == Converged(1) and failure.got == Converged(0)


def test_witness_prefers_listed_order():
    twin1 = term_map(S(), "first-succ")
    twin2 = term_map(S(), "second-succ")
    a = Model("twins", Domain.NAT, (twin1, twin2))
    b = Model("b", Domain.NAT, (term_map(S(), "succ"),))
    report = check_simulation(a, b, IdentityEncoding(), plan_over_range(0, 8, 10**4))
    assert report.members[0].witness == "first-succ"


def test_low_fuel_gives_unknown_then_verified():
    pairs = [("square", next(t for n, t in standard_suite() if n == "square"))]
    b = suite_model(pairs, "sq")
    a = suite_model(pairs, "sq-too")
    plan_small = plan_over_range(0, 25, 40)
    plan_big = plan_over_range(0, 25, 10**6)
    assert check_simulation(a, b, IdentityEncoding(), plan_small).aggregate is U
    assert check_simulation(a, b, IdentityEncoding(), plan_big).aggregate is V


def test_verdict_stable_as_fuel_grows():
    a = Model("only-ident", Domain.NAT, (identity_map(),))
    b = Model("succ", Domain.NAT, (term_map(S(), "succ"),))
    for fuel in (100, 10**4, 10**6):
        assert (
            check_simulation(a, b, IdentityEncoding(), plan_over_range(0, 5, fuel)).aggregate
            is R
        )


def test_simulation_validates_shapes():
    b = suite_model(SUITE3, "plain")
    a = stripe_model(2, 0, SUITE3, name="striped")
    with pytest.raises(DomainMismatch, match="^wrong domain: plan for plain expects nat, got '01'$"):
        check_simulation(a, b, StripeEncoding(2, 0), TestPlan(inputs=(0, "01"), fuel=10))
    with pytest.raises(DomainMismatch, match="^encoding bits maps nat to bits, but the claim"):
        check_simulation(a, b, BitsEncoding(), plan_over_range(0, 3, 100))


def test_sample_filters_and_unknown_names():
    b = suite_model(SUITE3, "plain")
    a = suite_model(SUITE3, "same")
    plan = TestPlan(inputs=(0, 1, 2), fuel=10**4, b_sample=("succ",))
    report = check_simulation(a, b, IdentityEncoding(), plan)
    assert [r.member for r in report.members] == ["succ"]
    bad = TestPlan(inputs=(0,), fuel=100, b_sample=("no-such",))
    with pytest.raises(KeyError):
        check_simulation(a, b, IdentityEncoding(), bad)


def test_containment_as_degenerate_simulation():
    small = Model("small", Domain.NAT, (kappa_map(0),))
    big = Model("big", Domain.NAT, (kappa_map(0), term_map(S(), "succ")))
    ok = check_simulation(big, small, IdentityEncoding(), plan_over_range(0, 10, 10**4))
    assert ok.aggregate is V and ok.members[0].witness == "kappa[0]"
    no = check_simulation(small, big, IdentityEncoding(), plan_over_range(0, 10, 10**4))
    assert no.aggregate is R


def test_transitivity_composes_encodings():
    c = suite_model(SUITE3[:2], "third")
    b = suite_model(SUITE3, "middle")
    a = stripe_model(2, 0, SUITE3, name="top")
    e1 = StripeEncoding(2, 0)
    e2 = IdentityEncoding()
    plan = plan_over_range(0, 30, 10**5)
    assert check_simulation(a, b, e1, plan).aggregate is V
    assert check_simulation(b, c, e2, plan).aggregate is V
    assert check_simulation(a, c, compose_encodings(e1, e2), plan).aggregate is V


def test_closure_of_constants_verified():
    consts = Model("consts", Domain.NAT, (kappa_map(0), kappa_map(3)))
    report = check_closure(consts, plan_over_range(0, 8, 10**4))
    assert report.aggregate is V
    assert report.claim.kind == "closure"
    assert len(report.members) == 4  # ordered pairs


def test_closure_of_successor_alone_refuted():
    succs = Model("succ-only", Domain.NAT, (term_map(S(), "succ"),))
    report = check_closure(succs, plan_over_range(0, 8, 10**4))
    assert report.aggregate is R
    (res,) = report.members
    assert "succ" in res.member


@pytest.mark.parametrize(
    "sample, verdicts, aggregate, stats",
    [
        (("square", "part"), "UUUU", U, Stats(6, 23, 772)),
        (("square", "part", "succ"), "UUR" "UUR" "RRR", R, Stats(6, 33, 861)),
    ],
)
def test_closure_at_a_starving_budget(sample, verdicts, aggregate, stats):
    # at 80 fuel square exhausts from 5 up, so square*square also on 3 and
    # 4 (the outer square on 9 and 16), and part diverges off its table:
    # a composite is undecided where either half runs out, decided where
    # the inner half diverges
    d = dict(standard_suite())
    quartic = parse_term(f"(C {to_text(d['square'])} {to_text(d['square'])})")
    model = Model(
        "starving",
        Domain.NAT,
        (
            term_map(d["square"], "square"),
            TableMap("part", Domain.NAT, ((0, 0), (1, 1), (2, 4))),
            term_map(d["succ"], "succ"),
            term_map(quartic, "quartic"),
        ),
    )
    report = check_closure(model, TestPlan(inputs=tuple(range(6)), fuel=80, b_sample=sample))
    undecided = {"square*square": 3, "square*succ": 2, "part*square": 1, "succ*square": 1}
    assert [r.member for r in report.members] == [f"{f}*{g}" for f in sample for g in sample]
    assert "".join(r.verdict.name[0] for r in report.members) == verdicts
    assert [r.undecided_inputs for r in report.members] == [
        undecided.get(r.member, 0) for r in report.members
    ]
    assert report.aggregate is aggregate
    assert report.stats == stats


def test_pullback_law_consistent_on_verified_case():
    b = suite_model(SUITE3, "plain")
    a = stripe_model(2, 0, SUITE3, name="striped")
    report = check_pullback_law(a, b, StripeEncoding(2, 0), plan_over_range(0, 30, 10**5))
    assert report.aggregate is V
    assert any("pullback law: consistent" in n for n in report.notes)
    assert any(r.member.startswith("pullback:") for r in report.members)


def test_pullback_law_on_refuted_direct_side():
    a = Model("only-ident", Domain.NAT, (identity_map(),))
    b = Model("succ", Domain.NAT, (term_map(S(), "succ"),))
    report = check_pullback_law(a, b, IdentityEncoding(), plan_over_range(0, 6, 10**4))
    assert any("direct side: refuted" in n for n in report.notes)


def test_equivalence_plain_and_modes_separate():
    k = Model("k0", Domain.NAT, (kappa_map(0),))
    plan = plan_over_range(0, 12, 10**4)
    stripe = StripeEncoding(2, 0)
    plain = check_equivalence(k, k, stripe, IdentityEncoding(), plan, mode="plain")
    assert plain.aggregate is V
    strong = check_equivalence(k, k, stripe, IdentityEncoding(), plan, mode="strong")
    assert strong.aggregate is R
    assert any("not a bijection" in n for n in strong.notes)


def test_equivalence_isomorphism_checks_mutual_inverse():
    k = Model("k0", Domain.NAT, (kappa_map(0),))
    plan = plan_over_range(0, 20, 10**4)
    good = check_equivalence(
        k, k, TriPiEncoding(), TriPiEncoding().inverse(), plan, mode="isomorphism"
    )
    assert good.aggregate is V
    bad = check_equivalence(
        k, k, TriPiEncoding(), TriPiEncoding(), plan, mode="isomorphism"
    )
    assert bad.aggregate is R
    assert any("invert" in n for n in bad.notes)


def test_a_candidate_undecided_at_one_point_is_no_witness():
    # x for every x, one step dearer per unit of x: fuel 17 decides 0..4 only
    t = parse_term("(C (R (P 1 1) (C S (P 3 3))) I I)")
    m = Model("slow-ident", Domain.NAT, (term_map(t, "slow"),))
    report = check_simulation(m, m, IdentityEncoding(), plan_over_range(0, 5, 17))
    assert [(r.verdict, r.undecided_inputs) for r in report.members] == [(U, 1)]
    assert report.aggregate is U


# The point table of the witness hunt: what the simulated side wants at a
# point (a value, a Diverged, or nothing, being undecided) against what the
# one candidate gives there.  Values are fresh objects on every call, so a
# point matches by equality, never by identity.

_POINT_FUEL = 2
_STARVED = parse_term("(C S (C S S))")  # needs 5 units, so exhausts at _POINT_FUEL


def _point_map(name, result):
    if result == "exhausted":
        return term_map(_STARVED, name)
    if result == "diverged":
        return BuiltinMap(name, Domain.NAT, lambda n: None)
    k = {"value": 1, "other": 2}[result]
    return BuiltinMap(name, Domain.NAT, lambda n: (n + k) * 10**30)


_POINT_VERDICT = {
    ("value", "value"): V,
    ("value", "other"): R,
    ("value", "diverged"): R,
    ("value", "exhausted"): U,
    ("diverged", "value"): R,
    ("diverged", "other"): R,
    ("diverged", "diverged"): V,
    ("diverged", "exhausted"): U,
    ("undecided", "value"): U,
    ("undecided", "other"): U,
    ("undecided", "diverged"): U,
    ("undecided", "exhausted"): U,
}


@pytest.mark.parametrize("got", ["value", "other", "diverged", "exhausted"])
@pytest.mark.parametrize("want", ["value", "diverged", "undecided"])
def test_point_table_of_the_witness_hunt(want, got):
    g = _point_map("g", "exhausted" if want == "undecided" else want)
    f = _point_map("f", got)
    inputs = (3, 4)
    report = check_simulation(
        Model("a", Domain.NAT, (f,)),
        Model("b", Domain.NAT, (g,)),
        IdentityEncoding(),
        TestPlan(inputs=inputs, fuel=_POINT_FUEL),
    )
    verdict = _POINT_VERDICT[want, got]
    g_runs = [apply_with_cost(g, x, _POINT_FUEL) for x in inputs]
    # a refuted candidate stops at its first point; the others run on both
    f_runs = [apply_with_cost(f, x, _POINT_FUEL) for x in inputs[: 1 if verdict is R else 2]]
    (r,) = report.members
    assert r.verdict is verdict
    assert r.witness == ("f" if verdict is V else None)
    assert r.failures == (
        (CandidateFailure("f", 3, g_runs[0][0], f_runs[0][0]),) if verdict is R else ()
    )
    assert r.undecided_inputs == (2 if want == "undecided" else 0)
    runs = g_runs + f_runs
    assert report.stats == Stats(2, len(runs), sum(spent for _, spent in runs))


def test_each_divergence_is_expected_as_the_object_its_member_returned():
    # Diverged objects are equal whatever their reason, so only the reason
    # shows which member's object a failure holds
    b = Model("b", Domain.NAT, tuple(_point_map(n, "diverged") for n in ("g1", "g2")))
    a = Model("a", Domain.NAT, (_point_map("f", "value"),))
    report = check_simulation(a, b, IdentityEncoding(), TestPlan(inputs=(3,), fuel=_POINT_FUEL))
    assert [r.failures[0].expected.reason for r in report.members] == [
        "g1 is undefined here",
        "g2 is undefined here",
    ]


def test_pullback_law_refutes_when_the_two_sides_disagree():
    # decode is no left inverse of encode, so pulling back does not undo it
    def decode(y):
        return None if y % 2 else y // 2 + 1

    e = Encoding("double", Domain.NAT, Domain.NAT, lambda x: 2 * x, decode)
    a = Model("plus2", Domain.NAT, (BuiltinMap("plus2", Domain.NAT, lambda y: y + 2),))
    b = Model("succ", Domain.NAT, (term_map(S(), "succ"),))
    report = check_pullback_law(a, b, e, plan_over_range(0, 4, 10**4))
    assert report.notes == (
        "direct side: verified", "pullback side: refuted", "pullback law: violated"
    )
    assert report.aggregate is R


def test_isomorphism_tests_inversion_at_the_last_input():
    # the encoding back swaps 5 and 6, so only the last input fails to return
    def swap(x):
        return {5: 6, 6: 5}.get(x, x)

    e = Encoding("swap56", Domain.NAT, Domain.NAT, swap, swap)
    k = Model("ident", Domain.NAT, (identity_map(),))
    plan = plan_over_range(0, 5, 10**4)
    report = check_equivalence(k, k, IdentityEncoding(), e, plan, mode="isomorphism")
    fault = "encodings do not invert each other at 5"
    assert report.notes == ("forward: verified", "backward: verified", fault, fault)
    assert report.aggregate is R


def _zero(x):
    return 0


_ZERO = Encoding("zero", Domain.NAT, Domain.NAT, _zero, _zero)
_COLLISION = "zero is not injective: 0 and 1 both encode to 0"


def _example_r2_plain():
    doc = json.loads((SCENARIOS / "example_r2.json").read_text())
    return build_models(doc, SCENARIOS, 0)("plain")


def test_a_constant_encoding_verifies_nothing():
    # every input and every output encodes to 0, so one identity map agrees
    # with every member of the suite on every encoded input
    plain = _example_r2_plain()
    ident = Model("ident", Domain.NAT, (BuiltinMap("id", Domain.NAT, lambda n: n),))
    plan = plan_over_range(0, 20, 10**6)
    report = check_simulation(ident, plain, _ZERO, plan)
    assert report.notes == (_COLLISION,)
    assert report.aggregate is R
    assert all(m.verdict is V for m in report.members)
    reports = [
        check_pullback_law(ident, plain, _ZERO, plan),
        *probe_encodings(ident, plain, [_ZERO], plan),
        check_equivalence(ident, plain, _ZERO, IdentityEncoding(), plan),
        check_equivalence(plain, ident, IdentityEncoding(), _ZERO, plan),
    ]
    for r in reports:
        assert _COLLISION in r.notes
        assert r.aggregate is R


def _fold(x):
    return {7: 1, 8: 9}.get(x, x)


def test_a_collision_involving_an_output_refutes():
    # injective on the inputs 0..2, but the output 7 takes the code of the
    # input 1, and the outputs 8 and 9 share a code
    e = Encoding("fold", Domain.NAT, Domain.NAT, _fold, _fold)
    plan = plan_over_range(0, 2, 100)
    for outputs, note in (((7,), "1 and 7 both encode to 1"), ((8, 9), "8 and 9 both encode to 9")):
        simulated = Model("consts", Domain.NAT, tuple(kappa_map(k) for k in outputs))
        pool = Model("pool", Domain.NAT, (kappa_map(1), kappa_map(9)))
        report = check_simulation(pool, simulated, e, plan)
        assert report.notes == (f"fold is not injective: {note}",)
        assert report.aggregate is R


def test_equivalence_rejects_unknown_mode():
    k = Model("k0", Domain.NAT, (kappa_map(0),))
    with pytest.raises(ValueError):
        check_equivalence(k, k, IdentityEncoding(), IdentityEncoding(), plan_over_range(0, 1, 10), mode="weird")


def test_equivalence_members_are_prefixed():
    k = Model("k0", Domain.NAT, (kappa_map(0),))
    rep = check_equivalence(k, k, IdentityEncoding(), IdentityEncoding(), plan_over_range(0, 3, 100))
    names = {r.member for r in rep.members}
    assert names == {"fwd:kappa[0]", "bwd:kappa[0]"}


def test_probe_finds_the_right_stripe():
    b = suite_model(SUITE3, "plain")
    a = stripe_model(2, 0, SUITE3, name="striped")
    plan = plan_over_range(0, 30, 10**5)
    reports = probe_encodings(a, b, stripe_family(2), plan, family_name="stripes d<=2")
    winners = [r.claim.encoding for r in reports if r.aggregate is V]
    assert winners == ["stripe(2,0)"]
    assert all(not r.notes for r in reports if r.aggregate is V)


def test_probe_labels_family_relative_refutation():
    b = suite_model(SUITE3, "plain")
    a = stripe_model(2, 0, SUITE3, name="striped")
    plan = plan_over_range(0, 30, 10**5)
    reports = probe_encodings(a, b, [StripeEncoding(3, 1)], plan, family_name="wrong-family")
    assert all(r.aggregate is not V for r in reports)
    assert all(any("relative to this family only" in n for n in r.notes) for r in reports)


def test_probe_rejects_empty_family():
    b = suite_model(SUITE3, "plain")
    with pytest.raises(ValueError, match="empty"):
        probe_encodings(b, b, [], plan_over_range(0, 3, 100), family_name="none")


def test_maps_agree():
    s1 = term_map(S(), "a")
    s2 = term_map(S(), "b")
    rep = maps_agree(s1, s2, range(20), 10**4)
    assert rep.equal and rep.mismatches == () and rep.undecided == 0
    rep2 = maps_agree(s1, term_map(ConstK(9), "c"), range(3), 10**4)
    assert not rep2.equal
    assert rep2.mismatches[0][0] == 0
    slow = term_map(parse_term("(M (C S (P 2 2)))"), "slow")
    rep3 = maps_agree(s1, slow, range(2), 50)
    assert not rep3.equal and rep3.undecided == 2


# ---------------------------------------------------------------------------
# Values are validated where they enter a check; evaluations trust them.


# The forms a builtin reaches a check in.  The checker calls the plain
# builtin's function itself; every other form reaches its ``_run``.  A
# result outside the domain is refused with one message in all of them.
_FORMS = pytest.mark.parametrize(
    "form",
    [
        lambda m: m,
        lambda m: _SubBuiltin(m.name, m.domain, m.fn),
        lambda m: pullback(IdentityEncoding(), m),
        lambda m: _counted(m),
    ],
    ids=["plain", "subclass", "pullback", "wrapper"],
)


def _succ_and_isbig(form=lambda m: m):
    succ = term_map(S(), "succ")
    isbig = form(BuiltinMap("isbig", Domain.NAT, lambda n: n > 3))
    return Model("nat", Domain.NAT, (succ, isbig))


@_FORMS
@pytest.mark.parametrize("inputs, got", [((0, 1, 2, 5), False), ((5,), True)])
@pytest.mark.parametrize("pool", [None, ("succ",)], ids=["whole-pool", "succ-pool"])
def test_closure_rejects_intermediates_outside_the_domain(inputs, got, pool, form):
    # isbig returns a bool; succ(True) must not be served from succ(1).
    # With succ alone in the pool, only succ*isbig's intermediate is refused.
    message = f"^wrong domain: isbig output expects nat, got {got}$"
    plan = TestPlan(inputs=inputs, fuel=100, a_sample=pool)
    with pytest.raises(DomainMismatch, match=message):
        check_closure(_succ_and_isbig(form), plan)


def _ispos_and_sign(form=lambda m: m):
    # ispos returns a bool where sign returns 0 or 1
    ispos = form(BuiltinMap("ispos", Domain.NAT, lambda n: n > 0))
    sign = BuiltinMap("sign", Domain.NAT, lambda n: 1 if n > 0 else 0)
    return ispos, sign


def _simulate_sign_and_ispos(a_member, b_member):
    a = Model("a", Domain.NAT, (a_member,))
    b = Model("b", Domain.NAT, (b_member,))
    message = "^wrong domain: ispos output expects nat, got False$"
    with pytest.raises(DomainMismatch, match=message):
        check_simulation(a, b, IdentityEncoding(), plan_over_range(0, 5, 10))


@_FORMS
def test_a_candidate_builtin_returning_a_bool_is_refused(form):
    ispos, sign = _ispos_and_sign(form)
    _simulate_sign_and_ispos(ispos, sign)


@_FORMS
def test_a_simulated_builtin_returning_a_bool_is_refused(form):
    # refused as itself, not as a value its encoding cannot take
    ispos, sign = _ispos_and_sign(form)
    _simulate_sign_and_ispos(sign, ispos)


@_FORMS
@pytest.mark.parametrize("swap", [False, True])
def test_maps_agree_refuses_a_result_outside_its_domain(swap, form):
    ispos, sign = _ispos_and_sign(form)
    pair = (ispos, sign) if swap else (sign, ispos)
    with pytest.raises(DomainMismatch, match="^wrong domain: ispos output expects nat, got False$"):
        maps_agree(*pair, range(6), 10)


def test_closure_refuses_an_outer_result_outside_the_domain():
    # the outer map sees 100 only as kappa[100]'s output, and answers True
    to_true = BuiltinMap("to_true", Domain.NAT, lambda n: True if n == 100 else n)
    model = Model("nat", Domain.NAT, (kappa_map(100), to_true))
    message = "^wrong domain: to_true output expects nat, got True$"
    with pytest.raises(DomainMismatch, match=message):
        check_closure(model, plan_over_range(0, 3, 10))


def test_maps_agree_rejects_inputs_outside_either_domain():
    succ = term_map(S(), "succ")
    with pytest.raises(DomainMismatch):
        maps_agree(succ, succ, [1, True], 10)
    bits = BuiltinMap("same", Domain.BITS, lambda s: s)
    with pytest.raises(DomainMismatch):
        maps_agree(succ, bits, [1], 10)


def _negate(x):
    return -x - 1


# Claims nat -> nat, but leaves the naturals.
_NEGATING = Encoding("negating", Domain.NAT, Domain.NAT, _negate, _negate)


def test_simulation_rejects_encoded_inputs_outside_the_target():
    k = Model("k0", Domain.NAT, (kappa_map(0),))
    with pytest.raises(DomainMismatch, match="^wrong domain: negating into k0 expects nat, got -1$"):
        check_simulation(k, k, _NEGATING, plan_over_range(0, 3, 100))


def _one_then(bad):
    """A map over the naturals that returns 1 at 0 and ``bad`` elsewhere,
    so that a bad output equal to 1 follows a good one."""
    return BuiltinMap("one-then-bad", Domain.NAT, lambda n: 1 if n == 0 else bad)


_CHECK_KINDS = {
    "simulation": check_simulation,
    "probe": lambda a, b, e, plan: probe_encodings(a, b, [StripeEncoding(2, 1), e], plan),
    "pullback-law": check_pullback_law,
    "equivalence fwd": lambda a, b, e, plan: check_equivalence(a, b, e, e, plan),
    "equivalence bwd": lambda a, b, e, plan: check_equivalence(b, a, e, e, plan),
}


@pytest.mark.parametrize("kind", sorted(_CHECK_KINDS))
@pytest.mark.parametrize("bad", [True, -1, "01"])
def test_every_check_refuses_an_output_outside_the_simulated_domain(kind, bad):
    # True equals 1, which was encoded first: only the (type, value) key of
    # the expected results and the exact type test keep it from passing
    a = Model("fine", Domain.NAT, (identity_map(),))
    b = Model("leaky", Domain.NAT, (_one_then(bad),))
    with pytest.raises(DomainMismatch, match=f"expects nat, got {bad!r}$"):
        _CHECK_KINDS[kind](a, b, IdentityEncoding(), plan_over_range(0, 2, 10))


def test_equivalence_across_domains_encodes_each_plan_input_once():
    encoded = Counter()

    def counted(n):
        encoded[n] += 1
        return nat_to_bits(n)

    e_ab = Encoding("counted-bits", Domain.NAT, Domain.BITS, counted, bits_to_nat)
    plan = plan_over_range(0, 9, 100)
    nat = Model("nowhere", Domain.NAT, (BuiltinMap("nowhere", Domain.NAT, lambda n: None),))
    bits = Model("nowhere", Domain.BITS, (BuiltinMap("nowhere", Domain.BITS, lambda s: None),))
    report = check_equivalence(bits, nat, e_ab, BitsEncoding().inverse(), plan)
    assert report.aggregate is V
    # divergent outputs are encoded by neither direction: the backward
    # direction reuses the forward direction's codes of the plan's inputs
    assert encoded == Counter(plan.inputs)


def test_strong_equivalence_across_domains_needs_surjectivity():
    nat = Model("k0", Domain.NAT, (kappa_map(0),))
    bits = Model("eps", Domain.BITS, (BuiltinMap("eps", Domain.BITS, lambda s: ""),))
    plan = plan_over_range(0, 15, 10**4)
    evens = compose_encodings(BitsEncoding(), StripeEncoding(2, 0))
    assert check_equivalence(bits, nat, evens, BitsEncoding().inverse(), plan).aggregate is V
    strong = check_equivalence(bits, nat, evens, BitsEncoding().inverse(), plan, mode="strong")
    assert strong.aggregate is R
    assert "(bits . stripe(2,0)) misses '0': not a bijection on the tested prefix" in strong.notes
    onto = check_equivalence(bits, nat, BitsEncoding(), BitsEncoding().inverse(), plan, mode="strong")
    assert onto.aggregate is V


def test_strong_equivalence_on_lists_uses_godel_prefix():
    lists = Model("ident", Domain.LIST, (identity_map(Domain.LIST),))
    nat = Model("ident", Domain.NAT, (identity_map(),))
    plan = plan_over_range(0, 9, 10**4)
    good = check_equivalence(
        lists, nat, GodelEncoding().inverse(), GodelEncoding(), plan, mode="isomorphism"
    )
    assert good.aggregate is V
    odd = compose_encodings(GodelEncoding().inverse(), StripeEncoding(2, 1))
    assert check_equivalence(lists, nat, odd, GodelEncoding(), plan).aggregate is V
    bad = check_equivalence(lists, nat, odd, GodelEncoding(), plan, mode="strong")
    assert bad.aggregate is R
    assert any("misses ()" in n for n in bad.notes)


def _fuel_added(runner, m, x):
    before = runner.fuel_spent
    out = runner.run(m, x)
    return _box(out), runner.fuel_spent - before


def _halve(n):
    return n // 2 if n % 2 == 0 else None


def _runner_maps():
    """Every kind of map the runner meets: the square-row members, the
    suite's terms, a builtin that diverges, a table, a pushforward off
    its range under both policies and one over ``half``, which runs out
    at fuel 6 and 1, and a pullback whose inner result leaves the range
    (odd x + 1 is even) and one whose result stays on it."""
    large, _ = tri_models(3, 3, 5)  # the smaller model's members are among these
    succ = term_map(S(), "succ")
    odd = StripeEncoding(2, 1)
    return (
        list(large.members)
        + [term_map(t, n) for n, t in standard_suite()]
        + [
            BuiltinMap("halve", Domain.NAT, _halve),
            TableMap("table", Domain.NAT, ((0, 5), (3, 7), (8, 0))),
            pushforward(odd, succ, off_range="diverge"),
            pushforward(odd, succ, off_range="fix"),
            pushforward(odd, term_map(HALF, "half")),
            pullback(odd, succ),
            pullback(odd, term_map(parse_term("(C S S)"), "plus2")),
        ]
    )


@pytest.mark.parametrize("fuel", [10**6, 6, 1])
def test_runner_matches_apply_with_cost(fuel):
    xs = range(41)
    exhausted = diverged = 0
    for m in _runner_maps():
        want = [apply_with_cost(m, x, fuel) for x in xs]
        # point by point through the runner
        runner = _Runner(fuel)
        assert [_fuel_added(runner, m, x) for x in xs] == want, m.name
        # the evaluator, directly and through the runner's vector
        evaluate = partial(_evaluator(fuel), m)
        assert [(_box(r), spent) for r, spent in map(evaluate, xs)] == want, m.name
        runner = _Runner(fuel)
        assert [_box(r) for r in runner.run_many(m, xs)] == [out for out, _ in want], m.name
        assert runner.evaluations == len(xs)
        assert runner.fuel_spent == sum(spent for _, spent in want), m.name
        exhausted += sum(out == FUEL_EXHAUSTED for out, _ in want)
        diverged += sum(isinstance(out, Diverged) for out, _ in want)
    assert (exhausted > 0) == (fuel < 10**6)
    assert diverged > 0


def _term_of(m):
    """The ``Term`` object a map runs, through its wrappers, or None."""
    while not isinstance(m, TermMap):
        m = getattr(m, "inner", None)
        if m is None:
            return None
    return m.term


@pytest.fixture
def interpreted(monkeypatch):
    """Every term interpretation (``recdsl._evaluate``) made from here
    on, as (term, arguments), in order."""
    runs = []
    real = recdsl._evaluate

    def counted(t, args, fuel):
        runs.append((t, args))
        return real(t, args, fuel)

    monkeypatch.setattr(recdsl, "_evaluate", counted)
    return runs


@pytest.mark.parametrize("fuel", [10**6, 6, 1])
def test_evaluator_with_a_term_table_matches_apply_with_cost(fuel, interpreted):
    xs = range(41)
    shared = 0
    for m in _runner_maps():
        want = [apply_with_cost(m, x, fuel) for x in xs]
        runner = _Runner(fuel)
        del interpreted[:]
        assert [_fuel_added(runner, m, x) for x in xs] == want, m.name
        t = _term_of(m)
        if t is None:
            assert runner.table == {} and interpreted == [], m.name
            continue
        # another map over the same Term, run in a second runner at every
        # input this map's term was asked, fills the same table; this map
        # then interprets nothing itself in that runner
        asked = [args[0] for u, args in interpreted if u is t]
        assert len(asked) == len(interpreted), m.name
        filled = _Runner(fuel)
        filled.run_many(term_map(t, "other"), asked)
        assert filled.table == runner.table, m.name
        del interpreted[:]
        assert [_fuel_added(filled, m, x) for x in xs] == want, m.name
        assert interpreted == [], m.name
        shared += 1
    assert shared == 18 + 5


@dataclass(frozen=True, eq=False)
class _Charged(PartialMap):
    """Charges one unit, then runs ``inner`` on the same budget."""

    inner: PartialMap = None

    def _run(self, x, fuel):
        try:
            fuel.charge()
        except _OutOfFuel:
            return FUEL_EXHAUSTED
        return self.inner._run(x, fuel)


@pytest.mark.parametrize("charged_first", [True, False])
def test_a_term_entered_on_less_than_the_whole_budget_skips_the_table(charged_first):
    # at a budget of exactly half(9)'s cost the bare map converges and
    # the charged one runs out; neither may take the other's result
    half = term_map(HALF, "half")
    charged = _Charged("charged", Domain.NAT, half)
    _, cost = apply_with_cost(half, 9, 10**6)
    assert apply_with_cost(half, 9, cost) == (Converged(4), cost)
    assert apply_with_cost(charged, 9, cost) == (FUEL_EXHAUSTED, cost)
    maps = [charged, half] if charged_first else [half, charged]
    runner = _Runner(cost)
    assert [_fuel_added(runner, m, 9) for m in maps] == [apply_with_cost(m, 9, cost) for m in maps]


def test_wrappers_charge_as_their_run_does():
    odd = StripeEncoding(2, 1)
    half = pushforward(odd, term_map(HALF, "half"))
    for fuel in (6, 1):
        evaluate = partial(_evaluator(fuel, {}), half)
        assert evaluate(4) == (Diverged(), 0)  # off the range: nothing spent
        assert evaluate(7) == (FUEL_EXHAUSTED, fuel)  # half(3) runs out
    out, spent = partial(_evaluator(10, {}), pullback(odd, term_map(S(), "succ")))(3)
    assert (out, out.reason, spent) == (Diverged(), "left the encoding range", 1)


# The term-result table lives as long as one check's runner.


SUITE_STRIPE_SCENARIOS = [
    "example_r1", "example_r2", "pullback_even_functions", "probe_stripes", "probe_no_fit",
]


@pytest.mark.parametrize("name", SUITE_STRIPE_SCENARIOS)
def test_each_term_runs_once_per_input_in_a_check(name, interpreted):
    # counted by term text: structurally equal terms are one term here
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    get = build_models(doc, SCENARIOS, 0)
    _, run = _CHECKS[doc["check"]]
    plan = build_plan(doc, None, None)
    first = run(doc, get, plan, 0)
    once = Counter((to_text(t), args) for t, args in interpreted)
    assert set(once.values()) == {1}
    # a second check on the same models runs every term again
    second = run(doc, get, plan, 0)
    assert Counter((to_text(t), args) for t, args in interpreted) == once + once
    assert second == first


# ---------------------------------------------------------------------------
# The candidate side is lazy: each candidate runs up to its first mismatch.


@dataclass(frozen=True, eq=False)
class _Counted(PartialMap):
    """Records every input ``_run`` sees; overrides nothing else."""

    inner: PartialMap = None
    calls: list = field(default_factory=list)

    def _run(self, x, fuel):
        self.calls.append(x)
        return self.inner._run(x, fuel)


def _counted(m):
    return _Counted(m.name, m.domain, m)


def _bent_identity(k):
    # agrees with the identity on 0..k-2 and differs at k-1
    return BuiltinMap(f"bent[{k}]", Domain.NAT, lambda n: n if n != k - 1 else n + 1)


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_candidates_run_only_up_to_their_first_mismatch(k):
    bent = _counted(_bent_identity(k))
    witness = _counted(identity_map(name="witness"))
    later = _counted(kappa_map(0))
    a = Model("a", Domain.NAT, (bent, witness, later))
    b = Model("b", Domain.NAT, (identity_map(),))
    report = check_simulation(a, b, IdentityEncoding(), plan_over_range(0, 9, 100))
    assert report.members[0].witness == "witness"
    assert bent.calls == list(range(k))
    assert witness.calls == list(range(10))
    assert later.calls == []
    assert report.stats.evaluations == 10 + k + 10


def _counted_model(model, wrapped):
    """``model`` with every member counted, one wrapper per map object,
    so that models sharing members still share them."""
    return _rebuilt_model(model, wrapped, _counted)


def _rebuilt_model(model, wrapped, rebuild):
    """``model`` with every map ``m`` replaced by ``rebuild(m)``, one per
    map object, so that models sharing members still share them."""
    def wrap(m):
        if id(m) not in wrapped:
            wrapped[id(m)] = (m, rebuild(m))
        return wrapped[id(m)][1]

    enum = None
    if model.enumerator is not None:
        base = model.enumerator

        def enum(ix):
            return wrap(base(ix))

    return Model(model.name, model.domain, tuple(wrap(m) for m in model.members), enum)


def _calls(wrapped):
    return sum(len(c.calls) for _, c in wrapped.values())


SQUARE_ROW_STATS = Stats(1001, 23057, 23057)
PROBE_STRIPES_STATS = [
    Stats(33, 665, 328630),
    Stats(33, 1155, 613544),
    Stats(33, 678, 328156),
    Stats(33, 665, 328845),
    Stats(33, 662, 328638),
    Stats(33, 653, 329064),
]


def test_stats_and_run_calls_on_the_square_rows():
    large, small = tri_models(3, 3, 5)
    wrapped = {}
    a, b = _counted_model(small, wrapped), _counted_model(large, wrapped)
    report = check_simulation(a, b, TriPiEncoding(), plan_over_range(0, 1000, 10**5))
    assert report.aggregate is V
    assert report.stats == SQUARE_ROW_STATS
    assert _calls(wrapped) == 23057


def test_stats_and_run_calls_on_probe_stripes():
    doc = json.loads((SCENARIOS / "probe_stripes.json").read_text())
    get = build_models(doc, SCENARIOS, 0)
    wrapped = {}
    a = _counted_model(get(doc["simulator"]), wrapped)
    b = _counted_model(get(doc["simulated"]), wrapped)
    plan = build_plan(doc, None, None)
    family = [build_encoding(spec) for spec in doc["encodings"]]
    stats = []
    for e in family:
        before = _calls(wrapped)
        (report,) = probe_encodings(a, b, [e], plan)
        stats.append(report.stats)
        assert _calls(wrapped) - before == report.stats.evaluations
    assert stats == PROBE_STRIPES_STATS


# Unwrapped, the maps take their own path: the square rows are builtin
# maps, whose function the checker calls itself (the path the anomaly
# runs), and it counts as ``_run`` does.


@pytest.fixture
def builtin_evaluators(monkeypatch):
    """Every ``BuiltinMap`` instance a check's evaluation function is
    called with from here on."""
    made = []
    real = simcheck._evaluator

    def counted(fuel, table=None):
        evaluate = real(fuel, table)

        def recorded(m, x):
            if isinstance(m, BuiltinMap):
                made.append(m)
            return evaluate(m, x)

        return recorded

    monkeypatch.setattr(simcheck, "_evaluator", counted)
    return made


def test_stats_on_the_square_rows_called_straight_from_the_checker(builtin_evaluators):
    large, small = tri_models(3, 3, 5)
    report = check_simulation(small, large, TriPiEncoding(), plan_over_range(0, 1000, 10**5))
    assert report.aggregate is V
    assert report.stats == SQUARE_ROW_STATS
    assert builtin_evaluators == []


@dataclass(frozen=True)
class _SubBuiltin(BuiltinMap):
    """A builtin whose type is not exactly ``BuiltinMap``, so the checker
    evaluates it through ``_evaluator``, the general path, and its
    ``_run`` sees every evaluation."""

    calls: list = field(default_factory=list, compare=False, repr=False)

    def _run(self, x, fuel):
        self.calls.append(x)
        return super()._run(x, fuel)


def _partial_builtins():
    root = BuiltinMap("root", Domain.NAT, lambda n: isqrt(n) if isqrt(n) ** 2 == n else None)
    return Model("partial", Domain.NAT, (
        BuiltinMap("halve", Domain.NAT, _halve),
        root,
        TableMap("table", Domain.NAT, ((0, 5), (3, 7), (8, 0), (9, 3))),
        identity_map(),
        kappa_map(0),
    ))


def _builtin_checks(large, small, partial):
    """(check kind, reports) for every kind of check on the builtin
    models, simulating, refuting and undecided points among them."""
    plan = plan_over_range(0, 40, 10**3, candidate_limit=40)
    tri_pi, same = TriPiEncoding(), IdentityEncoding()
    return [
        ("simulation", [check_simulation(small, large, tri_pi, plan)]),
        ("simulation", [check_simulation(large, partial, same, plan)]),
        ("simulation", [check_simulation(partial, small, same, plan)]),
        ("probe", probe_encodings(small, large, [same, tri_pi, StripeEncoding(2, 0)], plan)),
        ("pullback-law", [check_pullback_law(small, large, tri_pi, plan)]),
        ("pullback-law", [check_pullback_law(partial, partial, same, plan)]),
        ("closure", [check_closure(partial, plan)]),
        ("closure", [check_closure(small, plan_over_range(0, 40, 10**3, candidate_limit=100))]),
    ]


def test_the_builtin_path_gives_what_the_general_path_gives(builtin_evaluators):
    models = (*tri_models(3, 3, 5), _partial_builtins())
    direct = _builtin_checks(*models)
    assert builtin_evaluators == []
    rebuilt = {}
    general = _builtin_checks(
        *(_rebuilt_model(m, rebuilt, lambda m: _SubBuiltin(m.name, m.domain, m.fn)) for m in models)
    )
    assert all(type(m) is _SubBuiltin for m in builtin_evaluators)
    evaluations = sum(r.stats.evaluations for _, reports in general for r in reports)
    assert sum(len(m.calls) for _, m in rebuilt.values()) == evaluations
    assert general == direct
    assert repr(general) == repr(direct)  # a Diverged's reason too
    for (check, ours), (_, theirs) in zip(direct, general):
        aggregate = combine_verdicts(r.aggregate for r in ours)
        assert render_structured("builtins", check, ours, aggregate) == render_structured(
            "builtins", check, theirs, aggregate
        )
    verdicts = Counter(m.verdict for _, reports in direct for r in reports for m in r.members)
    assert verdicts[V] and verdicts[R]
    outcomes = [f.got for _, reports in direct for r in reports for m in r.members for f in m.failures]
    assert any(isinstance(out, Diverged) for out in outcomes)


def test_stats_on_probe_stripes_through_their_own_evaluator():
    doc = json.loads((SCENARIOS / "probe_stripes.json").read_text())
    get = build_models(doc, SCENARIOS, 0)
    a, b = get(doc["simulator"]), get(doc["simulated"])
    plan = build_plan(doc, None, None)
    family = [build_encoding(spec) for spec in doc["encodings"]]
    assert [probe_encodings(a, b, [e], plan)[0].stats for e in family] == PROBE_STRIPES_STATS


def test_repeated_plan_inputs_are_evaluated_once():
    doc = json.loads((SCENARIOS / "example_r1.json").read_text())
    e = build_encoding(doc["encoding"])

    def check(inputs):
        get = build_models(doc, SCENARIOS, 0)
        wrapped = {}
        a = _counted_model(get(doc["simulator"]), wrapped)
        b = _counted_model(get(doc["simulated"]), wrapped)
        plan = build_plan(doc, None, {"list": inputs})
        return check_simulation(a, b, e, plan), wrapped

    report, wrapped = check([2, 2, 5])
    distinct, _ = check([2, 5])
    assert report.stats == Stats(3, distinct.stats.evaluations, distinct.stats.fuel_spent)
    assert [(r.verdict, r.witness) for r in report.members] == [
        (r.verdict, r.witness) for r in distinct.members
    ]
    assert _calls(wrapped) == report.stats.evaluations > 0
    for _, counted in wrapped.values():
        assert len(counted.calls) == len(set(counted.calls)), counted.name


def _run_counted(name):
    """Scenario ``name`` run through its check kind's runner in the
    scenario loader, with every map of the two sides counted: its
    reports, the counted wrappers and the counted simulated model."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    get = build_models(doc, SCENARIOS, 0)
    wrapped, models = {}, {}

    def counted_get(key):
        if key not in models:
            models[key] = _counted_model(get(key), wrapped)
        return models[key]

    _, run = _CHECKS[doc["check"]]
    reports = run(doc, counted_get, build_plan(doc, None, None), 0)
    return reports, wrapped, counted_get(doc.get("simulated", doc.get("model")))


def test_maps_that_override_only_run_share_the_term_table(interpreted):
    # the counted wrappers run their inner maps on the budget the runner
    # gave them, table and all, so wrapped or bare the check interprets
    # the same number of (term, input) pairs
    doc = json.loads((SCENARIOS / "probe_stripes.json").read_text())
    get = build_models(doc, SCENARIOS, 0)
    _, run = _CHECKS[doc["check"]]
    bare = run(doc, get, build_plan(doc, None, None), 0)
    bare_runs = list(interpreted)
    del interpreted[:]
    reports, wrapped, _ = _run_counted("probe_stripes")
    assert reports == bare
    assert len(interpreted) == len(bare_runs) == 611
    assert _calls(wrapped) == sum(r.stats.evaluations for r in reports) == 1307


def test_every_scenario_renders_the_same_with_every_map_wrapped(monkeypatch):
    # wrapped in maps that override only ``_run``, as perfbench's tracer
    # wraps them, no map takes the checker's direct call of a builtin's
    # function: the general path must give every byte the direct one gives
    scenarios = sorted(SCENARIOS.glob("*.json"))

    def rendered():
        return [
            render_structured(*cli.run_scenario(json.loads(p.read_text()), SCENARIOS))
            for p in scenarios
        ]

    bare = rendered()
    real = cli.build_models

    def wrapped_models(doc, base_dir, seed):
        get, wrapped, models = real(doc, base_dir, seed), {}, {}

        def wrapped_get(key):
            if key not in models:
                models[key] = _counted_model(get(key), wrapped)
            return models[key]

        return wrapped_get

    monkeypatch.setattr(cli, "build_models", wrapped_models)
    assert len(scenarios) == 13
    assert rendered() == bare


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_one_memo_per_check(name):
    # every part of a check (each encoding of a probe, each half of an
    # equivalence, both sides of the pullback law, every composite of a
    # closure) shares one memo, and the reports count every evaluation
    reports, wrapped, simulated = _run_counted(name)
    assert sum(r.stats.evaluations for r in reports) == _calls(wrapped)
    simulated_ids = {id(m) for m in simulated.members}
    for _, counted in wrapped.values():
        # the law side runs each pool candidate again, through its
        # pullback wrapper, on the inputs it was first run on
        most = 2 if name == "pullback_even_functions" and id(counted) not in simulated_ids else 1
        assert max(Counter(counted.calls).values(), default=0) <= most, counted.name


@pytest.mark.parametrize(
    "check",
    [
        lambda k, plan: check_simulation(k, k, IdentityEncoding(), plan),
        lambda k, plan: check_closure(k, plan),
        lambda k, plan: check_pullback_law(k, k, IdentityEncoding(), plan),
        lambda k, plan: check_equivalence(k, k, IdentityEncoding(), IdentityEncoding(), plan),
        lambda k, plan: probe_encodings(
            k, k, [IdentityEncoding(), StripeEncoding(2, 0), StripeEncoding(2, 1)], plan
        ),
    ],
    ids=["simulation", "closure", "pullback-law", "equivalence", "probe"],
)
def test_each_check_reads_the_enumerator_once(check):
    reads = []

    def enum(ix):
        reads.append(ix)
        return kappa_map(ix)

    k = Model("k", Domain.NAT, (identity_map(),), enum)
    check(k, TestPlan(inputs=(0, 1, 2), fuel=100, candidate_limit=5))
    assert reads == list(range(5))
