"""Term language: parsing, evaluation against an independent reference, fuel."""

import math
import pickle
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from powerlab.core import Converged, Diverged, FUEL_EXHAUSTED, Fuel, apply, apply_with_cost
from powerlab.recdsl import (
    Ack,
    ArityError,
    Comp,
    ConstK,
    Id,
    Mu,
    ParseError,
    PrimRec,
    Proj,
    S,
    TermClass,
    Z,
    _code,
    _evaluate,
    _series,
    _summary,
    _subterms,
    classify,
    compose_unary,
    eval_term,
    parse_term,
    term_map,
    to_text,
)
from powerlab.terms import (
    ADD,
    CEIL_HALF,
    FLOOR_SQRT,
    HALF,
    MONUS,
    MULT,
    PRED,
    SIGN,
    SQUARE,
    ack_row_term,
    const_of,
    standard_suite,
)

# ---------------------------------------------------------------------------
# Reference evaluator: direct unbounded recursion, written independently of
# the production interpreter.  Only safe on terms known to terminate fast.
# ``cost``, when given, is a one-element list counting fuel node by node:
# one unit per term node visited, per search probe and per ACK rewrite.


def ref_eval(t, args, cost=None):
    if cost is not None:
        cost[0] += 1
    if isinstance(t, Z):
        return 0
    if isinstance(t, S):
        return args[0] + 1
    if isinstance(t, Id):
        return args[0]
    if isinstance(t, ConstK):
        return t.k
    if isinstance(t, Proj):
        return args[t.i - 1]
    if isinstance(t, Ack):
        value, rewrites = ref_ack_rewrites(args[0], args[1])
        if cost is not None:
            cost[0] += rewrites
        return value
    if isinstance(t, Comp):
        return ref_eval(t.f, tuple(ref_eval(g, args, cost) for g in t.gs), cost)
    if isinstance(t, PrimRec):
        head, y = args[:-1], args[-1]
        acc = ref_eval(t.base, head, cost)
        for i in range(y):
            acc = ref_eval(t.step, head + (acc, i), cost)
        return acc
    if isinstance(t, Mu):
        n = 0
        while True:
            if cost is not None:
                cost[0] += 1
            if ref_eval(t.body, args + (n,), cost) == 0:
                return n
            n += 1
    raise TypeError(t)


@lru_cache(maxsize=None)
def ref_ack_rewrites(m, n):
    """(ACK(m, n), number of defining-equation rewrites to reach it)."""
    if m == 0:
        return n + 1, 1
    if n == 0:
        value, inner = ref_ack_rewrites(m - 1, 1)
        return value, 1 + inner
    mid, first = ref_ack_rewrites(m, n - 1)
    value, second = ref_ack_rewrites(m - 1, mid)
    return value, 1 + first + second


def ref_cost(t, x):
    cost = [0]
    value = ref_eval(t, (x,), cost)
    return value, cost[0]


def run1(t, x, fuel=10**6):
    return eval_term(t, (x,), fuel)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_round_trip_examples():
    for text in (
        "Z",
        "S",
        "I",
        "ACK",
        "(K 12)",
        "(P 2 3)",
        "(C (P 1 2) S I)",
        "(R Z (P 3 3))",
        "(M (C S (P 2 2)))",
    ):
        assert to_text(parse_term(text)) == text


def test_parse_skips_comments_and_space():
    t = parse_term("(C S ; outer\n   S)  ; trailing")
    assert to_text(t) == "(C S S)"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_term("(C S")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError):
        parse_term("(Q 1)")
    with pytest.raises(ParseError):
        parse_term("S S")
    with pytest.raises(ParseError):
        parse_term("(K -1)")


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("(M", "expected a term", 2),
        ("(C", "expected a term", 2),
        ("(R", "expected a term", 2),
        ("(R Z", "expected a term", 4),
        ("(C S (M  ", "expected a term", 7),
        ("(K", "expected a number", 2),
        ("(P 1", "expected a number", 4),
    ],
)
def test_truncated_forms_fail_at_the_end(text, message, position):
    with pytest.raises(ParseError, match=message) as e:
        parse_term(text)
    assert e.value.position == position


def test_arity_validation_at_construction():
    with pytest.raises(ArityError):
        Comp(S(), (S(), S()))  # S is unary, given two arguments
    with pytest.raises(ArityError):
        PrimRec(S(), S())  # step must take base arity + 2 slots
    with pytest.raises(ArityError):
        Proj(3, 2)
    with pytest.raises(ArityError):
        Proj(0, 1)
    with pytest.raises(ArityError):
        ConstK(-1)


def test_classify():
    assert classify(ADD) is TermClass.PRIM
    assert classify(FLOOR_SQRT) is TermClass.GENERAL
    assert classify(Comp(Ack(), (ConstK(2), Id()))) is TermClass.GENERAL


# ---------------------------------------------------------------------------
# Evaluation against arithmetic oracles


def test_add_mult_pred_monus_tables():
    for x in range(8):
        for y in range(8):
            assert eval_term(ADD, (x, y), 10**4) == Converged(x + y)
            assert eval_term(MULT, (x, y), 10**5) == Converged(x * y)
            assert eval_term(MONUS, (x, y), 10**4) == Converged(max(x - y, 0))
    for x in range(8):
        assert run1(PRED, x) == Converged(max(x - 1, 0))


def test_unary_suite_against_python():
    for n in range(40):
        assert run1(SQUARE, n) == Converged(n * n)
        assert run1(HALF, n) == Converged(n // 2)
        assert run1(FLOOR_SQRT, n) == Converged(math.isqrt(n))
        assert run1(CEIL_HALF, n) == Converged((n + 1) // 2)
        assert run1(SIGN, n) == Converged(min(n, 1))


small_terms = st.deferred(
    lambda: st.one_of(
        st.just(Z()),
        st.just(S()),
        st.just(Id()),
        st.builds(ConstK, st.integers(0, 9)),
        st.builds(lambda f, g: Comp(f, (g,)), small_terms, small_terms),
        st.builds(
            lambda b: Comp(PrimRec(b, Proj(2, 3)), (Id(), Id())), small_terms
        ),
    )
)


@settings(max_examples=60)
@given(small_terms, st.integers(0, 12))
def test_interpreter_matches_reference_on_random_terms(t, x):
    assert run1(t, x) == Converged(ref_eval(t, (x,)))


def test_primrec_defining_equations():
    base, step = ADD.base, ADD.step
    for x in range(5):
        assert eval_term(ADD, (x, 0), 10**4) == eval_term(base, (x,), 10**4)
        for y in range(5):
            prev = eval_term(ADD, (x, y), 10**4).value
            want = eval_term(step, (x, prev, y), 10**4)
            assert eval_term(ADD, (x, y + 1), 10**4) == want


def test_mu_returns_least_root():
    # body(x, n) = x monus n: first zero at n = x
    t = Mu(MONUS)
    for x in range(10):
        assert run1(t, x) == Converged(x)


def test_mu_unsatisfiable_exhausts_fuel():
    t = Mu(Comp(S(), (Proj(2, 2),)))
    out, spent = apply_with_cost(term_map(t), 0, 300)
    assert out == FUEL_EXHAUSTED and spent == 300


def test_eval_validates_arity_and_domain():
    with pytest.raises(ArityError):
        eval_term(ADD, (1,), 100)
    with pytest.raises(ValueError):
        eval_term(ADD, (1, -1), 100)
    with pytest.raises(ValueError):
        eval_term(ADD, (1, True), 100)


@given(st.integers(0, 30), st.integers(1, 2000))
def test_fuel_monotone_on_square(n, fuel):
    lo = eval_term(SQUARE, (n,), fuel)
    hi = eval_term(SQUARE, (n,), 10**6)
    assert hi == Converged(n * n)
    assert lo in (hi, FUEL_EXHAUSTED)


@given(
    st.integers(-10**6, 10**6), st.integers(-1000, 1000), st.integers(0, 60),
    st.integers(-50, 50), st.integers(-50, 50),
)
@example(-7, -3, 0, 2, 5)
@example(-7, -3, 1, 2, 5)
@example(4, -5, 9, -1, 3)
def test_series_is_the_sum_it_names(v, d, n, b1, b2):
    # the closed-form loops and searches rest on this sum: b1*x + b2*C(x)
    # over x = v, v + d, ..., n terms, C(x) = x(x - 1)/2 for any integer x
    xs = [v + i * d for i in range(n)]
    assert _series(v, d, n, b1, b2) == sum(b1 * x + b2 * (x * (x - 1) // 2) for x in xs)


def _assert_exact_fuel(t, x):
    """The evaluator spends exactly the reference count, converges on a
    budget of that count, and exhausts on one unit less."""
    value, cost = ref_cost(t, x)
    m = term_map(t)
    assert apply_with_cost(m, x, 10**7) == (Converged(value), cost)
    assert apply_with_cost(m, x, cost) == (Converged(value), cost)
    if cost > 1:
        assert apply_with_cost(m, x, cost - 1) == (FUEL_EXHAUSTED, cost - 1)


@settings(max_examples=80)
@given(small_terms, st.integers(0, 12))
def test_fuel_matches_node_by_node_reference_on_random_terms(t, x):
    _assert_exact_fuel(t, x)


# Ternary recursion steps that read the accumulator, the counter or a
# leading argument, raw or through a leaf.
_steps = st.builds(
    lambda outer, i: Comp(outer, (Proj(i, 3),)),
    st.sampled_from([S(), Z(), ConstK(2), Id()]),
    st.integers(1, 3),
) | st.builds(Proj, st.integers(1, 3), st.just(3))

# Unary terms with loops in every position: recursions with all kinds of
# steps, ACK, a search, and loops inside inner terms the outer term ignores.
loopy_terms = st.deferred(
    lambda: st.one_of(
        small_terms,
        st.builds(lambda b, s: Comp(PrimRec(b, s), (Id(), Id())), loopy_terms, _steps),
        st.builds(
            lambda i, g, h: Comp(Proj(i, 2), (g, h)), st.integers(1, 2), loopy_terms, loopy_terms
        ),
        st.builds(lambda k, g: Comp(ConstK(k), (g,)), st.integers(0, 3), loopy_terms),
        st.builds(lambda m: Comp(Ack(), (ConstK(m), Id())), st.integers(0, 2)),
        st.just(Mu(MONUS)),
    )
)


@settings(max_examples=150, deadline=None)
@given(loopy_terms, st.integers(0, 12))
def test_fuel_matches_node_by_node_reference_on_loopy_terms(t, x):
    _assert_exact_fuel(t, x)


@pytest.mark.parametrize("name,term", standard_suite(), ids=[n for n, _ in standard_suite()])
def test_fuel_matches_node_by_node_reference_on_suite(name, term):
    for x in range(9):
        _assert_exact_fuel(term, x)
    if name in ("ceil-half", "floor-sqrt"):
        # inputs of the size the suite's stripe scenarios run the searches on
        for x in (31, 32, 63, 64):
            _assert_exact_fuel(term, x)


# Terms of arity 1-3 biased towards the shapes that evaluate in closed form:
# the library terms composed with projections, constants and S, and
# recursions whose steps read the accumulator, the counter or a leading
# argument.  Their values grow fast, so the reference gives up past a
# node count, and such cases are skipped.


class _TooBig(Exception):
    pass


class _CappedCount(list):
    """A one-element node counter for ``ref_eval`` that raises past a limit."""

    def __init__(self, limit):
        super().__init__([0])
        self.limit = limit

    def __setitem__(self, i, v):
        if v > self.limit:
            raise _TooBig
        super().__setitem__(i, v)


def ref_cost_args(t, args, limit=50_000):
    cost = _CappedCount(limit)
    value = ref_eval(t, tuple(args), cost)
    return value, cost[0]


def _spend(t, args, budget):
    """(outcome, fuel spent) of the evaluator on a tuple of arguments;
    running out costs the whole budget."""
    fuel = Fuel(budget)
    raw = _evaluate(t, tuple(args), fuel)
    if raw is FUEL_EXHAUSTED:
        return raw, budget
    return Converged(raw), budget - fuel.left


_UNARY = (S(), PRED, ack_row_term(1), ack_row_term(2))
# outer terms: the library, and terms that ignore an argument they pay for
_OUTER = (ADD, MULT, MONUS, PRED, ack_row_term(2), Proj(1, 2), Proj(2, 2), ConstK(2))


def _wrap(leaf, chain):
    for f in chain:
        leaf = Comp(f, (leaf,))
    return leaf


@lru_cache(maxsize=None)
def shape_terms(n, depth=2):
    """Terms of arity n (1-4) of nesting depth at most ``depth``; a leaf
    is a projection or a constant inside up to three unary terms."""
    leaves = st.builds(
        _wrap,
        st.builds(Proj, st.integers(1, n), st.just(n))
        | st.builds(lambda k: const_of(k, n), st.integers(0, 3)),
        st.lists(st.sampled_from(_UNARY), max_size=3),
    )
    if depth == 0:
        return leaves
    outer = st.sampled_from(_OUTER) | rec_terms(2, depth - 1) | rec_terms(3, depth - 1)
    inner = shape_terms(n, depth - 1)
    comps = outer.flatmap(
        lambda f: st.lists(inner, min_size=f.arity(), max_size=f.arity()).map(
            lambda gs: Comp(f, tuple(gs))
        )
    )
    parts = [leaves, comps]
    if 2 <= n <= 3:
        parts.append(rec_terms(n, depth - 1))
    return st.one_of(*parts)


@lru_cache(maxsize=None)
def rec_terms(n, depth):
    """Recursions of arity n (2-3), their steps built like ``shape_terms``."""
    return st.builds(PrimRec, shape_terms(n - 1, depth), shape_terms(n + 1, depth))


@settings(max_examples=250, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(shape_terms(n), st.lists(st.integers(0, 7), min_size=n, max_size=n))
    )
)
def test_fuel_matches_node_by_node_reference_on_closed_form_shapes(case):
    t, args = case
    try:
        value, cost = ref_cost_args(t, args)
    except _TooBig:
        assume(False)
    _assert_exact_spend(t, args, value, cost)


def _assert_exact_spend(t, args, value, cost):
    """Exact spend on budgets one above, at and one below the cost."""
    assert _spend(t, args, cost + 1) == (Converged(value), cost)
    assert _spend(t, args, cost) == (Converged(value), cost)
    if cost > 1:
        assert _spend(t, args, cost - 1) == (FUEL_EXHAUSTED, cost - 1)


# Loops over loops whose inner summary is exact only under a side
# condition; random shapes rarely reach them.  Each runs at (0, 0..5).
_EDGES = {
    "steady value, fuel growing with the accumulator":
        "(R (K 2) (C (R (K 3) (C (P 1 2) (P 2 3) (C (C (R Z (P 3 3)) I I) (P 2 3)))) (P 1 3) (P 2 3)))",
    "successor after a decrement truncated at 0":
        "(R (C (C (R Z (P 3 3)) I I) (P 1 1)) (C (R (P 1 1) (C S (P 2 3))) (C (R (P 1 1) (C (C (R Z (P 3 3)) I I) (P 2 3))) (C (K 3) (P 1 3)) (C (K 3) (P 1 3))) (C S (C (C (R Z (P 3 3)) I I) (P 3 3)))))",
    "rise by one, fuel growing with the accumulator":
        "(R (C S (P 1 1)) (C (R (P 1 1) (C (R (P 1 1) (C S (P 2 3))) (P 1 3) (P 2 3))) (C S (P 1 3)) (C (P 2 2) (C S (C S (P 1 3))) (P 2 3))))",
    "monus reaching 0 inside a loop":
        "(R (K 1) (C (R (P 1 1) (C (C (R Z (P 3 3)) I I) (P 2 3))) (P 2 3) (C (R (P 1 1) (C (C (R Z (P 3 3)) I I) (P 2 3))) (C (K 3) (P 1 3)) (C S (P 1 3)))))",
    "counter recursion whose base breaks the pattern":
        "(R (K 2) (C (R (K 3) (P 3 3)) (P 1 3) (P 2 3)))",
    "counter step whose fuel grows with the counter":
        "(R Z (C (C (R Z (P 3 3)) I I) (P 3 3)))",
    "ignored accumulator still paid for":
        "(R (K 3) (C (R (P 1 1) (C (K 2) (C (C (R Z (P 3 3)) I I) (P 2 3)))) (P 2 3) (C (K 2) (P 1 3))))",
    "counter summary over a loop with no closed form":
        "(R (K 1) (C S (C (R Z (C (R (P 1 1) (C S (P 2 3))) (P 2 3) (P 3 3))) (P 1 3) (P 2 3))))",
    "leading-argument summary over a loop with no closed form":
        "(R (K 1) (C S (C (R (P 1 1) (C (R (P 1 1) (C S (P 2 3))) (P 2 3) (P 3 3))) (P 2 3) (C (K 2) (P 1 3)))))",
}


@pytest.mark.parametrize("text", _EDGES.values(), ids=list(_EDGES))
def test_fuel_matches_node_by_node_reference_at_closed_form_edges(text):
    t = parse_term(text)
    for y in range(6):
        _assert_exact_spend(t, (0, y), *ref_cost_args(t, (0, y)))


def _all_subterms(t):
    out, stack = [], [t]
    while stack:
        cur = stack.pop()
        out.append(cur)
        stack.extend(_subterms(cur))
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(loopy_terms, st.integers(1, 3).flatmap(shape_terms)),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.integers(0, 3),
)
@example(MULT, [2, 3, 0, 0], 1)
@example(Mu(MONUS), [2, 0, 0, 0], 1)
def test_changing_an_argument_outside_deps_changes_neither_value_nor_cost(t, xs, other):
    for sub in _all_subterms(t):
        args = xs[: sub.arity()]
        deps = _code(sub)[2]
        for p in range(sub.arity()):
            if p in deps:
                continue
            moved = args[:p] + [other] + args[p + 1 :]
            try:
                assert ref_cost_args(sub, moved) == ref_cost_args(sub, args)
            except _TooBig:
                pass


def test_large_inputs_stay_closed_form():
    """Node by node, neither would finish: 3n^2 + 5n + 5 and
    3n^2 + 15n + 16 are the exact costs, checked against the reference
    for small n."""
    row2 = ack_row_term(2)
    for n in range(40):
        assert ref_cost(SQUARE, n) == (n * n, 3 * n * n + 5 * n + 5)
        assert ref_cost(row2, n) == (2 * n + 3, 3 * n * n + 15 * n + 16)
    n = 10**6
    for t, value, cost in (
        (SQUARE, n * n, 3 * n * n + 5 * n + 5),
        (row2, 2 * n + 3, 3 * n * n + 15 * n + 16),
    ):
        assert apply_with_cost(term_map(t), n, cost) == (Converged(value), cost)
        assert apply_with_cost(term_map(t), n, cost - 1) == (FUEL_EXHAUSTED, cost - 1)


def test_monus_from_zero_charges_its_iterations_exactly():
    """pred(0) gives no family, but it leaves monus's accumulator at 0, so
    each iteration repeats the first: 7y + 2 in all, charged at once."""
    for y in range(30):
        assert ref_cost_args(MONUS, (0, y)) == (0, 7 * y + 2)
    n = 10**6
    assert _spend(MONUS, (0, n), 7 * n + 2) == (Converged(0), 7 * n + 2)
    assert _spend(MONUS, (0, n), 7 * n + 1) == (FUEL_EXHAUSTED, 7 * n + 1)


# Searches over bodies with negative slope at the search argument: n
# monus k*i falls to 0 at i = ceil(n / k), and for k = 3 the fuel of the
# monus leaves its quadratic range (the accumulator reaching 0) just
# before the root at some n.  Raw shapes of the leading argument give n.
_search_bodies = st.builds(
    lambda g, k: Comp(MONUS, (Comp(g, (Proj(1, 2),)), Comp(MULT, (const_of(k, 2), Proj(2, 2))))),
    shape_terms(1, 1),
    st.integers(1, 3),
)


@lru_cache(maxsize=None)
def chains(depth=2):
    """Unary chains of add, mult and monus with constants, whose
    summaries have slopes of either sign, ranges that end where a monus
    reaches 0, and fuel quadratic in the argument."""
    leaf = st.builds(_wrap, st.just(Id()), st.lists(st.sampled_from((S(), PRED)), max_size=2))
    if depth == 0:
        return leaf
    node = st.builds(
        lambda f, k, g, order: Comp(f, (ConstK(k), g)[::order]),
        st.sampled_from((ADD, MULT, MONUS)),
        st.integers(0, 6),
        chains(depth - 1),
        st.sampled_from([1, -1]),
    )
    return leaf | node


def _reading(i, n):
    """Chains as terms of arity n that read only their i-th argument."""
    return chains().map(lambda g: Comp(g, (Proj(i, n),)))


# recursions of arity 2 whose step reads only the accumulator or only
# the counter, and searches over chains of the search argument
_chain_recs = st.builds(PrimRec, chains(1), st.sampled_from([2, 3]).flatmap(lambda i: _reading(i, 3)))
_chain_bodies = st.builds(
    lambda g, h: Comp(MONUS, (Comp(g, (Proj(1, 2),)), h)), shape_terms(1, 0), _reading(2, 2)
)
# binary outer terms fed by one shape of each argument
_split_terms = st.builds(
    lambda f, g, h, order: Comp(f, (Comp(g, (Proj(1, 2),)), Comp(h, (Proj(2, 2),)))[::order]),
    st.sampled_from([f for f in _OUTER if f.arity() == 2]),
    shape_terms(1, 1),
    shape_terms(1, 1),
    st.sampled_from([1, -1]),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_search_bodies, _chain_bodies, shape_terms(2, 1)), st.integers(0, 24))
def test_fuel_matches_node_by_node_reference_on_searches(body, x):
    t = Mu(body)
    try:
        value, cost = ref_cost_args(t, (x,), 3_000)
    except _TooBig:
        assume(False)
    _assert_exact_spend(t, (x,), value, cost)


def _binom2(x):
    return x * (x - 1) // 2


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                shape_terms(n, 1),
                st.lists(st.integers(0, 7), min_size=n, max_size=n),
                st.integers(0, n - 1),
            )
        ),
        st.tuples(
            _search_bodies | _split_terms | _chain_recs | _reading(2, 2),
            st.lists(st.integers(0, 12), min_size=2, max_size=2),
            st.integers(0, 1),
        ),
    )
)
# outer terms that see an inner term's truncation at 0: 2 monus (5 monus
# x) at 2, 3 + (5 monus i) up to 5, and 3 monus x at 4 and at 5, where
# monus's accumulator has reached 0
@example((Comp(S(), (Comp(MONUS, (ConstK(2), Comp(MONUS, (ConstK(5), Id())))),)), [2], 0))
@example((Comp(ADD, (Comp(ConstK(3), (Proj(1, 2),)), Comp(MONUS, (const_of(5, 2), Proj(2, 2))))), [0, 2], 1))
@example((Comp(S(), (Comp(MONUS, (ConstK(3), Id())),)), [4], 0))
@example((Comp(S(), (Comp(MONUS, (ConstK(3), Id())),)), [5], 0))
# inner terms the outer one ignores, whose ranges end at 6 and at 4
@example((Comp(Proj(1, 3), (Id(), Comp(MONUS, (ConstK(5), Id())), Comp(MONUS, (ConstK(3), Id())))), [2], 0))
def test_every_family_holds_across_its_range(case):
    """A summary's family at p gives the value and the fuel, relative to
    this argument's, at every argument in its range."""
    t, args, p = case
    summary = _summary(_code(t), p)
    assume(summary is not None)
    try:
        value, cost = ref_cost_args(t, args, 5_000)
    except _TooBig:
        assume(False)
    _assert_family_holds(t, args, p, summary, value, cost)


def _assert_family_holds(t, args, p, summary, value, cost):
    got, fam = summary(tuple(args), Fuel(10**9))
    assert got == value
    if fam is None:
        return
    m, d, b1, b2, lo, hi = fam
    x0 = args[p]
    assert lo <= x0 <= hi and (m or d == value)
    xs = {*range(lo, min(hi, lo + 6) + 1), x0 + 1, x0 + 5}
    if hi < 10**6:
        xs.update(range(hi - 2, hi + 1))
    for x in sorted(x for x in xs if lo <= x <= hi):
        moved = args[:p] + [x] + args[p + 1 :]
        try:
            v, c = ref_cost_args(t, moved, 5_000)
        except _TooBig:
            continue
        assert v == max(m * x + d, 0)
        assert c - cost == b1 * (x - x0) + b2 * (_binom2(x) - _binom2(x0))


@pytest.mark.parametrize("k,j", [(k, j) for k in range(5) for j in range(5)])
def test_recursions_over_two_monus_steps(k, j):
    """Steps k monus (j monus acc), then plus or monus 1: slope 1 at the
    accumulator on a range that ends at j, quadratic fuel, and a value
    that truncates at 0 on either side; and the same of the counter."""
    twice = Comp(MONUS, (ConstK(k), Comp(MONUS, (ConstK(j), Id()))))
    steps = (twice, Comp(ADD, (ConstK(1), twice)), Comp(MONUS, (twice, ConstK(1))))
    for step, read in [(g, 2) for g in steps] + [(twice, 3)]:
        t = PrimRec(Id(), Comp(step, (Proj(read, 3),)))
        code = _code(t)
        for args in ([x, y] for x in range(6) for y in range(5)):
            value, cost = ref_cost_args(t, args)
            _assert_exact_spend(t, args, value, cost)
            for p in (0, 1):
                _assert_family_holds(t, args, p, _summary(code, p), value, cost)


def _ceil_half_cost(n):
    """The node-by-node cost of ``CEIL_HALF`` at n, cubic in n // 2."""
    h, odd = divmod(n, 2)
    if odd:
        return (4 * h**3 + 51 * h * h + 161 * h + 153) // 3
    return (4 * h**3 + 42 * h * h + 74 * h + 39) // 3


def test_searches_stay_closed_form_on_large_inputs():
    for n in range(60):
        assert ref_cost(CEIL_HALF, n) == ((n + 1) // 2, _ceil_half_cost(n))
    for n in (10**6, 10**6 + 1, 12345):
        value, cost = (n + 1) // 2, _ceil_half_cost(n)
        assert apply_with_cost(term_map(CEIL_HALF), n, cost) == (Converged(value), cost)
        assert apply_with_cost(term_map(CEIL_HALF), n, cost - 1) == (FUEL_EXHAUSTED, cost - 1)
    # body i + 1 is never 0: the whole budget goes at once, not probe by probe
    never = Mu(Comp(S(), (Proj(2, 2),)))
    assert apply_with_cost(term_map(never), 5, 10**15) == (FUEL_EXHAUSTED, 10**15)


@pytest.mark.parametrize("m,top", [(0, 60), (1, 60), (2, 60), (3, 4)])
def test_ack_rows_charge_the_exact_rewrite_count(m, top):
    t = Comp(Ack(), (ConstK(m), Id()))
    for n in range(top + 1):
        _assert_exact_fuel(t, n)


def test_charges_one_unit_per_node():
    t = Comp(S(), (S(),))  # three nodes
    out, spent = apply_with_cost(term_map(t), 0, 100)
    assert out == Converged(2) and spent == 3


# ---------------------------------------------------------------------------
# ACK: values frozen from the standard table


def ack(m, n, fuel=10**15):
    return eval_term(Ack(), (m, n), fuel)


def test_ack_values():
    assert ack(0, 5) == Converged(6)
    assert ack(1, 4) == Converged(6)
    assert ack(2, 2) == Converged(7)
    assert ack(3, 3) == Converged(61)
    assert ack(3, 10) == Converged(8189)
    assert ack(4, 1) == Converged(65533)
    for m in range(4):
        for n in range(8):
            assert ack(m, n) == Converged(ref_ack_rewrites(m, n)[0])


def test_ack_bounds_enforced():
    # fuel is the only bound: A(4, 2) = 2^65536 - 3 and A(5, 5) exhaust
    # their budgets quickly, while A(3, 11) converges
    assert ack(4, 2) == FUEL_EXHAUSTED
    assert ack(5, 5, 10**18) == FUEL_EXHAUSTED
    assert ack(3, 11) == Converged(16381)


def test_ack_term_and_rows_agree():
    two_fixed = Comp(Ack(), (ConstK(2), Id()))
    row2 = ack_row_term(2)
    for n in range(10):
        assert run1(two_fixed, n) == Converged(2 * n + 3)
        assert run1(row2, n) == Converged(2 * n + 3)
    row3 = ack_row_term(3)
    assert run1(row3, 3) == Converged(61)


def test_compose_unary():
    from powerlab.terms import add_const, times_const

    t = compose_unary(S(), S())
    assert run1(t, 3) == Converged(5)
    affine = compose_unary(add_const(3), times_const(2))
    assert run1(affine, 5) == Converged(13)  # 2n + 3


def test_standard_suite_shape():
    suite = standard_suite()
    names = [name for name, _ in suite]
    assert len(names) == len(set(names)) == 18
    assert "square" in names and "ack2" in names
    total = 0
    for name, t in suite:
        for x in (0, 1, 33):
            out = run1(t, x)
            assert isinstance(out, Converged), (name, x, out)
            total += out.value
    assert total == 1727


def test_term_map_requires_unary():
    with pytest.raises(ArityError):
        term_map(ADD)


def test_terms_pickle_after_evaluation():
    assert run1(SQUARE, 3) == Converged(9)  # compiles and caches closures
    back = pickle.loads(pickle.dumps(SQUARE))
    assert back == SQUARE and run1(back, 4) == Converged(16)


def test_deeply_nested_terms_evaluate():
    depth = 600
    t = parse_term("(C S " * depth + "S" + ")" * depth)
    assert eval_term(t, (0,), 10**4) == Converged(depth + 1)
    assert apply_with_cost(term_map(t, "tower"), 5, 10**4) == (Converged(depth + 6), 2 * depth + 1)
