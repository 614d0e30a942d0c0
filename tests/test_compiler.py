"""Differential tests for the recursion-term to counter-machine compiler."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from powerlab.core import Converged, apply
from powerlab.machines import CompileError, cm_map, compile_rec_to_cm, render_cm, run_cm
from powerlab.recdsl import (
    Ack,
    Comp,
    ConstK,
    Id,
    Mu,
    PrimRec,
    Proj,
    S,
    Z,
    eval_term,
    parse_term,
)
from powerlab.terms import ADD, FLOOR_SQRT, SQUARE, standard_suite
from test_recdsl import loopy_terms, shape_terms

FUEL = 10**6


def both(t, n, fuel=FUEL):
    direct = eval_term(t, (n,), fuel)
    compiled = run_cm(compile_rec_to_cm(t), n, fuel)
    return direct, compiled


def test_successor_compiles():
    direct, compiled = both(S(), 7)
    assert direct == compiled == Converged(8)


def test_constant_and_projection():
    assert both(ConstK(9), 3)[1] == Converged(9)
    assert both(Comp(Proj(1, 1), (Id(),)), 5)[1] == Converged(5)


def test_composition_chain():
    t = parse_term("(C S (C S (C S I)))")
    assert both(t, 4)[1] == Converged(7)


def test_floor_sqrt_search_compiles():
    p = compile_rec_to_cm(FLOOR_SQRT)
    for n in (0, 1, 3, 4, 10, 16, 24):
        assert run_cm(p, n, FUEL) == eval_term(FLOOR_SQRT, (n,), FUEL)


def test_ack_section_compiles_through_row_unfolding():
    t = Comp(Ack(), (ConstK(2), Id()))
    for n in range(6):
        assert both(t, n)[1] == Converged(2 * n + 3)


def test_ack_with_open_row_is_rejected():
    with pytest.raises(CompileError, match="unsupported"):
        compile_rec_to_cm(Comp(Ack(), (Id(), Id())))


@pytest.mark.parametrize(
    "text", ["(C (C S ACK) I I)", "(C (R ACK (P 4 4)) I I I)", "(M ACK)"], ids=["C", "R", "M"]
)
def test_a_bare_ack_is_rejected_wherever_it_sits(text):
    with pytest.raises(CompileError, match="^unsupported construct: bare ACK cannot compile$"):
        compile_rec_to_cm(parse_term(text))


def test_an_ack_row_that_is_not_a_literal_is_named():
    message = "^unsupported construct: ACK needs a literal constant first argument to compile, got I$"
    with pytest.raises(CompileError, match=message):
        compile_rec_to_cm(parse_term("(C ACK I I)"))


def test_ack_row_zero_compiles_as_row_k_zero():
    assert render_cm(compile_rec_to_cm(parse_term("(C ACK Z I)"), name="r")) == render_cm(
        compile_rec_to_cm(parse_term("(C ACK (K 0) I)"), name="r")
    )


def test_a_term_holding_two_ack_rows_matches_the_interpreter():
    t = parse_term("(C (C ACK (K 1) I) (C ACK (K 2) I))")
    for n in range(6):
        direct, compiled = both(t, n)
        assert compiled == direct == Converged(2 * n + 5)


def test_an_ack_row_too_large_to_compile_is_refused_before_it_is_built():
    # row k compiles to at least 2**k instructions, so row 100000 is
    # refused at once rather than built as a 100000-deep term
    with pytest.raises(CompileError, match="^program too large: more than 100000 instructions$"):
        compile_rec_to_cm(parse_term("(C ACK (K 100000) I)"))


def test_compiled_program_size_is_bounded():
    # (K k) compiles to k increments; the bound stops it before it allocates
    with pytest.raises(CompileError, match="instructions"):
        compile_rec_to_cm(parse_term("(K 200001)"))


def test_non_unary_rejected():
    with pytest.raises(CompileError):
        compile_rec_to_cm(ADD)


def test_whole_suite_matches_interpreter_on_small_inputs():
    for name, t in standard_suite():
        p = compile_rec_to_cm(t, name=name)
        m = cm_map(p)
        for n in range(13):
            direct = eval_term(t, (n,), FUEL)
            compiled = apply(m, n, FUEL)
            assert direct == compiled, (name, n, direct, compiled)


@settings(max_examples=200, deadline=None)
@given(loopy_terms | shape_terms(1), st.integers(0, 8))
def test_compiled_terms_match_the_interpreter_where_both_converge(t, x):
    direct = eval_term(t, (x,), 10**5)
    compiled = run_cm(compile_rec_to_cm(t), x, 10**5)
    if isinstance(direct, Converged) and isinstance(compiled, Converged):
        assert compiled == direct


def test_compiled_square_takes_fewer_than_n4_steps():
    # each iteration of a recursion updates its accumulator in place, so
    # square costs O(n^3) steps (698,335 at 40), not O(n^4) (11,942,814)
    assert run_cm(compile_rec_to_cm(SQUARE), 40, 10**6) == Converged(1600)


def test_mu_divergence_is_fuel_exhaustion_on_both_sides():
    t = Mu(Comp(S(), (Proj(2, 2),)))
    direct, compiled = both(t, 0, fuel=2000)
    assert direct == compiled
    assert not isinstance(direct, Converged)


# sha256 of ``render_cm`` of the 18 compiled suite programs, concatenated
# in suite order: the compiler's output, instruction for instruction.  A
# change that moves it on purpose updates it and says why.
COMPILED_SUITE_SHA256 = "97a0ee451515232c83475dd193d14ad3f6ddd5dd28ff0b41b693a36cfe518773"


def test_compiled_suite_programs_are_unchanged():
    suite = standard_suite()
    assert len(suite) == 18
    text = "".join(render_cm(compile_rec_to_cm(t, name=n)) for n, t in suite)
    assert hashlib.sha256(text.encode()).hexdigest() == COMPILED_SUITE_SHA256


def test_compiled_programs_render_and_reload():
    from powerlab.machines import parse_cm

    t = parse_term("(R Z (C S (P 3 3)))")  # identity on the last argument
    p = compile_rec_to_cm(Comp(t, (Z(), Id())), name="ident2")
    q = parse_cm(render_cm(p), name="ident2")
    for n in (0, 1, 9):
        assert run_cm(q, n, FUEL) == Converged(n)
