"""Machine interpreters, text formats, and the bit-string bijection."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from powerlab import machines
from powerlab.core import (
    FUEL_EXHAUSTED,
    Converged,
    Diverged,
    DomainMismatch,
    Fuel,
    apply,
    apply_with_cost,
)
from powerlab.machines import (
    _CM_OPS,
    _SYMBOLS,
    BLANK,
    BLOCK_LIMIT,
    BitsEncoding,
    CMProgram,
    ProgramError,
    TM_LIBRARY,
    TMProgram,
    bits_to_nat,
    cm_map,
    compile_rec_to_cm,
    nat_to_bits,
    parse_cm,
    parse_tm,
    render_cm,
    render_tm,
    run_cm,
    run_tm,
    tm_binary_successor,
    tm_erase_all,
    tm_identity,
    tm_map,
    tm_witness_models,
)
from powerlab.recdsl import eval_term
from powerlab.terms import SQUARE, standard_suite

# ---------------------------------------------------------------------------
# Bit-string bijection


def test_bits_prefix():
    assert [nat_to_bits(n) for n in range(8)] == [
        "",
        "0",
        "1",
        "00",
        "01",
        "10",
        "11",
        "000",
    ]


@given(st.integers(min_value=0, max_value=2**40))
def test_bits_round_trip(n):
    assert bits_to_nat(nat_to_bits(n)) == n


@given(st.text(alphabet="01", max_size=24))
def test_bits_round_trip_other_way(b):
    assert nat_to_bits(bits_to_nat(b)) == b


def test_bits_encoding_object():
    e = BitsEncoding()
    assert e.encode(5) == "10" and e.decode("10") == 5
    inv = e.inverse()
    assert inv.encode("10") == 5 and inv.decode(5) == "10"


def test_bits_encoding_still_checks_its_domains():
    e, inv = BitsEncoding(), BitsEncoding().inverse()
    calls = [
        (e.encode, -1), (e.encode, True), (e.decode, "2"),
        (inv.encode, "2"), (inv.decode, -1), (nat_to_bits, -1), (bits_to_nat, "2"),
    ]
    for fn, v in calls:
        with pytest.raises(DomainMismatch):
            fn(v)


# ---------------------------------------------------------------------------
# Turing machines


def test_tm_successor_matches_arithmetic():
    p = tm_binary_successor()
    for n in range(200):
        out = run_tm(p, nat_to_bits(n), 10**4)
        assert out == Converged(nat_to_bits(n + 1)), n


def test_tm_successor_carry_chain():
    assert run_tm(tm_binary_successor(), "11", 10**3) == Converged("000")


def test_tm_identity_and_erase():
    assert run_tm(tm_identity(), "0110", 100) == Converged("0110")
    assert run_tm(tm_erase_all(), "0110", 100) == Converged("")
    assert run_tm(tm_erase_all(), "", 100) == Converged("")


def test_tm_parse_render_round_trip():
    for factory in TM_LIBRARY.values():
        p = factory()
        q = parse_tm(render_tm(p), name=p.name)
        assert q.start == p.start and q.halt == p.halt
        assert q.transitions == p.transitions


def test_tm_rejects_partial_state_tables():
    text = """
    start a
    halt z
    a 0 z 0 S
    a 1 z 1 S
    """
    with pytest.raises(ProgramError, match="no rule for"):
        parse_tm(text)


def test_tm_rejects_rules_from_halt_state():
    text = """
    start a
    halt z
    a 0 z 0 S
    a 1 z 1 S
    a _ z _ S
    z 0 z 0 S
    """
    with pytest.raises(ProgramError, match="halt"):
        parse_tm(text)


def test_tm_parse_errors():
    with pytest.raises(ProgramError):
        parse_tm("start a\nhalt z\na 0 z 0 X\na 1 z 1 S\na _ z _ S\n")
    with pytest.raises(ProgramError):
        parse_tm("halt z\n")
    with pytest.raises(ProgramError):
        parse_tm("start a\nhalt z\na 2 z 0 S\n")


def test_tm_map_fuel_exhaustion():
    m = tm_map(tm_binary_successor())
    assert apply(m, "1111111", 3) == FUEL_EXHAUSTED


def test_tm_output_block_is_local_to_head():
    # Writes a 1, moves right past a blank gap, halts on the blank: the
    # stranded 1 is not part of the output block.
    text = """
    start a
    halt z
    a _ b 1 R
    a 0 b 1 R
    a 1 b 1 R
    b _ z _ S
    b 0 z 0 S
    b 1 z 1 S
    """
    assert run_tm(parse_tm(text), "", 100) == Converged("")


# ---------------------------------------------------------------------------
# Counter machines

ADD3_CM = """
registers 2
input 0
output 1
# move r0 into r1, then add three
loop: decjz 0 done
inc 1
jump loop
done: inc 1
inc 1
inc 1
"""


def test_cm_add_three():
    p = parse_cm(ADD3_CM, name="add3")
    for n in range(20):
        assert run_cm(p, n, 10**4) == Converged(n + 3)


def test_cm_parse_render_round_trip():
    p = parse_cm(ADD3_CM, name="add3")
    q = parse_cm(render_cm(p), name="add3")
    assert q.instructions == p.instructions
    assert (q.n_registers, q.input_reg, q.output_reg) == (2, 0, 1)
    for n in (0, 5, 11):
        assert run_cm(q, n, 10**4) == run_cm(p, n, 10**4)
    # a jump past the last instruction renders as a bare label, not a halt
    ends = parse_cm("registers 2\ninput 0\noutput 1\nl: decjz 0 e\ninc 1\njump l\ne:\n")
    programs = [ends] + [compile_rec_to_cm(t, name=n) for n, t in standard_suite()]
    assert len(programs) == 19
    for p in programs:
        q = parse_cm(render_cm(p), name=p.name)
        assert q.instructions == p.instructions, p.name
        for n in range(9):
            assert apply_with_cost(cm_map(q), n, 10**6) == apply_with_cost(cm_map(p), n, 10**6)
    assert apply_with_cost(cm_map(ends), 3, 100) == (Converged(3), 10)


def test_cm_loop_exhausts_fuel():
    p = parse_cm("registers 1\ninput 0\noutput 0\nspin: jump spin\n")
    assert run_cm(p, 0, 500) == FUEL_EXHAUSTED


def test_cm_falls_off_the_end():
    p = parse_cm("registers 1\ninput 0\noutput 0\ninc 0\n")
    assert run_cm(p, 4, 100) == Converged(5)


def test_cm_decjz_on_zero_jumps_without_decrement():
    p = parse_cm(
        "registers 2\ninput 0\noutput 1\ndecjz 0 2\ninc 1\nhalt\n"
    )
    assert run_cm(p, 0, 100) == Converged(0)
    assert run_cm(p, 1, 100) == Converged(1)


def test_cm_parse_errors():
    with pytest.raises(ProgramError, match="label"):
        parse_cm("registers 1\ninput 0\noutput 0\njump nowhere\n")
    with pytest.raises(ProgramError):
        parse_cm("registers 1\ninput 0\noutput 1\n")
    with pytest.raises(ProgramError):
        parse_cm("registers 1\ninput 0\noutput 0\ninc 3\n")
    with pytest.raises(ProgramError, match="duplicate"):
        parse_cm("registers 1\ninput 0\noutput 0\na: inc 0\na: inc 0\n")
    # a label is a word that is not all digits; a digit target is an index
    head = "registers 2\ninput 0\noutput 1\n"
    with pytest.raises(ProgramError, match="line 4: label '1'"):
        parse_cm(head + "1: decjz 0 4\ninc 1\ninc 1\njump 1\n4: halt\n")
    with pytest.raises(ProgramError, match="line 4: label ''"):
        parse_cm(head + ": inc 1\n")
    words = parse_cm(head + "a: decjz 0 b\ninc 1\ninc 1\njump a\nb: halt\n")
    index = parse_cm(head + "a: decjz 0 4\ninc 1\ninc 1\njump 0\nhalt\n")
    assert words.instructions == index.instructions
    assert run_cm(words, 2, 100) == Converged(4)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_tm, "start a\nstart b\nhalt z\n", "tm: line 2: second start declaration"),
        (parse_tm, "start a\nhalt z\n# again\nhalt y\n", "tm: line 4: second halt"),
        (parse_cm, "registers 1\nregisters 2\ninput 0\noutput 0\n", "cm: line 2: second registers"),
        (parse_cm, "registers 1\ninput 0\ninput 0\noutput 0\n", "cm: line 3: second input"),
        (parse_cm, "registers 1\ninput 0\noutput 0\noutput 0\n", "cm: line 4: second output"),
        (parse_cm, "registers x\ninput 0\noutput 0\n", "cm: line 1: cannot parse 'registers x'"),
        (parse_cm, "registers 1\ninput 0\noutput 0\ninc x # r\n", "cm: line 4: cannot parse 'inc x # r'"),
        (parse_cm, "registers 1\ninput 0\noutput 0\ndecjz 0\n", "cm: line 4: cannot parse"),
        (parse_cm, "registers 1\ninput 0\noutput 0\nl: nop\n", "cm: line 4: cannot parse"),
        (parse_tm, "start a\nhalt z\na 0 z 0\n", "tm: line 3: cannot parse"),
        (parse_tm, "", "tm: missing declaration of start, halt"),
        (parse_cm, "input 0\n", "cm: missing declaration of registers, output"),
        # faults found once the whole program is read still name their line
        (parse_cm, "registers 1\ninput 0\noutput 0\njump nowhere\n", "cm: line 4: unknown label 'nowhere'"),
        (parse_cm, "registers 2\n# r5\ninput 0\noutput 1\ninc 5\n", "cm: line 5: bad instruction ('inc', 5)"),
        (parse_cm, "registers 1\ninput 0\noutput 0\njump 7\n", "cm: line 4: bad instruction ('jump', 7)"),
        (parse_cm, "registers 1\ninput 0\n# out\noutput 1\n", "cm: line 4: register 1 out of range"),
        (parse_tm, "start a\nhalt z\na 0 z 0 X\n", "tm: line 3: bad move 'X' in rule for (a, 0)"),
        (parse_tm, "start a\nhalt z\n\na 2 z 0 S\n", "tm: line 4: bad symbol in rule for (a, 2)"),
        (parse_tm, "z 0 z 0 S\nstart a\nhalt z\n", "tm: line 1: halt state 'z' has an outgoing rule"),
    ],
)
def test_declarations_are_read_once_and_bad_lines_name_their_line(parse, text, message):
    with pytest.raises(ProgramError) as exc:
        parse(text)
    assert str(exc.value).startswith(message)


def test_cm_program_validates_targets():
    with pytest.raises(ProgramError):
        CMProgram("bad", 1, 0, 0, (("decjz", 0, 5),))


@st.composite
def valid_cm_programs(draw):
    """Programs whose operands are drawn from ``_CM_OPS`` within bounds:
    registers below ``n_registers``, targets up to the program length."""
    n_registers = draw(st.integers(1, 5))
    ops = draw(st.lists(st.sampled_from(sorted(_CM_OPS)), max_size=12))
    bound = {"reg": n_registers, "target": len(ops) + 1}
    instrs = tuple(
        (op, *(draw(st.integers(0, bound[k] - 1)) for k in _CM_OPS[op])) for op in ops
    )
    regs = st.integers(0, n_registers - 1)
    return CMProgram("gen", n_registers, draw(regs), draw(regs), instrs)


@settings(max_examples=60, deadline=None)
@given(valid_cm_programs())
def test_cm_render_parse_round_trip(p):
    q = parse_cm(render_cm(p), name=p.name)
    assert q.instructions == p.instructions
    assert (q.n_registers, q.input_reg, q.output_reg) == (p.n_registers, p.input_reg, p.output_reg)


_states = st.text("abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=4)


@st.composite
def complete_tm_programs(draw):
    """Programs in which every state but the halt state handles every
    symbol."""
    halt = draw(_states)
    states = draw(st.lists(_states.filter(lambda s: s != halt), min_size=1, max_size=4, unique=True))
    targets = st.sampled_from(states + [halt])
    rules = {
        (s, sym): (draw(targets), draw(st.sampled_from(_SYMBOLS)), draw(st.sampled_from("LRS")))
        for s in states
        for sym in _SYMBOLS
    }
    return TMProgram("gen", draw(st.sampled_from(states)), halt, rules)


@settings(max_examples=60, deadline=None)
@given(complete_tm_programs())
def test_tm_render_parse_round_trip(p):
    q = parse_tm(render_tm(p), name=p.name)
    assert (q.start, q.halt, q.transitions) == (p.start, p.halt, p.transitions)


def test_tm_witness_models_shape():
    tm_model, rec_model = tm_witness_models()
    assert {m.name for m in tm_model.members} == {"tm-succ", "tm-erase", "tm-ident"}
    assert {m.name for m in rec_model.members} == {"succ", "zero", "ident"}
    e = BitsEncoding()
    m = tm_model.member("tm-succ")
    for n in range(25):
        assert apply(m, e.encode(n), 10**4) == Converged(e.encode(n + 1))


# ---------------------------------------------------------------------------
# Exact fuel spend against a step-by-step reference interpreter


def ref_cm(p, x, budget):
    """Run ``p`` on ``x`` one instruction at a time, each costing one
    unit; running out costs the whole budget.  Returns (outcome, spent)."""
    instrs = p.instructions
    regs = {p.input_reg: x}
    pc = spent = 0
    while pc < len(instrs):
        if spent == budget:
            return FUEL_EXHAUSTED, budget
        spent += 1
        ins = instrs[pc]
        if ins[0] == "halt":
            break
        if ins[0] == "inc":
            regs[ins[1]] = regs.get(ins[1], 0) + 1
            pc += 1
        elif ins[0] == "decjz":
            if regs.get(ins[1], 0) == 0:
                pc = ins[2]
            else:
                regs[ins[1]] -= 1
                pc += 1
        else:
            pc = ins[1]
    return Converged(regs.get(p.output_reg, 0)), spent


_STEP = {"L": -1, "R": 1, "S": 0}


def ref_tm(p, x, budget):
    """Run ``p`` on ``x`` one step at a time on a dict tape, each step
    costing one unit; running out costs the whole budget.  Returns
    (outcome, spent)."""
    tape = dict(enumerate(x))
    head = spent = 0
    state = p.start
    while state != p.halt:
        if spent == budget:
            return FUEL_EXHAUSTED, budget
        spent += 1
        state, wsym, mv = p.transitions[(state, tape.get(head, BLANK))]
        if wsym == BLANK:
            tape.pop(head, None)
        else:
            tape[head] = wsym
        head += _STEP[mv]
    if head not in tape:
        return Converged(""), spent
    lo = hi = head
    while lo - 1 in tape:
        lo -= 1
    while hi + 1 in tape:
        hi += 1
    return Converged("".join(tape[i] for i in range(lo, hi + 1))), spent


def assert_exact_spend(p, x, cap=10**6):
    """Same outcome and spend as the reference at ``cap``; a converging
    run converges at exactly its spend and runs out one unit below it."""
    out, spent = ref_cm(p, x, cap)
    m = cm_map(p)
    assert apply_with_cost(m, x, cap) == (out, spent), (p.instructions, x)
    if out == FUEL_EXHAUSTED:
        return out, spent
    if spent:
        assert apply_with_cost(m, x, spent) == (out, spent)
        cell = Fuel(spent - 1)
        assert m._run(x, cell) == FUEL_EXHAUSTED
        assert cell.left == -1
    if spent >= 2:
        assert apply_with_cost(m, x, spent - 1) == (FUEL_EXHAUSTED, spent - 1)
    return out, spent


def counting_loop(r, body, at):
    """``at: decjz r D; inc b for b in body; jump at; D:``"""
    done = at + len(body) + 2
    return (("decjz", r, done),) + tuple(("inc", b) for b in body) + (("jump", at),)


def outer_loop(r, parts, at):
    """``at: decjz r D; <parts>; jump at; D:``, the compiler's loop
    shape: each part an instruction, or a counting loop (a clear, move
    or copy) given as ``("loop", counter, increments)``."""
    body: list = []
    for part in parts:
        if part[0] == "loop":
            body.extend(counting_loop(part[1], part[2], at + 1 + len(body)))
        else:
            body.append(part)
    return (("decjz", r, at + len(body) + 2), *body, ("jump", at))


_part = st.one_of(
    st.tuples(st.just("inc"), st.integers(0, 3)),  # the outer counter included
    st.just(("halt",)),
    st.tuples(st.just("loop"), st.integers(0, 3), st.lists(st.integers(0, 3), max_size=2)),
)
_block = st.one_of(
    st.tuples(st.just("inc"), st.integers(0, 3)),
    st.tuples(st.just("decjz"), st.integers(0, 3), st.integers(0, 40)),
    st.tuples(st.just("jump"), st.integers(0, 40)),
    st.just(("halt",)),
    st.tuples(st.just("loop"), st.integers(0, 3), st.lists(st.integers(0, 3), max_size=3)),
    st.tuples(st.just("outer"), st.integers(0, 3), st.lists(_part, max_size=4), st.integers(0, 40)),
)


@st.composite
def cm_programs(draw):
    """Programs over four registers, with counting loops (some of which
    increment their own counter) and outer loops in the compiler's shape
    (``outer_loop``), each entered by a jump to its ``decjz`` or into its
    body, mixed among plain instructions whose targets may land
    anywhere, the middle of a loop included."""
    instrs: list = []
    for b in draw(st.lists(_block, max_size=8)):
        if b[0] == "loop":
            instrs.extend(counting_loop(b[1], b[2], len(instrs)))
        elif b[0] == "outer":
            loop = outer_loop(b[1], b[2], len(instrs) + 1)
            instrs.append(("jump", len(instrs) + 1 + b[3] % len(loop)))
            instrs.extend(loop)
        else:
            instrs.append(b)
    size = len(instrs)
    fixed = []
    for ins in instrs:
        if ins[0] == "decjz" and ins[2] > size:
            ins = ("decjz", ins[1], ins[2] % (size + 1))
        elif ins[0] == "jump" and ins[1] > size:
            ins = ("jump", ins[1] % (size + 1))
        fixed.append(ins)
    regs = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    return CMProgram("gen", 4, regs[0], regs[1], tuple(fixed))


@settings(max_examples=300, deadline=None)
@given(cm_programs(), st.integers(0, 12), st.integers(1, 400))
def test_cm_spend_matches_reference(p, x, budget):
    assert apply_with_cost(cm_map(p), x, budget) == ref_cm(p, x, budget)
    assert_exact_spend(p, x, cap=2000)


def test_compiled_suite_spend_matches_reference():
    for name, term in standard_suite():
        p = compile_rec_to_cm(term, name=name)
        for x in range(13):
            out, _ = assert_exact_spend(p, x)
            assert out == eval_term(term, (x,), 10**6), (name, x)


def _cm(*instrs, registers=4, input_reg=0, output_reg=1):
    return CMProgram("hand", registers, input_reg, output_reg, tuple(instrs))


def test_cm_loop_incrementing_its_own_counter():
    p = _cm(*counting_loop(0, [1, 0], 0))
    assert assert_exact_spend(p, 0) == (Converged(0), 1)
    assert assert_exact_spend(p, 3, cap=500) == (FUEL_EXHAUSTED, 500)


def test_cm_loop_body_with_a_decjz():
    # r1 += r0; each iteration also moves one unit, if any, from r2 to r3
    p = _cm(
        ("decjz", 0, 5),
        ("inc", 1),
        ("decjz", 2, 4),
        ("inc", 3),
        ("jump", 0),
    )
    for x in range(6):
        assert assert_exact_spend(p, x)[0] == Converged(x)


def test_cm_jump_into_the_middle_of_a_loop():
    # entering at the inc adds one before the loop drains r0
    p = _cm(("jump", 2), *counting_loop(0, [1], 1), ("halt",))
    for x in range(6):
        assert assert_exact_spend(p, x) == (Converged(x + 1), 3 * x + 5)


def test_cm_loop_ending_the_program():
    p = _cm(*counting_loop(0, [1, 2], 0))
    assert len(p.instructions) == 4  # D is the end of the program
    for x in range(6):
        assert assert_exact_spend(p, x) == (Converged(x), 4 * x + 1)


def test_cm_zero_iteration_loop_costs_one_step():
    p = _cm(*counting_loop(0, [1, 2, 3], 0), ("halt",))
    assert apply_with_cost(cm_map(p), 0, 10) == (Converged(0), 2)
    assert apply_with_cost(cm_map(p), 0, 1) == (FUEL_EXHAUSTED, 1)
    q = _cm(*counting_loop(0, [1], 0))
    assert apply_with_cost(cm_map(q), 0, 1) == (Converged(0), 1)


def test_cm_loop_budget_at_and_below_its_cost():
    # k = 2 increments, v = 5 iterations: (k + 2) * v + 1 = 21 steps
    p = _cm(*counting_loop(0, [1, 2], 0))
    m = cm_map(p)
    assert apply_with_cost(m, 5, 21) == (Converged(5), 21)
    assert apply_with_cost(m, 5, 20) == (FUEL_EXHAUSTED, 20)
    cell = Fuel(20)
    assert m._run(5, cell) == FUEL_EXHAUSTED and cell.left == -1
    cell = Fuel(21)
    assert m._run(5, cell) == 5 and cell.left == 0  # the raw result


def test_cm_declared_registers_are_not_allocated():
    text = "registers 20000000000\ninput 7\noutput 19999999999\ninc 19999999999\nhalt\n"
    p = parse_cm(text)
    assert p.n_registers == 20_000_000_000
    assert run_cm(p, 3, 10) == Converged(1)
    lines = render_cm(p).splitlines()
    assert lines[1:4] == ["registers 20000000000", "input 7", "output 19999999999"]
    assert lines[4].split() == ["inc", "19999999999"]


def test_cm_counting_loops_are_fused():
    def fused(*instrs):
        return [ins[0] for ins in _cm(*instrs)._code[0]].count("loop")

    assert fused(*counting_loop(0, [], 0)) == 1  # clear
    assert fused(*counting_loop(0, [1], 0)) == 1  # move
    assert fused(("inc", 2), *counting_loop(0, [1, 3], 1)) == 1  # copy
    assert fused(*counting_loop(0, [1, 1, 2, 3], 0)) == 1
    assert fused(*counting_loop(0, [1, 0], 0)) == 0  # increments its counter
    assert fused(("decjz", 0, 4), ("inc", 1), ("decjz", 2, 3), ("jump", 0)) == 0


def test_cm_blocks_are_made_on_entry_and_bounded():
    # a run at fuel 10 generates the one block it enters, which covers
    # BLOCK_LIMIT of the 10**5 increments and hands on to the next index
    text = "registers 3\ninput 0\noutput 0\n" + "".join(f"inc {i % 3}\n" for i in range(10**5))
    p = parse_cm(text)
    assert run_cm(p, 0, 10) == FUEL_EXHAUSTED
    assert list(p._blocks) == [0]
    regs = [0, 0, 0]
    assert p._blocks[0](regs, 10**6) == (BLOCK_LIMIT, 10**6 - BLOCK_LIMIT)
    assert sum(regs) == BLOCK_LIMIT


def test_cm_programs_pickle_after_a_run():
    m = cm_map(compile_rec_to_cm(SQUARE, name="square"))
    assert apply_with_cost(m, 5, 10**6)[0] == Converged(25)  # makes and caches blocks
    assert m.program._blocks
    back = pickle.loads(pickle.dumps(m))
    assert back.program.instructions == m.program.instructions and not back.program._blocks
    for x in range(8):
        assert apply_with_cost(back, x, 10**6) == apply_with_cost(m, x, 10**6)


@settings(max_examples=300, deadline=None)
@given(complete_tm_programs(), st.text(alphabet="01", max_size=8))
def test_tm_spend_matches_reference(p, x):
    m = tm_map(p)
    budgets = {1, 2, 5, 40}
    out, spent = ref_tm(p, x, 2000)
    if out != FUEL_EXHAUSTED:
        budgets.update(b for b in (spent, spent - 1) if b >= 1)
    for b in sorted(budgets):
        assert apply_with_cost(m, x, b) == ref_tm(p, x, b), (render_tm(p), x, b)


def _tm(*rules, start="a", halt="z"):
    """A program from ``"state symbol new-state write move"`` rules; each
    state's unlisted symbols halt in place."""
    table = {}
    for rule in rules:
        st, sym, nst, wsym, mv = rule.split()
        table[(st, sym)] = (nst, wsym, mv)
    for st in {k[0] for k in table}:
        for sym in _SYMBOLS:
            table.setdefault((st, sym), (halt, sym, "S"))
    return TMProgram("hand", start, halt, table)


def test_tm_successor_spends_exactly_its_steps():
    # 7 steps right over the ones, 1 onto the blank, 7 carrying back, 1 to halt
    m = tm_map(tm_binary_successor())
    assert ref_tm(tm_binary_successor(), "1111111", 100) == (Converged("00000000"), 16)
    assert apply_with_cost(m, "1111111", 16) == (Converged("00000000"), 16)
    assert apply_with_cost(m, "1111111", 15) == (FUEL_EXHAUSTED, 15)
    cell = Fuel(15)
    assert m._run("1111111", cell) == FUEL_EXHAUSTED and cell.left == -1


def test_tm_blank_run_between_written_cells_ends():
    # b crosses the blanks a left behind until it meets the 1 it wrote
    m = tm_map(_tm("a _ c 1 R", "c _ d _ R", "d _ e _ R", "e _ b 1 L", "b _ b _ L", "b 1 z 0 S"))
    assert apply_with_cost(m, "", 100) == ref_tm(m.program, "", 100) == (Converged("0"), 7)
    assert apply_with_cost(m, "", 6) == (FUEL_EXHAUSTED, 6)


@pytest.fixture
def widenings(monkeypatch):
    """The size of the tape at each time ``TMMap`` widens it."""
    sizes = []
    widen = machines._widen

    def counted(tape, n, left):
        sizes.append(n)
        widen(tape, n, left)

    monkeypatch.setattr(machines, "_widen", counted)
    return sizes


@pytest.mark.parametrize("move", ["L", "R"])
def test_tm_tape_doubles_at_either_end(widenings, move):
    # writes a cell and moves on forever: 3 * 10**5 fresh cells from the
    # one blank cell take 19 doublings, not a widening for each cell
    m = tm_map(_tm(f"a _ b 1 {move}", f"b _ a 0 {move}"))
    assert apply_with_cost(m, "", 3 * 10**5) == (FUEL_EXHAUSTED, 3 * 10**5)
    assert widenings == [2**k for k in range(19)]
    assert apply_with_cost(m, "", 6) == ref_tm(m.program, "", 6)


@pytest.mark.parametrize("move", ["L", "R"])
@pytest.mark.parametrize("rules", [["a _ a _ {}"], ["a _ b _ {}", "b _ a _ {}"]])
def test_tm_tape_keeps_every_visited_blank(widenings, rules, move):
    # a walk outward over blanks is stepped cell by cell, and the tape
    # keeps each blank it crosses: its memory grows with the steps taken,
    # to between one and two bytes a step, where the reference's dict
    # tape holds no blank at all
    m = tm_map(_tm(*(rule.format(move) for rule in rules)))
    assert apply_with_cost(m, "", 10**5) == ref_tm(m.program, "", 10**5) == (FUEL_EXHAUSTED, 10**5)
    assert 10**5 <= 2 * widenings[-1] <= 2 * 10**5


def test_tm_identity_takes_no_steps():
    m = tm_map(tm_identity())
    assert apply_with_cost(m, "0110", 5) == (Converged("0110"), 0)
    assert apply_with_cost(m, "", 1) == (Converged(""), 0)
