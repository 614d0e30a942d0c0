"""Machine models: single-tape Turing machines, counter machines, the
bit-string bijection between them and the naturals, and a compiler from
recursion terms to counter machines.

Turing machine text format, line oriented, ``#`` comments::

    start <state>
    halt <state>
    <state> <symbol> <new-state> <write-symbol> <move>

Symbols are ``0``, ``1`` and ``_`` (blank); moves are ``L``, ``R``, ``S``.
Every non-halt state reachable in the table must handle all three
symbols, and the halt state has no outgoing rules.  The input is written
at the head with blanks everywhere else; on halting, the output is the
maximal block of non-blank cells containing the head (empty if the head
rests on a blank).  Each step costs one unit of fuel.  The tape holds
every cell the head has visited, blank or not.

Counter machine text format, line oriented, ``#`` comments::

    registers <n>
    input <reg>
    output <reg>
    [label:] inc <reg>
    [label:] decjz <reg> <target>
    [label:] jump <target>
    [label:] halt

In both formats each declaration appears exactly once.  A label is a
word not made only of digits; a target is a label or, in digits, an
instruction index.  ``decjz`` jumps when the register is zero and
otherwise decrements and falls through.  Running off the end halts.
Registers hold unbounded naturals, start at zero except the input
register, and each executed instruction costs one unit of fuel.  A
counting loop ``L: decjz r D; inc a1; ...; inc ak; jump L; D:`` (no
``ai`` equal to ``r``) runs all its iterations at once, for the same
charge as its instructions one at a time: ``(k + 2) * v + 1`` units when
``r`` holds ``v``.  A budget too small for the whole loop runs out, as
the step-by-step run would inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from powerlab.core import (
    FUEL_EXHAUSTED,
    Domain,
    Encoding,
    Fuel,
    Model,
    Outcome,
    PartialMap,
    apply,
    bijection,
)
from powerlab.recdsl import (
    Ack,
    Comp,
    ConstK,
    Id,
    Mu,
    PrimRec,
    Proj,
    S,
    Term,
    Z,
    term_map,
    to_text,
)
from powerlab.terms import ack_row_term

BLANK = "_"
_SYMBOLS = ("0", "1", BLANK)
_BLANK = ord(BLANK)
_BLANKS = BLANK.encode()
_MOVES = {"L": -1, "R": 1, "S": 0}


class ProgramError(ValueError):
    """A machine program is malformed."""


class _Fault(ProgramError):
    """A fault in one rule, instruction or declaration, ``at`` its
    (state, symbol) key, its index or its keyword.  A program built in
    code reports it as it stands; ``_read`` reports ``what`` after the
    line it came from."""

    def __init__(self, name: str, what: str, at, where: str = ""):
        super().__init__(f"{name}: {what}{where}")
        self.what, self.at = what, at


class CompileError(ValueError):
    """A recursion term cannot be translated to a counter machine."""


# --------------------------------------------------------------------------
# Turing machines


@dataclass(frozen=True, eq=False)
class TMProgram:
    name: str
    start: str
    halt: str
    # (state, symbol) -> (new state, written symbol, move)
    transitions: dict

    def __post_init__(self):
        states = {self.start}
        for (st, sym), (nst, wsym, mv) in self.transitions.items():
            states.add(st)
            states.add(nst)
            if sym not in _SYMBOLS or wsym not in _SYMBOLS:
                raise _Fault(self.name, f"bad symbol in rule for ({st}, {sym})", (st, sym))
            if mv not in _MOVES:
                raise _Fault(self.name, f"bad move {mv!r} in rule for ({st}, {sym})", (st, sym))
            if st == self.halt:
                raise _Fault(self.name, f"halt state {st!r} has an outgoing rule", (st, sym))
        for st in states:
            if st == self.halt:
                continue
            for sym in _SYMBOLS:
                if (st, sym) not in self.transitions:
                    raise ProgramError(
                        f"{self.name}: state {st!r} has no rule for symbol {sym!r}"
                    )
        object.__setattr__(self, "_rows", _build_rows(self))


# The halt state's number in a built program; the other states are 0, 1, ...
_HALT = -1


def _build_rows(p: TMProgram) -> tuple:
    """The form ``TMMap`` runs: ``(rows, start)``.

    States are numbered in the order they first appear, the start state
    first, and the halt state is ``_HALT``.  A tape cell holds the ASCII
    code of its symbol, and row ``q`` maps the code of each symbol to the
    rule for ``(q, symbol)``: ``(next state, written code, move)``, the
    move being -1, 0 or 1.
    """
    number = {p.halt: _HALT}
    for st in (p.start, *(st for st, _ in p.transitions)):
        number.setdefault(st, len(number) - 1)
    rows = []
    for st in number:
        if st == p.halt:
            continue
        row = [None] * (_BLANK + 1)
        for sym in _SYMBOLS:
            nst, wsym, mv = p.transitions[(st, sym)]
            row[ord(sym)] = (number[nst], ord(wsym), _MOVES[mv])
        rows.append(tuple(row))
    return tuple(rows), number[p.start]


def _read(text: str, name: str, keywords: dict, line, build):
    """``build(*values)``, the values the text declares in the order of
    ``keywords``.

    Skips blank lines and ``#`` comments.  A line ``keyword value``
    declares ``keywords[keyword](value)``, once for each keyword.  Every
    other line goes to ``line(lineno, text)``, which raises
    ``ValueError`` for a line it cannot read and returns the key of the
    rule or instruction it read.  A ``_Fault`` ``build`` raises at such a
    key, or at a keyword, is reported at that line.
    """
    found: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        try:
            if parts[0] in keywords and len(parts) == 2:
                if parts[0] in found:
                    raise ProgramError(f"{name}: line {lineno}: second {parts[0]} declaration")
                found[parts[0]] = keywords[parts[0]](parts[1])
                lines[parts[0]] = lineno
            else:
                lines[line(lineno, body)] = lineno
        except ProgramError:
            raise
        except ValueError:
            raise ProgramError(f"{name}: line {lineno}: cannot parse {raw.strip()!r}") from None
    missing = [k for k in keywords if k not in found]
    if missing:
        raise ProgramError(f"{name}: missing declaration of {', '.join(missing)}")
    try:
        return build(*(found[k] for k in keywords))
    except _Fault as fault:
        raise ProgramError(f"{name}: line {lines[fault.at]}: {fault.what}") from None


def parse_tm(text: str, name: str = "tm") -> TMProgram:
    transitions = {}

    def rule(lineno: int, body: str):
        st, sym, nst, wsym, mv = body.split()
        if (st, sym) in transitions:
            raise ProgramError(f"{name}: line {lineno}: duplicate rule for ({st}, {sym})")
        transitions[(st, sym)] = (nst, wsym, mv)
        return st, sym

    keywords = {"start": str, "halt": str}
    return _read(text, name, keywords, rule, lambda *decl: TMProgram(name, *decl, transitions))


def render_tm(p: TMProgram) -> str:
    lines = [f"start {p.start}", f"halt {p.halt}"]
    for (st, sym), (nst, wsym, mv) in sorted(p.transitions.items()):
        lines.append(f"{st} {sym} {nst} {wsym} {mv}")
    return "\n".join(lines) + "\n"


def _widen(tape: bytearray, n: int, left: bool) -> None:
    """Doubles the ``n`` cells of ``tape`` with blanks at its left or
    right end."""
    if left:
        tape[:0] = _BLANKS * n
    else:
        tape.extend(_BLANKS * n)


@dataclass(frozen=True)
class TMMap(PartialMap):
    program: TMProgram

    def _run(self, x: str, fuel: Fuel):
        rows, state = self.program._rows
        # the input and one blank; the tape doubles when the head leaves it
        tape = bytearray(x + BLANK, "ascii")
        n = len(tape)
        head = 0
        left = fuel.left
        while state != _HALT:
            left -= 1
            if left < 0:
                fuel.left = -1
                return FUEL_EXHAUSTED
            sym = tape[head]
            state, wsym, mv = rows[state][sym]
            tape[head] = wsym
            head += mv
            if head < 0:
                _widen(tape, n, True)
                head += n
                n += n
            elif head == n:
                _widen(tape, n, False)
                n += n
        fuel.left = left
        if tape[head] == _BLANK:
            return ""
        lo = tape.rfind(_BLANK, 0, head) + 1
        hi = tape.find(_BLANK, head)
        return tape[lo : hi if hi >= 0 else n].decode()


def tm_map(p: TMProgram, name: Optional[str] = None) -> PartialMap:
    return TMMap(name or p.name, Domain.BITS, p)


def run_tm(p: TMProgram, bits: str, fuel: int) -> Outcome:
    return apply(tm_map(p), bits, fuel)


def tm_identity() -> TMProgram:
    """Halts immediately, leaving the tape as found."""
    return TMProgram("tm-ident", "done", "done", {})


def tm_erase_all() -> TMProgram:
    """Blanks the input block, then halts on a blank cell."""
    rules = {
        ("wipe", "0"): ("wipe", BLANK, "R"),
        ("wipe", "1"): ("wipe", BLANK, "R"),
        ("wipe", BLANK): ("done", BLANK, "S"),
    }
    return TMProgram("tm-erase", "wipe", "done", rules)


def tm_binary_successor() -> TMProgram:
    """Successor on the bijective bit coding of the naturals.

    Walks right to the end of the block, then carries left: a trailing
    run of ones turns to zeros and the first zero becomes one.  Carrying
    off the left end writes a fresh zero, which is exactly the length
    bump the bijective coding needs (e.g. "11" -> "000").
    """
    rules = {
        ("scan", "0"): ("scan", "0", "R"),
        ("scan", "1"): ("scan", "1", "R"),
        ("scan", BLANK): ("carry", BLANK, "L"),
        ("carry", "1"): ("carry", "0", "L"),
        ("carry", "0"): ("done", "1", "S"),
        ("carry", BLANK): ("done", "0", "S"),
    }
    return TMProgram("tm-succ", "scan", "done", rules)


TM_LIBRARY = {
    "identity": tm_identity,
    "erase": tm_erase_all,
    "binary-successor": tm_binary_successor,
}


def tm_witness_models() -> tuple[Model, Model]:
    """A machine model and the term model it simulates through the bit
    coding: successor, constant zero and identity on each side."""
    machine_side = Model(
        "tm-basics",
        Domain.BITS,
        (
            tm_map(tm_binary_successor()),
            tm_map(tm_erase_all()),
            tm_map(tm_identity()),
        ),
    )
    term_side = Model(
        "rec-basics",
        Domain.NAT,
        (term_map(S(), "succ"), term_map(Z(), "zero"), term_map(Id(), "ident")),
    )
    return machine_side, term_side


# --------------------------------------------------------------------------
# Bit-string coding of the naturals


def _nat_to_bits(n: int) -> str:
    return bin(n + 1)[3:]


def _bits_to_nat(b: str) -> int:
    return int("1" + b, 2) - 1


def nat_to_bits(n: int) -> str:
    """Bijective coding: 0 -> "", then drop the leading 1 of bin(n + 1)."""
    Domain.NAT.check(n, "nat_to_bits")
    return _nat_to_bits(n)


def bits_to_nat(b: str) -> int:
    Domain.BITS.check(b, "bits_to_nat")
    return _bits_to_nat(b)


def BitsEncoding() -> Encoding:
    """The bijection from naturals to bit strings.  ``Encoding`` checks
    the domain of each value, so it is built on the unchecked conversions."""
    return bijection("bits", "bits-inv", Domain.NAT, Domain.BITS, _nat_to_bits, _bits_to_nat)


# --------------------------------------------------------------------------
# Counter machines


# Operand kinds by instruction: a register is below ``n_registers``, a
# jump target at most the number of instructions (that index halts).
_CM_OPS = {"inc": ("reg",), "decjz": ("reg", "target"), "jump": ("target",), "halt": ()}


def _operands(ins: tuple):
    """(kind, value) for each operand of ``ins``."""
    return zip(_CM_OPS[ins[0]], ins[1:])


@dataclass(frozen=True, eq=False)
class CMProgram:
    name: str
    n_registers: int
    input_reg: int
    output_reg: int
    instructions: tuple  # (op, *operands), operands as _CM_OPS[op] lists them

    def __post_init__(self):
        bound = {"reg": self.n_registers, "target": len(self.instructions) + 1}
        for at, r in (("input", self.input_reg), ("output", self.output_reg)):
            if not 0 <= r < self.n_registers:
                raise _Fault(self.name, f"register {r} out of range", at)
        for ix, ins in enumerate(self.instructions):
            kinds = _CM_OPS.get(ins[0])
            ok = kinds is not None and len(ins) == len(kinds) + 1
            if not (ok and all(0 <= v < bound[k] for k, v in _operands(ins))):
                raise _Fault(self.name, f"bad instruction {ins!r}", ix, f" at {ix}")
        object.__setattr__(self, "_code", _build_code(self))


def _build_code(p: CMProgram) -> tuple:
    """The form ``CMMap`` runs: ``(code, slots, input slot, output slot)``.

    Registers are renumbered densely over those the program names, so a
    run allocates one slot for each of them and none for the rest of
    ``n_registers``.  Each counting loop ``L: decjz r D; inc a1; ...;
    inc ak; jump L; D:`` with no ``ai`` equal to ``r`` becomes one
    ``("loop", r, (a1, ..., ak), D, k + 2)`` at ``L``, which does all the
    iterations at once; every other index keeps its plain instruction,
    so a jump into the body still runs it step by step.
    """
    instrs = p.instructions
    named = {p.input_reg, p.output_reg}
    named.update(v for ins in instrs for k, v in _operands(ins) if k == "reg")
    slot = {r: i for i, r in enumerate(sorted(named))}
    code = []
    for ix, ins in enumerate(instrs):
        op = ins[0]
        if op == "inc":
            code.append(("inc", slot[ins[1]]))
        elif op == "decjz":
            r, done = ins[1], ins[2]
            body = instrs[ix + 1 : done - 1]
            if (
                done >= ix + 2
                and instrs[done - 1] == ("jump", ix)
                and all(b[0] == "inc" and b[1] != r for b in body)
            ):
                incs = tuple(slot[b[1]] for b in body)
                code.append(("loop", slot[r], incs, done, len(incs) + 2))
            else:
                code.append(("decjz", slot[r], done))
        else:
            code.append(ins)
    return tuple(code), len(slot), slot[p.input_reg], slot[p.output_reg]


def parse_cm(text: str, name: str = "cm") -> CMProgram:
    instrs: list = []
    labels: dict = {}

    def instruction(lineno: int, body: str):
        while ":" in body.split()[0]:
            lbl, body = (part.strip() for part in body.split(":", 1))
            if not lbl or lbl.isdecimal():
                raise ProgramError(f"{name}: line {lineno}: label {lbl!r} is empty or all digits")
            if lbl in labels:
                raise ProgramError(f"{name}: line {lineno}: duplicate label {lbl!r}")
            labels[lbl] = len(instrs)
            if not body:
                return
        op, *args = body.split()
        kinds = _CM_OPS.get(op)
        if kinds is None or len(args) != len(kinds):
            raise ValueError(op)
        instrs.append((op, *(int(a) if k == "reg" else a for k, a in zip(kinds, args))))
        return len(instrs) - 1

    keywords = {"registers": int, "input": int, "output": int}
    return _read(
        text, name, keywords, instruction,
        lambda *decl: CMProgram(name, *decl, _link(instrs, labels, name)),
    )


def _link(instrs: list, labels: dict, name: str) -> tuple:
    """``instrs`` with every jump target, a label or an instruction
    index in digits, resolved to the index of the instruction it names."""

    def resolve(t: str, ix: int) -> int:
        if t.isdecimal():
            return int(t)
        if t not in labels:
            raise _Fault(name, f"unknown label {t!r}", ix, f" at {ix}")
        return labels[t]

    return tuple(
        (ins[0], *(resolve(v, ix) if k == "target" else v for k, v in _operands(ins)))
        for ix, ins in enumerate(instrs)
    )


def render_cm(p: CMProgram) -> str:
    targets = sorted(
        {v for ins in p.instructions for k, v in _operands(ins) if k == "target"}
    )
    label = {t: f"L{i}" for i, t in enumerate(targets)}
    lines = [
        f"# {p.name}",
        f"registers {p.n_registers}",
        f"input {p.input_reg}",
        f"output {p.output_reg}",
    ]
    for ix, ins in enumerate(p.instructions):
        prefix = f"{label[ix]}:" if ix in label else ""
        operands = (label[v] if k == "target" else str(v) for k, v in _operands(ins))
        lines.append(f"{prefix:8s}{' '.join((ins[0], *operands))}")
    if len(p.instructions) in label:
        lines.append(f"{label[len(p.instructions)]}:")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CMMap(PartialMap):
    program: CMProgram

    def _run(self, x: int, fuel: Fuel):
        code, slots, input_slot, output_slot = self.program._code
        regs = [0] * slots
        regs[input_slot] = x
        size = len(code)
        left = fuel.left
        pc = 0
        while pc < size:
            left -= 1
            if left < 0:
                fuel.left = -1
                return FUEL_EXHAUSTED
            ins = code[pc]
            op = ins[0]
            if op == "loop":
                r = ins[1]
                v = regs[r]
                if v:
                    # the other (k + 2) * v steps of the loop's iterations
                    left -= ins[4] * v
                    if left < 0:
                        fuel.left = -1
                        return FUEL_EXHAUSTED
                    for a in ins[2]:
                        regs[a] += v
                    regs[r] = 0
                pc = ins[3]
            elif op == "inc":
                regs[ins[1]] += 1
                pc += 1
            elif op == "decjz":
                r = ins[1]
                if regs[r] == 0:
                    pc = ins[2]
                else:
                    regs[r] -= 1
                    pc += 1
            elif op == "jump":
                pc = ins[1]
            else:
                break
        fuel.left = left
        return regs[output_slot]


def cm_map(p: CMProgram, name: Optional[str] = None) -> PartialMap:
    return CMMap(name or p.name, Domain.NAT, p)


def run_cm(p: CMProgram, n: int, fuel: int) -> Outcome:
    return apply(cm_map(p), n, fuel)


# --------------------------------------------------------------------------
# Compiling recursion terms to counter machines


# Compiled programs grow with the values of constants, not with the
# length of the term's text: (K k) is k increments.  The largest program
# compiled from the standard suite, floor-sqrt, has 272 instructions.
MAX_COMPILED_INSTRUCTIONS = 10**5
_TOO_LARGE = f"program too large: more than {MAX_COMPILED_INSTRUCTIONS} instructions"


class _Gen:
    """Instructions as ``parse_cm`` reads them, before ``_link``: jump
    targets are labels, each placed at the index of the instruction that
    follows it."""

    def __init__(self):
        self.ops: list = []
        self.labels: dict = {}
        self.n_regs = 0
        self.n_labels = 0

    def reg(self) -> int:
        self.n_regs += 1
        return self.n_regs - 1

    def label(self) -> str:
        self.n_labels += 1
        return f"L{self.n_labels - 1}"

    def emit(self, *ins):
        if len(self.ops) >= MAX_COMPILED_INSTRUCTIONS:
            raise CompileError(_TOO_LARGE)
        self.ops.append(ins)

    def place(self, lbl: str):
        self.labels[lbl] = len(self.ops)

    def loop(self, r: int, *incs: int):
        """The counting loop ``_build_code`` fuses: adds r to each of
        ``incs`` and zeroes r."""
        again, done = self.label(), self.label()
        self.place(again)
        self.emit("decjz", r, done)
        for a in incs:
            self.emit("inc", a)
        self.emit("jump", again)
        self.place(done)

    def clear(self, r: int):
        self.loop(r)

    def move(self, src: int, dst: int):
        """dst = src, zeroing src."""
        self.clear(dst)
        self.loop(src, dst)

    def copy(self, src: int, dst: int):
        """dst = src, preserving src, through a scratch register of its
        own that every copy leaves at zero."""
        if src != dst:
            scratch = self.reg()
            self.clear(dst)
            self.loop(src, dst, scratch)
            self.loop(scratch, src)


def _emit(t: Term, args: list, out: int, gen: _Gen):
    """Code computing t(args) into register ``out``.

    Argument registers other than ``out`` are preserved.  Every case
    writes ``out`` only after its last read of ``args``, so ``out`` may be
    any register that is dead afterwards, an argument among them.  Every
    path clears its destinations before use, so the same block is safe to
    re-enter inside loops; the one exception is ``Mu``'s index, a fresh
    register that its block's only exit, ``move``, leaves at zero.

    ACK on a literal row k, ``(K k)`` or ``Z``, is ``ack_row_term(k)``
    on its second argument.  Row k holds row k-1 twice, so at least 2**k
    instructions: a row past the cap is refused before it is built.
    Inner terms come first, so of two faults the inner one is reported.
    """
    tt = type(t)
    if tt is Comp and type(t.f) is Ack:
        row = t.gs[0]
        if type(row) is not ConstK and type(row) is not Z:
            raise CompileError(
                "unsupported construct: ACK needs a literal constant first "
                f"argument to compile, got {to_text(row)}"
            )
        k = row.k if type(row) is ConstK else 0
        if k >= MAX_COMPILED_INSTRUCTIONS.bit_length():  # 2**k > the cap
            raise CompileError(_TOO_LARGE)
        _emit(Comp(ack_row_term(k), t.gs[1:]), args, out, gen)
    elif tt is Ack:
        raise CompileError("unsupported construct: bare ACK cannot compile")
    elif tt is Z:
        gen.clear(out)
    elif tt is S:
        gen.copy(args[0], out)
        gen.emit("inc", out)
    elif tt is Id:
        gen.copy(args[0], out)
    elif tt is ConstK:
        gen.clear(out)
        for _ in range(t.k):
            gen.emit("inc", out)
    elif tt is Proj:
        gen.copy(args[t.i - 1], out)
    elif tt is Comp:
        if len(t.gs) == 1:
            # the inner term's value is dead once the outer term has read it
            vals = [out]
        else:
            vals = [gen.reg() for _ in t.gs]
        for g, v in zip(t.gs, vals):
            _emit(g, args, v, gen)
        _emit(t.f, vals, out, gen)
    elif tt is PrimRec:
        xs = args[:-1]
        acc = gen.reg()
        count = gen.reg()
        ctr = gen.reg()
        _emit(t.base, xs, acc, gen)
        gen.copy(args[-1], count)
        gen.clear(ctr)
        loop = gen.label()
        done = gen.label()
        gen.place(loop)
        gen.emit("decjz", count, done)
        # the step writes the next accumulator over the one it reads
        _emit(t.step, xs + [acc, ctr], acc, gen)
        gen.emit("inc", ctr)
        gen.emit("jump", loop)
        gen.place(done)
        gen.move(acc, out)
    elif tt is Mu:
        idx = gen.reg()  # fresh, so zero at the first entry
        val = gen.reg()
        loop = gen.label()
        found = gen.label()
        gen.place(loop)
        _emit(t.body, args + [idx], val, gen)
        gen.emit("decjz", val, found)
        gen.emit("inc", idx)
        gen.emit("jump", loop)
        gen.place(found)
        gen.move(idx, out)
    else:
        raise CompileError(f"unsupported construct: {to_text(t)}")


def compile_rec_to_cm(t: Term, name: Optional[str] = None) -> CMProgram:
    """Translate a unary recursion term to a counter machine computing
    the same partial map.  ACK compiles only when applied to a small
    enough literal row (see ``_emit``); everything else is compositional."""
    if t.arity() != 1:
        raise CompileError(f"term must be unary to compile, {to_text(t)} takes {t.arity()}")
    gen = _Gen()
    arg = gen.reg()
    out = gen.reg()
    _emit(t, [arg], out, gen)
    gen.emit("halt")
    name = name or f"cm[{to_text(t)}]"
    return CMProgram(name, max(gen.n_regs, 1), arg, out, _link(gen.ops, gen.labels, name))
