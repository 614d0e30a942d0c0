"""Recursion-term language: grammar, parser, evaluator, classifier.

Wire grammar (s-expressions, ``;`` starts a comment to end of line)::

    t ::= Z | S | I | ACK
        | (K k)            constant k, unary
        | (P i k)          i-th of k arguments, 1-based
        | (C f g1 ... gk)  composition f(g1(args), ..., gk(args))
        | (R base step)    primitive recursion on the last argument
        | (M f)            unbounded search on the last argument

Conventions.  Every term has arity at least 1.  ``Z`` and ``S`` are
unary zero and successor, ``I`` is the unary identity.  ``(R base step)``
has arity ``arity(base) + 1`` and recurses on its last argument: the
value at 0 is ``base(xs)``, and the value at y+1 is
``step(xs, previous, y)``, so ``step`` sees the leading arguments, then
the accumulated value, then the counter.  ``(M f)`` has arity
``arity(f) - 1`` and returns the least final argument making ``f`` zero,
provided every earlier probe converged to something nonzero.  ``ACK``
is the two-argument Ackermann-Peter function as a builtin.

Evaluation is fuel-bounded: one unit per term node visited, one per
search probe, one per builtin expansion step.  Each term is compiled
once into nested closures, which charge these units in bulk rather than
node by node: a term's static cost on entry, and a loop body's static
cost at each loop head.  A charge only ever covers nodes a converging
run certainly visits, so the total is the node-by-node count and a
budget never changes an outcome, only whether it is reached.  Within a
budget the evaluator either converges or runs out of fuel; it never
certifies divergence, because an unbounded search that keeps failing
looks the same as one that is about to succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from powerlab.core import (
    FUEL_EXHAUSTED,
    Domain,
    Fuel,
    Outcome,
    PartialMap,
    _OutOfFuel,
    _box,
)


class ParseError(ValueError):
    """Syntax error, carrying the character position it was noticed at."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(ValueError):
    """A term was built or applied with the wrong number of arguments."""


@dataclass(frozen=True)
class Term:
    def arity(self) -> int:
        raise NotImplementedError

    def __str__(self) -> str:
        return to_text(self)

    def __getstate__(self):
        # the compiled closures cached by evaluation cannot be pickled
        return {k: v for k, v in self.__dict__.items() if k != "_code"}


@dataclass(frozen=True)
class Z(Term):
    def arity(self) -> int:
        return 1


@dataclass(frozen=True)
class S(Term):
    def arity(self) -> int:
        return 1


@dataclass(frozen=True)
class Id(Term):
    def arity(self) -> int:
        return 1


@dataclass(frozen=True)
class Ack(Term):
    def arity(self) -> int:
        return 2


@dataclass(frozen=True)
class ConstK(Term):
    k: int

    def __post_init__(self):
        if type(self.k) is not int or self.k < 0:
            raise ArityError(f"constant must be a natural number, got {self.k!r}")

    def arity(self) -> int:
        return 1


@dataclass(frozen=True)
class Proj(Term):
    i: int
    k: int

    def __post_init__(self):
        if not (1 <= self.i <= self.k):
            raise ArityError(f"projection index out of range in (P {self.i} {self.k})")

    def arity(self) -> int:
        return self.k


@dataclass(frozen=True)
class Comp(Term):
    f: Term
    gs: tuple

    def __post_init__(self):
        if len(self.gs) == 0:
            raise ArityError(f"composition needs at least one inner term in {to_text(self)}")
        if self.f.arity() != len(self.gs):
            raise ArityError(
                f"arity mismatch in {to_text(self)}: outer term takes "
                f"{self.f.arity()} arguments but {len(self.gs)} were supplied"
            )
        want = self.gs[0].arity()
        for g in self.gs:
            if g.arity() != want:
                raise ArityError(
                    f"arity mismatch in {to_text(self)}: inner term {to_text(g)} "
                    f"takes {g.arity()} arguments, expected {want}"
                )

    def arity(self) -> int:
        return self.gs[0].arity()


@dataclass(frozen=True)
class PrimRec(Term):
    base: Term
    step: Term

    def __post_init__(self):
        if self.step.arity() != self.base.arity() + 2:
            raise ArityError(
                f"arity mismatch in {to_text(self)}: step must take "
                f"{self.base.arity() + 2} arguments, takes {self.step.arity()}"
            )

    def arity(self) -> int:
        return self.base.arity() + 1


@dataclass(frozen=True)
class Mu(Term):
    body: Term

    def __post_init__(self):
        if self.body.arity() < 2:
            raise ArityError(
                f"arity mismatch in {to_text(self)}: search body needs at least "
                f"2 arguments, takes {self.body.arity()}"
            )

    def arity(self) -> int:
        return self.body.arity() - 1


def to_text(t: Term) -> str:
    """Canonical textual form; ``parse_term`` inverts it."""
    tt = type(t)
    if tt is Z:
        return "Z"
    if tt is S:
        return "S"
    if tt is Id:
        return "I"
    if tt is Ack:
        return "ACK"
    if tt is ConstK:
        return f"(K {t.k})"
    if tt is Proj:
        return f"(P {t.i} {t.k})"
    if tt is Comp:
        inner = " ".join(to_text(g) for g in t.gs)
        return f"(C {to_text(t.f)} {inner})"
    if tt is PrimRec:
        return f"(R {to_text(t.base)} {to_text(t.step)})"
    if tt is Mu:
        return f"(M {to_text(t.body)})"
    raise TypeError(f"not a term: {t!r}")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            out.append((c, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append((text[i:j], i))
            i = j
    return out


def parse_term(text: str) -> Term:
    """Parse the wire grammar.  Raises ParseError with a position on bad
    syntax and ArityError naming the offending subterm on arity trouble."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty input", 0)
    term, ix = _parse_at(toks, 0)
    if ix != len(toks):
        raise ParseError(f"unexpected trailing input {toks[ix][0]!r}", toks[ix][1])
    return term


_ATOMS = {"Z": Z, "S": S, "I": Id, "ACK": Ack}


def _parse_at(toks, ix) -> tuple[Term, int]:
    tok, pos = toks[ix]
    if tok in _ATOMS:
        return _ATOMS[tok](), ix + 1
    if tok != "(":
        raise ParseError(f"expected a term, got {tok!r}", pos)
    ix += 1
    if ix == len(toks):
        raise ParseError("unclosed parenthesis", pos)
    head, hpos = toks[ix]
    ix += 1
    if head == "K":
        n, ix = _parse_int(toks, ix)
        term = ConstK(n)
    elif head == "P":
        i, ix = _parse_int(toks, ix)
        k, ix = _parse_int(toks, ix)
        term = Proj(i, k)
    elif head == "C":
        f, ix = _parse_at(toks, ix)
        gs = []
        while ix < len(toks) and toks[ix][0] != ")":
            g, ix = _parse_at(toks, ix)
            gs.append(g)
        if ix == len(toks):
            raise ParseError("expected ')'", len(toks[-1][0]) + toks[-1][1])
        term = Comp(f, tuple(gs))
    elif head == "R":
        base, ix = _parse_at(toks, ix)
        step, ix = _parse_at(toks, ix)
        term = PrimRec(base, step)
    elif head == "M":
        body, ix = _parse_at(toks, ix)
        term = Mu(body)
    else:
        raise ParseError(f"unknown form {head!r}", hpos)
    if ix == len(toks) or toks[ix][0] != ")":
        where = toks[ix][1] if ix < len(toks) else len(toks[-1][0]) + toks[-1][1]
        raise ParseError("expected ')'", where)
    return term, ix + 1


def _parse_int(toks, ix) -> tuple[int, int]:
    if ix == len(toks):
        raise ParseError("expected a number", toks[-1][1])
    tok, pos = toks[ix]
    if not tok.isdigit():
        raise ParseError(f"expected a number, got {tok!r}", pos)
    return int(tok), ix + 1


class TermClass(Enum):
    PRIM = "prim"
    GENERAL = "general"


def _subterms(t: Term) -> tuple:
    tt = type(t)
    if tt is Comp:
        return (t.f, *t.gs)
    if tt is PrimRec:
        return (t.base, t.step)
    if tt is Mu:
        return (t.body,)
    return ()


def classify(t: Term) -> TermClass:
    """PRIM iff the term uses neither unbounded search nor ACK."""
    stack = [t]
    while stack:
        cur = stack.pop()
        if type(cur) in (Mu, Ack):
            return TermClass.GENERAL
        stack.extend(_subterms(cur))
    return TermClass.PRIM


# ---------------------------------------------------------------------------
# Evaluation.  A term is compiled once, on first use, into nested closures
# (Feeley and Lapalme, "Using closures for code generation", 1987) and the
# result is cached on the term object.  A compiled term is a triple
# ``(cost, run, reads)``:
#
# - ``cost`` is the term's static cost: one unit for its own node plus the
#   static cost of every subterm an evaluation of it always enters, which
#   is every inner and outer term of a composition and the base of a
#   recursion.  Loop bodies are not included.
# - ``run(args, fuel)`` evaluates on a tuple of arguments.  The caller has
#   already paid ``cost``, so only loop heads charge: a recursion pays
#   ``y`` times its step's static cost before its ``y`` iterations, a
#   search pays one unit plus its body's static cost per probe, and ACK
#   pays one unit per rewrite.  Leaves and compositions do no fuel work.
# - ``reads`` is the set of argument positions the term depends on when it
#   is loop-free, else None.  A loop-free term costs exactly its static
#   cost and cannot fail, so a recursion whose loop-free step ignores the
#   accumulator (``pred``, for one) pays for every iteration but computes
#   only the last.
#
# Every charge is for nodes that a node-by-node evaluation certainly
# visits if it converges, so a run spends the same total as that count and
# exhausts exactly when the total exceeds the budget.


def _code(t: Term) -> tuple:
    """``(cost, run, reads)`` for ``t``.  Compiles on first use, subterms
    first and without recursion, so deep terms compile, and caches the
    result on every term compiled."""
    try:
        return t._code
    except AttributeError:
        pass
    stack = [t]
    while stack:
        cur = stack[-1]
        todo = [s for s in _subterms(cur) if "_code" not in s.__dict__]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if "_code" not in cur.__dict__:
            object.__setattr__(cur, "_code", _compile(cur))
    return t._code


def _zero(a, fuel):
    return 0


def _compile(t: Term) -> tuple:
    tt = type(t)
    if tt is Comp:
        return _compile_comp(t)
    if tt is PrimRec:
        return _compile_rec(t)
    if tt is Mu:
        return _compile_mu(t)
    if tt is S:
        return 1, lambda a, fuel: a[0] + 1, frozenset((0,))
    if tt is Proj or tt is Id:
        i = t.i - 1 if tt is Proj else 0
        return 1, lambda a, fuel: a[i], frozenset((i,))
    if tt is Z:
        return 1, _zero, frozenset()
    if tt is ConstK:
        k = t.k
        return 1, lambda a, fuel: k, frozenset()
    if tt is Ack:
        return 1, lambda a, fuel: _ack_expand(a[0], a[1], fuel), None
    raise TypeError(f"not a term: {t!r}")


def _compile_comp(t: Comp) -> tuple:
    fcost, f, freads = _code(t.f)
    codes = [_code(g) for g in t.gs]
    cost = 1 + fcost + sum(c[0] for c in codes)
    reads = None
    if freads is not None and all(c[2] is not None for c in codes):
        reads = frozenset().union(*(codes[j][2] for j in freads))
    gs = [g for _, g, _ in codes]

    def run(a, fuel):
        # a loop, not a comprehension: one Python frame per nesting level
        vals = []
        for g in gs:
            vals.append(g(a, fuel))
        return f(tuple(vals), fuel)

    return cost, run, reads


def _compile_rec(t: PrimRec) -> tuple:
    bcost, base, _ = _code(t.base)
    scost, step, sreads = _code(t.step)
    # a loop-free step that ignores the accumulator only needs its last
    # iteration computed
    last_only = sreads is not None and t.base.arity() not in sreads

    def run(a, fuel):
        xs = a[:-1]
        y = a[-1]
        acc = base(xs, fuel)
        if y:
            fuel.charge(y * scost)
            for c in range(y - 1 if last_only else 0, y):
                acc = step(xs + (acc, c), fuel)
        return acc

    return 1 + bcost, run, None


def _compile_mu(t: Mu) -> tuple:
    bcost, body, _ = _code(t.body)
    probe_cost = 1 + bcost

    def run(a, fuel):
        i = 0
        while True:
            fuel.charge(probe_cost)
            if body(a + (i,), fuel) == 0:
                return i
            i += 1

    return 1, run, None


def _ack_expand(m: int, n: int, fuel: Fuel) -> int:
    """Ackermann-Peter by literal expansion, one fuel unit per rewrite."""
    left = fuel.left
    stack = [m]
    while stack:
        left -= 1
        if left < 0:
            fuel.left = left
            raise _OutOfFuel
        m = stack.pop()
        if m == 0:
            n += 1
        elif n == 0:
            stack.append(m - 1)
            n = 1
        else:
            stack.append(m - 1)
            stack.append(m)
            n -= 1
    fuel.left = left
    return n


def _evaluate(t: Term, args: tuple, fuel: Fuel):
    """The raw result (see ``core._box``) of ``t`` on ``args``."""
    cost, run, _ = _code(t)
    try:
        fuel.charge(cost)
        return run(args, fuel)
    except _OutOfFuel:
        return FUEL_EXHAUSTED


def eval_term(t: Term, args, fuel: int) -> Outcome:
    """Evaluate a term on natural-number arguments under a fuel budget."""
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    if len(args) != t.arity():
        raise ArityError(
            f"{to_text(t)} takes {t.arity()} arguments, got {len(args)}"
        )
    for a in args:
        if not Domain.NAT.contains(a):
            Domain.NAT.check(a, to_text(t))
    return _box(_evaluate(t, tuple(args), Fuel(fuel)))


def compose_unary(t1: Term, t2: Term) -> Term:
    """The unary term computing t1 after t2."""
    if t1.arity() != 1 or t2.arity() != 1:
        raise ArityError("compose_unary needs two unary terms")
    return Comp(t1, (t2,))


def ackermann(m: int, n: int, max_m: int = 3, max_n: int = 10) -> int:
    """Ackermann-Peter value via memoised descent through the three
    defining equations.  Desk-scale bounds guard against runaway growth;
    widen them explicitly if you mean it."""
    for v in (m, n):
        Domain.NAT.check(v, "ackermann")
    if m > max_m or n > max_n:
        raise ValueError(
            f"ack bound exceeded: ackermann({m},{n}) with bounds m<={max_m}, n<={max_n}"
        )
    memo: dict = {}
    stack = [(m, n)]
    while stack:
        mm, nn = stack[-1]
        if (mm, nn) in memo:
            stack.pop()
            continue
        if mm == 0:
            memo[(mm, nn)] = nn + 1
            stack.pop()
        elif nn == 0:
            if (mm - 1, 1) in memo:
                memo[(mm, nn)] = memo[(mm - 1, 1)]
                stack.pop()
            else:
                stack.append((mm - 1, 1))
        elif (mm, nn - 1) not in memo:
            stack.append((mm, nn - 1))
        else:
            inner = memo[(mm, nn - 1)]
            if (mm - 1, inner) in memo:
                memo[(mm, nn)] = memo[(mm - 1, inner)]
                stack.pop()
            else:
                stack.append((mm - 1, inner))
    return memo[(m, n)]


@dataclass(frozen=True)
class TermMap(PartialMap):
    """A unary term packaged as a partial map over the naturals."""

    term: Term

    def _run(self, x, fuel: Fuel):
        return _evaluate(self.term, (x,), fuel)


def term_map(t: Term, name: Optional[str] = None) -> PartialMap:
    if t.arity() != 1:
        raise ArityError(f"only unary terms become maps, {to_text(t)} takes {t.arity()}")
    return TermMap(name or to_text(t), Domain.NAT, t)
