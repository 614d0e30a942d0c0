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
node by node: a term's static cost on entry, a loop body's static cost
at each loop head, and the rest of a loop's exact total at once where
the loop has a closed form.  A recursion has one when its step moves the
accumulator as ``max(acc + d, 0)`` or ignores it, at a fuel affine in
it, and ignores the counter (``add``, ``mult``, ``monus``, the Ackermann
rows as terms), or ignores the accumulator and moves with the counter
the same way (``pred``); ``ACK``'s rows 0-2 are closed forms too.  Such
a loop runs in O(1) steps.  A charge is only ever part of the
node-by-node total of a converging run, so the total is the node-by-node
count, a total above the budget exhausts at once, and a budget never
changes an outcome, only whether it is reached.  Within a budget the
evaluator either converges or runs out of fuel; it never certifies
divergence, because an unbounded search that keeps failing looks the
same as one that is about to succeed.
"""

from __future__ import annotations

import re
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


# a parenthesis, an atom running to the next space, parenthesis or ``;``,
# or a comment running to the end of its line
_TOKEN = re.compile(r"[()]|[^\s();]+|;[^\n]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    return [(m[0], m.start()) for m in _TOKEN.finditer(text) if m[0][0] != ";"]


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


def _end(toks) -> int:
    """The position just past the last token."""
    return len(toks[-1][0]) + toks[-1][1]


def _parse_at(toks, ix) -> tuple[Term, int]:
    if ix == len(toks):
        raise ParseError("expected a term", _end(toks))
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
            raise ParseError("expected ')'", _end(toks))
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
        where = toks[ix][1] if ix < len(toks) else _end(toks)
        raise ParseError("expected ')'", where)
    return term, ix + 1


def _parse_int(toks, ix) -> tuple[int, int]:
    if ix == len(toks):
        raise ParseError("expected a number", _end(toks))
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
# result is cached on the term object.  A compiled term is a tuple
# ``(cost, run, deps, at)``:
#
# - ``cost`` is the term's static cost: one unit for its own node plus the
#   static cost of every subterm an evaluation of it always enters, which
#   is every inner and outer term of a composition and the base of a
#   recursion.  Loop bodies are not included.
# - ``run(args, fuel)`` evaluates on a tuple of arguments.  The caller has
#   already paid ``cost``, so only loop heads charge: a recursion pays
#   ``y`` times its step's static cost before its ``y`` iterations, a
#   search pays one unit plus its body's static cost per probe, and ACK
#   pays for its rewrites.  Leaves and compositions do no fuel work.
# - ``deps`` is the set of argument positions that the value or the fuel
#   of ``run`` can depend on; changing any other argument changes
#   neither.
# - ``at`` maps some positions p in ``deps`` to the term's summary at p, a
#   function called like ``run`` that returns the value and a family.  A
#   family ``(m, d, b1, b2, lo, hi)`` of integers (hi may be ``_INF``)
#   says: on every argument tuple that differs from this one only at p,
#   holding x there with lo <= x <= hi, the value is ``max(m*x + d, 0)``
#   and ``run`` charges ``u + b1*x + b2*C(x)``, where ``C(x)`` is
#   x(x-1)/2 and u is what this call charged less those two terms at its
#   own argument at p, which the range always holds; when m is 0, d is
#   this call's value.  A family of None says nothing more; the value is
#   still exact and fully paid.
#   ``_summary`` gives a summary at every position outside ``deps`` too.
#
# Summaries are built bottom-up from leaves, compositions in which the
# outer term reads at most one inner term that moves with p, and
# recursions, both at a leading argument the step ignores and at the
# recursion argument.  Where the outer term of a composition can see the
# inner term's truncation at 0, the range keeps to p's side of it.  A
# recursion's loop is closed-form when its step has a family of slope 0
# or 1 at the accumulator and ignores the counter, or has one at the
# counter and ignores the accumulator, and the iterations stay in its
# range: the loop runs one real iteration and charges the rest of the
# exact total at once, a quadratic summed over an arithmetic series
# (``_series``) that the accumulator follows until it reaches 0.  At the
# recursion argument such a loop has slope d when its accumulator moves
# by d: ``mult(k, y)`` has slope k and ``monus(a, y)`` slope -1, with
# fuel quadratic in y until the accumulator reaches 0.  Any other loop
# runs every iteration.
#
# A search reads its body's summary at the search argument from probe 1
# on; probe 0 runs no loop iteration, so it shows no family.  The later
# probes within the family's range, up to the root ceil(d / -m) when
# m < 0, are charged at once, a cubic sum, and the search returns the
# root if the range holds it; past the range the next probe runs for
# real.  A family with m >= 0 on an unbounded range proves that no probe
# will ever succeed, and the search spends the rest of its budget at
# once.
#
# Every other charge is part of the node-by-node total that a converging
# evaluation spends, so a run spends exactly that total and exhausts
# exactly when the total exceeds the budget, at once when one charge
# does.

_INF = float("inf")
_SUCC = (1, 1, 0, 0, 0, _INF)
_IDENTITY = (1, 0, 0, 0, 0, _INF)
_STILL = (0, 0, 0, 0, 0, _INF)  # no inner term moves the outer term's input


def _code(t: Term) -> tuple:
    """``(cost, run, deps, at)`` for ``t``.  Compiles on first use,
    subterms first and without recursion, so deep terms compile, and
    caches the result on every term compiled."""
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
        at = {0: lambda a, fuel: (a[0] + 1, _SUCC)}
        return 1, lambda a, fuel: a[0] + 1, frozenset((0,)), at
    if tt is Proj or tt is Id:
        i = t.i - 1 if tt is Proj else 0
        at = {i: lambda a, fuel: (a[i], _IDENTITY)}
        return 1, lambda a, fuel: a[i], frozenset((i,)), at
    if tt is Z:
        return 1, _zero, frozenset(), {}
    if tt is ConstK:
        k = t.k
        return 1, lambda a, fuel: k, frozenset(), {}
    if tt is Ack:
        return 1, lambda a, fuel: _ack_expand(a[0], a[1], fuel), frozenset((0, 1)), {}
    raise TypeError(f"not a term: {t!r}")


def _constant(run):
    """The summary of ``run`` at a position outside its ``deps``."""

    def at(a, fuel):
        v = run(a, fuel)
        return v, (0, v, 0, 0, 0, _INF)

    return at


def _summary(code: tuple, p: int):
    """The summary of a compiled term at position p, or None."""
    return code[3].get(p) if p in code[2] else _constant(code[1])


def _series(v: int, d: int, n: int, b1: int, b2: int) -> int:
    """The sum of ``b1*x + b2*C(x)`` over x = v, v + d, ..., n terms."""
    s1 = n * (n - 1) // 2
    total = b1 * (n * v + d * s1)
    if b2:
        s2 = (n - 1) * n * (2 * n - 1) // 6
        total += b2 * (n * (v * (v - 1) // 2) + v * d * s1 + (d * d * s2 - d * s1) // 2)
    return total


def _then(x: int, v, inner: tuple, outer: tuple) -> tuple:
    """The family at x of a composition with value v, from the family of
    the one inner term that moves, at p, and the outer term's family at
    the position that inner term feeds."""
    if inner is _IDENTITY:
        # the argument passed through (a family of m 0 has d = v)
        return outer
    m, d, b1, b2, lo, hi = inner
    if not m:
        return 0, v, b1, b2, lo, hi
    om, od, o1, o2, olo, ohi = outer
    if (m < 0 or d < 0 or olo or ohi < _INF) and (
        o1 or o2 or olo or ohi < _INF or om < 0 or om and od > 0
    ):
        # the outer term can see the inner term's truncation at 0, or
        # its range ends
        if m * x + d < 0:
            # x is where the inner term is 0, and it stays 0 up to the range's end
            if m > 0:
                return 0, v, b1, b2, lo, min(hi, -d // m)
            return 0, v, b1, b2, max(lo, -(d // m)), hi
        # keep the inner values m*x + d within the outer range
        if m > 0:
            lo = max(lo, -((d - olo) // m))
            if ohi < _INF:
                hi = min(hi, (ohi - d) // m)
        else:
            hi = min(hi, (d - olo) // -m)
            if ohi < _INF:
                lo = max(lo, -((ohi - d) // -m))
    if o2:
        # C(m*x + d) = m*m*C(x) + (C(m) + m*d)*x + C(d)
        b1 += o2 * (m * (m - 1) // 2 + m * d)
        b2 += o2 * m * m
    return om * m, om * d + od if om else v, b1 + o1 * m, b2, lo, hi


def _compile_comp(t: Comp) -> tuple:
    fcode = _code(t.f)
    fcost, f, fdeps, _ = fcode
    codes = [_code(g) for g in t.gs]
    cost = 1 + fcost + sum(c[0] for c in codes)
    moving = {}  # position -> the inner terms that depend on it
    for j, c in enumerate(codes):
        for p in c[2]:
            moving.setdefault(p, []).append(j)
    deps = frozenset(moving)
    gs = [c[1] for c in codes]

    def run(a, fuel):
        # a loop, not a comprehension: one Python frame per nesting level
        vals = []
        for g in gs:
            vals.append(g(a, fuel))
        return f(tuple(vals), fuel)

    at = {}
    for p, js in moving.items():
        read = [j for j in js if j in fdeps]
        if len(read) > 1:
            continue
        fed = read[0] if read else -1
        outer = _summary(fcode, fed) if read else _constant(f)
        inner = {j: codes[j][3].get(p) for j in js}
        if outer is not None and None not in inner.values():
            at[p] = _comp_at(f, gs, inner, fed, outer, p)
    return cost, run, deps, at


def _comp_at(f, gs, inner: dict, fed: int, outer, p: int):
    """A composition's summary at p: ``inner`` maps each inner term that
    moves with p to its summary there, ``fed`` is the one of them the
    outer term reads (-1 for none), and ``outer`` the outer term's
    summary at that position."""

    def at(a, fuel):
        vals = []
        ok = True
        fam = _STILL
        rest = None  # the summed family of the inner terms the outer one ignores
        for j, g in enumerate(gs):
            s = inner.get(j) if ok else None
            if s is None:
                vals.append(g(a, fuel))
                continue
            v, gf = s(a, fuel)
            vals.append(v)
            if gf is None:
                ok = False
            elif j == fed:
                fam = gf
            elif gf[2] or gf[3] or gf[4] or gf[5] < _INF:
                # an inner term the outer one ignores adds only its fuel
                # and its range
                if rest is not None:
                    _, _, b1, b2, lo, hi = rest
                    gf = 0, 0, b1 + gf[2], b2 + gf[3], max(lo, gf[4]), min(hi, gf[5])
                rest = gf
        if not ok:
            return f(tuple(vals), fuel), None
        v, of = outer(tuple(vals), fuel)
        if of is None:
            return v, None
        fam = _then(a[p], v, fam, of)
        if rest is None:
            return v, fam
        m, d, b1, b2, lo, hi = fam
        return v, (m, d, b1 + rest[2], b2 + rest[3], max(lo, rest[4]), min(hi, rest[5]))

    return at


def _compile_rec(t: PrimRec) -> tuple:
    bcost, base, bdeps, bat = _code(t.base)
    scode = _code(t.step)
    scost, step, sdeps, _ = scode
    k = t.base.arity()  # the step's accumulator; k + 1 is its counter
    deps = bdeps | {p for p in sdeps if p < k} | {k}
    on_acc = _summary(scode, k) if k + 1 not in sdeps else None
    on_ctr = _summary(scode, k + 1) if on_acc is None and k not in sdeps else None

    def loop(xs, acc, y, fuel):
        """``y`` >= 1 iterations from ``acc``, their static cost paid:
        the value, and when they ran in closed form also the step's
        family (at the accumulator if ``on_acc`` is set, else at the
        counter) and its u, else None and 0."""
        if on_acc is not None:
            left = fuel.left
            v, fam = on_acc(xs + (acc, 0), fuel)
            if fam is not None and 0 <= fam[0] <= 1:
                m, d, b1, b2, lo, hi = fam
                u = left - fuel.left - b1 * acc
                if b2:
                    u -= b2 * (acc * (acc - 1) // 2)
                # the other y - 1 iterations see accumulators running
                # from v by d while positive, then 0, all in the range
                n = y - 1
                if not m:
                    d = 0
                if d >= 0:
                    pos = n
                    ok = lo <= v and v + (n - 1) * d <= hi
                else:
                    pos = -(v // d)
                    if pos >= n:
                        pos = n
                        ok = lo <= v + (n - 1) * d
                    else:
                        ok = not lo
                if ok:
                    cost = n * u + b1 * (pos * v + d * (pos * (pos - 1) // 2))
                    if b2:
                        cost += _series(v, d, pos, 0, b2)
                    fuel.charge(cost)
                    return max(v + n * d, 0), fam, u
            if v == acc:
                # the step left the accumulator as it found it, so each
                # of the other y - 1 iterations repeats this one
                fuel.charge((y - 1) * (left - fuel.left))
                return v, None, 0
            acc = v
            first = 1
        elif on_ctr is not None:
            # the step ignores the accumulator: run the last iteration,
            # then pay for the others at counters 0 .. y - 2
            n = y - 1
            left = fuel.left
            v, fam = on_ctr(xs + (acc, n), fuel)
            if fam is None or fam[4]:
                for c in range(n):
                    step(xs + (acc, c), fuel)
                return v, None, 0
            b1, b2 = fam[2], fam[3]
            c2 = n * (n - 1) // 2
            u = left - fuel.left - b1 * n - b2 * c2
            # over counters c < n, c sums to C(n) and C(c) to C(n)(n-2)/3
            fuel.charge(n * u + b1 * c2 + b2 * (c2 * (n - 2) // 3))
            return v, fam, u
        else:
            first = 0
        for c in range(first, y):
            acc = step(xs + (acc, c), fuel)
        return acc, None, 0

    def run(a, fuel):
        xs = a[:-1]
        y = a[-1]
        acc = base(xs, fuel)
        if y:
            fuel.charge(y * scost)
            acc = loop(xs, acc, y, fuel)[0]
        return acc

    def at_counter(a, fuel):
        # the value and fuel as y moves, from the loop's closed form
        xs = a[:-1]
        y = a[-1]
        acc = base(xs, fuel)
        if not y:
            return acc, None
        fuel.charge(y * scost)
        v, fam, u = loop(xs, acc, y, fuel)
        if fam is None:
            return v, None
        m, d, b1, b2, lo, hi = fam
        if on_acc is None:
            # the value is the step's at counter y - 1; counters below
            # it add C(y) times the step's slope in fuel
            if b2:
                return v, None
            return v, (m, d - m, scost + u, b1, 0 if max(d - m, 0) == acc else 1, hi + 1)
        if not m:
            # every iteration after the first sees the accumulator v,
            # which the loop found in the range
            fuel_v = u + b1 * v + b2 * (v * (v - 1) // 2)
            return v, (0, v, scost + fuel_v, 0, 0 if v == acc else 1, _INF)
        # the accumulator moves by d: y iterations see acc + i*d for
        # i < y while in the step's range, and in fuel only above 0
        if b2 and d:
            return v, None
        top = _INF
        if d > 0 and hi < _INF:
            top = (hi - acc) // d + 1
        elif d < 0 and (b1 or b2 or lo):
            top = (acc - lo) // -d + 1
        if y <= top:
            fuel_acc = u + b1 * acc + b2 * (acc * (acc - 1) // 2)
            return v, (d, acc, scost + fuel_acc, b1 * d, 0, top)
        # the loop kept to the range, so d < 0 and lo is 0: y is past
        # the iteration where the accumulator reached 0
        return v, (0, 0, scost + u, 0, -(acc // d), _INF)

    at = {k: at_counter}
    for p in bdeps:
        if p not in sdeps and p in bat:
            at[p] = _rec_at(bat[p], on_acc, loop, scost, p)
    return 1 + bcost, run, deps, at


def _rec_at(based, on_acc, loop, scost: int, p: int):
    """A recursion's summary at a leading argument p its step ignores:
    ``based`` is the base's summary there, ``loop`` the recursion's."""

    def at(a, fuel):
        xs = a[:-1]
        y = a[-1]
        acc, bf = based(xs, fuel)
        if not y:
            return acc, bf
        fuel.charge(y * scost)
        v, fam, _ = loop(xs, acc, y, fuel)
        if fam is None or bf is None:
            return v, None
        if on_acc is None:
            # a loop that ignores its accumulator ignores where it starts
            return v, _then(a[p], v, bf, (0, v, 0, 0, 0, _INF))
        m, d, b1, b2, lo, hi = fam
        if not m:
            # only the first iteration sees where the loop starts
            return v, _then(a[p], v, bf, (0, v, b1, b2, lo, hi))
        # y iterations from acc see acc + i*d for i < y: each within the
        # step's range, and in fuel only above 0
        n = y - 1
        if d >= 0:
            alo, ahi = lo, hi - n * d
        else:
            alo, ahi = lo - n * d if b1 or b2 or lo else 0, hi
        if not alo <= acc <= ahi:
            return v, None
        b1 = y * b1 + b2 * d * (y * (y - 1) // 2)
        return v, _then(a[p], v, bf, (1, y * d, b1, y * b2, alo, ahi))

    return at


def _compile_mu(t: Mu) -> tuple:
    bcode = _code(t.body)
    bcost, body, bdeps, _ = bcode
    probe_cost = 1 + bcost
    n = t.arity()
    at = _summary(bcode, n)

    def run(a, fuel):
        fuel.charge(probe_cost)
        if body(a + (0,), fuel) == 0:
            return 0
        i = 1
        if at is not None:
            while True:
                fuel.charge(probe_cost)
                left = fuel.left
                v, fam = at(a + (i,), fuel)
                if v == 0:
                    return i
                if fam is None:
                    i += 1
                    break
                m, d, b1, b2, lo, hi = fam
                # probes i + 1 .. last follow the family: nonzero before
                # the root ceil(d / -m), 0 at it
                root = -(d // m) if m < 0 else _INF
                last = min(hi, root)
                if last == _INF:
                    # no root at all: every budget runs out
                    fuel.charge(fuel.left + 1)
                u = left - fuel.left - b1 * i - b2 * (i * (i - 1) // 2)
                k = last - i
                fuel.charge(k * (probe_cost + u) + _series(i + 1, 1, k, b1, b2))
                if last == root:
                    return root
                i = last + 1
        while True:
            fuel.charge(probe_cost)
            if body(a + (i,), fuel) == 0:
                return i
            i += 1

    return 1, run, frozenset(p for p in bdeps if p < n), {}


def _ack_expand(m: int, n: int, fuel: Fuel) -> int:
    """Ackermann-Peter by expansion, one fuel unit per rewrite.  Rows 0-2
    are closed forms, charged their exact rewrite counts at once."""
    left = fuel.left
    stack = [m]
    while stack:
        m = stack.pop()
        if m == 0:
            cost, n = 1, n + 1
        elif m == 1:
            cost, n = 2 * n + 2, n + 2
        elif m == 2:
            cost, n = (2 * n + 7) * n + 5, 2 * n + 3
        elif n == 0:
            cost, n = 1, 1
            stack.append(m - 1)
        else:
            cost, n = 1, n - 1
            stack.append(m - 1)
            stack.append(m)
        left -= cost
        if left < 0:
            fuel.left = left
            raise _OutOfFuel
    fuel.left = left
    return n


def _evaluate(t: Term, args: tuple, fuel: Fuel):
    """The raw result (see ``core._box``) of ``t`` on ``args``."""
    cost, run, _, _ = _code(t)
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


@dataclass(frozen=True)
class TermMap(PartialMap):
    """A unary term packaged as a partial map over the naturals."""

    term: Term

    def _run(self, x, fuel: Fuel):
        # on the runner's whole budget a result depends only on the term
        # and the input, so every map over this very Term object shares
        # it there (``core._evaluator``), at the recorded spend.
        # Results and spends sit in two dicts, not as pairs: a dict of
        # ints leaves the garbage collector nothing to track.
        t = self.term
        table = fuel.table
        if table is None or fuel.left != fuel.budget:
            return _evaluate(t, (x,), fuel)
        # an entry holds t, so its id stays taken
        _, results, spends = table.get(id(t)) or table.setdefault(id(t), (t, {}, {}))
        got = results.get(x)
        if got is None:
            got = results[x] = _evaluate(t, (x,), fuel)
            spends[x] = fuel.budget - fuel.left
        else:
            fuel.left -= spends[x]
        return got


def term_map(t: Term, name: Optional[str] = None) -> PartialMap:
    if t.arity() != 1:
        raise ArityError(f"only unary terms become maps, {to_text(t)} takes {t.arity()}")
    return TermMap(name or to_text(t), Domain.NAT, t)
