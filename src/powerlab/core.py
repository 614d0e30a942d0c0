"""Core abstractions: domains, outcomes, partial maps, encodings, models.

A model here is a finite named sample of partial maps over a single
domain (naturals, bit strings, or pure lists), optionally extended by an
enumerator that can produce further members on demand.  Maps are always
evaluated under an explicit fuel budget, so an evaluation has one of
three outcomes: it converged to a value, it is certifiably divergent, or
the budget ran out and nothing is known.

Encodings are total injections between domains.  ``decode`` is the exact
partial inverse: it returns ``None`` off the range.  Pushing a map
forward along an encoding conjugates it (encode, run, decode); the
minimal extension diverges off the encoding's range, and the ``fix``
extension leaves off-range points alone instead.

Determinism and fuel monotonicity are load-bearing: the same map on the
same input with the same fuel always yields the same outcome, and a
converged or diverged outcome never changes when the budget grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional, Union

Nat = int
BitStr = str
PureList = tuple
Value = Union[Nat, BitStr, PureList]


class DomainMismatch(ValueError):
    """A value was offered to a domain it does not belong to."""


class InvalidMap(ValueError):
    """A partial map descriptor cannot be evaluated."""


def is_pure_list(x: object) -> bool:
    """True for nested pairs bottoming out in the empty tuple."""
    stack = [x]
    while stack:
        v = stack.pop()
        if not isinstance(v, tuple):
            return False
        if len(v) == 2:
            stack.extend(v)
        elif len(v) != 0:
            return False
    return True


def _is_nat(x: object) -> bool:
    # bool is an int subclass and must not slip through
    return type(x) is int and x >= 0


def _is_bits(x: object) -> bool:
    return type(x) is str and not x.strip("01")


_MEMBERSHIP = {"nat": _is_nat, "bits": _is_bits, "list": is_pure_list}


class Domain(Enum):
    """A value domain.  Each member's ``contains`` is its membership test
    itself, a plain function of one value, so a passing value costs one
    call; ``check`` raises with a message naming ``who`` on a failing one.
    Callers in hot loops test with ``contains`` and build ``who`` and call
    ``check`` only for a value that fails."""

    NAT = "nat"
    BITS = "bits"
    LIST = "list"

    def __init__(self, value: str):
        self.contains: Callable[[object], bool] = _MEMBERSHIP[value]

    def check(self, x: Value, who: str) -> None:
        if not self.contains(x):
            raise DomainMismatch(f"wrong domain: {who} expects {self.value}, got {x!r}")


class _OutOfFuel(Exception):
    pass


class Fuel:
    """Mutable step budget shared by nested evaluations, each starting
    from ``budget``.  ``table``, when set, is one check's term-result
    table: a ``Term`` object, by identity and held alive, to its raw
    results and fuel spends by input.  ``TermMap._run`` reads and fills
    it on the whole budget, so it serves every term under any wrapper."""

    __slots__ = ("left", "budget", "table")

    def __init__(self, budget: int, table: Optional[dict] = None):
        self.left = budget
        self.budget = budget
        self.table = table

    def charge(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise _OutOfFuel


@dataclass(frozen=True)
class Converged:
    value: Value


@dataclass(frozen=True)
class Diverged:
    """Certified non-termination; the reason is informational only."""

    reason: str = field(default="", compare=False)


@dataclass(frozen=True)
class FuelExhausted:
    """The budget ran out; the true behaviour is unknown."""


Outcome = Union[Converged, Diverged, FuelExhausted]
FUEL_EXHAUSTED = FuelExhausted()


# A raw result is an outcome in the form the engine keeps it: a converged
# value as the value itself, a ``Diverged`` or ``FUEL_EXHAUSTED`` outcome
# as it is.  No value is an outcome, nor ``None``, so nothing is lost.
# Every ``_run`` returns one; ``Converged`` is built only where a result
# leaves the engine.


def _box(raw) -> Outcome:
    """The outcome a raw result stands for."""
    return raw if isinstance(raw, (Diverged, FuelExhausted)) else Converged(raw)


@dataclass(frozen=True)
class PartialMap:
    """A named, deterministic, fuel-monotone partial map over one domain.

    Subclasses implement ``_run`` alone, which takes an input already in
    the domain and returns its raw result (see ``_box``).  ``_run`` never
    raises on fuel exhaustion; it reports ``FUEL_EXHAUSTED`` so that
    wrappers sharing the same budget can pass the result through.
    Every check refuses a result outside the domain through ``_refuse``.
    """

    name: str
    domain: Domain

    def _run(self, x: Value, fuel: Fuel):
        raise InvalidMap(f"invalid map: {self.name!r} has no evaluation rule")

    def _refuse(self, v):
        """Raise for ``v``, a result of this map outside its domain."""
        self.domain.check(v, f"{self.name} output")


@dataclass(frozen=True)
class BuiltinMap(PartialMap):
    """Closed-form map backed by a pure callable: ``fn`` returns the value
    at a point of the domain, which must lie in the domain too, or
    ``None`` where the map diverges.  Each point costs one unit of fuel.

    ``_run`` and ``_refuse`` hold the whole result rule, since ``fn`` is
    code the checker does not control: a result outside the domain is
    divergence if ``None``, and refused as any map's is otherwise.  The
    checker's two loops call ``fn`` themselves for a map whose type is
    exactly ``BuiltinMap``; a subclass, and every wrapper, goes through
    ``_run``."""

    fn: Callable[[Value], Optional[Value]]

    def _run(self, x: Value, fuel: Fuel):
        fuel.left -= 1
        if fuel.left < 0:
            return FUEL_EXHAUSTED
        v = self.fn(x)
        if self.domain.contains(v):
            return v
        return self._refuse(v)

    def _refuse(self, v):
        """``v``, a result of ``fn`` outside the domain: None diverges, else raise."""
        if v is None:
            return Diverged(f"{self.name} is undefined here")
        return super()._refuse(v)


def TableMap(name: str, domain: Domain, table) -> BuiltinMap:
    """Finite-table map, defined exactly on the inputs of the (input,
    output) pairs listed; the first pair listed for an input wins."""
    lookup: dict = {}
    for k, v in table:
        lookup.setdefault(k, v)
    return BuiltinMap(name, domain, lookup.get)


def apply(m: PartialMap, x: Value, fuel: int) -> Outcome:
    """Run ``m`` on ``x`` under a fuel budget of at least 1."""
    out, _ = apply_with_cost(m, x, fuel)
    return out


def apply_with_cost(m: PartialMap, x: Value, fuel: int) -> tuple[Outcome, int]:
    """Like ``apply``, but also reports how much fuel was consumed."""
    evaluate = _evaluator(fuel)
    m.domain.check(x, m.name)
    out, used = evaluate(m, x)
    return _box(out), used


def _evaluator(fuel: int, table: Optional[dict] = None):
    """A check's evaluation function: ``evaluate(m, x)``, for ``x`` in
    ``m``'s domain, runs ``m._run`` on one ``Fuel`` cell, reset to
    ``fuel``, that carries ``table``, and returns the raw result and the
    fuel spent.  Running out costs the whole budget, and a table hit the
    recorded spend, so no result or spend depends on the table.  This is
    where every evaluation's budget is checked to be at least 1."""
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    cell = Fuel(fuel, table)

    def evaluate(m: PartialMap, x: Value):
        cell.left = fuel
        try:
            out = m._run(x, cell)
        except _OutOfFuel:  # defensive: evaluators normally catch this themselves
            return FUEL_EXHAUSTED, fuel
        if isinstance(out, FuelExhausted):
            return FUEL_EXHAUSTED, fuel
        return out, fuel - cell.left

    return evaluate


def identity_map(domain: Domain = Domain.NAT, name: str = "identity") -> PartialMap:
    return BuiltinMap(name, domain, lambda x: x)


class Encoding:
    """A named total injection between domains; decode is its exact
    partial inverse.

    ``encode`` and ``decode`` validate each value they are given, against
    ``source`` and ``target`` respectively, with one call of that domain's
    ``contains`` when the value passes, then call the functions passed
    here, which do the work on values already validated: build an
    encoding on unchecked conversions, so that no value is tested twice.
    Nothing validates what the functions return.  ``inverse``, when given,
    builds the inverse encoding when called with no arguments; without it
    ``inverse()`` raises.  Pass module-level functions or
    ``functools.partial`` objects, so that the encoding pickles.
    """

    def __init__(self, name: str, source: Domain, target: Domain, encode, decode, inverse=None):
        self.name = name
        self.source = source
        self.target = target
        self._encode = encode
        self._decode = decode
        self._inverse = inverse

    def encode(self, x: Value) -> Value:
        if not self.source.contains(x):
            self.source.check(x, self.name)
        return self._encode(x)

    def decode(self, y: Value) -> Optional[Value]:
        if not self.target.contains(y):
            self.target.check(y, self.name)
        return self._decode(y)

    def describe(self) -> str:
        return self.name

    def inverse(self) -> "Encoding":
        if self._inverse is None:
            raise ValueError(f"{self.describe()} has no total inverse")
        return self._inverse()

    def __repr__(self) -> str:
        return f"<Encoding {self.describe()}>"


def bijection(name: str, inverse_name: str, source: Domain, target: Domain, encode, decode):
    """An encoding onto the whole of its target; its inverse, named
    ``inverse_name``, swaps the two sides."""
    inverse = partial(bijection, inverse_name, name, target, source, decode, encode)
    return Encoding(name, source, target, encode, decode, inverse)


def _same(x: Value) -> Value:
    return x


def IdentityEncoding(domain: Domain = Domain.NAT) -> Encoding:
    return bijection("identity", "identity", domain, domain, _same, _same)


def _table_lookup(table: dict, x: Value) -> Value:
    if x not in table:
        raise ValueError(f"table encoding is not defined on {x!r}")
    return table[x]


def TableEncoding(pairs, source: Domain = Domain.NAT, target: Domain = Domain.NAT) -> Encoding:
    """Finite injective table.  Total only on the listed inputs; encoding
    anything else is an error, which keeps the device honest about its
    prefix-bound nature."""
    pairs = tuple((k, v) for k, v in pairs)
    fwd: dict = {}
    bwd: dict = {}
    for k, v in pairs:
        if k in fwd:
            raise ValueError(f"table encoding lists {k!r} twice")
        if v in bwd:
            raise ValueError(f"table encoding is not injective at {v!r}")
        fwd[k] = v
        bwd[v] = k
    inverse = partial(TableEncoding, tuple((v, k) for k, v in pairs), target, source)
    return Encoding(
        f"table[{len(pairs)}]", source, target, partial(_table_lookup, fwd), bwd.get, inverse
    )


def _compose_encode(outer: Encoding, inner: Encoding, x: Value) -> Value:
    return outer.encode(inner.encode(x))


def _compose_decode(outer: Encoding, inner: Encoding, y: Value) -> Optional[Value]:
    mid = outer.decode(y)
    if mid is None:
        return None
    return inner.decode(mid)


def _compose_inverse(outer: Encoding, inner: Encoding) -> Encoding:
    return compose_encodings(inner.inverse(), outer.inverse())


def compose_encodings(outer: Encoding, inner: Encoding) -> Encoding:
    """Encoding that sends x to outer.encode(inner.encode(x)); decode
    runs in reverse."""
    if inner.target is not outer.source:
        raise DomainMismatch(
            f"wrong domain: cannot compose {outer.describe()} after {inner.describe()}"
        )
    name = f"({outer.describe()} . {inner.describe()})"
    encode = partial(_compose_encode, outer, inner)
    decode = partial(_compose_decode, outer, inner)
    inverse = partial(_compose_inverse, outer, inner)
    return Encoding(name, inner.source, outer.target, encode, decode, inverse)


def encode_outcome(e: Encoding, out: Outcome) -> Outcome:
    """Transport an outcome along an encoding; only converged values change."""
    if isinstance(out, Converged):
        return Converged(e.encode(out.value))
    return out


@dataclass(frozen=True)
class PushforwardMap(PartialMap):
    """The inner map conjugated into the target domain: decode, run, encode.

    Off the encoding's range the minimal extension diverges; with
    ``off_range="fix"`` the point is returned unchanged instead.  Any
    choice off the range preserves the simulation, the two shipped here
    are the useful extremes.
    """

    encoding: Encoding
    inner: PartialMap
    off_range: str = "diverge"

    def _run(self, y: Value, fuel: Fuel):
        x = self.encoding.decode(y)
        if x is None:
            return y if self.off_range == "fix" else Diverged("outside encoding range")
        out = self.inner._run(x, fuel)
        if isinstance(out, (Diverged, FuelExhausted)):
            return out
        return self.encoding.encode(out)


@dataclass(frozen=True)
class PullbackMap(PartialMap):
    """The inner map viewed through the encoding: encode, run, decode.

    Diverges when the inner map converges to a value off the range."""

    encoding: Encoding
    inner: PartialMap

    def _run(self, x: Value, fuel: Fuel):
        out = self.inner._run(self.encoding.encode(x), fuel)
        if isinstance(out, (Diverged, FuelExhausted)):
            return out
        back = self.encoding.decode(out)
        if back is None:
            return Diverged("left the encoding range")
        return back


def pushforward(
    e: Encoding, m: PartialMap, off_range: str = "diverge", name: Optional[str] = None
) -> PartialMap:
    if m.domain is not e.source:
        raise DomainMismatch(
            f"wrong domain: cannot push {m.name} ({m.domain.value}) along {e.describe()}"
        )
    if off_range not in ("diverge", "fix"):
        raise ValueError(f"unknown off-range policy {off_range!r}")
    return PushforwardMap(
        name or f"push({e.describe()},{m.name})", e.target, e, m, off_range
    )


def pullback(e: Encoding, m: PartialMap, name: Optional[str] = None) -> PartialMap:
    if m.domain is not e.target:
        raise DomainMismatch(
            f"wrong domain: cannot pull {m.name} ({m.domain.value}) along {e.describe()}"
        )
    return PullbackMap(name or f"pull({e.describe()},{m.name})", e.source, e, m)


@dataclass(frozen=True)
class Model:
    """A named finite sample of maps, optionally extended by an enumerator.

    The enumerator widens witness searches beyond the listed sample; it
    must be deterministic in its index.  Listed names must be unique.
    """

    name: str
    domain: Domain
    members: tuple
    enumerator: Optional[Callable[[int], PartialMap]] = None

    def __post_init__(self):
        seen = set()
        for m in self.members:
            if m.name in seen:
                raise ValueError(f"duplicate member name {m.name!r} in model {self.name!r}")
            seen.add(m.name)
            if m.domain is not self.domain:
                raise DomainMismatch(
                    f"wrong domain: member {m.name} of {self.name} is over {m.domain.value}"
                )

    def member(self, name: str) -> PartialMap:
        for m in self.members:
            if m.name == name:
                return m
        raise KeyError(f"model {self.name!r} has no member {name!r}")

    def candidates(self, extra: int = 0) -> list:
        """Listed members followed by up to ``extra`` enumerated ones.

        Enumerated maps whose names repeat earlier entries are dropped,
        so the pool order is stable and duplicate-free.  Each enumerated
        map must be over the model's domain, like the listed ones."""
        pool = list(self.members)
        if self.enumerator is not None and extra > 0:
            seen = {m.name for m in pool}
            for ix in range(extra):
                m = self.enumerator(ix)
                if m.domain is not self.domain:
                    raise DomainMismatch(
                        f"wrong domain: enumerated map {m.name} of {self.name}"
                        f" is over {m.domain.value}"
                    )
                if m.name not in seen:
                    seen.add(m.name)
                    pool.append(m)
        return pool


def pushforward_model(
    e: Encoding,
    model: Model,
    off_range: str = "diverge",
    name: Optional[str] = None,
) -> Model:
    """Image of a whole model under an encoding, member by member."""
    members = tuple(pushforward(e, m, off_range) for m in model.members)
    enum = None
    if model.enumerator is not None:
        base = model.enumerator

        def enum(ix: int, _base=base) -> PartialMap:
            return pushforward(e, _base(ix), off_range)

    return Model(name or f"push({e.describe()},{model.name})", e.target, members, enum)
