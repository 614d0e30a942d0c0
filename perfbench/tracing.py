"""Spans around powerlab's layers, recorded from outside the package.

Nothing under ``src/`` changes.  The tracer wraps map objects and
encodings in look-alikes that time each call and pass it through, and
the benchmark opens spans around its own calls into public functions.
Spans nest as pass -> check -> evaluation -> interpreter or encoding;
a layer's self time is its spans' time minus their children's.

Wrapping preserves identity: each distinct map object is wrapped exactly
once (memoised by ``id``, with the original kept alive so the id cannot
be reused), because ``_Runner`` caches on ``id(m)`` and two models may
share member objects.  Wrapping them apart would make the traced run a
different program with more evaluations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, replace
from time import perf_counter

from powerlab.core import (
    BuiltinMap,
    Encoding,
    FuelExhausted,
    Model,
    PartialMap,
    PullbackMap,
    PushforwardMap,
    TableMap,
)
from powerlab.machines import CMMap, TMMap
from powerlab.recdsl import TermMap

INTERPRETER_LAYER = {
    TermMap: "recdsl",
    CMMap: "machines.cm",
    TMMap: "machines.tm",
    BuiltinMap: "constructions.builtin",
    TableMap: "core.table",
}


class Tracer:
    """Span stack plus per-layer totals.  The first ``keep`` spans are
    also kept whole, to be written out when the run ends."""

    def __init__(self, keep: int = 50_000):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.spans: list = []
        self.keep = keep
        self._stack: list = []
        self._next_id = 0
        self._memo: dict = {}
        # inputs each wrapper object was evaluated on since begin_check()
        self.eval_calls: dict = defaultdict(list)
        self.enumerated: list = []

    def enter(self, layer: str) -> None:
        self._next_id += 1
        self._stack.append([layer, perf_counter(), 0.0, self._next_id])

    def exit(self) -> None:
        end = perf_counter()
        layer, start, child, sid = self._stack.pop()
        dur = end - start
        self.busy[layer] += dur
        self.self_time[layer] += dur - child
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        if len(self.spans) < self.keep:
            self.spans.append((sid, parent, layer, start, end))

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)

    def totals(self) -> dict:
        """A copy of every total, for differences around a section."""
        return {
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "count": dict(self.count),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, layer, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "layer": layer,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

    # ------------------------------------------------------------------
    # Wrapping

    def _memoised(self, kind: str, obj, build):
        key = (kind, id(obj))
        hit = self._memo.get(key)
        if hit is None:
            hit = (obj, build(obj))
            self._memo[key] = hit
        return hit[1]

    def wrap_member(self, m: PartialMap) -> PartialMap:
        """A model member as the checker sees it: one evaluation span
        around the map's own run."""
        return self._memoised(
            "eval", m, lambda m: _EvalSpan(m.name, m.domain, self._wrap_body(m), self)
        )

    def _wrap_body(self, m: PartialMap) -> PartialMap:
        def build(m):
            if isinstance(m, (PushforwardMap, PullbackMap)):
                return replace(
                    m,
                    encoding=self.wrap_encoding(m.encoding),
                    inner=self._wrap_body(m.inner),
                )
            layer = INTERPRETER_LAYER.get(type(m))
            if layer is None:
                raise TypeError(f"no layer for map type {type(m).__name__}")
            return _InterpreterSpan(m.name, m.domain, m, self, layer)

        return self._memoised("body", m, build)

    def wrap_encoding(self, e: Encoding) -> Encoding:
        return self._memoised("enc", e, lambda e: _EncodingSpan(e, self))

    def wrap_model(self, model: Model) -> Model:
        def build(model):
            enum = None
            if model.enumerator is not None:
                base = model.enumerator

                def enum(ix):
                    w = self.wrap_member(base(ix))
                    self.enumerated.append(w)
                    return w

            members = tuple(self.wrap_member(m) for m in model.members)
            return Model(model.name, model.domain, members, enum)

        return self._memoised("model", model, build)

    def begin_check(self) -> None:
        self.eval_calls.clear()
        self.enumerated.clear()


class _Span:
    __slots__ = ("tracer", "layer")

    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.tracer.enter(self.layer)

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


@dataclass(frozen=True, eq=False)
class _EvalSpan(PartialMap):
    """One evaluation: the checker runs this once per runner cache miss."""

    body: PartialMap
    tracer: Tracer

    def _run(self, x, fuel):
        t = self.tracer
        t.eval_calls[id(self)].append(x)
        t.enter("core.eval")
        try:
            return self.body._run(x, fuel)
        finally:
            t.exit()


@dataclass(frozen=True, eq=False)
class _InterpreterSpan(PartialMap):
    """The interpreter run inside an evaluation, with its fuel or step
    count and whether it ran out."""

    inner: PartialMap
    tracer: Tracer
    layer: str

    def _run(self, x, fuel):
        t = self.tracer
        before = fuel.left
        t.enter(self.layer)
        try:
            out = self.inner._run(x, fuel)
        finally:
            t.exit()
        t.count[self.layer + ".fuel"] += min(before, before - fuel.left)
        if isinstance(out, FuelExhausted):
            t.count[self.layer + ".exhausted"] += 1
        return out


class _EncodingSpan(Encoding):
    def __init__(self, inner: Encoding, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.source = inner.source
        self.target = inner.target

    def _call(self, fn, v):
        t = self.tracer
        t.count["core.encode.calls"] += 1
        t.enter("core.encode")
        try:
            return fn(v)
        finally:
            t.exit()

    def encode(self, x):
        return self._call(self.inner.encode, x)

    def decode(self, y):
        return self._call(self.inner.decode, y)

    def describe(self) -> str:
        return self.inner.describe()

    def inverse(self) -> Encoding:
        return self.tracer.wrap_encoding(self.inner.inverse())
