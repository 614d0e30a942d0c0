"""Standard recursion terms and the benchmark suite of unary maps."""

from __future__ import annotations

from powerlab.core import Domain, Model
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
)

# add(a, b): recurse on b, bumping the accumulator each step
ADD = PrimRec(Proj(1, 1), Comp(S(), (Proj(2, 3),)))

# pred(n): the counter one step before n, with pred(0) = 0
PRED = Comp(PrimRec(Z(), Proj(3, 3)), (Id(), Id()))

# monus(a, b): truncated subtraction, b applications of pred
MONUS = PrimRec(Proj(1, 1), Comp(PRED, (Proj(2, 3),)))

# mult(a, b): b additions of a
MULT = PrimRec(Z(), Comp(ADD, (Proj(2, 3), Proj(1, 3))))

SQUARE = Comp(MULT, (Id(), Id()))

# half(n) via h(x, y+1) = y monus h(x, y), which alternates floor halves
HALF = Comp(PrimRec(Z(), Comp(MONUS, (Proj(3, 3), Proj(2, 3)))), (Id(), Id()))

# sign(n) = 1 monus (1 monus n): 0 at 0, else 1
SIGN = Comp(MONUS, (ConstK(1), Comp(MONUS, (ConstK(1), Id()))))


def const_of(k: int, arity: int) -> Term:
    """The k-valued constant of a given arity."""
    if arity == 1:
        return ConstK(k)
    return Comp(ConstK(k), (Proj(1, arity),))


def add_const(k: int) -> Term:
    """n |-> n + k"""
    return Comp(ADD, (ConstK(k), Id()))


def times_const(k: int) -> Term:
    """n |-> k * n"""
    return Comp(MULT, (ConstK(k), Id()))


def monus_const(k: int) -> Term:
    """n |-> max(n - k, 0)"""
    return Comp(MONUS, (Id(), ConstK(k)))


# floor_sqrt(n) = least i with (i+1)^2 > n, phrased as a zero test:
# body(n, i) = 1 monus ((i+1)*(i+1) monus n) is zero iff (i+1)^2 > n
_SUCC_LAST = Comp(S(), (Proj(2, 2),))
_SQ_SUCC_LAST = Comp(MULT, (_SUCC_LAST, _SUCC_LAST))
FLOOR_SQRT = Mu(
    Comp(MONUS, (const_of(1, 2), Comp(MONUS, (_SQ_SUCC_LAST, Proj(1, 2)))))
)

# ceil_half(n) = least i with 2i >= n
CEIL_HALF = Mu(
    Comp(MONUS, (Proj(1, 2), Comp(MULT, (const_of(2, 2), Proj(2, 2)))))
)


def ack_row_term(m: int) -> Term:
    """The unary m-th Ackermann row as a pure primitive-recursion term.

    Row 0 is the successor; row m+1 iterates row m, n+1 times, from 1.
    """
    if m < 0:
        raise ValueError("row index must be a natural number")
    row = S()
    for _ in range(m):
        row = Comp(
            PrimRec(Comp(row, (ConstK(1),)), Comp(row, (Proj(2, 3),))),
            (Id(), Id()),
        )
    return row


# ack2(n) = ACK(2, n) = 2n + 3, via the builtin
ACK2 = Comp(Ack(), (ConstK(2), Id()))


_SUITE = (  # built once: every model of the suite shares its Term objects
    ("zero", Z()),
    ("succ", S()),
    ("ident", Id()),
    ("const4", ConstK(4)),
    ("const7", ConstK(7)),
    ("pred", PRED),
    ("plus3", add_const(3)),
    ("plus10", add_const(10)),
    ("double", times_const(2)),
    ("triple", times_const(3)),
    ("square", SQUARE),
    ("half", HALF),
    ("monus5", monus_const(5)),
    ("positive", SIGN),
    ("floor-sqrt", FLOOR_SQRT),
    ("ceil-half", CEIL_HALF),
    ("ack2", ACK2),
    ("ack2-row", ack_row_term(2)),
)


def standard_suite() -> tuple:
    """Named unary benchmark terms, all total, spanning the constructors."""
    return _SUITE


def rec_suite_model(name: str = "rec-suite") -> Model:
    """The benchmark suite packaged as a model over the naturals."""
    members = tuple(term_map(t, n) for n, t in standard_suite())
    return Model(name, Domain.NAT, members)
