"""Known answers for the benchmark's checks, computed without powerlab.

Every expected value here comes from closed forms written out in this
file: the arithmetic of the 18 suite terms, stripe codings, the bit
coding of the naturals and the row rotation of the square-row family.
The checker's rule is restated in its simplest form: candidates in pool
order, the first one that matches on every input is the witness, and a
candidate's recorded failure is its first mismatch in plan order.  A
report that differs from these answers is a fault in the program.

A member answer is a tuple ``(member, verdict, witness, failures)``,
with failures as ``(candidate, input, expected, got)`` tuples of plain
values (or ``"diverged"``).
"""

from __future__ import annotations

from math import isqrt

SUITE = {
    "zero": lambda n: 0,
    "succ": lambda n: n + 1,
    "ident": lambda n: n,
    "const4": lambda n: 4,
    "const7": lambda n: 7,
    "pred": lambda n: max(n - 1, 0),
    "plus3": lambda n: n + 3,
    "plus10": lambda n: n + 10,
    "double": lambda n: 2 * n,
    "triple": lambda n: 3 * n,
    "square": lambda n: n * n,
    "half": lambda n: n // 2,
    "monus5": lambda n: max(n - 5, 0),
    "positive": lambda n: 1 if n > 0 else 0,
    "floor-sqrt": isqrt,
    "ceil-half": lambda n: (n + 1) // 2,
    "ack2": lambda n: 2 * n + 3,
    "ack2-row": lambda n: 2 * n + 3,
}

DIVERGED = "diverged"


class Claim:
    """One simulation claim at full fuel.

    ``want(g, x)`` is what simulated member ``g`` must produce on plan
    input ``x`` once encoded; ``run(f, x)`` is what candidate ``f``
    produces on the encoded input.  Report members carry ``prefix``."""

    def __init__(self, members, pool, want, run, prefix=""):
        self.members = list(members)
        self.pool = list(pool)
        self.want = want
        self.run = run
        self.prefix = prefix

    def agrees(self, g, f, inputs) -> bool:
        return all(self.want(g, x) == self.run(f, x) for x in inputs)

    def member(self, g, inputs, pool=None):
        failures = []
        for f in self.pool if pool is None else pool:
            for x in inputs:
                w, got = self.want(g, x), self.run(f, x)
                if w != got:
                    failures.append((f, x, w, got))
                    break
            else:
                return (self.prefix + g, "verified", f, ())
        return (self.prefix + g, "refuted", None, tuple(failures))

    def report(self, inputs):
        return [self.member(g, inputs) for g in self.members]


def aggregate(members) -> str:
    verdicts = {m[1] for m in members}
    for v in ("refuted", "unknown"):
        if v in verdicts:
            return v
    return "verified"


def probe_aggregate(report_aggregates) -> str:
    """A probe holds when any encoding of the family fits."""
    got = set(report_aggregates)
    for v in ("verified", "unknown"):
        if v in got:
            return v
    return "refuted"


# --------------------------------------------------------------------------
# Stripe codings of the suite


def stripe(d: int, r: int):
    """(encode, decode) of n -> d*n + r; decode is None off the stripe."""

    def dec(y):
        q, rem = divmod(y - r, d)
        return q if rem == 0 and q >= 0 else None

    return (lambda n: d * n + r), dec


def stripe_member(name: str):
    """'stripe(2,1):square' as a map: the term on its stripe, fixing
    every other point."""
    head, _, term = name.partition(":")
    d, r = (int(v) for v in head[len("stripe(") : -1].split(","))
    fn = SUITE[term]
    _, dec = stripe(d, r)

    def run(y):
        x = dec(y)
        return y if x is None else d * fn(x) + r

    return run


def stripe_claim(members, pool, d: int, r: int, prefix="") -> Claim:
    """Stripe-model members ``pool`` simulate suite ``members`` through
    stripe(d, r)."""
    enc, _ = stripe(d, r)
    runs = {f: stripe_member(f) for f in pool}
    return Claim(
        members,
        pool,
        lambda g, x: enc(SUITE[g](x)),
        lambda f, x: runs[f](enc(x)),
        prefix,
    )


def pullback_law_claim(members, pool, d: int, r: int) -> Claim:
    """The pullback side: each suite member against the stripe members
    viewed back through stripe(d, r)."""
    enc, dec = stripe(d, r)
    runs = {f: stripe_member(f) for f in pool}

    def pulled(f, x):
        v = dec(runs[f](enc(x)))
        return DIVERGED if v is None else v

    return Claim(members, pool, lambda g, x: SUITE[g](x), pulled, "pullback:")


def pullback_report(law: Claim, inputs, direct_members):
    """The law side of a pullback-law report, given the direct side's
    member results: each member is tried against its direct witness,
    or against the whole pulled pool when there is none."""
    out = []
    for g, res in zip(law.members, direct_members):
        pool = [res[2]] if res[2] is not None else None
        out.append(law.member(g, inputs, pool))
    return out


def identity_claim(members, pool, prefix_of_pool: str) -> Claim:
    """Pool members named ``prefix_of_pool + term`` simulate the suite
    through the identity coding."""
    n = len(prefix_of_pool)
    return Claim(
        members,
        pool,
        lambda g, x: SUITE[g](x),
        lambda f, x: SUITE[f[n:]](x),
    )


# --------------------------------------------------------------------------
# The bit coding and the tape witnesses


def nat_to_bits(n: int) -> str:
    return bin(n + 1)[3:]


def bits_to_nat(b: str) -> int:
    return int("1" + b, 2) - 1


TAPE = {
    "tm-succ": lambda b: nat_to_bits(bits_to_nat(b) + 1),
    "tm-erase": lambda b: "",
    "tm-ident": lambda b: b,
}
BASICS = {name: SUITE[name] for name in ("succ", "zero", "ident")}


def tape_claims(tape_names, term_names):
    """Forward (tape simulates terms through the bit coding) and
    backward (terms simulate tape through its inverse) claims."""
    fwd = Claim(
        term_names,
        tape_names,
        lambda g, x: nat_to_bits(BASICS[g](x)),
        lambda f, x: TAPE[f](nat_to_bits(x)),
        "fwd:",
    )
    bwd = Claim(
        tape_names,
        term_names,
        lambda g, y: bits_to_nat(TAPE[g](y)),
        lambda f, y: BASICS[f](bits_to_nat(y)),
        "bwd:",
    )
    return fwd, bwd


# --------------------------------------------------------------------------
# The square-row family


def tri_pi(n: int) -> int:
    m = isqrt(n)
    return m * m + (n - m * m + 1) % (2 * m + 1)


def tri_witness(member: str) -> str:
    """Under the row rotation each member of the anchored family is
    matched by a plain one: iota by itself, kappa[k] by kappa[pi(k)],
    f[i,j] by f[i,j+1], and the anchor g[i] by f[i,1].  It is the first
    match in pool order on any plan whose inputs reach row 4 and span
    two rows, where no two of these candidates agree everywhere."""
    if member == "iota":
        return "iota"
    args = member[member.index("[") + 1 : -1]
    if member.startswith("kappa["):
        return f"kappa[{tri_pi(int(args))}]"
    if member.startswith("f["):
        i, j = map(int, args.split(","))
        return f"f[{i},{j + 1}]"
    if member.startswith("g["):
        return f"f[{int(args)},1]"
    raise ValueError(f"not a square-row member: {member}")
