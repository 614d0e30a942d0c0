"""Concrete encodings, map families and models used by the benchmark
comparisons: arithmetic-progression (stripe) codings, the triangular
array of square-anchored maps with its shift permutation, cycle-based
narrowness analysis, the pairing bijection for pure lists, a diagonal
that outgrows every primitive-recursive map, and a family of
semi-decidable maps driven by a total 0/1 oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from itertools import count
from math import isqrt
from typing import Callable, Optional, Sequence

from powerlab.core import (
    BuiltinMap,
    Domain,
    Encoding,
    FUEL_EXHAUSTED,
    Fuel,
    Model,
    PartialMap,
    bijection,
    identity_map,
    pushforward,
)
from powerlab.recdsl import Ack, Term, TermClass, _evaluate, classify, term_map
from powerlab.terms import standard_suite


# --------------------------------------------------------------------------
# Stripe codings: n |-> d*n + r


def _stripe_encode(d: int, r: int, x: int) -> int:
    return d * x + r


def _stripe_decode(d: int, r: int, y: int) -> Optional[int]:
    q, rem = divmod(y - r, d)
    if rem != 0 or q < 0:
        return None
    return q


def StripeEncoding(d: int, r: int) -> Encoding:
    """n |-> d*n + r, a plain injection with no total inverse."""
    if d < 1 or not 0 <= r < d:
        raise ValueError(f"stripe needs d >= 1 and 0 <= r < d, got d={d}, r={r}")
    encode = partial(_stripe_encode, d, r)
    decode = partial(_stripe_decode, d, r)
    return Encoding(f"stripe({d},{r})", Domain.NAT, Domain.NAT, encode, decode)


def stripe_family(d_max: int) -> list:
    """All stripe codings with 1 <= d <= d_max, ordered by (d, r)."""
    if d_max < 1:
        raise ValueError("empty family: d_max must be at least 1")
    return [StripeEncoding(d, r) for d in range(1, d_max + 1) for r in range(d)]


def stripe_model_member(t: Term, d: int, r: int, name: Optional[str] = None) -> PartialMap:
    """The term transported onto the stripe, fixing everything else.

    On d*x + r the map computes d*t(x) + r; any other input is returned
    unchanged, which keeps the member total when the term is.
    """
    inner = term_map(t)
    e = StripeEncoding(d, r)
    return pushforward(e, inner, off_range="fix", name=name or f"{e.describe()}:{inner.name}")


def stripe_model(
    d: int, r: int, suite: Optional[Sequence] = None, name: Optional[str] = None
) -> Model:
    """The benchmark suite transported onto a stripe, as a model."""
    pairs = tuple(suite) if suite is not None else standard_suite()
    e = StripeEncoding(d, r)
    members = tuple(
        stripe_model_member(t, d, r, name=f"{e.describe()}:{n}") for n, t in pairs
    )
    return Model(name or f"{e.describe()}-model", Domain.NAT, members)


# --------------------------------------------------------------------------
# The triangular array
#
# Row m holds the naturals from m*m up to m*m + 2m.  The map f(i, j)
# sends everything in row m to the j-th entry (cyclically) of row m + i,
# g(i) = f(i, 0) lands on the square anchoring row m + i, and pi shifts
# every row one step cyclically, leaving each row set-wise fixed.


def _check_nat(n: int, who: str) -> None:
    Domain.NAT.check(n, who)


def _tri_row(i: int, j: int) -> Callable[[int], int]:
    """n |-> f(i, j)(n), unchecked: one frame per call, since the square
    rows' maps call it on every evaluation."""
    return lambda n: (m := isqrt(n) + i) ** 2 + j % (2 * m + 1)


def tri_f(i: int, j: int, n: int) -> int:
    for v in (i, j, n):
        _check_nat(v, "tri_f")
    return _tri_row(i, j)(n)


def tri_g(i: int, n: int) -> int:
    for v in (i, n):
        _check_nat(v, "tri_g")
    return _tri_row(i, 0)(n)


def tri_pi(n: int) -> int:
    _check_nat(n, "tri_pi")
    return _tri_pi(n)


def _tri_pi(n: int) -> int:
    m = isqrt(n)
    return m * m + (n - m * m + 1) % (2 * m + 1)


def tri_pi_inverse(n: int) -> int:
    _check_nat(n, "tri_pi_inverse")
    return _tri_pi_inverse(n)


def _tri_pi_inverse(n: int) -> int:
    m = isqrt(n)
    return m * m + (n - m * m - 1) % (2 * m + 1)


def TriPiEncoding() -> Encoding:
    """The row-shift permutation of the naturals.  ``Encoding`` checks
    the domain of each value, so it is built on the unchecked shifts."""
    return bijection("tri-pi", "tri-pi-inv", Domain.NAT, Domain.NAT, _tri_pi, _tri_pi_inverse)


# The maps check their indices when built.  Each input is checked before
# it reaches a map (by ``apply``, or where it enters a check), so their
# bodies skip the checks of tri_f and tri_g.


def kappa_map(k: int) -> PartialMap:
    _check_nat(k, "kappa_map")
    return BuiltinMap(f"kappa[{k}]", Domain.NAT, lambda n, _k=k: _k)


def tri_f_map(i: int, j: int) -> PartialMap:
    for v in (i, j):
        _check_nat(v, "tri_f_map")
    return BuiltinMap(f"f[{i},{j}]", Domain.NAT, _tri_row(i, j))


def tri_g_map(i: int) -> PartialMap:
    _check_nat(i, "tri_g_map")
    return BuiltinMap(f"g[{i}]", Domain.NAT, _tri_row(i, 0))


def _pair_diag(ix: int) -> tuple[int, int]:
    """Walk pairs (i, j) with i, j >= 1 along anti-diagonals."""
    d = 2
    while ix >= d - 1:
        ix -= d - 1
        d += 1
    return ix + 1, d - (ix + 1)


def tri_models(i_max: int, j_max: int, k_max: int) -> tuple[Model, Model]:
    """Samples of the two triangular models: the larger one with the
    square-anchor maps g, the smaller one without.

    Listed members are the identity, constants up to k_max, f(i, j) for
    1 <= i <= i_max and 1 <= j <= j_max, plus g(i) in the larger model.
    Both models carry enumerators walking constants, the f family and
    (for the larger) the g family beyond those bounds, so witness
    searches are not trapped by the listed sample.
    """
    if min(i_max, j_max, k_max) < 0:
        raise ValueError("negative sample bound")
    shared = [identity_map(name="iota")]
    shared += [kappa_map(k) for k in range(k_max + 1)]
    shared += [
        tri_f_map(i, j)
        for i in range(1, i_max + 1)
        for j in range(1, j_max + 1)
    ]
    gs = [tri_g_map(i) for i in range(1, i_max + 1)]

    def enum_small(ix: int) -> PartialMap:
        q, sel = divmod(ix, 2)
        if sel == 0:
            return kappa_map(q)
        return tri_f_map(*_pair_diag(q))

    def enum_large(ix: int) -> PartialMap:
        q, sel = divmod(ix, 3)
        if sel == 0:
            return kappa_map(q)
        if sel == 1:
            return tri_f_map(*_pair_diag(q))
        return tri_g_map(q + 1)

    large = Model("tri-with-anchors", Domain.NAT, tuple(shared + gs), enum_large)
    small = Model("tri-plain", Domain.NAT, tuple(shared), enum_small)
    return large, small


# --------------------------------------------------------------------------
# Narrowness of a permutation, judged from its cycles on a prefix


@dataclass(frozen=True)
class NarrownessReport:
    """Cycle census of an encoding restricted to [0, prefix).

    ``bound_if_narrow`` is the least k with pi^k = id as far as this
    prefix can tell: the longest closed cycle length, present only when
    the prefix splits into closed cycles entirely.  Orbits that leave
    the prefix are counted in ``escaped_elements`` and leave the bound
    unknown.
    """

    prefix: int
    is_permutation_on_prefix: bool
    max_cycle_length: int
    bound_if_narrow: Optional[int]
    cycle_lengths_histogram: tuple  # pairs (length, count), sorted
    escaped_elements: int


def narrowness(e: Encoding, prefix: int) -> NarrownessReport:
    """Decompose an encoding of the naturals into cycles on [0, prefix)."""
    if e.source is not Domain.NAT or e.target is not Domain.NAT:
        raise ValueError("narrowness needs an encoding of the naturals")
    if prefix < 1:
        raise ValueError("prefix must be at least 1")
    image = [e.encode(i) for i in range(prefix)]
    seen: dict = {}
    for i, v in enumerate(image):
        if v in seen:
            raise ValueError(f"not a permutation: {seen[v]} and {i} both map to {v}")
        seen[v] = i
    stays = all(v < prefix for v in image)
    visited = [False] * prefix
    lengths: dict = {}
    escaped = 0
    maxlen = 0
    for start in range(prefix):
        if visited[start]:
            continue
        orbit = []
        cur = start
        closed = False
        while True:
            orbit.append(cur)
            visited[cur] = True
            cur = image[cur]
            if cur == start:
                closed = True
                break
            if cur >= prefix or visited[cur]:
                break
        if closed:
            n = len(orbit)
            lengths[n] = lengths.get(n, 0) + 1
            maxlen = max(maxlen, n)
        else:
            escaped += len(orbit)
    bound = maxlen if (stays and escaped == 0) else None
    return NarrownessReport(
        prefix=prefix,
        is_permutation_on_prefix=stays,
        max_cycle_length=maxlen,
        bound_if_narrow=bound,
        cycle_lengths_histogram=tuple(sorted(lengths.items())),
        escaped_elements=escaped,
    )


# --------------------------------------------------------------------------
# Pairing bijection between pure lists and the naturals


GODEL_MAX_BITS = 2**16


def godel_encode(x: tuple) -> int:
    """nil to 0; a pair (a, b) to 2^code(a) * (2*code(b) + 1).  Each level
    of left nesting raises 2 to the code below, and six levels would make
    2^65536, so a code longer than ``GODEL_MAX_BITS`` bits raises ``ValueError``."""
    Domain.LIST.check(x, "godel_encode")
    return _godel_enc(x)


def _godel_enc(x: tuple) -> int:
    if len(x) == 0:
        return 0
    a, odd = _godel_enc(x[0]), 2 * _godel_enc(x[1]) + 1
    if a + odd.bit_length() > GODEL_MAX_BITS:
        raise ValueError(f"godel code longer than GODEL_MAX_BITS ({GODEL_MAX_BITS} bits)")
    return odd << a


def godel_decode(n: int) -> tuple:
    """Exact inverse of godel_encode; total on the naturals."""
    Domain.NAT.check(n, "godel_decode")
    return _godel_dec(n)


def _godel_dec(n: int) -> tuple:
    if n == 0:
        return ()
    a = (n & -n).bit_length() - 1  # exponent of 2
    b = (n >> a) >> 1  # the odd part is 2b + 1
    return (_godel_dec(a), _godel_dec(b))


def GodelEncoding() -> Encoding:
    """The pairing bijection from pure lists to naturals.  ``Encoding``
    checks the domain of each value, so it is built on the unchecked
    coding, which keeps the ``GODEL_MAX_BITS`` cap."""
    return bijection("godel", "godel-inv", Domain.LIST, Domain.NAT, _godel_enc, _godel_dec)


# --------------------------------------------------------------------------
# A diagonal past the primitive-recursive maps


def diag_h(encoding_term: Term, n: int, fuel: int) -> int:
    """Value of the diagonal through an encoding given as a term: the
    first value of the encoding, at 0, 1, 2, ..., that exceeds ACK(n, n).

    The term must be primitive recursive (so the chase is honest) and
    unary.  One budget of ``fuel`` bounds ACK(n, n) and the whole
    search; every evaluation charges at least one unit, so the search
    ends within ``fuel`` evaluations, and running out raises.
    """
    if classify(encoding_term) is not TermClass.PRIM:
        raise ValueError("diag_h needs a primitive-recursive encoding term")
    if encoding_term.arity() != 1:
        raise ValueError("diag_h needs a unary encoding term")
    Domain.NAT.check(n, "diag_h")
    cell = Fuel(fuel)
    target = _evaluate(Ack(), (n, n), cell)
    if target is FUEL_EXHAUSTED:
        raise ValueError(f"fuel exhausted: ACK({n}, {n}) needs more than {fuel}")
    for i in count():
        out = _evaluate(encoding_term, (i,), cell)
        if out is FUEL_EXHAUSTED:
            raise ValueError(f"fuel exhausted: no value above {target} at inputs below {i}")
        if out > target:
            return out


# --------------------------------------------------------------------------
# Semi-decidable family driven by a total 0/1 oracle


@dataclass(frozen=True)
class OracleH:
    """A total 0/1 map on the naturals with value 0 at 0."""

    name: str
    fn: Callable[[int], int]

    def __post_init__(self):
        if self.value(0) != 0:
            raise ValueError(f"oracle {self.name!r} must send 0 to 0")

    def value(self, n: int) -> int:
        _check_nat(n, f"oracle {self.name!r}")
        v = self.fn(n)
        if v not in (0, 1):
            raise ValueError(f"oracle {self.name!r} returned {v!r}, not a bit")
        return v


def oracle_zeros() -> OracleH:
    return OracleH("zeros", lambda n: 0)


def oracle_parity() -> OracleH:
    return OracleH("parity", lambda n: n % 2)


def oracle_pseudorandom(seed: int = 0) -> OracleH:
    def fn(n: int, _seed=seed) -> int:
        if n == 0:
            return 0
        digest = hashlib.sha256(f"{_seed}:{n}".encode()).digest()
        return digest[0] & 1

    return OracleH(f"pseudorandom[{seed}]", fn)


def _oracle_stripe_encode(oracle: OracleH, x: int) -> int:
    return 2 * x + oracle.value(x)


def _oracle_stripe_decode(oracle: OracleH, y: int) -> Optional[int]:
    x = y // 2
    return x if 2 * x + oracle.value(x) == y else None


def OracleStripeEncoding(oracle: OracleH) -> Encoding:
    """n |-> 2n + h(n): an injection whose range knows the oracle."""
    encode = partial(_oracle_stripe_encode, oracle)
    decode = partial(_oracle_stripe_decode, oracle)
    return Encoding(f"2n+h[{oracle.name}]", Domain.NAT, Domain.NAT, encode, decode)


def re_family(h: OracleH, i: int) -> tuple[PartialMap, PartialMap, Encoding]:
    """The i-th semi-decidable map, its image under the oracle stripe,
    and the stripe itself.

    plain(n) is 0 when n < i or h(n) = 0, and diverges otherwise;
    image(n) is 0 when floor(n/2) < i or n is even, and diverges
    otherwise.  The image only needs parity, not the oracle: that is the
    point of the coding.
    """
    _check_nat(i, "re_family")

    def plain_fn(n: int, _i=i) -> Optional[int]:
        return 0 if n < _i or h.value(n) == 0 else None

    def image_fn(n: int, _i=i) -> Optional[int]:
        return 0 if n // 2 < _i or n % 2 == 0 else None

    plain = BuiltinMap(f"h[{i}]", Domain.NAT, plain_fn)
    image = BuiltinMap(f"h'[{i}]", Domain.NAT, image_fn)
    return plain, image, OracleStripeEncoding(h)


def re_models(h: OracleH, i_max: int) -> tuple[Model, Model]:
    """Image-side and plain-side samples of the family, index 0..i_max."""
    plains = []
    images = []
    for i in range(i_max + 1):
        plain, image, _ = re_family(h, i)
        plains.append(plain)
        images.append(image)
    image_model = Model(f"re-image[{h.name}]", Domain.NAT, tuple(images))
    plain_model = Model(f"re-plain[{h.name}]", Domain.NAT, tuple(plains))
    return image_model, plain_model
