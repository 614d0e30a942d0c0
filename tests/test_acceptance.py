"""Acceptance suite.

One test per shipping criterion, each at its full stated scale, so a
plain ``pytest tests/test_acceptance.py -v`` reads as a checklist.
Every test also prints an explicit [PASS]/[FAIL] line (visible with
``-s`` and on any failure).
"""

import itertools
from contextlib import contextmanager
from functools import lru_cache

import pytest

from powerlab.core import (
    Converged,
    IdentityEncoding,
    Model,
    apply,
    compose_encodings,
    encode_outcome,
)
from powerlab.constructions import (
    OracleStripeEncoding,
    StripeEncoding,
    TriPiEncoding,
    diag_h,
    godel_decode,
    godel_encode,
    kappa_map,
    narrowness,
    oracle_parity,
    oracle_pseudorandom,
    oracle_zeros,
    re_models,
    stripe_model,
    tri_f,
    tri_f_map,
    tri_g,
    tri_g_map,
    tri_models,
    tri_pi,
    tri_pi_inverse,
)
from powerlab.machines import (
    BitsEncoding,
    bits_to_nat,
    cm_map,
    compile_rec_to_cm,
    nat_to_bits,
    tm_witness_models,
)
from powerlab.recdsl import Ack, eval_term, parse_term, term_map
from powerlab.simcheck import (
    Verdict,
    check_simulation,
    maps_agree,
    plan_over_range,
)
from powerlab.terms import rec_suite_model, standard_suite


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {desc}")
        raise
    print(f"[PASS] criterion {num:02d}: {desc}")


# ---------------------------------------------------------------------------
# 01: the bit-string codec


def test_criterion_01_bit_codec_bijection():
    with criterion(1, "bit-string codec is a bijection on the tested windows"):
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
        for n in range(2**16):
            assert bits_to_nat(nat_to_bits(n)) == n
        for length in range(17):
            for tup in itertools.product("01", repeat=length):
                b = "".join(tup)
                assert nat_to_bits(bits_to_nat(b)) == b


# ---------------------------------------------------------------------------
# 02-04: the square-row family against an interval-walk oracle.
# The oracle lays rows of lengths 1, 3, 5, ... end to end and reads
# everything off the resulting tables; no index arithmetic shared with
# the implementation.


def row_tables(limit, lookahead=8):
    starts = [0]
    while starts[-1] <= limit:
        m = len(starts) - 1
        starts.append(starts[m] + 2 * m + 1)
    for _ in range(lookahead):
        m = len(starts) - 1
        starts.append(starts[m] + 2 * m + 1)
    row_of = []
    for m in range(len(starts) - 1):
        row_of.extend([m] * (starts[m + 1] - starts[m]))
    return starts, row_of[: limit + 1]


def test_criterion_02_family_matches_row_oracle():
    with criterion(2, "family members match the interval-walk oracle (n < 10^4, i,j <= 5)"):
        limit = 10**4 - 1
        starts, row_of = row_tables(limit)
        for n in range(limit + 1):
            m = row_of[n]
            for i in range(6):
                width = starts[m + i + 1] - starts[m + i]
                base = starts[m + i]
                for j in range(6):
                    assert tri_f(i, j, n) == base + (j % width), (i, j, n)


def test_criterion_03_composition_law():
    with criterion(3, "composition collapses indices (i,k <= 5 with i+k > 0, j,l <= 5, n <= 2000)"):
        rng = range(6)
        for n in range(2001):
            rhs = {
                (s, j): tri_f(s, j, n) for s in range(11) for j in rng
            }
            for k in rng:
                for ell in rng:
                    v = tri_f(k, ell, n)
                    for i in rng:
                        if i + k == 0:
                            continue
                        for j in rng:
                            assert tri_f(i, j, v) == rhs[(i + k, j)], (i, j, k, ell, n)


def test_criterion_04_separation():
    with criterion(4, "anchors separate neighbouring members (1 <= i,j <= 5, j^2 < n <= 2000)"):
        for i in range(1, 6):
            for j in range(1, 6):
                for n in range(j * j + 1, 2001):
                    assert tri_f(i - 1, j, n) < tri_g(i, n) < tri_f(i, j, n), (i, j, n)


# ---------------------------------------------------------------------------
# 05-06: the row rotation


def test_criterion_05_rotation_cycles_and_inverse():
    with criterion(5, "rotation splits [0,100) into odd cycles and inverts on [0,10^4)"):
        rep = narrowness(TriPiEncoding(), 100)
        assert rep.is_permutation_on_prefix
        assert rep.cycle_lengths_histogram == tuple((2 * m + 1, 1) for m in range(10))
        assert rep.max_cycle_length == 19 and rep.bound_if_narrow == 19
        for n in range(10**4):
            assert tri_pi_inverse(tri_pi(n)) == n
            assert tri_pi(tri_pi_inverse(n)) == n


def test_criterion_06_conjugation_table():
    with criterion(6, "rotation conjugates members along rows (k <= 10, i,j <= 3, n <= 1000)"):
        e = TriPiEncoding()
        inputs = range(1001)
        fuel = 10**4
        from powerlab.core import pushforward

        for i in range(4):
            for j in range(4):
                rep = maps_agree(
                    pushforward(e, tri_f_map(i, j)), tri_f_map(i, j + 1), inputs, fuel
                )
                assert rep.equal, (i, j, rep.mismatches[:2])
        for i in range(1, 4):
            rep = maps_agree(pushforward(e, tri_g_map(i)), tri_f_map(i, 1), inputs, fuel)
            assert rep.equal, (i, rep.mismatches[:2])
        for k in range(11):
            rep = maps_agree(pushforward(e, kappa_map(k)), kappa_map(tri_pi(k)), inputs, fuel)
            assert rep.equal, (k, rep.mismatches[:2])


# ---------------------------------------------------------------------------
# 07: the anomaly


@pytest.mark.parametrize("i_max, k_max", [(3, 5), (2, 4), (3, 6), (4, 8)])
def test_criterion_07_smaller_family_absorbs_larger(i_max, k_max):
    with criterion(
        7,
        "plain family simulates the anchored one through the rotation"
        f" (i, j <= {i_max}, k <= {k_max}, 0..1000)",
    ):
        large, small = tri_models(i_max, i_max, k_max)
        small_names = {m.name for m in small.members}
        large_names = {m.name for m in large.members}
        assert small_names < large_names
        plan = plan_over_range(0, 1000, 10**5, candidate_limit=64)
        rep = check_simulation(small, large, TriPiEncoding(), plan)
        assert rep.aggregate is Verdict.VERIFIED
        by_member = {r.member: r for r in rep.members}
        for i in range(1, i_max + 1):
            assert by_member[f"g[{i}]"].witness == f"f[{i},1]"


# ---------------------------------------------------------------------------
# 08: stripe transports of the whole suite


def test_criterion_08_stripe_transports():
    with criterion(8, "doubled and odd stripes carry the suite (0..64, fuel 10^6)"):
        suite = rec_suite_model()
        plan = plan_over_range(0, 64, 10**6)
        for d, r in ((2, 0), (2, 1)):
            striped = stripe_model(d, r)
            rep = check_simulation(striped, suite, StripeEncoding(d, r), plan)
            assert rep.aggregate is Verdict.VERIFIED, (d, r)
            for res in rep.members:
                if res.member == "ack2-row":
                    # same function as ack2, which is listed first
                    assert res.witness == f"stripe({d},{r}):ack2"
                else:
                    assert res.witness == f"stripe({d},{r}):{res.member}", res


# ---------------------------------------------------------------------------
# 09: the compiler


def test_criterion_09_compiler_differential():
    with criterion(9, "compiled counter machines match the interpreter (0..20, fuel 10^6)"):
        for name, t in standard_suite():
            m = cm_map(compile_rec_to_cm(t, name=name))
            for n in range(21):
                direct = eval_term(t, (n,), 10**6)
                compiled = apply(m, n, 10**6)
                assert direct == compiled, (name, n, direct, compiled)


# ---------------------------------------------------------------------------
# 10: tape machines as witnesses


def test_criterion_10_tape_witnesses():
    with criterion(10, "tape programs witness succ/zero/ident through the bit codec (n < 256)"):
        tm_model, rec_model = tm_witness_models()
        plan = plan_over_range(0, 255, 10**5)
        rep = check_simulation(tm_model, rec_model, BitsEncoding(), plan)
        assert rep.aggregate is Verdict.VERIFIED
        witnesses = {r.member: r.witness for r in rep.members}
        assert witnesses == {
            "succ": "tm-succ",
            "zero": "tm-erase",
            "ident": "tm-ident",
        }


# ---------------------------------------------------------------------------
# 11: pairing


def test_criterion_11_pairing():
    with criterion(11, "pair coding hits its frozen values and round-trips below 2^16"):
        nil = ()
        assert godel_encode(nil) == 0
        assert godel_encode((nil, nil)) == 1
        assert godel_encode(((nil, nil), nil)) == 2
        assert godel_encode((nil, (nil, nil))) == 3
        for n in range(2**16):
            assert godel_encode(godel_decode(n)) == n


# ---------------------------------------------------------------------------
# 12: fast growth


@lru_cache(maxsize=None)
def slow_ack(m, n):
    if m == 0:
        return n + 1
    if n == 0:
        return slow_ack(m - 1, 1)
    return slow_ack(m - 1, slow_ack(m, n - 1))


def warm_slow_ack():
    # fill the cache in increasing order so no call recurses deeply
    for n in range(22001):
        slow_ack(1, n)
    for n in range(10001):
        slow_ack(2, n)
    for n in range(11):
        slow_ack(3, n)


def test_criterion_12_fast_growth_desk():
    with criterion(12, "ACK matches plain recursion; diagonal probes land at 8 and 2"):
        warm_slow_ack()

        def ack(m, n):
            return eval_term(Ack(), (m, n), 10**15)

        assert ack(2, 2) == Converged(7) == Converged(slow_ack(2, 2))
        assert ack(3, 3) == Converged(61) == Converged(slow_ack(3, 3))
        assert ack(3, 10) == Converged(8189) == Converged(slow_ack(3, 10))
        for m in range(4):
            for n in range(8):
                assert ack(m, n) == Converged(slow_ack(m, n))
        double = parse_term("(C (R Z (C S (C S (P 3 3)))) Z I)")
        assert diag_h(double, 2, 10**6) == 8
        assert diag_h(parse_term("I"), 0, 10**6) == 2


# ---------------------------------------------------------------------------
# 13: the oracle-indexed family


def test_criterion_13_oracle_family_equation():
    with criterion(13, "image equation holds for 3 oracles (i <= 8, n <= 64)"):
        for h in (oracle_zeros(), oracle_parity(), oracle_pseudorandom(0)):
            rho = OracleStripeEncoding(h)
            image_model, plain_model = re_models(h, 8)
            for plain, image in zip(plain_model.members, image_model.members):
                for n in range(65):
                    lhs = encode_outcome(rho, apply(plain, n, 100))
                    rhs = apply(image, rho.encode(n), 100)
                    assert lhs == rhs, (h.name, plain.name, n, lhs, rhs)


# ---------------------------------------------------------------------------
# 14: engine laws


def test_criterion_14_engine_laws():
    with criterion(14, "verdicts grow with fuel, compose transitively, degrade to containment"):
        suite = rec_suite_model()
        striped = stripe_model(2, 0)
        # fuel monotonicity: more fuel can only move unknown toward a
        # settled verdict, and a true claim never becomes refuted
        rank = {Verdict.UNKNOWN: 0, Verdict.VERIFIED: 1}
        seen = []
        for fuel in (2000, 20000, 10**6):
            plan = plan_over_range(0, 64, fuel, b_sample=("square", "floor-sqrt"))
            rep = check_simulation(striped, suite, StripeEncoding(2, 0), plan)
            assert rep.aggregate is not Verdict.REFUTED
            seen.append(rep.aggregate)
        assert seen[-1] is Verdict.VERIFIED
        assert [rank[v] for v in seen] == sorted(rank[v] for v in seen)
        # transitivity along composed encodings
        pairs = [("zero", parse_term("Z")), ("succ", parse_term("S"))]
        c = Model("third", suite.domain, tuple(term_map(t, n) for n, t in pairs))
        plan = plan_over_range(0, 32, 10**5)
        e1, e2 = StripeEncoding(2, 0), IdentityEncoding()
        assert check_simulation(striped, suite, e1, plan).aggregate is Verdict.VERIFIED
        mid = check_simulation(suite, c, e2, plan)
        top = check_simulation(striped, c, compose_encodings(e1, e2), plan)
        assert mid.aggregate is Verdict.VERIFIED
        assert top.aggregate is Verdict.VERIFIED
        # containment as the degenerate case
        small = Model("small", suite.domain, suite.members[:4])
        assert (
            check_simulation(suite, small, IdentityEncoding(), plan).aggregate
            is Verdict.VERIFIED
        )
        missing = Model("missing", suite.domain, (kappa_map(9),))
        assert (
            check_simulation(missing, small, IdentityEncoding(), plan).aggregate
            is Verdict.REFUTED
        )
