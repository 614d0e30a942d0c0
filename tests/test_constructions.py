"""Domain constructions: stripes, the square-row family, pairing, oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from powerlab.core import Converged, Diverged, DomainMismatch, apply, pushforward
from powerlab.constructions import (
    GodelEncoding,
    OracleH,
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
    re_family,
    re_models,
    stripe_family,
    stripe_model,
    stripe_model_member,
    tri_f,
    tri_f_map,
    tri_g,
    tri_g_map,
    tri_models,
    tri_pi,
    tri_pi_inverse,
)
from powerlab.recdsl import ConstK, S, parse_term
from powerlab.simcheck import maps_agree
from powerlab.terms import standard_suite

# ---------------------------------------------------------------------------
# Independent oracle for the square-row family: enumerate the rows as
# actual intervals and look everything up by scanning, instead of using
# the closed-form index arithmetic the implementation relies on.


def rows_up_to(n):
    out = []
    m = 0
    while m * m <= n:
        out.append(list(range(m * m, m * m + 2 * m + 1)))
        m += 1
    return out


def row_of(n):
    rows = rows_up_to(n)
    for m, row in enumerate(rows):
        if n in row:
            return m, row
    raise AssertionError


def oracle_f(i, j, n):
    m, _ = row_of(n)
    target = list(range((m + i) ** 2, (m + i) ** 2 + 2 * (m + i) + 1))
    return target[j % len(target)]


def oracle_pi(n):
    m, row = row_of(n)
    return row[(n - row[0] + 1) % len(row)]


def test_rows_partition_the_naturals():
    seen = [x for row in rows_up_to(400) for x in row]
    assert seen == list(range(441))


def test_tri_f_matches_row_oracle():
    for n in range(0, 150):
        for i in range(4):
            for j in range(5):
                assert tri_f(i, j, n) == oracle_f(i, j, n), (i, j, n)


def test_tri_frozen_values():
    assert tri_f(1, 0, 0) == 1
    assert tri_f(1, 2, 5) == 11
    assert tri_g(2, 2) == 9
    assert [tri_pi(n) for n in range(9)] == [0, 2, 3, 1, 5, 6, 7, 8, 4]


def test_tri_maps_validate_their_indices_when_built():
    for build in (lambda: tri_f_map(-1, 1), lambda: tri_f_map(1, True),
                  lambda: tri_g_map(True), lambda: kappa_map(-2)):
        with pytest.raises(DomainMismatch):
            build()
    assert apply(tri_f_map(1, 2), 5, 10) == Converged(tri_f(1, 2, 5))
    assert apply(tri_g_map(2), 2, 10) == Converged(tri_g(2, 2))
    with pytest.raises(DomainMismatch):
        apply(tri_f_map(1, 2), -5, 10)


def test_tri_pi_matches_row_oracle():
    for n in range(200):
        assert tri_pi(n) == oracle_pi(n)


@given(st.integers(min_value=0, max_value=10**6))
def test_tri_pi_inverse_round_trip(n):
    assert tri_pi_inverse(tri_pi(n)) == n
    assert tri_pi(tri_pi_inverse(n)) == n


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 300),
)
def test_tri_composition_law(i, j, k, ell, n):
    assert tri_f(i, j, tri_f(k, ell, n)) == tri_f(i + k, j, n)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 500))
def test_tri_disjointness(i, j, n):
    if n > j * j:
        assert tri_f(i - 1, j, n) < tri_g(i, n) < tri_f(i, j, n)


def test_conjugation_moves_along_rows():
    e = TriPiEncoding()
    for i in range(3):
        for j in range(3):
            pushed = pushforward(e, tri_f_map(i, j))
            target = tri_f_map(i, j + 1)
            rep = maps_agree(pushed, target, range(120), 10**4)
            assert rep.equal, (i, j, rep.mismatches[:3])
    pushed_g = pushforward(e, tri_g_map(2))
    rep = maps_agree(pushed_g, tri_f_map(2, 1), range(120), 10**4)
    assert rep.equal


def test_conjugation_on_constants():
    e = TriPiEncoding()
    for k in range(12):
        pushed = pushforward(e, kappa_map(k))
        rep = maps_agree(pushed, kappa_map(tri_pi(k)), range(60), 10**4)
        assert rep.equal


def test_tri_models_shapes():
    large, small = tri_models(2, 2, 1)
    assert len(large.members) == 9
    assert len(small.members) == 7
    small_names = {m.name for m in small.members}
    large_names = {m.name for m in large.members}
    assert small_names < large_names
    assert "g[1]" in large_names and "g[1]" not in small_names


def test_tri_model_enumerators_cover_new_constants():
    _, small = tri_models(2, 2, 1)
    names = {m.name for m in small.candidates(64)}
    assert "kappa[6]" in names
    assert "f[1,4]" in names


# ---------------------------------------------------------------------------
# Stripes


def test_stripe_values_and_validation():
    e = StripeEncoding(2, 0)
    assert e.encode(3) == 6 and e.decode(6) == 3 and e.decode(5) is None
    assert StripeEncoding(1, 0).encode(9) == 9
    with pytest.raises(ValueError):
        StripeEncoding(0, 0)
    with pytest.raises(ValueError):
        StripeEncoding(2, 2)


def test_stripe_family_order():
    fam = stripe_family(3)
    assert [e.describe() for e in fam] == [
        "stripe(1,0)",
        "stripe(2,0)",
        "stripe(2,1)",
        "stripe(3,0)",
        "stripe(3,1)",
        "stripe(3,2)",
    ]


def test_stripe_member_fixes_off_stripe_points():
    m = stripe_model_member(S(), 2, 0)
    assert apply(m, 4, 100) == Converged(6)
    assert apply(m, 3, 100) == Converged(3)
    m5 = stripe_model_member(ConstK(5), 2, 0)
    assert apply(m5, 8, 100) == Converged(10)
    assert apply(m5, 7, 100) == Converged(7)


@given(st.integers(0, 200), st.sampled_from([(2, 0), (2, 1), (3, 2)]))
def test_stripe_member_formula(n, dr):
    # On the stripe d*n + r the image of a unary t is d*t(n) + r.
    d, r = dr
    t = parse_term("(C S S)")
    m = stripe_model_member(t, d, r)
    assert apply(m, d * n + r, 10**4) == Converged(d * (n + 2) + r)


def test_stripe_model_names_members():
    model = stripe_model(2, 1, standard_suite()[:3], name="demo")
    assert model.members[0].name.startswith("stripe(2,1):")


# ---------------------------------------------------------------------------
# Narrowness reports


def test_narrowness_identity():
    from powerlab.core import IdentityEncoding

    rep = narrowness(IdentityEncoding(), 10)
    assert rep.is_permutation_on_prefix
    assert rep.max_cycle_length == 1
    assert rep.bound_if_narrow == 1
    assert rep.cycle_lengths_histogram == ((1, 10),)


@pytest.mark.parametrize("m", range(1, 41))
def test_narrowness_tri_pi_on_whole_rows(m):
    # the window (m + 1)^2 ends at a square: rows 0..m close into cycles
    # of lengths 1, 3, ..., 2m + 1, so no bound serves every window
    rep = narrowness(TriPiEncoding(), (m + 1) ** 2)
    assert rep.is_permutation_on_prefix
    assert rep.max_cycle_length == 2 * m + 1
    assert rep.bound_if_narrow == 2 * m + 1
    assert rep.cycle_lengths_histogram == tuple((2 * r + 1, 1) for r in range(m + 1))
    assert rep.escaped_elements == 0


def test_narrowness_escaping_prefix():
    # Prefix cuts a row in half: the last row's elements escape and no
    # bound is reported.
    rep = narrowness(TriPiEncoding(), 6)
    assert rep.is_permutation_on_prefix is False
    assert rep.bound_if_narrow is None
    assert rep.escaped_elements == 2  # 4 and 5 walk out of the window


def test_narrowness_rejects_non_injective():
    from powerlab.core import Encoding, Domain

    collapse = Encoding("collapse", Domain.NAT, Domain.NAT, lambda n: 0, lambda n: None)

    with pytest.raises(ValueError, match="not a permutation|not injective"):
        narrowness(collapse, 5)


# ---------------------------------------------------------------------------
# Pairing


def test_godel_frozen_values():
    nil = ()
    assert godel_encode(nil) == 0
    assert godel_encode((nil, nil)) == 1
    assert godel_encode((nil, (nil, nil))) == 3
    assert godel_encode(((nil, nil), nil)) == 2


pure_lists = st.recursive(
    st.just(()), lambda kids: st.tuples(kids, kids), max_leaves=10
)


@given(pure_lists)
def test_godel_round_trip(x):
    assert godel_decode(godel_encode(x)) == x


@given(st.integers(0, 2**16))
def test_godel_round_trip_numeric(n):
    assert godel_encode(godel_decode(n)) == n


def test_godel_encoding_object():
    e = GodelEncoding()
    assert e.source.name == "LIST" and e.target.name == "NAT"
    assert e.encode(((), ())) == 1
    inv = e.inverse()
    assert inv.encode(3) == ((), ((), ()))


# ---------------------------------------------------------------------------
# Diagonal growth probe


def test_diag_h_frozen_values():
    double = parse_term("(R Z (C S (C S (P 3 3))))")
    double1 = parse_term("(C (R Z (C S (C S (P 3 3)))) Z I)")
    del double
    assert diag_h(double1, 2, 10**6) == 8
    assert diag_h(parse_term("I"), 0, 10**6) == 2


def test_diag_h_rejects_general_terms():
    with pytest.raises(ValueError):
        diag_h(parse_term("(M (P 2 2))"), 0, 10**6)


def test_diag_h_bound():
    with pytest.raises(ValueError, match="fuel exhausted"):
        diag_h(parse_term("Z"), 0, 1000)


@pytest.mark.parametrize(
    "text,escapes",
    [
        ("I", (2, 4, 8, 62)),
        ("(C (R Z (C S (C S (P 3 3)))) Z I)", (2, 4, 8, 62)),  # double
        ("(C (R Z (C (R (P 1 1) (C S (P 2 3))) (P 2 3) (P 1 3))) I I)", (4, 4, 9, 64)),  # square
    ],
)
def test_diag_h_escapes_each_probe_until_ack_runs_out(text, escapes):
    # the first image point above ACK(n, n) = 1, 3, 7, 61 climbs with n,
    # and ACK(4, 4) = A(3, A(4, 3)) runs out of a budget of 10**12
    probe = parse_term(text)
    assert tuple(diag_h(probe, n, 10**6) for n in range(4)) == escapes
    with pytest.raises(ValueError, match="fuel exhausted"):
        diag_h(probe, 4, 10**12)


# ---------------------------------------------------------------------------
# Oracle-indexed family


def test_oracle_validation():
    with pytest.raises(ValueError):
        OracleH("bad", lambda n: 1)
    with pytest.raises(ValueError):
        oracle_zeros().value(-1)


def test_oracle_pseudorandom_deterministic():
    a = oracle_pseudorandom(7)
    b = oracle_pseudorandom(7)
    c = oracle_pseudorandom(8)
    bits_a = [a.value(n) for n in range(64)]
    assert bits_a == [b.value(n) for n in range(64)]
    assert bits_a != [c.value(n) for n in range(64)]
    assert set(bits_a) == {0, 1}


def test_oracle_stripe_encoding():
    h = oracle_parity()
    e = OracleStripeEncoding(h)
    assert e.encode(4) == 8 and e.encode(5) == 11
    assert e.decode(8) == 4 and e.decode(9) is None


def test_re_family_law():
    for h in (oracle_zeros(), oracle_parity(), oracle_pseudorandom(3)):
        for i in (0, 2, 5):
            plain, image, rho = re_family(h, i)
            for n in range(40):
                lhs = apply(plain, n, 10**4)
                rhs = apply(image, rho.encode(n), 10**4)
                if isinstance(lhs, Converged):
                    assert rhs == Converged(rho.encode(lhs.value))
                else:
                    assert not isinstance(rhs, Converged)


def test_re_family_shapes():
    h = oracle_parity()
    plain, image, rho = re_family(h, 3)
    assert plain.name == "h[3]" and image.name == "h'[3]"
    # below the threshold everything is defined and maps to zero
    assert apply(plain, 2, 100) == Converged(0)
    assert isinstance(apply(plain, 3, 100), Diverged) or apply(plain, 3, 100) == Converged(0)


def test_re_models():
    image_model, plain_model = re_models(oracle_zeros(), 4)
    assert len(image_model.members) == len(plain_model.members) == 5
    assert plain_model.domain.name == "NAT"
