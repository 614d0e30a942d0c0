"""Core domain/map/encoding behaviour."""

import pytest
from hypothesis import given, strategies as st

from powerlab.core import (
    FUEL_EXHAUSTED,
    BuiltinMap,
    Converged,
    Diverged,
    Domain,
    DomainMismatch,
    IdentityEncoding,
    InvalidMap,
    Model,
    PartialMap,
    TableEncoding,
    TableMap,
    apply,
    apply_with_cost,
    compose_encodings,
    encode_outcome,
    identity_map,
    pullback,
    pushforward,
    pushforward_model,
)
from powerlab.constructions import StripeEncoding
from powerlab.recdsl import S, parse_term, term_map

nats = st.integers(min_value=0, max_value=10**6)


def test_domain_membership():
    assert Domain.NAT.contains(0) and Domain.NAT.contains(10**30)
    assert not Domain.NAT.contains(-1)
    assert not Domain.NAT.contains(True)  # bools are not naturals
    assert Domain.BITS.contains("") and Domain.BITS.contains("0110")
    assert not Domain.BITS.contains("012")
    assert not Domain.BITS.contains(3)
    assert Domain.LIST.contains(()) and Domain.LIST.contains(((), ((), ())))
    assert not Domain.LIST.contains(((),))
    assert not Domain.LIST.contains("()")


@pytest.mark.parametrize(
    "x, member",
    [
        ("", True),
        ("0", True),
        ("0110", True),
        ("012", False),
        ("0 1", False),
        ("01\n", False),
        ("\uff10\uff11", False),  # full-width digits
        (b"01", False),
        (1, False),
        (None, False),
    ],
)
def test_bits_domain_membership(x, member):
    assert Domain.BITS.contains(x) is member


def test_apply_identity_builtin():
    assert apply(identity_map(), 7, 100) == Converged(7)
    out, spent = apply_with_cost(identity_map(), 7, 100)
    assert spent == 1


def test_apply_validates():
    with pytest.raises(ValueError, match="fuel"):
        apply(identity_map(), 0, 0)
    with pytest.raises(DomainMismatch, match="wrong domain"):
        apply(identity_map(), "01", 10)
    with pytest.raises(InvalidMap, match="invalid map"):
        apply(PartialMap("bare", Domain.NAT), 0, 10)


def test_builtin_divergence_is_certified():
    never = BuiltinMap("never", Domain.NAT, lambda n: None)
    out = apply(never, 3, 100)
    assert isinstance(out, Diverged)
    assert out == Diverged("anything")  # reason is informational only


def test_table_map():
    t = TableMap("tab", Domain.NAT, ((1, 5), (2, 9)))
    assert apply(t, 1, 10) == Converged(5)
    assert isinstance(apply(t, 3, 10), Diverged)


def test_compose_encodings_values():
    e = compose_encodings(StripeEncoding(2, 0), StripeEncoding(2, 1))
    assert e.encode(5) == 22
    assert compose_encodings(IdentityEncoding(), StripeEncoding(3, 1)).encode(2) == 7
    assert compose_encodings(StripeEncoding(2, 0), StripeEncoding(2, 0)).encode(3) == 12


def test_compose_decode_runs_in_reverse():
    e = compose_encodings(StripeEncoding(2, 0), StripeEncoding(2, 1))
    assert e.decode(22) == 5
    assert e.decode(21) is None  # odd: not in the outer stripe
    assert e.decode(20) is None  # 10 is even: not in the inner image


def test_compose_rejects_domain_mismatch():
    from powerlab.machines import BitsEncoding

    with pytest.raises(DomainMismatch):
        compose_encodings(StripeEncoding(2, 0), BitsEncoding())


def test_table_encoding():
    e = TableEncoding(((0, 1), (1, 0), (2, 2)))
    assert e.encode(0) == 1 and e.decode(1) == 0
    assert e.decode(5) is None
    assert e.inverse().encode(1) == 0
    with pytest.raises(ValueError, match="not injective"):
        TableEncoding(((0, 1), (2, 1)))
    with pytest.raises(ValueError, match="not defined"):
        e.encode(9)


@given(nats)
def test_stripe_decode_inverts_encode(n):
    e = StripeEncoding(3, 2)
    assert e.decode(e.encode(n)) == n


@given(nats)
def test_stripe_decode_rejects_off_range(n):
    e = StripeEncoding(3, 2)
    if n % 3 != 2:
        assert e.decode(n) is None


def test_pushforward_minimal_extension_diverges_off_range():
    m = pushforward(StripeEncoding(2, 0), term_map(S()))
    assert apply(m, 4, 100) == Converged(6)
    assert isinstance(apply(m, 3, 100), Diverged)


def test_pushforward_fix_extension():
    m = pushforward(StripeEncoding(2, 0), term_map(S()), off_range="fix")
    assert apply(m, 4, 100) == Converged(6)
    assert apply(m, 3, 100) == Converged(3)


def test_pullback_example():
    pb = pullback(StripeEncoding(2, 0), term_map(S()))
    assert isinstance(apply(pb, 3, 100), Diverged)  # S(6) = 7 is off the stripe
    double_then = parse_term("(C S (C S I))")  # n + 2 stays on the stripe
    assert apply(pullback(StripeEncoding(2, 0), term_map(double_then)), 3, 100) == Converged(4)


def test_push_pull_validate_domains():
    from powerlab.machines import BitsEncoding

    with pytest.raises(DomainMismatch):
        pushforward(BitsEncoding(), tm_like := BuiltinMap("b", Domain.BITS, lambda s: s))
    with pytest.raises(DomainMismatch):
        pullback(BitsEncoding(), identity_map())


@given(st.integers(min_value=0, max_value=500))
def test_pull_of_push_is_identity_on_the_map(n):
    e = StripeEncoding(3, 1)
    m = term_map(parse_term("(C S S)"), "plus2")
    roundtrip = pullback(e, pushforward(e, m))
    assert apply(roundtrip, n, 10**4) == apply(m, n, 10**4)


def test_encode_outcome():
    e = StripeEncoding(2, 0)
    assert encode_outcome(e, Converged(3)) == Converged(6)
    assert encode_outcome(e, Diverged()) == Diverged()
    assert encode_outcome(e, FUEL_EXHAUSTED) == FUEL_EXHAUSTED


def test_model_validation():
    a = identity_map(name="a")
    with pytest.raises(ValueError, match="duplicate"):
        Model("m", Domain.NAT, (a, identity_map(name="a")))
    with pytest.raises(DomainMismatch):
        Model("m", Domain.BITS, (a,))


def test_model_candidates_dedup_and_order():
    listed = (identity_map(name="k0"),)
    made = []

    def enum(ix):
        m = BuiltinMap(f"k{ix}", Domain.NAT, lambda n, ix=ix: ix)
        made.append(m.name)
        return m

    model = Model("m", Domain.NAT, listed, enum)
    pool = model.candidates(3)
    assert [m.name for m in pool] == ["k0", "k1", "k2"]
    assert model.candidates(0) == list(listed)


def test_model_candidates_reject_enumerated_maps_of_another_domain():
    model = Model(
        "m", Domain.NAT, (), lambda ix: BuiltinMap(f"b{ix}", Domain.BITS, lambda s: s)
    )
    assert model.candidates(0) == []
    with pytest.raises(DomainMismatch, match="b0"):
        model.candidates(1)


def test_pushforward_model_maps_members_and_enumerator():
    base = Model(
        "b", Domain.NAT, (term_map(S(), "succ"),), lambda ix: identity_map(name=f"e{ix}")
    )
    img = pushforward_model(StripeEncoding(2, 0), base)
    assert img.domain is Domain.NAT
    assert apply(img.members[0], 6, 100) == Converged(8)
    assert apply(img.enumerator(0), 6, 100) == Converged(6)


def test_fuel_exhaustion_reports_full_spend():
    slow = term_map(parse_term("(M (C S (P 2 2)))"), "hopeless")
    out, spent = apply_with_cost(slow, 0, 50)
    assert out == FUEL_EXHAUSTED and spent == 50
