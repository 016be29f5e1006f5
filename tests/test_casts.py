"""Conformance tests for the sniff/cast matrix (reference
type_casting/src/types.rs + tests.rs — behavioral port, cases in
tests/conformance_cases.py)."""

from datetime import datetime, timezone

import pytest

from ulp_ray.functions import casts
from ulp_ray.functions.casts import CastError, SemType as T

from conformance_cases import (
    IPV4_INVALID,
    IPV4_VALID,
    IPV6_CANONICAL,
    IPV6_INVALID,
    SNIFF_CASES,
)


@pytest.mark.parametrize("s,expected", SNIFF_CASES)
def test_sniff_order(s, expected):
    assert casts.sniff_str(s) is expected


@pytest.mark.parametrize("s", IPV4_VALID)
def test_ipv4_valid(s):
    assert casts.str_ipv4(s) == s


@pytest.mark.parametrize("s", IPV4_INVALID)
def test_ipv4_invalid(s):
    with pytest.raises(CastError):
        casts.str_ipv4(s)


@pytest.mark.parametrize("s,canon", IPV6_CANONICAL)
def test_ipv6_canonical(s, canon):
    assert casts.str_ipv6(s) == canon


@pytest.mark.parametrize("s", IPV6_INVALID)
def test_ipv6_invalid(s):
    with pytest.raises(CastError):
        casts.str_ipv6(s)


def test_ipv6_fast_path_agrees_with_ipaddress():
    """``str_ipv6``'s inet_pton/inet_ntop path accepts and canonicalizes
    exactly as ``ipaddress`` does, on seeded near-miss text: zero runs
    of every length and place, upper-case and padded hextets, stray
    colons, embedded IPv4 and non-hex characters."""
    import ipaddress
    import random

    rng = random.Random(7)

    def structured() -> str:
        groups = [
            format(rng.choice([0, 0, 0, 1, rng.randrange(65536)]), rng.choice("xX"))
            for _ in range(rng.randint(1, 9))
        ]
        if rng.random() < 0.5:
            i = rng.randint(0, len(groups))
            groups[i:i] = [""] * (2 if i in (0, len(groups)) else 1)
        return ":".join(groups)

    def noise() -> str:
        return "".join(rng.choice("0123456789abcdefABCDEFg:. x") for _ in range(rng.randint(0, 20)))

    accepted = 0
    for _ in range(20_000):
        s = structured() if rng.random() < 0.7 else noise()
        try:
            want = str(ipaddress.IPv6Address(s))
        except ValueError:
            want = None
        try:
            got = casts.str_ipv6(s)
        except CastError:
            got = None
        assert got == want, s
        accepted += want is not None
    assert accepted > 2_000


def test_null_defaults():
    # types.rs:61-72
    assert casts.cast_value(None, T.BOOL) is False
    assert casts.cast_value(None, T.INT) == 0
    assert casts.cast_value(None, T.FLOAT) == 0.0
    assert casts.cast_value(None, T.STR) == "null"


def test_bool_casts():
    assert casts.bool_int(True) == 1 and casts.bool_int(False) == 0
    assert casts.bool_float(True) == 1.0
    assert casts.bool_str(True) == "true" and casts.bool_str(False) == "false"


def test_int_bool_rejects_non_binary():
    # tests.rs:199-217: only 0/1 cast to bool
    assert casts.int_bool(0) is False
    assert casts.int_bool(1) is True
    with pytest.raises(CastError):
        casts.int_bool(2)
    with pytest.raises(CastError):
        casts.int_bool(-1)


def test_int_float_i32_clamp_quirk():
    # types.rs:109-121
    assert casts.int_float(5) == 5.0
    assert casts.int_float(2**31 - 1) == float(2**31 - 1)
    assert casts.int_float(2**31) == float(2**31 - 1)  # saturates
    assert casts.int_float(-(2**31) - 1) == float(-(2**31))


def test_float_int_rounds_half_away():
    # Rust f64::round — 0.5 away from zero, not banker's
    assert casts.float_int(0.5) == 1
    assert casts.float_int(1.5) == 2
    assert casts.float_int(2.5) == 3
    assert casts.float_int(-0.5) == -1
    assert casts.float_int(-2.5) == -3
    assert casts.float_int(2.4) == 2


def test_float_bool():
    assert casts.float_bool(0.0) is False
    assert casts.float_bool(1.0) is True
    with pytest.raises(CastError):
        casts.float_bool(0.5)


def test_str_int_hex_and_bool_fallback():
    # types.rs:168-181
    assert casts.str_int("42") == 42
    assert casts.str_int("-7") == -7
    assert casts.str_int("0x1A") == 26
    assert casts.str_int(" 0XFF ") == 255
    assert casts.str_int("true") == 1
    assert casts.str_int("false") == 0
    with pytest.raises(CastError):
        casts.str_int("12.5")
    with pytest.raises(CastError):
        casts.str_int("0xZZ")


def test_str_null_quirk():
    assert casts.str_null("null") and casts.str_null(" NULL ") and casts.str_null("0")
    assert not casts.str_null("00")
    assert not casts.str_null("1")


def test_str_date_rfc3339_only():
    dt = casts.str_date("2021-01-01T12:00:00+02:00")
    assert dt == datetime(2021, 1, 1, 10, 0, 0, tzinfo=timezone.utc)
    with pytest.raises(CastError):
        casts.str_date("2021-01-01")
    with pytest.raises(CastError):
        casts.str_date("01/01/2021")
    # cast str→date re-emits normalized RFC-3339 UTC (lib.rs:377)
    assert casts.cast_value("2021-01-01T12:00:00+02:00", T.DATE) == (
        "2021-01-01T10:00:00+00:00"
    )


def test_float_str_rust_display():
    assert casts.float_str(1.0) == "1"
    assert casts.float_str(2.5) == "2.5"


from hypothesis import given, strategies as st


@given(st.text(max_size=40))
def test_sniff_never_raises(s):
    assert casts.sniff_str(s) in set(T)


@given(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=20),
    ),
    st.sampled_from([T.NULL, T.BOOL, T.INT, T.FLOAT, T.STR]),
)
def test_cast_value_total(v, target):
    """cast_value either returns a value of the target's python type or
    raises CastError — never another exception."""
    try:
        out = casts.cast_value(v, target)
    except casts.CastError:
        return
    if target is T.NULL:
        assert out is None
    elif target is T.BOOL:
        assert isinstance(out, bool)
    elif target is T.INT:
        assert isinstance(out, int) and not isinstance(out, bool)
    elif target is T.FLOAT:
        assert isinstance(out, float)
    elif target is T.STR:
        assert isinstance(out, str)
