"""Semantic type sniffing + the cast/normalize conversion matrix.

Reproduces the reference's dynamic-typing semantics (behavior parity, new
implementation): the ordered trial-parse of strings into semantic types and
the per-primitive conversion matrix used at "normalisation" (cast) time.

Reference behavior reproduced from ``/root/reference``:
- sniff order null→bool→int→float→ipv4→ipv6→date→str:
  ``type_casting/src/types.rs:203-221`` (``test_str``)
- string parsers (``str_null`` "null"/"0", ``str_int`` decimal|0x-hex|bool,
  ``str_date`` RFC-3339 only): ``type_casting/src/types.rs:150-202``
- null defaults (null→false/0/0.0/"null"): ``types.rs:61-72``
- ``int_bool`` accepts only 0/1: ``types.rs:102-108``
- ``int_float`` clamps to i32 range before widening (documented quirk):
  ``types.rs:109-121``
- ``float_int`` rounds half-away-from-zero (Rust ``f64::round``):
  ``types.rs:141-143``

Everything here is pure Python over scalars, plus a handful of vectorized
helpers used by the hot parse path (the parse stage prefers
``pyarrow.compute`` casts and only falls back to these scalar functions for
the quirky paths: hex ints, null-sentinel strings, ip canonicalization).
"""

from __future__ import annotations

import enum
import ipaddress
import math
import socket
from datetime import datetime, timezone

__all__ = [
    "SemType",
    "CastError",
    "sniff_str",
    "str_null",
    "str_bool",
    "str_int",
    "str_float",
    "str_ipv4",
    "str_ipv6",
    "str_date",
    "null_bool",
    "null_int",
    "null_float",
    "null_str",
    "bool_int",
    "bool_float",
    "bool_str",
    "int_bool",
    "int_float",
    "int_str",
    "float_bool",
    "float_int",
    "float_str",
    "cast_value",
    "to_rfc3339",
]

_I32_MAX = 2**31 - 1
_I32_MIN = -(2**31)
_I64_MAX = 2**63 - 1
_I64_MIN = -(2**63)


class SemType(enum.Enum):
    """Scalar semantic types (reference ``type_casting/src/types.rs:8-20``).

    The container variants (List/Object) live in
    :mod:`ulp_ray.functions.schema_merge` as :class:`TypeNode`.
    """

    NULL = "null"
    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    IPV4 = "ipv4"
    IPV6 = "ipv6"
    DATE = "date"
    STR = "str"


class CastError(ValueError):
    """A conversion the matrix rejects (e.g. ``int_bool(7)``)."""


# ---------------------------------------------------------------------------
# string trial parsers (reference types.rs:150-202)
# ---------------------------------------------------------------------------


def str_null(s: str) -> bool:
    """True iff the string is a null sentinel: ``"null"`` (trimmed,
    ASCII-case-insensitive) or exactly ``"0"`` (reference quirk,
    ``types.rs:150-156``)."""
    return s.strip().lower() == "null" or s == "0"


def str_bool(s: str) -> bool:
    """Parse "true"/"false" (trimmed, ci), falling back to an int parse
    where 0→False, 1→True (``types.rs:157-167``)."""
    t = s.strip().lower()
    if t == "true":
        return True
    if t == "false":
        return False
    try:
        i = str_int(s)
    except CastError:
        raise CastError(f"unable to convert {s!r} to bool") from None
    if i == 0:
        return False
    if i == 1:
        return True
    raise CastError(f"unable to convert {s!r} to bool")


def _parse_decimal_i64(s: str) -> int:
    # Rust i64::from_str: optional sign, ASCII digits only, no underscores,
    # no leading/trailing whitespace, must fit in i64.
    if not s:
        raise CastError("empty")
    body = s[1:] if s[0] in "+-" else s
    if not body or not body.isascii() or not body.isdigit():
        raise CastError(f"unable to convert {s!r} to int")
    v = int(s)
    if not (_I64_MIN <= v <= _I64_MAX):
        raise CastError(f"unable to convert {s!r} to int")
    return v


def str_int(s: str) -> int:
    """Decimal i64; else trimmed+lowercased ``0x``-prefixed hex; else
    "true"/"false" → 1/0 (``types.rs:168-181``)."""
    try:
        return _parse_decimal_i64(s)
    except CastError:
        pass
    t = s.strip().lower()
    if t.startswith("0x"):
        hexpart = t[2:]
        if hexpart and all(c in "0123456789abcdef" for c in hexpart):
            v = int(hexpart, 16)
            if v <= _I64_MAX:
                return v
        raise CastError(f"unable to convert {s!r} to int")
    if t == "true":
        return 1
    if t == "false":
        return 0
    raise CastError(f"unable to convert {s!r} to int")


def str_float(s: str) -> float:
    """Rust ``f64::from_str``: accepts decimal/scientific, ``inf``/``NaN``;
    rejects hex, underscores, whitespace (``types.rs:182-188``)."""
    t = s.strip()
    if t != s:
        raise CastError(f"unable to convert {s!r} to float")
    low = s.lower()
    body = low[1:] if low[:1] in "+-" else low
    if body in ("inf", "infinity", "nan"):
        return float(body if body != "infinity" else "inf") * (
            -1.0 if low[:1] == "-" else 1.0
        )
    # Python float() additionally accepts '_' separators and hex-ish forms
    # Rust rejects; screen them out.
    if "_" in s or "x" in low:
        raise CastError(f"unable to convert {s!r} to float")
    try:
        return float(s)
    except ValueError:
        raise CastError(f"unable to convert {s!r} to float") from None


def str_ipv4(s: str) -> str:
    """Strict dotted-quad IPv4 (no leading-zero octets, like Rust std)."""
    try:
        return str(ipaddress.IPv4Address(s))
    except ValueError:
        raise CastError(f"unable to convert {s!r} to ipv4") from None


def str_ipv6(s: str) -> str:
    """IPv6, canonicalized (``::1`` forms — reference test
    ``type_casting/src/tests.rs:520-547``).

    Plain hex-and-colon text goes through the C ``inet_pton``/``inet_ntop``
    pair (~18× faster than ``ipaddress``), which compresses zero runs the
    same way (RFC 5952); whatever that pair rejects, and any form with an
    embedded IPv4 or a scope id, is decided by ``ipaddress``."""
    if "." not in s and "%" not in s:
        try:
            out = socket.inet_ntop(socket.AF_INET6, socket.inet_pton(socket.AF_INET6, s))
        except (OSError, ValueError):
            pass
        else:
            if "." not in out:
                return out
    try:
        return str(ipaddress.IPv6Address(s))
    except ValueError:
        raise CastError(f"unable to convert {s!r} to ipv6") from None


def str_date(s: str) -> datetime:
    """RFC-3339 only (``types.rs:197-202``); result is UTC-normalized."""
    t = s
    # datetime.fromisoformat in py>=3.11 accepts 'Z' and offsets; RFC-3339
    # requires a date-time with offset. Reject date-only / naive forms.
    try:
        dt = datetime.fromisoformat(t.replace("Z", "+00:00").replace("z", "+00:00"))
    except ValueError:
        raise CastError(f"unable to convert {s!r} to timestamp") from None
    if dt.tzinfo is None or len(t) < 11 or t[10] not in "Tt":
        raise CastError(f"unable to convert {s!r} to timestamp")
    return dt.astimezone(timezone.utc)


def to_rfc3339(dt: datetime) -> str:
    """Re-emit as RFC-3339 UTC, the reference's normalized date output
    (``type_casting/src/lib.rs:377`` uses chrono ``to_rfc3339``)."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    dt = dt.astimezone(timezone.utc)
    if dt.microsecond:
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%f") + "+00:00"
    return dt.strftime("%Y-%m-%dT%H:%M:%S") + "+00:00"


def sniff_str(s: str) -> SemType:
    """Ordered trial-parse of a string into its semantic type
    (``test_str``, ``types.rs:203-221``)."""
    if str_null(s):
        return SemType.NULL
    try:
        str_bool(s)
        return SemType.BOOL
    except CastError:
        pass
    try:
        str_int(s)
        return SemType.INT
    except CastError:
        pass
    try:
        str_float(s)
        return SemType.FLOAT
    except CastError:
        pass
    try:
        str_ipv4(s)
        return SemType.IPV4
    except CastError:
        pass
    try:
        str_ipv6(s)
        return SemType.IPV6
    except CastError:
        pass
    try:
        str_date(s)
        return SemType.DATE
    except CastError:
        pass
    return SemType.STR


# ---------------------------------------------------------------------------
# primitive conversion matrix (reference types.rs:61-148)
# ---------------------------------------------------------------------------


def null_bool() -> bool:
    return False


def null_int() -> int:
    return 0


def null_float() -> float:
    return 0.0


def null_str() -> str:
    return "null"


def bool_int(b: bool) -> int:
    return 1 if b else 0


def bool_float(b: bool) -> float:
    return 1.0 if b else 0.0


def bool_str(b: bool) -> str:
    return "true" if b else "false"


def int_bool(i: int) -> bool:
    if i == 0:
        return False
    if i == 1:
        return True
    raise CastError(f"unable to convert {i!r} to bool")


def int_float(i: int) -> float:
    """Documented reference quirk: saturates at i32 bounds before widening
    (``types.rs:109-121``)."""
    if i > _I32_MAX:
        return float(_I32_MAX)
    if i < _I32_MIN:
        return float(_I32_MIN)
    return float(i)


def int_str(i: int) -> str:
    return str(i)


def float_bool(f: float) -> bool:
    if f == 0.0:
        return False
    if f == 1.0:
        return True
    raise CastError(f"unable to convert {f!r} to bool")


def float_int(f: float) -> int:
    """Round half away from zero (Rust ``f64::round``), unlike Python's
    banker's rounding (``types.rs:141-143``)."""
    if math.isnan(f) or math.isinf(f):
        raise CastError(f"unable to convert {f!r} to int")
    return int(math.floor(f + 0.5)) if f >= 0 else int(math.ceil(f - 0.5))


def float_str(f: float) -> str:
    # Rust f64 Display prints integral floats without exponent and with no
    # trailing ".0"? (it prints "1" for 1.0_f64? No: Display prints "1").
    # Keep Python repr minus the edge: match Rust: 1.0 -> "1".
    if math.isfinite(f) and f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


_Primitive = None | bool | int | float | str | datetime


def cast_value(v: _Primitive, target: SemType) -> _Primitive:
    """Cast one scalar to a target semantic type per the reference matrix
    (``type_casting/src/lib.rs:318-437`` + ``types.rs``).

    Raises :class:`CastError` for the combinations the reference rejects.
    """
    # source NULL → typed defaults (types.rs:61-72)
    if v is None:
        return {
            SemType.NULL: None,
            SemType.BOOL: null_bool(),
            SemType.INT: null_int(),
            SemType.FLOAT: null_float(),
            SemType.STR: null_str(),
        }.get(target, None)

    if isinstance(v, bool):  # before int: bool is an int subclass in Python
        if target is SemType.NULL:
            return None
        if target is SemType.BOOL:
            return v
        if target is SemType.INT:
            return bool_int(v)
        if target is SemType.FLOAT:
            return bool_float(v)
        if target is SemType.STR:
            return bool_str(v)
        raise CastError(f"unable to cast bool to {target}")

    if isinstance(v, int):
        if target is SemType.NULL:
            return None
        if target is SemType.BOOL:
            return int_bool(v)
        if target is SemType.INT:
            return v
        if target is SemType.FLOAT:
            return int_float(v)
        if target is SemType.STR:
            return int_str(v)
        raise CastError(f"unable to cast int to {target}")

    if isinstance(v, float):
        if target is SemType.NULL:
            return None
        if target is SemType.BOOL:
            return float_bool(v)
        if target is SemType.INT:
            return float_int(v)
        if target is SemType.FLOAT:
            return v
        if target is SemType.STR:
            return float_str(v)
        raise CastError(f"unable to cast float to {target}")

    if isinstance(v, datetime):
        if target is SemType.NULL:
            return None
        if target is SemType.DATE:
            return v.astimezone(timezone.utc) if v.tzinfo else v
        if target is SemType.STR:
            return to_rfc3339(v)
        raise CastError(f"unable to cast date to {target}")

    if isinstance(v, str):
        if target is SemType.NULL:
            if str_null(v):
                return None
            raise CastError(f"unable to cast {v!r} to null")
        if target is SemType.BOOL:
            return str_bool(v)
        if target is SemType.INT:
            return str_int(v)
        if target is SemType.FLOAT:
            return str_float(v)
        if target is SemType.IPV4:
            return str_ipv4(v)
        if target is SemType.IPV6:
            return str_ipv6(v)
        if target is SemType.DATE:
            # parsed then re-emitted as RFC-3339 UTC string, the reference's
            # normalized wire form (lib.rs:377)
            return to_rfc3339(str_date(v))
        if target is SemType.STR:
            return v
        raise CastError(f"unable to cast str to {target}")

    raise CastError(f"unsupported source value {v!r}")
