"""The compiled regex rule registry — the pattern-matching core.

This is the open, declarative replacement for the reference's closed parser
registry (``/root/reference/src/lib.rs:35-93``: an enum of binary parsers
dispatched by magic-byte sniffing). Here a *rule* is a named regex with
typed named captures plus a route; the registry applies rules in order with
**first-match-wins** semantics and an ``_unmatched`` fallback (the analog of
``Parser::None``, ``src/lib.rs:69``).

Typed captures reuse the reference's string-sniffing semantics
(``type_casting/src/types.rs:150-221``): capture type ``int`` accepts
decimal and ``0x`` hex (``str_int``), ``nullable_str`` maps the ``"null"``/
``"0"`` sentinels to null (``str_null``), ``ts`` parses RFC-3339 only
(``str_date``), ``ip`` canonicalizes IPv6.

Hot path, one pass per batch (:meth:`CompiledRegistry.parse_routed`):

- **Classify once.** One polars literal ``str.contains`` (memmem) scan
  per distinct ``prefilter`` literal, on first use, finds which rows hold
  it. Rule *i*'s regex candidates are the still-unmatched rows holding
  its literal; a rule without a prefilter takes every unmatched row.
  First-match-wins stays exact: a row whose literal hits but whose regex
  fails falls through to later rules.
- **Extract on candidates only, and only what the caller reads.**
  ``pyarrow.compute.extract_regex`` (RE2) runs over the gathered
  candidates, anchored at the text start first and unanchored only on
  the misses; typed conversion runs on the winners, and each capture
  column is one ``pc.take`` over its rules' converted winners. A caller
  that names the columns it reads gets only those captures; a rule none
  of whose captures is read is tested with ``match_substring_regex``
  (the same RE2 match, no extract, no conversion). So
  :meth:`CompiledRegistry.classify`, which returns only each row's rule
  id (``run_streaming_counts``), extracts nothing. Only the quirky
  conversions (hex int, null sentinel, IPv6 canonicalization, RFC-3339)
  drop to Python, and only over the rows that need them.
- **Route by rule id**, when the caller reads it. The sanitised route of every static rule is
  computed once per compiled registry; a batch's route column is one
  ``pc.take`` by rule id. Only ``{{template}}`` rules evaluate (and
  sanitise) per row, and only over their own rows.

Prefilter contract: a rule's ``prefilter`` must lie inside a run of literal
characters that every match of its pattern contains (outside optional,
alternated and zero-repeat parts). :class:`Rule` checks this with Python's
``re`` parser at construction, because a row without the literal is never
offered to the regex.

polars is imported on first parse, not at module import, so processes that
only build registries do not pay for it. Text typed ``large_string`` or
``string_view`` is parsed as ``string`` (``string_view`` through polars:
pyarrow 16 has no take or cast kernel for it).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .functions import casts
from .functions.routing import IndexPattern, sanitise_routes

try:  # Python >= 3.11
    from re import _constants as _sre_c, _parser as _sre_p
except ImportError:  # pragma: no cover - Python < 3.11
    import sre_constants as _sre_c
    import sre_parse as _sre_p

__all__ = [
    "Capture",
    "Rule",
    "RuleRegistry",
    "CompiledRegistry",
    "UNMATCHED",
    "GROK_PATTERNS",
    "grok_rule",
    "expand_grok",
    "default_transcript_registry",
]

UNMATCHED = "_unmatched"

# capture type → output Arrow type
_CAPTURE_ARROW: dict[str, pa.DataType] = {
    "str": pa.string(),
    "nullable_str": pa.string(),
    "int": pa.int64(),
    "float": pa.float64(),
    "bool": pa.bool_(),
    "ip": pa.string(),
    "ts": pa.timestamp("us", tz="UTC"),
}


@dataclass(frozen=True)
class Capture:
    """One named capture group: ``name`` must appear as ``(?P<name>...)``
    in the rule pattern; ``type`` selects the typed conversion."""

    name: str
    type: str = "str"

    def __post_init__(self) -> None:
        if self.type not in _CAPTURE_ARROW:
            raise ValueError(f"unknown capture type {self.type!r}")

    @property
    def arrow_type(self) -> pa.DataType:
        return _CAPTURE_ARROW[self.type]


@dataclass(frozen=True)
class Rule:
    """A parse rule: first-match-wins within the registry order.

    ``route`` defaults to the rule name; a ``{{capture}}`` template is
    allowed (reference index-pattern analog, ``src/type_map.rs:9-62``).

    ``prefilter``: optional literal substring that every matching text
    must contain — only rows holding it are offered to the regex in
    :meth:`CompiledRegistry.parse_column`. It must lie inside a run of
    literal characters that every match contains (see
    :func:`_required_literals`); anything else would drop matches
    silently, so construction raises ``ValueError``.
    """

    name: str
    pattern: str
    captures: tuple[Capture, ...] = ()
    route: str | None = None
    prefilter: str | None = None

    def __post_init__(self) -> None:
        compiled = re.compile(self.pattern)
        declared = {c.name for c in self.captures}
        present = set(compiled.groupindex)
        missing = declared - present
        if missing:
            raise ValueError(f"rule {self.name}: captures {missing} not in pattern")
        if self.prefilter:
            runs = _required_literals(self.pattern)
            if not any(self.prefilter in run for run in runs):
                raise ValueError(
                    f"rule {self.name}: prefilter {self.prefilter!r} is not "
                    "part of a literal every match must contain (required "
                    f"literal runs: {runs}) — rows matching the pattern "
                    "without it would silently land in _unmatched"
                )


def _required_literals(pattern: str) -> list[str]:
    """Maximal runs of literal characters that every match of ``pattern``
    contains, read from Python's ``re`` parse tree.

    Groups are transparent; a repeat with a minimum of at least one keeps
    its body's runs but breaks the run around it; optional parts,
    alternations, classes, wildcards, anchors, assertions and
    case-insensitive parts contribute nothing and break the run.
    """
    tree = _sre_p.parse(pattern)
    if tree.state.flags & _sre_c.SRE_FLAG_IGNORECASE:
        return []
    repeats = {
        getattr(_sre_c, op)
        for op in ("MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT")
        if hasattr(_sre_c, op)
    }
    atomic = getattr(_sre_c, "ATOMIC_GROUP", None)
    runs: list[str] = []
    cur: list[str] = []

    def flush() -> None:
        if cur:
            runs.append("".join(cur))
            cur.clear()

    def walk(seq) -> None:
        for op, av in seq:
            if op is _sre_c.LITERAL:
                cur.append(chr(av))
            elif op is _sre_c.SUBPATTERN:
                _group, add_flags, _del_flags, body = av
                if add_flags & _sre_c.SRE_FLAG_IGNORECASE:
                    flush()
                else:
                    walk(body)
            elif op in repeats:
                lo, _hi, body = av
                flush()
                if lo >= 1:
                    walk(body)
                    flush()
            elif op is atomic:
                flush()
                walk(av)
                flush()
            else:
                flush()

    walk(tree)
    flush()
    return runs


class RuleRegistry:
    """Ordered collection of rules; ``compile()`` → :class:`CompiledRegistry`.

    Keep the *registry* (cheap, picklable) on the driver and in task specs;
    compilation happens once per worker process / actor (reference contrast:
    ulp constructs its parser objects per task, ``src/workerpool.rs:296-307``).
    """

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self.rules: list[Rule] = list(rules)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError("duplicate rule names")

    def add(self, rule: Rule) -> "RuleRegistry":
        self.rules.append(rule)
        return self

    def compile(self) -> "CompiledRegistry":
        return CompiledRegistry(self)

    def to_json(self) -> str:
        """Serialize the rule set (the declarative user-extension surface —
        the reference's closed enum registry becomes a config file users
        edit; ``src/lib.rs:35-56`` analog)."""
        import json

        return json.dumps(
            [
                {
                    "name": r.name,
                    "pattern": r.pattern,
                    "captures": [{"name": c.name, "type": c.type} for c in r.captures],
                    "route": r.route,
                    "prefilter": r.prefilter,
                }
                for r in self.rules
            ],
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "RuleRegistry":
        import json

        return cls(
            [
                Rule(
                    name=spec["name"],
                    pattern=spec["pattern"],
                    captures=tuple(
                        Capture(c["name"], c.get("type", "str"))
                        for c in spec.get("captures", [])
                    ),
                    route=spec.get("route"),
                    prefilter=spec.get("prefilter"),
                )
                for spec in json.loads(text)
            ]
        )

    @property
    def version(self) -> str:
        """Deterministic fingerprint of the rule set (recorded in run
        manifests so resumed runs can detect a registry change)."""
        import hashlib

        h = hashlib.sha256()
        for r in self.rules:
            h.update(
                f"{r.name}\x00{r.pattern}\x00{r.route}\x00"
                f"{[(c.name, c.type) for c in r.captures]}\x01".encode()
            )
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# grok-style pattern aliases
# ---------------------------------------------------------------------------

# the alias vocabulary log-pipeline users actually write (the north star's
# "grok/regex rule registry"); each expands to a plain regex fragment and,
# where the alias implies one, a default typed conversion. Pattern bodies
# follow the public grok pattern family.
GROK_PATTERNS: dict[str, str] = {
    "WORD": r"\w+",
    "NOTSPACE": r"\S+",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "INT": r"[+-]?\d+",
    "POSINT": r"\d+",
    "HEXINT": r"0x[0-9a-fA-F]+",
    "NUMBER": r"[+-]?\d+(?:\.\d+)?",
    "BOOL": r"true|false",
    "IPV4": r"(?:\d{1,3}\.){3}\d{1,3}",
    "IPV6": r"[0-9a-fA-F:]+",
    "IP": r"(?:(?:\d{1,3}\.){3}\d{1,3}|[0-9a-fA-F:]+)",
    "TIMESTAMP_ISO8601": (
        r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:\.\d+)?"
        r"(?:Z|[+-]\d{2}:?\d{2})?"
    ),
    "LOGLEVEL": r"TRACE|DEBUG|INFO|WARN(?:ING)?|ERROR|FATAL|CRITICAL",
    "UUID": r"[0-9a-fA-F]{8}-(?:[0-9a-fA-F]{4}-){3}[0-9a-fA-F]{12}",
    # access-log building blocks (public grok vocabulary)
    "USER": r"[a-zA-Z0-9._-]+",
    "HTTPDATE": r"\d{2}/\w{3}/\d{4}:\d{2}:\d{2}:\d{2} [+-]\d{4}",
    "HTTPMETHOD": r"GET|POST|PUT|DELETE|HEAD|OPTIONS|PATCH|TRACE|CONNECT",
    "URIPATH": r"/[^\s?#]*",
    "QS": r"\?[^\s#]*",
    "HTTPVERSION": r"HTTP/\d(?:\.\d)?",
    "QUOTEDSTRING": r"\"[^\"]*\"",
}

# alias → default capture type (overridable with %{ALIAS:name:type})
_GROK_TYPES: dict[str, str] = {
    "INT": "int",
    "POSINT": "int",
    "HEXINT": "int",
    "NUMBER": "float",
    "BOOL": "bool",
    "IPV4": "ip",
    "IPV6": "ip",
    "IP": "ip",
    "TIMESTAMP_ISO8601": "ts",
}

_GROK_RE = re.compile(r"%\{(\w+)(?::(\w+))?(?::(\w+))?\}")


def expand_grok(
    grok: str, extra_patterns: dict[str, str] | None = None
) -> tuple[str, tuple[Capture, ...]]:
    """Expand ``%{ALIAS:field}`` / ``%{ALIAS}`` / ``%{ALIAS:field:type}``
    into a plain regex with ``(?P<field>…)`` groups plus the typed capture
    list. Text outside ``%{…}`` is kept verbatim (regex semantics, like
    grok). ``extra_patterns`` adds/overrides alias definitions (the
    logstash custom-patterns extension point); alias bodies may reference
    other aliases — expansion recurses until stable (a cycle raises).
    Unknown aliases raise."""
    captures: list[Capture] = []
    vocab = {**GROK_PATTERNS, **(extra_patterns or {})}

    def sub(m: re.Match) -> str:
        alias, name, typ = m.group(1), m.group(2), m.group(3)
        if alias not in vocab:
            raise ValueError(f"unknown grok alias %{{{alias}}}")
        pat = vocab[alias]
        if name is None:
            return f"(?:{pat})"
        captures.append(Capture(name, typ or _GROK_TYPES.get(alias, "str")))
        return f"(?P<{name}>{pat})"

    pattern = grok
    for _ in range(10):  # custom alias bodies may nest further aliases
        expanded = _GROK_RE.sub(sub, pattern)
        if expanded == pattern:
            break
        pattern = expanded
    else:
        raise ValueError("grok expansion did not terminate (alias cycle?)")
    return pattern, tuple(captures)


def grok_rule(
    name: str,
    grok: str,
    route: str | None = None,
    prefilter: str | None = None,
    extra_patterns: dict[str, str] | None = None,
) -> Rule:
    """Build a :class:`Rule` from grok syntax — the declarative form
    log-pipeline users write; compiles down to the same typed-capture
    regex machinery (and serializes through ``to_json`` as the expanded
    rule)."""
    pattern, captures = expand_grok(grok, extra_patterns)
    return Rule(
        name=name,
        pattern=pattern,
        captures=captures,
        route=route,
        prefilter=prefilter,
    )


# a dotted quad whose octets are 0-255 without leading zeros
_OCTET = r"(?:25[0-5]|2[0-4]\d|1\d\d|[1-9]?\d)"
_IPV4 = rf"^{_OCTET}(?:\.{_OCTET}){{3}}$"


def _convert_capture(vals: pa.Array, cap: Capture) -> pa.Array:
    """Typed conversion of one extracted string column (nulls pass through).

    Fast paths use Arrow kernels; the quirky semantics (hex ``0x`` ints,
    ``"null"``/``"0"`` sentinels, ip canonicalization, RFC-3339) use a
    Python pass over the matched subset only.
    """
    if cap.type == "str":
        return vals
    if cap.type == "nullable_str":
        # "null" (trimmed, ci) and "0" → null (types.rs:150-156)
        lowered = pc.utf8_lower(pc.utf8_trim_whitespace(vals))
        is_null_sentinel = pc.or_(
            pc.equal(lowered, "null"), pc.equal(vals, "0")
        )
        return pc.if_else(is_null_sentinel, pa.scalar(None, pa.string()), vals)
    if cap.type == "float":
        return pc.cast(vals, pa.float64())
    if cap.type == "bool":
        lowered = pc.utf8_lower(pc.utf8_trim_whitespace(vals))
        true_mask = pc.is_in(lowered, value_set=pa.array(["true", "1"]))
        false_mask = pc.is_in(lowered, value_set=pa.array(["false", "0"]))
        ok = pc.or_(true_mask, false_mask)
        return pc.if_else(ok, true_mask, pa.scalar(None, pa.bool_()))
    if cap.type == "int":
        # decimal fast path; 0x-hex / bool-word fallback per str_int
        try:
            return pc.cast(vals, pa.int64())
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            out: list[int | None] = []
            for v in vals.to_pylist():
                if v is None:
                    out.append(None)
                    continue
                try:
                    out.append(casts.str_int(v))
                except casts.CastError:
                    out.append(None)
            return pa.array(out, type=pa.int64())
    if cap.type == "ip":
        # vectorized strict dotted-quad fast path: a valid IPv4 (no
        # leading-zero octets, each ≤255) canonicalizes to itself, so no
        # python ipaddress call is needed for the ~90% case
        valid_v4 = pc.match_substring_regex(vals, _IPV4)
        rest = pc.invert(pc.fill_null(valid_v4, False))
        if not pc.any(rest).as_py():
            return vals
        # slow path only for the non-dotted-quad remainder (ipv6 etc.),
        # scattered back in place
        out = []
        for v in vals.filter(rest).to_pylist():
            try:
                out.append(None if v is None else casts.str_ipv6(v))
            except casts.CastError:
                out.append(None)
        return pc.replace_with_mask(vals, rest, pa.array(out, type=pa.string()))
    if cap.type == "ts":
        try:
            return pc.cast(
                pc.strptime(vals, format="%Y-%m-%dT%H:%M:%S%z", unit="us"),
                pa.timestamp("us", tz="UTC"),
            )
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            out = []
            for v in vals.to_pylist():
                if v is None:
                    out.append(None)
                    continue
                try:
                    out.append(casts.str_date(v))
                except casts.CastError:
                    out.append(None)
            return pa.array(out, type=pa.timestamp("us", tz="UTC"))
    raise AssertionError(cap.type)


def _scatter(
    parts: list[tuple[np.ndarray, pa.Array]], n: int, typ: pa.DataType
) -> pa.Array:
    """One capture column of ``n`` rows: ``parts`` holds each rule's
    winner rows and their converted values; every other row is null. One
    ``pc.take`` over the concatenated values, with a null index elsewhere."""
    if not parts:
        return pa.nulls(n, type=typ)
    pos = np.full(n, -1, dtype=np.int64)
    start = 0
    for rows, vals in parts:
        pos[rows] = np.arange(start, start + len(rows))
        start += len(rows)
    values = pa.concat_arrays([vals.cast(typ) for _, vals in parts])
    return pc.take(values, pa.array(pos, mask=pos < 0))


def _polars():
    """The polars module, imported on first use with one thread per
    process (as in ``stages/_bucket.py``)."""
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    import polars

    return polars


class CompiledRegistry:
    """Compiled form: RE2 patterns (via ``pc.extract_regex``) + the union
    output schema of all capture fields."""

    def __init__(self, registry: RuleRegistry) -> None:
        self.registry = registry
        self.rules = registry.rules
        # union capture schema; conflict (same name, different type) is an error
        fields: dict[str, pa.DataType] = {}
        for r in self.rules:
            for c in r.captures:
                if c.name in fields and fields[c.name] != c.arrow_type:
                    raise ValueError(
                        f"capture {c.name!r} typed differently across rules"
                    )
                fields.setdefault(c.name, c.arrow_type)
        self.capture_fields: list[tuple[str, pa.DataType]] = sorted(fields.items())
        # smoke-compile every pattern with re for early error surfacing
        for r in self.rules:
            re.compile(r.pattern)
        # rule id → name / route; id len(rules) is the _unmatched fallback
        self.rule_names = pa.array(
            [r.name for r in self.rules] + [UNMATCHED], type=pa.string()
        )
        self._routes = pa.array(
            [r.route or r.name for r in self.rules] + [UNMATCHED], type=pa.string()
        )
        self._sanitised_routes = sanitise_routes(self._routes)
        self._templates = [
            (ri, IndexPattern.parse(r.route))
            for ri, r in enumerate(self.rules)
            if r.route and "{{" in r.route
        ]
        # the columns the templates read (a missing one evaluates to NONE)
        self._template_captures = {
            path.split(".")[0]
            for _, tmpl in self._templates
            for path, is_eval in tmpl.parts
            if is_eval
        }
        # rule id → its pattern anchored at the text start (see _extract)
        self._anchored = [f"^(?:{r.pattern})" for r in self.rules]

    def classify(self, text: pa.Array | pa.ChunkedArray) -> np.ndarray:
        """Each row's int32 rule id under first-match-wins, ``len(rules)``
        (``_unmatched``) for a row no rule matches or a null text;
        ``rule_names[id]`` is its name. Every rule is one RE2 match over
        its candidates: nothing is extracted and no column is built."""
        return self._match_rules(text, set())[0]

    def _parse(
        self, text: pa.Array | pa.ChunkedArray, captures: Iterable[str] | None = None
    ) -> tuple[pa.Table, np.ndarray]:
        """The parsed table plus each row's int32 rule id (``len(rules)``
        for ``_unmatched``). ``captures`` names the capture columns to
        build (None: all); a rule none of whose captures is wanted is only
        matched, never extracted, so ``captures=()`` is :meth:`classify`
        plus the ``rule`` column."""
        fields = [
            (name, typ)
            for name, typ in self.capture_fields
            if captures is None or name in captures
        ]
        rule_ids, found = self._match_rules(text, {name for name, _ in fields})
        n = len(text)
        cols = {name: _scatter(found.get(name, []), n, typ) for name, typ in fields}
        rule_col = pc.take(self.rule_names, pa.array(rule_ids))
        return pa.table({"rule": rule_col, **cols}), rule_ids

    def _match_rules(
        self, text: pa.Array | pa.ChunkedArray, wanted: set[str]
    ) -> tuple[np.ndarray, dict[str, list[tuple[np.ndarray, pa.Array]]]]:
        """The first-match-wins loop: each row's int32 rule id, and for
        each capture name in ``wanted`` every rule's (winner rows,
        converted values). A rule with no wanted capture is only matched."""
        if pa.types.is_string_view(text.type):  # pyarrow has no take or cast for it
            text = _polars().Series(text).to_arrow()
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        if pa.types.is_null(text.type) or pa.types.is_large_string(text.type):
            text = text.cast(pa.string())
        n = len(text)
        rule_ids = np.full(n, len(self.rules), dtype=np.int32)
        # rows no rule has claimed yet; null text is never offered to a rule
        pending = pc.is_valid(text).to_numpy(zero_copy_only=False)
        hits = self._prefilter_hits(text)
        # capture name → [(winner rows, converted values)], one per rule
        found: dict[str, list[tuple[np.ndarray, pa.Array]]] = {}
        for ri, rule in enumerate(self.rules):
            if not pending.any():
                break
            cand = pending & hits(rule.prefilter) if rule.prefilter else pending
            idx = np.flatnonzero(cand)
            if idx.size == 0:
                continue
            sub = text if idx.size == n else pc.take(text, pa.array(idx))
            caps = [c for c in rule.captures if c.name in wanted]
            if caps:
                extracted = self._extract(ri, sub)
                won = pc.is_valid(extracted).to_numpy(zero_copy_only=False)
            else:  # the same RE2 match, with no capture groups to fill
                won = self._match(ri, sub)
            if not won.any():
                continue
            win_idx = idx[won]
            pending[win_idx] = False
            rule_ids[win_idx] = ri
            if caps:
                winners = extracted.filter(pa.array(won))
                for cap in caps:
                    vals = _convert_capture(pc.struct_field(winners, cap.name), cap)
                    found.setdefault(cap.name, []).append((win_idx, vals))
        return rule_ids, found

    def _prefilter_hits(self, text: pa.Array):
        """``hits(literal)``: the boolean mask of the rows of ``text``
        holding ``literal`` (False for null text), one polars literal
        ``str.contains`` (memmem) scan per literal, on first use. Each
        literal is tested on its own, so literals that overlap or share
        a prefix are all seen."""
        masks: dict[str, np.ndarray] = {}
        series = None

        def hits(literal: str) -> np.ndarray:
            nonlocal series
            if literal not in masks:
                if series is None:
                    series = _polars().Series(text)
                mask = series.str.contains(literal, literal=True)
                masks[literal] = mask.fill_null(False).to_numpy()
            return masks[literal]

        return hits

    def _extract(self, ri: int, sub: pa.Array) -> pa.StructArray:
        """``pc.extract_regex(sub, pattern)`` for rule ``ri`` over its
        candidates (never null), tried anchored first: ``^(?:pattern)``
        on every text, then the plain pattern on the anchored misses only.
        A text with a match at offset 0 has its leftmost match there, and
        RE2's leftmost-first choice among the matches that start at 0 is
        the same with or without the anchor, so the captures are equal.
        The anchored try skips RE2's search for where a match begins;
        texts whose match starts later cost one failed anchored pass."""
        pattern = self.rules[ri].pattern
        got = pc.extract_regex(sub, self._anchored[ri])
        if got.null_count == 0:
            return got
        if got.null_count == len(got):  # no filter or scatter needed
            return pc.extract_regex(sub, pattern)
        miss = pc.is_null(got)
        retry = pc.extract_regex(sub.filter(miss), pattern)
        if retry.null_count == len(retry):
            return got
        # scatter the retried rows back: row i of the result is got[i], or
        # the next retry row where i missed
        order = np.arange(len(got))
        order[miss.to_numpy(zero_copy_only=False)] = np.arange(
            len(got), len(got) + len(retry)
        )
        return pc.take(pa.concat_arrays([got, retry]), pa.array(order))

    def _match(self, ri: int, sub: pa.Array) -> np.ndarray:
        """Whether rule ``ri``'s pattern matches each of its candidates (a
        bool array): ``pc.match_substring_regex``, tried anchored first as
        in :meth:`_extract`, and unanchored only on the anchored misses."""
        won = pc.match_substring_regex(sub, self._anchored[ri])
        won = won.to_numpy(zero_copy_only=False)
        miss = np.flatnonzero(~won)
        if miss.size:
            retry = sub if miss.size == len(sub) else pc.take(sub, pa.array(miss))
            pattern = self.rules[ri].pattern
            won[miss] = pc.match_substring_regex(retry, pattern).to_numpy(
                zero_copy_only=False
            )
        return won

    def parse_column(self, text: pa.Array | pa.ChunkedArray) -> pa.Table:
        """Apply all rules (first match wins) to one string column.

        Returns a table with ``rule:string`` plus one typed column per
        capture (null where the row's winning rule lacks that capture).
        Null text matches no rule.

        One literal ``str.contains`` scan per ``prefilter`` literal finds
        the rows holding it; each rule then runs RE2 only over its
        still-unmatched candidates (every unmatched row when it has no
        prefilter), so a row whose literal hits but whose regex fails
        falls through to later rules. The extract is anchored at the text
        start first and re-run unanchored only on the anchored misses,
        with the same captures (see :meth:`_extract`); in the default
        transcript grammar every match starts its text, so the re-run is
        rare. Typed conversion runs on each rule's winners; each capture
        column is then one ``pc.take`` over its rules' converted winners.
        The ``prefilter`` contract (checked by :class:`Rule`) is what
        makes skipping non-candidates exact. A caller that reads only the
        rule (``parse_routed(columns=["rule"])``, or :meth:`classify` for
        the bare ids) classifies: each rule is an RE2 match
        (``match_substring_regex``), with no extract and no conversion.
        """
        return self._parse(text)[0]

    def parse_routed(
        self, text: pa.Array | pa.ChunkedArray, columns: Iterable[str] | None = None
    ) -> tuple[pa.Table, pa.Array | None]:
        """:meth:`parse_column` plus the sanitised route column: one
        ``pc.take`` from the per-rule sanitised routes by rule id, with
        ``{{template}}`` rules evaluated and sanitised on their own rows.

        ``columns`` names the output columns the caller reads (None: all).
        Only those captures are built, and the route only when ``"route"``
        is one of them (with the captures its templates read); otherwise
        the route is None."""
        routed = columns is None or "route" in columns
        captures = None
        if columns is not None:
            captures = set(columns) | (self._template_captures if routed else set())
        parsed, rule_ids = self._parse(text, captures)
        if not routed:
            return parsed, None
        route = pc.take(self._sanitised_routes, pa.array(rule_ids))
        return parsed, self._apply_templates(route, parsed, rule_ids, sanitise=True)

    def routes_for(self, parsed: pa.Table) -> pa.Array:
        """Route key per row (unsanitised): rule name by default, or the
        rule's ``{{capture}}`` template evaluated over the extracted
        columns; rows of no known rule route to ``_unmatched``."""
        rule_col = parsed["rule"]
        if isinstance(rule_col, pa.ChunkedArray):
            rule_col = rule_col.combine_chunks()
        ids = pc.fill_null(pc.index_in(rule_col, value_set=self.rule_names), len(self.rules))
        rule_ids = ids.to_numpy(zero_copy_only=False)
        route = pc.take(self._routes, ids)
        return self._apply_templates(route, parsed, rule_ids, sanitise=False)

    def _apply_templates(
        self, route: pa.Array, parsed: pa.Table, rule_ids: np.ndarray, sanitise: bool
    ) -> pa.Array:
        """Overwrite each ``{{template}}`` rule's rows with its template
        evaluated over just those rows."""
        for ri, tmpl in self._templates:
            mask = rule_ids == ri
            if not mask.any():
                continue
            vals = tmpl.evaluate_columns(parsed.take(np.flatnonzero(mask)))
            vals = pc.fill_null(vals, UNMATCHED)
            if sanitise:
                vals = sanitise_routes(vals)
            route = pc.replace_with_mask(route, pa.array(mask), vals)
        return route


def default_transcript_registry() -> RuleRegistry:
    """The default rule set for the transcript contract table — matches the
    rule-matchable text grammar in FIXTURES.md §1 and exercises the
    reference's sniffing paths (hex int, bool, ip, RFC-3339 ts, null
    sentinel)."""
    return RuleRegistry(
        [
            Rule(
                name="tool_call",
                pattern=(
                    r"Calling tool (?P<x_tool>\w+) with args "
                    r"path=(?P<x_path>\S+) timeout=(?P<x_timeout>\d+)"
                ),
                prefilter="Calling tool ",
                captures=(
                    Capture("x_tool"),
                    Capture("x_path"),
                    Capture("x_timeout", "int"),
                ),
            ),
            Rule(
                name="error_line",
                pattern=(
                    r"ERROR \[(?P<x_component>\w+)\] code=(?P<x_code>0x[0-9a-fA-F]+) "
                    r"retry=(?P<x_retry>true|false): (?P<x_msg>.*)"
                ),
                prefilter="ERROR ",
                captures=(
                    Capture("x_component"),
                    Capture("x_code", "int"),
                    Capture("x_retry", "bool"),
                    Capture("x_msg"),
                ),
            ),
            Rule(
                name="net_event",
                pattern=(
                    r"connection from (?P<x_ip>[0-9a-fA-F:.]+):(?P<x_port>\d+) "
                    r"latency=(?P<x_latency>[0-9.]+)ms"
                ),
                prefilter="connection from ",
                captures=(
                    Capture("x_ip", "ip"),
                    Capture("x_port", "int"),
                    Capture("x_latency", "float"),
                ),
            ),
            Rule(
                name="status",
                pattern=(
                    r"status=(?P<x_status>\w+) at (?P<x_ts>\S+) "
                    r"items=(?P<x_items>\d+)"
                ),
                prefilter="status=",
                captures=(
                    Capture("x_status", "nullable_str"),
                    Capture("x_ts", "ts"),
                    Capture("x_items", "int"),
                ),
            ),
        ]
    )
