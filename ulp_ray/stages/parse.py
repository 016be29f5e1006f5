"""Parse stage: compiled rule registry over zero-copy Arrow batches.

The analog of the reference's parse phase (``/root/reference/src/evtx.rs:46-67``,
``src/mft.rs:54-77``) re-expressed as a ``map_batches`` transform: each batch's
``text`` column runs through the registry (first-match-wins, ``_unmatched``
fallback) and gains ``rule`` + typed capture columns + a sanitized ``route``
column.

The compute form is ``make_parse_fn(registry)``, a plain function for
stateless tasks; the compiled registry is built ONCE per worker process via
a module-level cache keyed by registry version (the reference instead
constructs parser objects per task, ``src/workerpool.rs:296-307``).

Error policy (north-rule "row-level error policy"): malformed text rows
never fail the task — they simply match no rule and land in
``_unmatched`` (the reference instead panics the worker thread on parse
errors, ``src/lib.rs:90``). A null ``text`` value is such a row: rule
``_unmatched``, null captures, route ``unmatched``.
"""

from __future__ import annotations

from typing import Iterable

import pyarrow as pa

from ..rules import CompiledRegistry, RuleRegistry

__all__ = ["make_parse_fn", "parse_batch"]

_COMPILE_CACHE: dict[str, CompiledRegistry] = {}


def _compiled(registry: RuleRegistry) -> CompiledRegistry:
    key = registry.version
    c = _COMPILE_CACHE.get(key)
    if c is None:
        c = registry.compile()
        _COMPILE_CACHE[key] = c
    return c


def parse_batch(
    batch: pa.Table,
    compiled: CompiledRegistry,
    text_col: str = "text",
    columns: Iterable[str] | None = None,
) -> pa.Table:
    """Pure batch transform: input columns + rule/captures/route.

    The route comes from the rule id (one take from the registry's
    sanitised per-rule routes); only ``{{template}}`` rules evaluate
    per row (:meth:`CompiledRegistry.parse_routed`). ``columns`` names the
    output columns the caller reads (None: all): only those captures are
    added, and the route only if it is one of them."""
    parsed, route = compiled.parse_routed(batch[text_col], columns)
    out = batch
    for name in parsed.column_names:
        out = out.append_column(name, parsed[name])
    return out if route is None else out.append_column("route", route)


def make_parse_fn(registry: RuleRegistry, text_col: str = "text"):
    """Stateless-task form; compiles once per worker process."""

    def parse(batch: pa.Table) -> pa.Table:
        return parse_batch(batch, _compiled(registry), text_col)

    return parse
