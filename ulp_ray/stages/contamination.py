"""Benchmark-contamination screening: flag documents that contain any
probe string (verbatim benchmark questions/answers) as substrings.

The decontamination shape used by LLM training-data pipelines: the
probe set is SMALL relative to the corpus (a benchmark suite — 10³ to
a few 10⁴ strings), so it broadcasts (``ray.put`` once, fetched once
per worker process) and the corpus STREAMS — one
multi-substring scan per batch, never a shuffle.

The scan is polars' ``str.contains_any`` — a Rust Aho-Corasick
automaton over the literal probes. The automaton itself is rebuilt per
batch (polars exposes no persistent handle), which is measured and
cheap: build 7 ms at 10³ probes / 93 ms at 10⁴ (scan ~8-15 µs/doc), so
at block-size batches (10⁵ docs) the build is <10 % of the scan. The
alternative everyone reaches for first — one RE2 alternation via
``pc.match_substring_regex`` — compiles the pattern per batch at
5.9 s/10³ probes, 94 s/10⁴, and refuses >~3 MB patterns outright
("pattern too large"), which is why this module is NOT regex-based
(numbers: BASELINE.md optimization log, round 4).

Above ~10⁴ probes the per-batch automaton build stops amortizing; the
scale path is the n-gram join (:func:`contaminated_ids_ngram` /
:func:`drop_contaminated_ngram`): shingle BOTH sides into word-n-grams
and ``bucketed_semi_join`` doc n-grams against probe n-grams — the
probe set stays a Dataset end to end, only fixed-width (id, gram) rows
cross the exchange, and a document is contaminated iff it shares any
``n`` consecutive words with any probe (the standard n-gram
decontamination criterion; probes shorter than ``n`` tokens contribute
no grams and cannot flag anything — pick ``n`` at or below the
shortest meaningful probe).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote_env

__all__ = [
    "flag_contaminated",
    "drop_contaminated",
    "contaminated_ids_ngram",
    "drop_contaminated_ngram",
]

# per-worker probe cache, keyed by broadcast ref: the ray.get fetch runs
# once per worker process, not per batch
_PROBE_CACHE: dict[str, tuple[list[str]]] = {}

import os as _os

# same single-thread pin as _bucket.py (must precede the first polars
# import in the process; N workers × full rayon pools oversubscribe)
_os.environ.setdefault("POLARS_MAX_THREADS", "1")

import polars as _pl  # noqa: E402  Aho-Corasick contains_any


def _probe_pattern(probes: list[str]) -> str:
    """One RE2 alternation matching any probe verbatim (longest first so
    a probe that prefixes another still matches the longer form) — the
    regex reference the Aho-Corasick scan is checked against; see the
    module docstring for why this is ~90-300× slower and caps out near
    10³ probes."""
    if not probes:
        raise ValueError("probes must be non-empty")
    return "|".join(re.escape(p) for p in sorted(probes, key=len, reverse=True))


def _fetch_probes(probes_ref) -> tuple[list[str]]:
    """Once per worker: fetch the broadcast probe list, as ``(probes,)``."""
    import ray

    key = probes_ref.hex()
    if key not in _PROBE_CACHE:
        _PROBE_CACHE[key] = (ray.get(probes_ref),)
    return _PROBE_CACHE[key]


def flag_contaminated(
    ds,
    probes: list[str],
    text_col: str = "text",
    out_col: str = "contaminated",
):
    """Append a boolean ``out_col``: does ``text_col`` contain any probe
    as a substring? Null text stays null (SQL ``LIKE`` semantics)."""
    import ray

    if not probes:
        raise ValueError("probes must be non-empty")
    probes_ref = ray.put(list(probes))

    def flag(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        (probes,) = _fetch_probes(probes_ref)
        hit = _pl.from_arrow(col).str.contains_any(probes)
        return batch.append_column(out_col, hit.to_arrow().cast(pa.bool_()))

    return ds.map_batches(flag, batch_format="pyarrow", **remote_env())


def drop_contaminated(
    ds,
    probes: list[str],
    text_col: str = "text",
):
    """Filter out contaminated documents (null text is kept — unknown is
    not proven-contaminated; screen nulls separately if the corpus has
    them)."""
    flagged = flag_contaminated(ds, probes, text_col=text_col, out_col="__contam")

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.fill_null(batch["__contam"], False)
        return batch.filter(pc.invert(mask)).drop_columns(["__contam"])

    return flagged.map_batches(keep, batch_format="pyarrow", **remote_env())


def _word_ngrams(ds, text_col: str, n: int, id_col: str | None):
    """Per-block distinct word-n-grams: ``(gram)`` or ``(id, gram)``
    rows — shifted-array element-wise join, windows never crossing a
    row, one C-level group_by for the in-block dedup."""

    def grams(batch: pa.Table) -> pa.Table:
        from ._tokens import flat_tokens, word_ngrams_flat

        flat, par = flat_tokens(batch[text_col])
        fields = ([(id_col, batch.schema.field(id_col).type)] if id_col else []) + [
            ("gram", pa.string())
        ]
        out_schema = pa.schema(fields)
        g, gram_par = word_ngrams_flat(flat, par, n)
        if len(g) == 0:
            return out_schema.empty_table()
        if id_col is None:
            t = pa.table({"gram": g})
            return t.group_by(["gram"]).aggregate([]).cast(out_schema)
        ids = batch[id_col].take(pa.array(gram_par, pa.int64()))
        t = pa.table({id_col: ids, "gram": g})
        return t.group_by([id_col, "gram"]).aggregate([]).cast(out_schema)

    return ds.map_batches(grams, batch_format="pyarrow", **remote_env())


def contaminated_ids_ngram(
    ds,
    probes_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 8,
    probe_text_col: str = "text",
    buckets: int | None = None,
):
    """Huge-probe-set decontamination: Dataset of the distinct
    ``id_col`` values whose text shares at least one ``n``-word n-gram
    with any probe document. Both sides shingle in place; the overlap
    test is a gram-keyed semi join behind a Bloom pre-filter
    (`stages/bloom.py`): the probe grams — the small side by
    construction — fold into a broadcast bitmap and prune the corpus
    gram stream INSIDE map_batches, so only ~(overlap + fpr) of the
    corpus grams reach the co-group exchange; the exact semi join then
    verifies survivors (results identical to the plain join, pinned by
    the existing equivalence test). The result is a Dataset of ids —
    never a driver set."""
    from .bloom import bloom_semi_join

    doc_grams = _word_ngrams(ds, text_col, n, id_col)
    # materialized ONCE: the bloom build consumes the probe grams fully
    # and the exact verify join reads them again — lazy, the shingling
    # map would re-execute for the second consumer
    probe_grams = _word_ngrams(probes_ds, probe_text_col, n, None).materialize()
    hits = bloom_semi_join(
        doc_grams, probe_grams, on="gram", exact=True, buckets=buckets
    )

    from .aggregate import fold_partials

    def distinct_ids(t: pa.Table) -> pa.Table:
        return t.select([id_col]).group_by([id_col]).aggregate([])

    # two-level distinct: in-block first, then the combiner fold
    return fold_partials(hits, [id_col], distinct_ids, distinct_ids)


def drop_contaminated_ngram(
    ds,
    probes_ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 8,
    probe_text_col: str = "text",
):
    """Filter out documents sharing any ``n``-gram with the probe set —
    a bucketed anti-join against :func:`contaminated_ids_ngram` (ids
    stay a Dataset end to end)."""
    from .join import bucketed_anti_join

    bad = contaminated_ids_ngram(
        ds, probes_ds, text_col=text_col, id_col=id_col, n=n,
        probe_text_col=probe_text_col,
    )
    return bucketed_anti_join(ds, bad, on=id_col)
