"""Corpus vocabulary / document-frequency folds over a text column.

Classic LLM-data-pipeline building blocks (token frequency tables feed
tokenizer training, stopword induction, TF-IDF weighting and quality
filters). Both operators are pure partial-per-block + Sum shapes: raw
text never shuffles — each block collapses to (token, count) partials
via Arrow kernels, and only those fixed-width rows cross the exchange.
At 100 TB the vocabulary itself can be large (billions of distinct
tokens); the underlying :func:`ulp_ray.stages.aggregate.fold_partials`
switches from the driver fold to a per-bucket ``co_group`` fold above
its partial-row threshold, so the fold never assumes the vocabulary
fits on the driver.

Tokenization is whitespace-split (Unicode), matching the SQL-oracle
form ``regexp_split_to_array(text, '\\s+')`` with empty tokens dropped
— keep the two in lockstep or the oracle comparison is meaningless.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote_env

__all__ = [
    "vocabulary",
    "grouped_vocabulary",
    "ngram_counts",
    "doc_frequency",
    "doc_term_stats",
    "bigram_logprob",
    "duplicated_window_stats",
]


def _flat_tokens(col) -> pa.Array:
    """Flatten a text column into its non-empty whitespace tokens."""
    from ._tokens import flat_tokens

    return flat_tokens(col)[0]


def vocabulary(ds, text_col: str = "text", min_count: int = 1):
    """Corpus term-frequency table: Dataset ``(token, n)`` with
    ``n >= min_count``.

    Per block: split → flatten → one Arrow ``value_counts`` (C-level);
    partials then Sum per token. The ``min_count`` filter applies AFTER
    the global fold (a token rare in every block can still clear the
    bar corpus-wide)."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = _flat_tokens(batch[text_col])
        vc = toks.value_counts()
        return pa.table(
            {"token": vc.field("values"), "n": vc.field("counts")}
        )

    from .aggregate import fold_partials, sum_fold

    out = fold_partials(ds, ["token"], partial, sum_fold(["token"], ["n"]))
    if min_count > 1:
        out = out.filter(expr=f"n >= {min_count}")
    return out


def ngram_counts(ds, text_col: str = "text", n: int = 2, min_count: int = 1):
    """Corpus word-n-gram frequency table: Dataset ``(ngram, n)`` where
    an n-gram is ``n`` consecutive whitespace tokens joined by single
    spaces (never crossing document boundaries).

    Vectorized: per block, the flat token array is shifted ``n`` ways
    and joined element-wise (``binary_join_element_wise``); a boundary
    mask drops windows that would span documents; one ``value_counts``
    makes the partial. Same partial + Sum fold shape as
    :func:`vocabulary`."""
    if n < 2:
        raise ValueError("use vocabulary() for unigrams (n must be >= 2)")

    def partial(batch: pa.Table) -> pa.Table:
        from ._tokens import flat_tokens, word_ngrams_flat

        flat, par = flat_tokens(batch[text_col])
        out_schema = pa.schema([("ngram", pa.string()), ("n", pa.int64())])
        grams, _ = word_ngrams_flat(flat, par, n)
        if len(grams) == 0:
            return out_schema.empty_table()
        vc = grams.value_counts()
        return pa.table(
            {"ngram": vc.field("values"), "n": vc.field("counts")},
            schema=out_schema,
        )

    from .aggregate import fold_partials, sum_fold

    out = fold_partials(ds, ["ngram"], partial, sum_fold(["ngram"], ["n"]))
    if min_count > 1:
        out = out.filter(expr=f"n >= {min_count}")
    return out


def grouped_vocabulary(ds, text_col: str = "text", group_col: str = "lang"):
    """Term-frequency table per group (e.g. per language): Dataset
    ``(group_col, token, n)`` — same partial-per-block + Sum shape as
    :func:`vocabulary`, keyed by (group, token). Compose with
    :func:`ulp_ray.stages.aggregate.grouped_topk` for per-group
    most-frequent-token reports."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[text_col], pattern=r"\s+")  # RE2 \s (ASCII) — oracle lockstep, see _tokens.py
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks)
        t = pa.table({group_col: batch[group_col].take(parents), "token": flat})
        t = t.filter(pc.not_equal(t["token"], ""))
        g = t.group_by([group_col, "token"]).aggregate([([], "count_all")])
        return pa.table(
            {
                group_col: g[group_col],
                "token": g["token"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    from .aggregate import fold_partials, sum_fold

    keys = [group_col, "token"]
    return fold_partials(ds, keys, partial, sum_fold(keys, ["n"]))


def doc_frequency(ds, text_col: str = "text", min_count: int = 1):
    """Document-frequency table: Dataset ``(token, df)`` where ``df`` is
    the number of documents containing the token at least once.

    Correctness contract: one row = one document (true for the
    ``documents`` table). Per block, (doc, token) pairs are deduplicated
    with a single C-level ``np.unique`` over (parent row index, token)
    before counting, so a token repeated inside one document counts
    once; documents never span blocks, so per-block partials sum
    exactly."""

    def partial(batch: pa.Table) -> pa.Table:
        from ._tokens import distinct_pair_stats, flat_tokens

        flat, par = flat_tokens(batch[text_col])
        uniq_tok, _, pair_tok, _ = distinct_pair_stats(
            par, flat.to_numpy(zero_copy_only=False)
        )
        counts = np.bincount(pair_tok, minlength=len(uniq_tok))[: len(uniq_tok)]
        return pa.table(
            {
                "token": pa.array(uniq_tok, pa.string()),
                "df": pa.array(counts, pa.int64()),
            }
        )

    from .aggregate import fold_partials, sum_fold

    out = fold_partials(ds, ["token"], partial, sum_fold(["token"], ["df"]))
    if min_count > 1:
        out = out.filter(expr=f"df >= {min_count}")
    return out


def doc_term_stats(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Per-(document, token) term frequency joined with corpus document
    frequency: Dataset ``(doc_id, token, tf, df)`` — the integer core of
    TF-IDF (the weighting ``tf·ln(N/df)`` is one cheap map over this;
    keeping the contract integral keeps it exactly oracle-comparable).

    Shape: the TF side is one C-level Arrow ``group_by([doc, token])``
    per block (exact, because one row = one document), and the df
    column is one :func:`~ulp_ray.stages.join.lookup_join` against the
    :func:`doc_frequency` fold. While the DF table fits the driver bound
    ``aggregate.DRIVER_FOLD_MAX_ROWS`` (vocabularies are sublinear in
    the corpus) it ships once via ``ray.put`` and the lookup runs in
    the same streaming map as the TF partial — the O(corpus tokens) TF
    rows never cross an exchange (r5: the former unconditional
    token-keyed join was the op's dominant sort barrier). Above the
    bound the lookup co-groups the fixed-width (id, token, count) rows
    with the DF table by token, never raw text."""
    from .join import lookup_join

    def tf_partial(batch: pa.Table) -> pa.Table:
        from ._tokens import flat_tokens

        flat, par = flat_tokens(batch[text_col])
        # string like the DF table's tokens, whatever the text's string type
        t = pa.table(
            {id_col: batch[id_col].take(pa.array(par)), "token": pc.cast(flat, pa.string())}
        )
        g = t.group_by([id_col, "token"]).aggregate([([], "count_all")])
        return pa.table(
            {
                id_col: g[id_col],
                "token": g["token"],
                "tf": pc.cast(g["count_all"], pa.int64()),
            }
        )

    df = doc_frequency(ds, text_col=text_col)
    tf = ds.map_batches(
        tf_partial, batch_format="pyarrow", batch_size=None, **remote_env()
    )
    return lookup_join(tf, df, "token")


def _column_type(ds, col: str) -> pa.DataType:
    """The Arrow type of ``ds``'s column ``col`` (null type for an empty
    ``ds`` without a schema)."""
    from ._bucket import arrow_type_of

    s = ds.schema()
    return pa.null() if s is None else arrow_type_of(dict(zip(s.names, s.types))[col])


def bigram_logprob(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    decimals: int = 4,
):
    """Per-document average bigram log-probability under an add-one
    (Laplace) smoothed bigram LM estimated on the corpus itself — the
    classic perplexity-style quality/fluency signal (low scores mark
    gibberish or highly atypical text; perplexity filtering per
    Wenzek et al., CCNet, LREC'20, with the corpus standing in for the
    held-out LM). Dataset ``(id_col, n_bigrams, avg_logprob)``::

        avg_logprob(d) = round( (1/B_d) · Σ_{bigrams (w1,w2) of d}
                                ln( (C(w1 w2) + 1) / (C(w1) + V) ),
                          decimals)

    with corpus bigram counts ``C(w1 w2)``, unigram counts ``C(w1)``,
    vocabulary size ``V``, and ``B_d`` the document's bigram count.
    Documents with fewer than two tokens have no bigrams and are absent
    (SQL AVG-over-empty-group semantics). Rounding is half-away to
    match DuckDB ``ROUND``; the only FP hazard is summation-order
    last-digits, same documented contract as the BM25 scorer.

    Scale shape, two regimes. When BOTH count tables fit the driver
    bound ``aggregate.DRIVER_FOLD_MAX_ROWS`` (the common case —
    vocabularies and bigram tables are sublinear in the corpus), they
    ship ONCE via ``ray.put`` and the whole per-doc scoring is a
    SINGLE streaming map: per block,
    tokenize → two ``pc.index_in`` lookups against the broadcast tables
    → per-doc ``np.bincount`` fold — one row = one document, so
    nothing per-doc ever crosses an exchange (measured 42–47 s → see
    BASELINE.md; the former double bucketed join dragged the O(corpus
    bigram instances) tf table through two sort barriers). That map
    stays beside the generic form: the same body written as the join
    path's lookups plus fold measured 0.58 → 0.79 s at sf0.1 on one CPU
    (BASELINE.md). Above the bound: the join path — a per-block (doc,
    bigram, w1, tf) Arrow hash-aggregate, two
    :func:`~ulp_ray.stages.join.lookup_join` calls that co-group the
    fixed-width count rows with the count tables, and a per-doc float
    Sum fold. Both paths are exact and pinned equal by test. A corpus
    without a bigram gives the typed empty table.
    """
    import ray

    from . import aggregate
    from .aggregate import fold_partials, sum_fold
    from .join import _collect, lookup_join

    # materialized: counted and then read by the scoring, which would
    # otherwise re-execute a fold past the driver bound
    uni = vocabulary(ds, text_col=text_col).materialize()
    big = ngram_counts(ds, text_col=text_col, n=2).materialize()
    if big.count() == 0:
        return ray.data.from_arrow(
            pa.schema(
                [
                    (id_col, _column_type(ds, id_col)),
                    ("n_bigrams", pa.int64()),
                    ("avg_logprob", pa.float64()),
                ]
            ).empty_table()
        )
    # V is a driver scalar, but the fold that produces it is distributed
    vocab_size = float(uni.count())

    bound = aggregate.DRIVER_FOLD_MAX_ROWS
    if uni.count() <= bound and big.count() <= bound:
        uni_t, big_t = _collect(uni), _collect(big)
        uni_ref = ray.put(
            (uni_t["token"].combine_chunks(), uni_t["n"].to_numpy(zero_copy_only=False))
        )
        big_ref = ray.put(
            (big_t["ngram"].combine_chunks(), big_t["n"].to_numpy(zero_copy_only=False))
        )

        def score(batch: pa.Table) -> pa.Table:
            from ._tokens import flat_tokens

            out_schema = pa.schema(
                [
                    (id_col, batch.schema.field(id_col).type),
                    ("n_bigrams", pa.int64()),
                    ("avg_logprob", pa.float64()),
                ]
            )
            u_keys, u_counts = ray.get(uni_ref)
            b_keys, b_counts = ray.get(big_ref)
            flat, par = flat_tokens(batch[text_col])
            total = len(flat)
            if total < 2:
                return out_schema.empty_table()
            same_row = par[:-1] == par[1:]
            if not same_row.any():
                return out_schema.empty_table()
            mask = pa.array(same_row)
            grams = pc.binary_join_element_wise(
                flat.slice(0, total - 1), flat.slice(1, total - 1), " "
            ).filter(mask)
            w1 = flat.slice(0, total - 1).filter(mask)
            gpar = par[:-1][same_row]
            # every gram/w1 is present in the corpus tables by
            # construction (the folds saw this block too)
            cb = b_counts[
                pc.index_in(grams, value_set=b_keys).to_numpy(zero_copy_only=False)
            ].astype(np.float64)
            cu = u_counts[
                pc.index_in(w1, value_set=u_keys).to_numpy(zero_copy_only=False)
            ].astype(np.float64)
            lp = np.log((cb + 1.0) / (cu + vocab_size))
            n_rows = batch.num_rows
            sums = np.bincount(gpar, weights=lp, minlength=n_rows)
            cnts = np.bincount(gpar, minlength=n_rows)
            keep = cnts > 0
            avg = pc.round(
                pa.array(sums[keep] / cnts[keep], pa.float64()),
                ndigits=decimals,
                round_mode="half_towards_infinity",
            )
            return pa.table(
                {
                    id_col: batch[id_col].filter(pa.array(keep)),
                    "n_bigrams": pa.array(cnts[keep], pa.int64()),
                    "avg_logprob": avg,
                },
                schema=out_schema,
            )

        return ds.map_batches(
            score, batch_format="pyarrow", batch_size=None, **remote_env()
        )

    tf_schema = pa.schema(
        [
            (id_col, _column_type(ds, id_col)),
            ("ngram", pa.string()),
            ("w1", pa.string()),
            ("tf", pa.int64()),
        ]
    )

    def tf_partial(batch: pa.Table) -> pa.Table:
        from ._tokens import flat_tokens

        flat, par = flat_tokens(batch[text_col])
        total = len(flat)
        if total < 2:
            return tf_schema.empty_table()
        same_row = par[:-1] == par[1:]
        mask = pa.array(same_row)
        grams = pc.binary_join_element_wise(
            flat.slice(0, total - 1), flat.slice(1, total - 1), " "
        ).filter(mask)
        w1 = flat.slice(0, total - 1).filter(mask)
        ids = batch[id_col].take(pa.array(par[:-1][same_row]))
        t = pa.table(
            {
                id_col: ids,
                "ngram": pc.cast(grams, pa.string()),
                "w1": pc.cast(w1, pa.string()),
            }
        )
        # w1 is the ngram's first token (functionally dependent), so
        # grouping by all three == grouping by (id, ngram)
        g = t.group_by([id_col, "ngram", "w1"]).aggregate([([], "count_all")])
        return pa.table(
            {
                id_col: g[id_col],
                "ngram": g["ngram"],
                "w1": g["w1"],
                "tf": pc.cast(g["count_all"], pa.int64()),
            },
            schema=tf_schema,
        )

    tf = ds.map_batches(
        tf_partial, batch_format="pyarrow", batch_size=None, **remote_env()
    )

    joined = lookup_join(
        lookup_join(tf, big.rename_columns({"n": "cb"}), "ngram"),
        uni.rename_columns({"token": "w1", "n": "cu"}),
        "w1",
    )

    sums = sum_fold([id_col], ["lp_sum", "n_bigrams"])

    def lp_partial(batch: pa.Table) -> pa.Table:
        tfv = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        cb = batch["cb"].to_numpy(zero_copy_only=False).astype(np.float64)
        cu = batch["cu"].to_numpy(zero_copy_only=False).astype(np.float64)
        lp = tfv * np.log((cb + 1.0) / (cu + vocab_size))
        return sums(pa.table({id_col: batch[id_col], "lp_sum": lp, "n_bigrams": batch["tf"]}))

    def fold(t: pa.Table) -> pa.Table:
        batch = sums(t)
        avg = pc.divide(
            batch["lp_sum"], pc.cast(batch["n_bigrams"], pa.float64())
        )
        return pa.table(
            {
                id_col: batch[id_col],
                "n_bigrams": pc.cast(batch["n_bigrams"], pa.int64()),
                "avg_logprob": pc.round(
                    avg, ndigits=decimals, round_mode="half_towards_infinity"
                ),
            }
        )

    return fold_partials(joined, [id_col], lp_partial, fold)


def duplicated_window_stats(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    n: int = 5,
    min_dup: int = 2,
):
    """Corpus-wide duplicated-substring statistics per document: for
    each doc, how many of its word-``n``-gram windows occur at least
    ``min_dup`` times in the WHOLE corpus — the exact-substring
    duplication signal of Lee et al., "Deduplicating Training Data
    Makes Language Models Better" (ACL'22), at word-window granularity
    (their 50-token suffix-array spans ≈ ``n=50`` here). Dataset
    ``(id_col, n_windows, n_dup_windows)`` — all integers, exactly
    oracle-comparable; documents with fewer than ``n`` tokens have no
    windows and are absent.

    Scale shape, two regimes (the :func:`bigram_logprob` discipline).
    The duplicated-window set (``min_count=min_dup`` prunes the fold to
    only corpus-duplicated windows — typically a small fraction) fits
    the driver bound ``aggregate.DRIVER_FOLD_MAX_ROWS`` in the common
    case: it ships ONCE via ``ray.put`` and the whole per-doc count is
    a SINGLE streaming map —
    per block, windows → one ``pc.index_in`` membership probe → two
    per-doc ``np.bincount`` folds; a document's windows never cross an
    exchange. That map stays beside the generic form: the join path's
    lookup plus fold in its place measured 0.59 → 0.80 s at sf0.1 on one
    CPU (BASELINE.md). Above the bound: a per-block (doc, window, tf)
    Arrow hash-aggregate, one window-keyed
    :func:`~ulp_ray.stages.join.lookup_join` (``how="left"``) against
    the duplicated set, and one per-doc integer Sum fold of the window
    and duplicated-window counts. At very large ``n`` hash the windows
    upstream if the 2⁻⁶⁴-collision caveat is acceptable — the default
    stays exact. Both paths pinned equal by test.
    """
    import ray

    from . import aggregate
    from .aggregate import fold_partials, sum_fold
    from .join import _collect, lookup_join

    # materialized: counted and then read, which would otherwise
    # re-execute the fold and its min_count filter
    dup = ngram_counts(ds, text_col=text_col, n=n, min_count=min_dup).materialize()

    if dup.count() <= aggregate.DRIVER_FOLD_MAX_ROWS:
        dup_t = _collect(dup)
        # a fold that saw no window (every doc under n tokens) has no schema
        dup_ref = ray.put(
            dup_t["ngram"].combine_chunks() if dup_t.num_columns else pa.array([], pa.string())
        )

        def count_windows(batch: pa.Table) -> pa.Table:
            from ._tokens import flat_tokens, word_ngrams_flat

            out_schema = pa.schema(
                [
                    (id_col, batch.schema.field(id_col).type),
                    ("n_windows", pa.int64()),
                    ("n_dup_windows", pa.int64()),
                ]
            )
            keys = ray.get(dup_ref)
            flat, par = flat_tokens(batch[text_col])
            grams, gpar = word_ngrams_flat(flat, par, n)
            if len(grams) == 0:
                return out_schema.empty_table()
            hit = pc.is_valid(pc.index_in(grams, value_set=keys)).to_numpy(
                zero_copy_only=False
            )
            n_rows = batch.num_rows
            tot = np.bincount(gpar, minlength=n_rows)
            dupc = np.bincount(gpar[hit], minlength=n_rows)
            keep = tot > 0
            return pa.table(
                {
                    id_col: batch[id_col].filter(pa.array(keep)),
                    "n_windows": pa.array(tot[keep], pa.int64()),
                    "n_dup_windows": pa.array(dupc[keep], pa.int64()),
                },
                schema=out_schema,
            )

        return ds.map_batches(
            count_windows, batch_format="pyarrow", batch_size=None, **remote_env()
        )

    tf_schema = pa.schema(
        [(id_col, _column_type(ds, id_col)), ("ngram", pa.string()), ("tf", pa.int64())]
    )

    def tf_partial(batch: pa.Table) -> pa.Table:
        from ._tokens import flat_tokens, word_ngrams_flat

        flat, par = flat_tokens(batch[text_col])
        grams, gpar = word_ngrams_flat(flat, par, n)
        if len(grams) == 0:
            return tf_schema.empty_table()
        ids = batch[id_col].take(pa.array(gpar))
        t = pa.table({id_col: ids, "ngram": grams})
        g = t.group_by([id_col, "ngram"]).aggregate([([], "count_all")])
        return pa.table(
            {
                id_col: g[id_col],
                "ngram": g["ngram"],
                "tf": pc.cast(g["count_all"], pa.int64()),
            },
            schema=tf_schema,
        )

    tf = ds.map_batches(
        tf_partial, batch_format="pyarrow", batch_size=None, **remote_env()
    )
    hits = lookup_join(tf, dup.rename_columns({"n": "corpus_n"}), "ngram", how="left")
    counts = sum_fold([id_col], ["n_windows", "n_dup_windows"])

    def count_partial(batch: pa.Table) -> pa.Table:
        cols = {id_col: batch[id_col], "n_windows": batch["tf"]}
        cols["n_dup_windows"] = pc.if_else(pc.is_valid(batch["corpus_n"]), batch["tf"], 0)
        return counts(pa.table(cols))

    return fold_partials(hits, [id_col], count_partial, counts)
