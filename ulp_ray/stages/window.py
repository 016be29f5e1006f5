"""Windowed aggregates over an event-time column.

Ray Data is a batch engine — no watermarks or event-time streaming — so
windows are expressed batch-style (the reference has no streaming
constructs either, SURVEY.md §2.9):

- :func:`tumbling_counts` / :func:`sliding_counts` — floor (or explode)
  the timestamp into its windows inside ``map_batches``, then the
  two-phase count rollup. SQL oracle: ``date_trunc``/``time_bucket``.
- every other op is per key: one ``co_group`` by ``hash(key) %
  buckets`` (a key's whole history lands in one bucket; a single key
  holding a large fraction of all rows concentrates its bucket), then,
  per bucket, ONE skeleton: :func:`~._bucket.sorted_runs` sorts the
  bucket in Arrow by (key, order) and numbers the key runs, and a
  vectorized kernel computes over all of the bucket's keys at once.
  A kernel groups by the run id, never by key values, and every input
  column passes through in Arrow with its type and values unchanged.

The seven append-a-column ops — :func:`running_aggregate`,
:func:`rolling_aggregate`, :func:`rolling_time_aggregate`,
:func:`rolling_frame_aggregate`, :func:`grouped_rank`,
:func:`lag_column`, :func:`edge_value_column` — share the private
:func:`_append_window` (``out_col`` collision check, co-group, sort,
``append_column``); each keeps only its argument checks and its kernel.
The four frame aggregates reduce to per-row frame bounds ``[lo, hi)``
inside the row's run plus one :func:`_frame_agg`, with SQL semantics:
nulls are skipped, an empty frame gives NULL (COUNT gives 0), SUM of an
integer column is exact int64, MIN/MAX keep the column's type and rank
NaN above every number, as DuckDB does. :func:`session_windows` and
:func:`fill_time_gaps` call :func:`~._bucket.sorted_runs` and emit their
own rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote_env
from ._bucket import co_group, run_starts, sorted_runs
from .aggregate import count_rollup

__all__ = [
    "tumbling_counts",
    "sliding_counts",
    "session_windows",
    "running_aggregate",
    "rolling_aggregate",
    "rolling_time_aggregate",
    "rolling_frame_aggregate",
    "fill_time_gaps",
    "grouped_rank",
    "lag_column",
    "edge_value_column",
]


def tumbling_counts(ds, keys: list[str], ts_col: str = "ts", unit: str = "hour"):
    """Tumbling windows via floor_temporal: keys + window_start counts."""

    def add_window(batch: pa.Table) -> pa.Table:
        w = pc.floor_temporal(batch[ts_col], unit=unit)
        return batch.append_column("window_start", w).drop_columns([ts_col])

    out = ds.map_batches(add_window, batch_format="pyarrow", **remote_env())
    return count_rollup(out, keys + ["window_start"])


def sliding_counts(
    ds,
    keys: list[str],
    ts_col: str = "ts",
    size_s: int = 3600,
    slide_s: int = 900,
):
    """Sliding windows: each row lands in ``ceil(size/slide)`` windows;
    the explode is vectorized (repeat + offset arithmetic in numpy)."""
    n_windows = (size_s + slide_s - 1) // slide_s

    def explode(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)  # µs
        slide_us = slide_s * 1_000_000
        last_start = (ts // slide_us) * slide_us
        offsets = np.arange(n_windows, dtype=np.int64) * slide_us
        starts = last_start[:, None] - offsets[None, :]  # (n, n_windows)
        valid = ts[:, None] < starts + size_s * 1_000_000
        idx = np.repeat(np.arange(len(ts)), n_windows)[valid.reshape(-1)]
        win = starts.reshape(-1)[valid.reshape(-1)]
        taken = batch.take(pa.array(idx))
        out = taken.append_column(
            "window_start",
            pa.array(win, pa.int64()).cast(pa.timestamp("us")),
        )
        return out.drop_columns([ts_col])

    out = ds.map_batches(explode, batch_format="pyarrow", **remote_env())
    return count_rollup(out, keys + ["window_start"])


def _append_window(ds, keys: list[str], order, name: str, kernel, buckets):
    """The skeleton of the append-a-column ops: reject an ``out_col``
    that names an input column, co-group by ``keys``, sort every bucket
    with :func:`~._bucket.sorted_runs` and append ``kernel(t, run_id)``
    (an Arrow array, one value per sorted row) as ``name``."""
    if name in ds.schema().names:
        raise ValueError(
            f"out_col {name!r} collides with an input column — pass out_col"
        )

    def run(t: pa.Table) -> pa.Table:
        t, run_id = sorted_runs(t, keys, order)
        return t.append_column(name, kernel(t, run_id))

    return co_group([ds], keys, run, buckets)


def _segments(run_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the first row and the end (exclusive) of its run."""
    return (
        np.searchsorted(run_id, run_id, side="left"),
        np.searchsorted(run_id, run_id, side="right"),
    )


def _prefix(x: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: ``p[i] = sum(x[:i])``, ``len(x) + 1`` long."""
    return np.concatenate([np.zeros(1, np.int64), np.cumsum(x)])


def _ticks(col) -> tuple[np.ndarray, np.ndarray, int]:
    """(int64 ticks with nulls as 0, valid mask, ticks per second) of a
    timestamp column (its own unit) or of numeric seconds (rounded to
    µs, not truncated: 2.01 * 1e6 is 2009999.9999…)."""
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    if pa.types.is_timestamp(col.type):
        per_s = 10 ** (3 * ["s", "ms", "us", "ns"].index(col.type.unit))
        ticks = col.cast(pa.int64()).fill_null(0).to_numpy(zero_copy_only=False)
        return ticks, valid, per_s
    secs = col.cast(pa.float64()).fill_null(0).to_numpy(zero_copy_only=False)
    valid &= ~np.isnan(secs)
    secs = np.where(valid, secs, 0.0)
    return np.round(secs * 1_000_000).astype(np.int64), valid, 1_000_000


def _range_reduce(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, op) -> np.ndarray:
    """``op.reduce(a[lo:hi])`` per row over non-empty ranges, by a sparse
    table: level ``j`` holds ``op`` over every window of ``2**j`` rows,
    and a range is the ``op`` of two overlapping power-of-two windows."""
    level = np.frexp((hi - lo).astype(np.float64))[1] - 1  # floor(log2)
    table = [a]
    for j in range(1, int(level.max(initial=0)) + 1):
        s = 1 << (j - 1)
        table.append(op(table[-1][:-s], table[-1][s:]))
    out = np.empty_like(a)
    for j, tj in enumerate(table):
        m = level == j
        out[m] = op(tj[lo[m]], tj[hi[m] - (1 << j)])
    return out


def _frame_agg(col, run_id: np.ndarray, lo: np.ndarray, hi: np.ndarray, agg: str):
    """``agg`` (``sum`` / ``mean`` / ``count`` / ``min`` / ``max``) of the
    non-null values of ``col`` over the row frames ``[lo, hi)``, each
    inside one run and holding its own row. COUNT counts them; an empty
    frame gives the other aggregates NULL. SUM of an integer column is
    exact int64 and raises ``OverflowError`` past it (SQL widens to
    HUGEINT there); float sums follow IEEE on NaN and ±inf. MIN/MAX keep
    the column's type and rank NaN above every number (DuckDB's order)."""
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    pv = _prefix(valid)
    cnt = pv[hi] - pv[lo]
    if agg == "count":
        return pa.array(cnt, pa.int64())
    empty = cnt == 0
    if agg in ("min", "max"):
        rank = pc.rank(col, null_placement="at_end", tiebreaker="dense")
        rank = rank.to_numpy().astype(np.int64)
        rank[~valid] = 0 if agg == "max" else len(rank) + 1
        best = _range_reduce(rank, lo, hi, np.maximum if agg == "max" else np.minimum)
        row_of = np.zeros(len(rank) + 2, np.int64)  # a row holding each rank
        row_of[rank[valid]] = np.flatnonzero(valid)
        return col.take(pa.array(row_of[best], mask=empty))
    integer = pa.types.is_integer(col.type)
    x = col.cast(pa.int64() if integer else pa.float64()).fill_null(0)
    x = x.to_numpy(zero_copy_only=False)
    finite = np.isfinite(x)
    xf = np.where(finite, x, 0).astype(np.float64)
    # prefix sums restart per run: no rounding error leaks in from the
    # other keys of the bucket
    cs = pd.Series(xf).groupby(run_id).cumsum().to_numpy()
    tot = cs[hi - 1] - (cs[lo] - xf[lo])
    if integer:
        p = _prefix(x)
        exact = p[hi] - p[lo]  # int64, exact modulo 2**64
        wraps = np.round((tot - exact) / 2.0**64)  # nonzero past int64
        if agg == "sum":
            if wraps.any():
                raise OverflowError(
                    "window SUM of an int64 column leaves int64; cast the "
                    "column to float64 first"
                )
            return pa.array(exact, pa.int64(), mask=empty)
        tot = exact + wraps * 2.0**64
    elif not finite.all():
        # a frame holding NaN or ±inf sums like IEEE: inf + -inf is NaN
        for bad, v in (
            (np.isnan(x), np.nan),
            (x == np.inf, np.inf),
            (x == -np.inf, -np.inf),
        ):
            pb = _prefix(bad)
            with np.errstate(invalid="ignore"):
                tot = tot + np.where(pb[hi] > pb[lo], v, 0.0)
    if agg == "mean":
        tot = tot / np.maximum(cnt, 1)
    return pa.array(tot, pa.float64(), mask=empty)


def running_aggregate(
    ds,
    key: str,
    order_col: str,
    value_col: str,
    agg: str = "cumsum",
    out_col: str | None = None,
    buckets: int | None = None,
):
    """Per-key running aggregate in ``order_col`` order — the SQL
    ``SUM(v) OVER (PARTITION BY key ORDER BY o ROWS UNBOUNDED
    PRECEDING)`` shape (``agg``: ``cumsum`` / ``cumcount`` / ``cummax`` /
    ``cummin``): the frame aggregate over ``[run start, row]``. A null
    value contributes nothing and the running value carries through it;
    rows before a key's first non-null stay NULL. ``cumcount`` is SQL
    ``COUNT(*)`` (1-based). Output: input columns + ``out_col``."""
    if agg not in ("cumsum", "cumcount", "cummax", "cummin"):
        raise ValueError(f"unsupported running agg {agg!r}")

    def kernel(t: pa.Table, run_id: np.ndarray) -> pa.Array:
        start, _ = _segments(run_id)
        hi = np.arange(1, len(t) + 1)
        if agg == "cumcount":
            return pa.array(hi - start, pa.int64())
        return _frame_agg(t[value_col], run_id, start, hi, agg[3:])

    name = out_col or f"{agg}_{value_col}"
    return _append_window(ds, [key], [order_col], name, kernel, buckets)


def rolling_aggregate(
    ds,
    key: str,
    order_cols: list[str],
    value_col: str,
    window_rows: int,
    agg: str = "mean",
    out_col: str | None = None,
    buckets: int | None = None,
):
    """Per-key rolling row-frame aggregate — the SQL
    ``AVG(v) OVER (PARTITION BY key ORDER BY o ROWS BETWEEN w-1
    PRECEDING AND CURRENT ROW)`` shape (``agg``: ``mean`` / ``sum`` /
    ``min`` / ``max`` / ``count``), with the frame semantics of
    :func:`_frame_agg`.

    ``order_cols`` should include a unique tiebreaker (e.g. ``[ts,
    event_id]``) — SQL leaves tied orders implementation-defined, and a
    pinned total order is what makes the output oracle-comparable.
    Output: input columns + ``out_col``."""
    if agg not in ("mean", "sum", "min", "max", "count"):
        raise ValueError(f"unsupported rolling agg {agg!r}")
    if window_rows < 1:
        raise ValueError("window_rows must be >= 1")

    def kernel(t: pa.Table, run_id: np.ndarray) -> pa.Array:
        start, _ = _segments(run_id)
        i = np.arange(len(t))
        lo = np.maximum(start, i - window_rows + 1)
        return _frame_agg(t[value_col], run_id, lo, i + 1, agg)

    name = out_col or f"rolling_{agg}_{value_col}"
    return _append_window(ds, [key], list(order_cols), name, kernel, buckets)


def rolling_time_aggregate(
    ds,
    key: str,
    ts_col: str,
    value_col: str,
    window_s: float,
    agg: str = "sum",
    out_col: str | None = None,
    buckets: int | None = None,
):
    """Per-key rolling EVENT-TIME range-frame aggregate — the SQL
    ``SUM(v) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN INTERVAL
    w PRECEDING AND CURRENT ROW)`` shape (``agg``: ``sum`` / ``count``,
    COUNT(v) semantics). Standard RANGE-frame peer semantics: every row
    whose ``ts`` lies in ``[cur_ts − w, cur_ts]`` contributes, so tied
    timestamps within a key all receive the same value regardless of
    physical order — which is also what makes the output deterministic
    without a tiebreaker (unlike the row-frame :func:`rolling_aggregate`).
    ``ts_col`` is a timestamp or numeric seconds.

    Frame bounds for all keys at once: each run's timestamps are lifted
    onto a disjoint numeric band (run id × span, span > any in-bucket
    time range + window), so ONE pair of ``np.searchsorted`` calls finds
    every row's frame. Null timestamps follow SQL: they form the NULL
    peer group (all null-ts rows of a key aggregate over exactly the
    null-ts rows).
    """
    if agg not in ("sum", "count"):
        raise ValueError(f"unsupported rolling time agg {agg!r}")
    if window_s < 0:
        raise ValueError("window_s must be >= 0")

    def kernel(t: pa.Table, run_id: np.ndarray) -> pa.Array:
        ts, valid, per_s = _ticks(t[ts_col])
        # the window in µs, floored to whole ticks: a tick-valued ts lies
        # within w of the current one iff within floor(w) ticks
        win = np.int64(round(window_s * 1_000_000) * per_s // 1_000_000)
        # re-base non-null timestamps to [0, range]; null-ts rows sit at
        # range + win + 1 — their own peer band inside the run, farther
        # than the window from any real timestamp
        base, top = (ts[valid].min(), ts[valid].max()) if valid.any() else (0, 0)
        rng = np.int64(top - base)
        rel = np.where(valid, ts - base, rng + win + 1)
        span = rng + np.int64(2) * (win + 1) + 2
        n_runs = int(run_id[-1]) + 1
        # the band lift must stay inside int64 or searchsorted silently
        # misreads a wrapped (non-monotonic) array — fail loudly instead
        if int(span) * n_runs >= 2**63:
            raise ValueError(
                "rolling_time_aggregate: key-cardinality × time-range too "
                f"large for the int64 band lift ({n_runs} keys × span "
                f"{int(span)} ticks) — raise `buckets` so fewer keys land per "
                "bucket, or narrow the timestamp range"
            )
        lifted = rel + run_id * span
        lo = np.searchsorted(lifted, lifted - win, side="left")
        hi = np.searchsorted(lifted, lifted, side="right")
        return _frame_agg(t[value_col], run_id, lo, hi, agg)

    name = out_col or f"rolling_{agg}_{value_col}"
    return _append_window(ds, [key], [ts_col], name, kernel, buckets)


def rolling_frame_aggregate(
    ds,
    key: str,
    order_cols: list[str],
    value_col: str,
    preceding: int,
    following: int,
    agg: str = "sum",
    out_col: str | None = None,
    buckets: int | None = None,
):
    """Per-key CENTERED/asymmetric row-frame aggregate — the SQL
    ``SUM(v) OVER (PARTITION BY key ORDER BY o ROWS BETWEEN p PRECEDING
    AND f FOLLOWING)`` shape (``agg``: ``sum`` / ``mean`` / ``count``),
    completing the frame family next to the trailing-only
    :func:`rolling_aggregate`, with the frame semantics of
    :func:`_frame_agg`. ``order_cols`` should include a unique
    tiebreaker — a pinned total order is what makes the output
    oracle-comparable. (min/max: use :func:`rolling_aggregate`'s
    trailing frames.)
    """
    if agg not in ("sum", "mean", "count"):
        raise ValueError(f"unsupported rolling frame agg {agg!r}")
    if preceding < 0 or following < 0:
        raise ValueError("preceding/following must be >= 0")

    def kernel(t: pa.Table, run_id: np.ndarray) -> pa.Array:
        start, end = _segments(run_id)
        i = np.arange(len(t))
        lo = np.maximum(start, i - preceding)
        hi = np.minimum(end, i + following + 1)
        return _frame_agg(t[value_col], run_id, lo, hi, agg)

    name = out_col or f"frame_{agg}_{value_col}"
    return _append_window(ds, [key], list(order_cols), name, kernel, buckets)


def grouped_rank(
    ds,
    keys: list[str],
    order_cols: list[str],
    method: str = "row_number",
    out_col: str | None = None,
    buckets: int | None = None,
    ntile_n: int | None = None,
):
    """Per-group ranking — SQL ``ROW_NUMBER() / RANK() / DENSE_RANK() /
    PERCENT_RANK() / CUME_DIST() / NTILE(n) OVER (PARTITION BY keys
    ORDER BY order_cols)``.

    ``row_number`` and ``ntile`` accept multiple order columns (include
    a unique tiebreaker for a deterministic, oracle-comparable result);
    ``rank`` / ``dense_rank`` / ``percent_rank`` / ``cume_dist`` rank
    on the first order column (SQL ties share a value, so no tiebreaker
    is needed for them; nulls are one peer group, last). ``ntile``
    requires ``ntile_n`` and follows the SQL size rule: the first
    ``count % n`` tiles get the extra row. Output dtype: int64 for the
    counting forms, float64 for ``percent_rank`` (``(rank−1)/(count−1)``,
    0 for a 1-row group) and ``cume_dist`` (``max-rank/count``).
    Output: input columns + ``out_col``."""
    if method not in (
        "row_number",
        "rank",
        "dense_rank",
        "percent_rank",
        "cume_dist",
        "ntile",
    ):
        raise ValueError(f"unsupported rank method {method!r}")
    if method == "ntile":
        if not ntile_n or ntile_n < 1:
            raise ValueError("method='ntile' requires ntile_n >= 1")
    elif ntile_n is not None:
        raise ValueError("ntile_n only applies to method='ntile'")
    key_list = list(keys)

    def kernel(t: pa.Table, run_id: np.ndarray) -> pa.Array:
        start, end = _segments(run_id)
        rn = np.arange(len(t)) - start  # 0-based row number
        count = end - start
        if method == "row_number":
            return pa.array(rn + 1, pa.int64())
        if method == "ntile":  # SQL size rule: first (count % n) tiles get +1 row
            q, rem = count // ntile_n, count % ntile_n
            cut = rem * (q + 1)
            # q >= 1 wherever rn >= cut: rows past the cut only exist
            # when count >= n
            small = rem + (rn - cut) // np.maximum(q, 1) + 1
            return pa.array(np.where(rn < cut, rn // (q + 1) + 1, small), pa.int64())
        # peers: rows of a run with equal first order value
        peer = np.cumsum(run_starts(t, key_list + list(order_cols[:1]))) - 1
        p_start, p_end = _segments(peer)
        if method == "rank":
            return pa.array(p_start - start + 1, pa.int64())
        if method == "dense_rank":
            return pa.array(peer - peer[start] + 1, pa.int64())
        if method == "cume_dist":
            return pa.array((p_end - start) / count, pa.float64())
        # percent_rank; guarded divide: a 1-row group is 0
        pr = np.zeros(len(t), dtype=np.float64)
        np.divide(p_start - start, count - 1.0, out=pr, where=count > 1)
        return pa.array(pr, pa.float64())

    name = out_col or method
    return _append_window(ds, key_list, list(order_cols), name, kernel, buckets)


def lag_column(
    ds,
    key: str,
    order_cols: list[str],
    value_col: str,
    offset: int = 1,
    out_col: str | None = None,
    buckets: int | None = None,
):
    """Per-key LAG/LEAD — the SQL ``LAG(v, k) OVER (PARTITION BY key
    ORDER BY o)`` shape (negative ``offset`` = LEAD). The first/last
    ``|offset|`` rows of each key get null; the column keeps the value
    column's type. Include a unique tiebreaker in ``order_cols`` for a
    deterministic, oracle-comparable result."""
    if offset == 0:
        raise ValueError("offset must be non-zero (0 is the row itself)")

    def kernel(t: pa.Table, run_id: np.ndarray) -> pa.Array:
        start, end = _segments(run_id)
        src = np.arange(len(t)) - offset
        return t[value_col].take(pa.array(src, mask=(src < start) | (src >= end)))

    name = out_col or (f"lag_{value_col}" if offset > 0 else f"lead_{value_col}")
    return _append_window(ds, [key], list(order_cols), name, kernel, buckets)


def edge_value_column(
    ds,
    key: str,
    order_cols: list[str],
    value_col: str,
    edge: str = "first",
    out_col: str | None = None,
    buckets: int | None = None,
):
    """Per-key FIRST_VALUE / LAST_VALUE over the WHOLE partition — the
    SQL ``FIRST_VALUE(v) OVER (PARTITION BY key ORDER BY o ROWS BETWEEN
    UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)`` shape (``edge=
    "last"`` for LAST_VALUE with the same full frame). Annotates every
    row with its partition's edge ROW's value, NULL included, in the
    value column's type. Include a unique tiebreaker in ``order_cols``
    for a deterministic, oracle-comparable result."""
    if edge not in ("first", "last"):
        raise ValueError(f"edge must be 'first' or 'last', got {edge!r}")

    def kernel(t: pa.Table, run_id: np.ndarray) -> pa.Array:
        start, end = _segments(run_id)
        return t[value_col].take(start if edge == "first" else end - 1)

    name = out_col or f"{edge}_{value_col}"
    return _append_window(ds, [key], list(order_cols), name, kernel, buckets)


def session_windows(
    ds, key: str, ts_col: str = "ts", gap_s: int = 1800, buckets: int | None = None
):
    """Per-key sessions (gap-based): one output row per session with
    ``key, session_start, session_end, n_events``. A session starts at a
    key's first row and wherever ``ts`` moves more than ``gap_s`` past
    the previous row's; a null ``ts`` (sorted last) never starts one."""

    def sessionize(t: pa.Table) -> pa.Table:
        t, run_id = sorted_runs(t, [key], [ts_col])
        ts, valid, per_s = _ticks(t[ts_col])
        n = len(t)
        new = np.ones(n, dtype=bool)
        new[1:] = (run_id[1:] != run_id[:-1]) | (
            valid[1:] & valid[:-1] & (np.diff(ts) > gap_s * per_s)
        )
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], n)
        # a session's last non-null ts is its max (nulls sort last)
        last = np.maximum.accumulate(np.where(valid, np.arange(n), -1))[ends - 1]
        return pa.table(
            {
                key: t[key].take(starts),
                "session_start": t[ts_col].take(starts),
                "session_end": t[ts_col].take(pa.array(last, mask=last < starts)),
                "n_events": pa.array(ends - starts, pa.int64()),
            }
        )

    return co_group([ds], [key], sessionize, buckets)


def fill_time_gaps(
    ds,
    keys: list[str],
    bucket_col: str,
    step_s: int,
    count_col: str = "n",
    buckets: int | None = None,
):
    """Densify a per-key time-bucketed aggregate: for every key tuple,
    emit one row per ``step_s`` bucket between that key's min and max
    observed bucket, zero-filling the gaps — the dense-time-series
    primitive feature pipelines need on top of :func:`tumbling_counts`
    (sparse GROUP BY output has no rows for empty windows; models want
    explicit zeros). Input ``keys + [bucket_col(timestamp), count_col]``;
    output the same columns and types, dense per key.

    Per bucket, the key runs' ranges materialize via one repeat/arange
    pass and observed rows land on the dense grid by integer position.
    Output row count is Σ_key (range/step + 1): bound the bucket span
    upstream for keys with multi-year ranges at tiny steps. Raises
    ``ValueError`` on a null bucket timestamp, a bucket off the
    ``step_s`` grid of its key's first bucket, or a repeated (keys,
    bucket) row.
    """
    if step_s <= 0:
        raise ValueError(f"step_s must be positive, got {step_s}")

    def densify(t: pa.Table) -> pa.Table:
        t, run_id = sorted_runs(t, keys, [bucket_col])
        ts, valid, per_s = _ticks(t[bucket_col])
        if not valid.all():
            raise ValueError(f"fill_time_gaps: null {bucket_col!r} timestamp")
        step = np.int64(step_s) * per_s
        starts = np.flatnonzero(np.diff(run_id, prepend=-1))
        ends = np.append(starts[1:], len(t))
        lens = (ts[ends - 1] - ts[starts]) // step + 1
        offs = np.cumsum(lens) - lens  # dense position of each run's first bucket
        rel = ts - ts[starts][run_id]
        # an off-grid or repeated bucket would collide on the dense grid
        # and silently drop counts
        if (rel % step).any():
            raise ValueError(
                f"fill_time_gaps: {bucket_col!r} off the {step_s} s grid "
                "of its key's first bucket"
            )
        pos = offs[run_id] + rel // step
        if (np.diff(pos) == 0).any():
            raise ValueError(f"fill_time_gaps: duplicate (keys, {bucket_col!r}) row")
        total = int(lens.sum())
        dense_run = np.repeat(np.arange(len(starts)), lens)
        within = np.arange(total) - offs[dense_run]
        src = np.full(total, -1, np.int64)
        src[pos] = np.arange(len(t))
        out = {c: t[c].take(starts[dense_run]) for c in keys}
        out[bucket_col] = pa.array(
            ts[starts][dense_run] + within * step, pa.int64()
        ).cast(t.schema.field(bucket_col).type)
        out[count_col] = t[count_col].take(pa.array(src, mask=src < 0)).fill_null(0)
        return pa.table(out)

    return co_group([ds], keys, densify, buckets)
