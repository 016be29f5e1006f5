"""Windowed aggregates over an event-time column.

Ray Data is a batch engine — no watermarks or event-time streaming — so
windows are expressed batch-style (the reference has no streaming
constructs either, SURVEY.md §2.9):

- :func:`tumbling_counts` — floor the timestamp to the window size inside
  ``map_batches`` (vectorized) and run the two-phase count rollup. SQL
  oracle: ``date_trunc``/``time_bucket``.
- :func:`sliding_counts` — each row explodes into the ``size/slide``
  windows that contain it (flat explode inside ``map_batches``), then the
  same rollup.
- :func:`session_windows` — per-key sessionization, co-grouped by
  ``hash(key) % buckets`` (NOT per-key ``map_groups`` — that costs one
  Python callback per key): each bucket sorts once by (key, ts) and
  splits sessions with a vectorized key-change/gap mask; emits one row
  per session with start/end/count. Ordering assumption: a key's whole
  history lands in one bucket (same hash both ways); the shuffle may
  deliver bucket rows in any order — the in-bucket sort establishes it.
  A single key holding a large fraction of all rows still concentrates
  its bucket (salt long-lived keys by day upstream if so).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .._env import remote_env
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
    ``cummin``), including SQL's null handling: a null value contributes
    nothing and the running value CARRIES through the null row (pandas
    cum* alone would emit NaN there).

    Same co-group contract as :func:`session_windows`: a key's whole
    history lands in one hash bucket; the in-bucket body is one sort +
    one C-level ``pandas.groupby`` cumulative kernel over all of the
    bucket's keys. Output: input columns + ``out_col``."""
    if agg not in ("cumsum", "cumcount", "cummax", "cummin"):
        raise ValueError(f"unsupported running agg {agg!r}")
    name = out_col or f"{agg}_{value_col}"
    existing = ds.schema().names
    if name in existing:
        raise ValueError(
            f"out_col {name!r} collides with an input column — pass out_col"
        )

    from ._bucket import with_bucket

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order_col], kind="stable").drop(
            columns="__bucket"
        )
        grouped = g.groupby(key, sort=False, dropna=False)
        if agg == "cumcount":
            g[name] = grouped[value_col].cumcount() + 1  # SQL COUNT(*): 1-based
        elif agg == "cumsum":
            # null contributes 0 and the running value carries; rows
            # BEFORE a key's first non-null stay null (SQL SUM OVER)
            s = g[value_col]
            filled = s.fillna(0).groupby(g[key], sort=False, dropna=False).cumsum()
            seen = s.notna().groupby(g[key], sort=False, dropna=False).cummax()
            g[name] = filled.where(seen)
        else:
            # cummax/cummin skip NaN in pandas but leave NaN AT the null
            # row — forward-fill within the key to carry the running value
            res = getattr(grouped[value_col], agg)()
            g[name] = res.groupby(g[key], sort=False, dropna=False).ffill()
        return g

    return (
        with_bucket(ds, [key], buckets)
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas", **remote_env())
    )


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
    ``min`` / ``max`` / ``count``), with SQL null semantics: nulls in
    the frame are skipped; an all-null frame yields null.

    ``order_cols`` should include a unique tiebreaker (e.g. ``[ts,
    event_id]``) — SQL leaves tied orders implementation-defined, and a
    pinned total order is what makes the output oracle-comparable.

    Same co-group contract as :func:`session_windows`: a key's whole
    history lands in one hash bucket; the in-bucket body is one sort +
    one C-level ``pandas GroupBy.rolling`` kernel over all of the
    bucket's keys. Output: input columns + ``out_col``."""
    if agg not in ("mean", "sum", "min", "max", "count"):
        raise ValueError(f"unsupported rolling agg {agg!r}")
    if window_rows < 1:
        raise ValueError("window_rows must be >= 1")
    name = out_col or f"rolling_{agg}_{value_col}"
    if name in ds.schema().names:
        raise ValueError(
            f"out_col {name!r} collides with an input column — pass out_col"
        )

    from ._bucket import with_bucket

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + list(order_cols), kind="stable").drop(
            columns="__bucket"
        )
        rolled = (
            g.groupby(key, sort=False, dropna=False)[value_col]
            .rolling(window_rows, min_periods=1)
            .agg(agg)
        )
        # rolling() prepends the group key level; droplevel leaves the
        # original row index for exact alignment back onto g
        g[name] = rolled.droplevel(0)
        if agg == "count":
            g[name] = g[name].astype(np.int64)
        return g

    return (
        with_bucket(ds, [key], buckets)
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas", **remote_env())
    )


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
    w PRECEDING AND CURRENT ROW)`` shape (``agg``: ``sum`` / ``count``).
    Standard RANGE-frame peer semantics: every row whose ``ts`` lies in
    ``[cur_ts − w, cur_ts]`` contributes, so tied timestamps within a
    key all receive the same value regardless of physical order — which
    is also what makes the output deterministic without a tiebreaker
    (unlike the row-frame :func:`rolling_aggregate`).

    In-bucket body is fully vectorized across keys: one stable sort by
    (key, ts), then each key segment's timestamps are lifted onto a
    disjoint numeric band (segment_index × span, span > any in-key time
    range + window) so a SINGLE pair of ``np.searchsorted`` calls finds
    every row's frame bounds and a prefix-sum difference evaluates the
    aggregate — no per-key Python. Null timestamps follow SQL: they
    form the NULL peer group (all null-ts rows of a key aggregate over
    exactly the null-ts rows). Null values are skipped by ``sum`` and
    ``count`` (count counts non-null values, COUNT(v) semantics).
    """
    if agg not in ("sum", "count"):
        raise ValueError(f"unsupported rolling time agg {agg!r}")
    if window_s < 0:
        raise ValueError("window_s must be >= 0")
    name = out_col or f"rolling_{agg}_{value_col}"
    if name in ds.schema().names:
        raise ValueError(
            f"out_col {name!r} collides with an input column — pass out_col"
        )

    from ._bucket import with_bucket

    win_us = np.int64(round(window_s * 1_000_000))

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col], kind="stable").drop(columns="__bucket")
        n = len(g)
        if n == 0:
            g[name] = pd.Series([], dtype="float64" if agg == "sum" else "int64")
            return g
        ts_null = pd.isna(g[ts_col]).to_numpy()
        ts = g[ts_col].to_numpy()
        if np.issubdtype(ts.dtype, np.datetime64):
            ts64 = ts.astype("datetime64[us]").astype(np.int64)
        else:
            # round, not truncate: 2.01 * 1e6 is 2009999.9999…, which a
            # bare cast would move a whole µs (and across a frame edge)
            ts64 = np.round(ts.astype(np.float64) * 1_000_000).astype(np.int64)
        # re-base non-null timestamps to [0, range]; null-ts rows sit at
        # range + win + 1 — their own peer band inside the segment,
        # farther than the window from any real timestamp (NaT's int64
        # sentinel must never reach the arithmetic below)
        base = ts64[~ts_null].min() if (~ts_null).any() else np.int64(0)
        rng = (
            np.int64(ts64[~ts_null].max() - base) if (~ts_null).any() else np.int64(0)
        )
        if ts_null.any():  # neutralize NaT's int64 sentinel pre-subtraction
            ts64 = np.where(ts_null, base, ts64)
        rel = np.where(ts_null, rng + win_us + 1, ts64 - base)
        # key segments: the sort is key-major, so segment = key run
        keys = g[key].to_numpy()
        knull = pd.isna(g[key]).to_numpy()
        change = np.r_[
            True, (keys[1:] != keys[:-1]) & ~(knull[1:] & knull[:-1])
        ]
        seg_id = np.cumsum(change) - 1
        # lift each segment onto a disjoint band so ONE global
        # searchsorted respects segment boundaries (sort order: NaT/NaN
        # last within a key, so `lifted` is non-decreasing)
        span = rng + np.int64(2) * (win_us + 1) + 2
        n_segs = int(seg_id[-1]) + 1
        # the band lift must stay inside int64 or searchsorted silently
        # misreads a wrapped (non-monotonic) array — fail loudly instead
        if int(span) * n_segs >= 2**63:
            raise ValueError(
                "rolling_time_aggregate: key-cardinality × time-range too "
                f"large for the int64 band lift ({n_segs} segments × span "
                f"{int(span)} µs) — raise `buckets` so fewer keys land per "
                "bucket, or narrow the timestamp range"
            )
        lifted = rel + seg_id * span
        vals = g[value_col].to_numpy()
        vnull = pd.isna(g[value_col]).to_numpy()
        vf = np.where(vnull, 0.0, vals.astype(np.float64))
        csum = np.concatenate([[0.0], np.cumsum(vf)])
        ccnt = np.concatenate([[0], np.cumsum((~vnull).astype(np.int64))])
        lo = np.searchsorted(lifted, lifted - win_us, side="left")
        hi = np.searchsorted(lifted, lifted, side="right")
        if agg == "sum":
            out = csum[hi] - csum[lo]
            cnt = ccnt[hi] - ccnt[lo]
            g[name] = np.where(cnt > 0, out, np.nan)  # all-null frame → NULL
        else:
            g[name] = (ccnt[hi] - ccnt[lo]).astype(np.int64)
        return g

    return (
        with_bucket(ds, [key], buckets)
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas", **remote_env())
    )


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
    :func:`rolling_aggregate`. SQL null semantics: null values are
    skipped; an all-null frame yields null (``count`` yields 0).

    ``order_cols`` should include a unique tiebreaker — a pinned total
    order is what makes the output oracle-comparable.

    In-bucket body is fully vectorized across keys: one stable sort,
    per-row segment bounds from the key-run lengths, then the frame is
    evaluated as a prefix-sum difference over clamped [i−p, i+f]
    windows — no per-key Python. (min/max need sliding-window deques,
    not prefix sums — use :func:`rolling_aggregate`'s trailing frames
    for those.)
    """
    if agg not in ("sum", "mean", "count"):
        raise ValueError(f"unsupported rolling frame agg {agg!r}")
    if preceding < 0 or following < 0:
        raise ValueError("preceding/following must be >= 0")
    name = out_col or f"frame_{agg}_{value_col}"
    if name in ds.schema().names:
        raise ValueError(
            f"out_col {name!r} collides with an input column — pass out_col"
        )

    from ._bucket import with_bucket

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols, kind="stable").drop(
            columns="__bucket"
        )
        n = len(g)
        if n == 0:
            g[name] = pd.Series(
                [], dtype="int64" if agg == "count" else "float64"
            )
            return g
        keys = g[key].to_numpy()
        knull = pd.isna(g[key]).to_numpy()
        change = np.r_[True, (keys[1:] != keys[:-1]) & ~(knull[1:] & knull[:-1])]
        seg_id = np.cumsum(change) - 1
        starts = np.flatnonzero(change)
        run_len = np.diff(np.r_[starts, n])
        seg_start = np.repeat(starts, run_len)
        seg_end = np.repeat(starts + run_len, run_len)  # exclusive
        idx = np.arange(n, dtype=np.int64)
        lo = np.maximum(seg_start, idx - preceding)
        hi = np.minimum(seg_end, idx + following + 1)
        vals = g[value_col].to_numpy()
        vnull = pd.isna(g[value_col]).to_numpy()
        vf = np.where(vnull, 0.0, vals.astype(np.float64))
        csum = np.concatenate([[0.0], np.cumsum(vf)])
        ccnt = np.concatenate([[0], np.cumsum((~vnull).astype(np.int64))])
        cnt = ccnt[hi] - ccnt[lo]
        if agg == "count":
            g[name] = cnt.astype(np.int64)
        else:
            tot = csum[hi] - csum[lo]
            if agg == "mean":
                with np.errstate(invalid="ignore", divide="ignore"):
                    tot = tot / cnt
            g[name] = np.where(cnt > 0, tot, np.nan)
        return g

    return (
        with_bucket(ds, [key], buckets)
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas", **remote_env())
    )


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
    is needed for them). ``ntile`` requires ``ntile_n`` and follows the
    SQL size rule: the first ``count % n`` tiles get the extra row.
    Output dtype: int64 for the counting forms, float64 for
    ``percent_rank`` (``(rank−1)/(count−1)``, 0 for a 1-row group) and
    ``cume_dist`` (``max-rank/count``).

    Bucketed co-group like the other window ops: one sort + one C-level
    pandas kernel per bucket. Output: input columns + ``out_col``."""
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
    name = out_col or method
    if name in ds.schema().names:
        raise ValueError(
            f"out_col {name!r} collides with an input column — pass out_col"
        )
    key_list = list(keys)

    from ._bucket import with_bucket

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(key_list + list(order_cols), kind="stable").drop(
            columns="__bucket"
        )
        grouped = g.groupby(key_list, sort=False, dropna=False)
        if method == "row_number":
            g[name] = (grouped.cumcount() + 1).astype(np.int64)
        elif method in ("rank", "dense_rank"):
            pd_method = {"rank": "min", "dense_rank": "dense"}[method]
            g[name] = (
                grouped[order_cols[0]]
                .rank(method=pd_method, na_option="bottom")
                .astype(np.int64)
            )
        elif method == "percent_rank":
            r = grouped[order_cols[0]].rank(method="min", na_option="bottom")
            c = grouped[order_cols[0]].transform("size").to_numpy(np.float64)
            # guarded divide: a 1-row group would otherwise evaluate
            # 0/0 before np.where discards it, spamming worker logs
            pr = np.zeros(len(g), dtype=np.float64)
            np.divide(r.to_numpy() - 1.0, c - 1.0, out=pr, where=c > 1)
            g[name] = pr
        elif method == "cume_dist":
            r = grouped[order_cols[0]].rank(method="max", na_option="bottom")
            c = grouped[order_cols[0]].transform("size").to_numpy(np.float64)
            g[name] = r.to_numpy() / c
        else:  # ntile — SQL size rule: first (count % n) tiles get +1 row
            rn = grouped.cumcount().to_numpy()  # 0-based
            c = grouped[key_list[0]].transform("size").to_numpy(np.int64)
            q, rem = c // ntile_n, c % ntile_n
            cut = rem * (q + 1)
            big = rn < cut
            tile = np.empty(len(g), dtype=np.int64)
            tile[big] = rn[big] // (q[big] + 1) + 1
            small = ~big
            # q > 0 wherever small: rows past the cut only exist when
            # count > rem (i.e. count >= n ⇒ q >= 1)
            tile[small] = rem[small] + (rn[small] - cut[small]) // q[small] + 1
            g[name] = tile
        return g

    return (
        with_bucket(ds, key_list, buckets)
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas", **remote_env())
    )


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
    ``|offset|`` rows of each key get null. Include a unique tiebreaker
    in ``order_cols`` for a deterministic, oracle-comparable result.

    Same co-group contract as the other window ops: one sort + one
    C-level ``GroupBy.shift`` per bucket."""
    if offset == 0:
        raise ValueError("offset must be non-zero (0 is the row itself)")
    name = out_col or (f"lag_{value_col}" if offset > 0 else f"lead_{value_col}")
    if name in ds.schema().names:
        raise ValueError(
            f"out_col {name!r} collides with an input column — pass out_col"
        )

    from ._bucket import with_bucket

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + list(order_cols), kind="stable").drop(
            columns="__bucket"
        )
        g[name] = g.groupby(key, sort=False, dropna=False)[value_col].shift(offset)
        return g

    return (
        with_bucket(ds, [key], buckets)
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas", **remote_env())
    )


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
    row with its partition's edge value. Include a unique tiebreaker in
    ``order_cols`` for a deterministic, oracle-comparable result.

    Same co-group contract as the other window ops: one sort + one
    C-level ``GroupBy.transform`` per bucket."""
    if edge not in ("first", "last"):
        raise ValueError(f"edge must be 'first' or 'last', got {edge!r}")
    name = out_col or f"{edge}_{value_col}"
    if name in ds.schema().names:
        raise ValueError(
            f"out_col {name!r} collides with an input column — pass out_col"
        )

    from ._bucket import with_bucket

    def run(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + list(order_cols), kind="stable").drop(
            columns="__bucket"
        )
        grp = g.groupby(key, sort=False, dropna=False)
        # POSITIONAL edge rows — SQL FIRST_VALUE/LAST_VALUE return the
        # edge ROW's value even when it is NULL; pandas' transform
        # ("first"/"last") skips NA and would silently diverge
        idx = grp.cumcount().to_numpy()
        v = g[value_col].to_numpy()
        if edge == "first":
            mask = idx == 0
        else:
            mask = idx == (grp[key].transform("size").to_numpy() - 1)
        group_id = np.cumsum(idx == 0) - 1
        g[name] = v[mask][group_id]
        return g

    return (
        with_bucket(ds, [key], buckets)
        .groupby("__bucket")
        .map_groups(run, batch_format="pandas", **remote_env())
    )


def session_windows(
    ds, key: str, ts_col: str = "ts", gap_s: int = 1800, buckets: int | None = None
):
    """Per-key sessions (gap-based): one output row per session with
    ``session_start``, ``session_end``, ``n_events``."""
    gap = np.timedelta64(gap_s, "s")

    from ._bucket import with_bucket

    def sessionize(g: pd.DataFrame) -> pd.DataFrame:
        # whole bucket at once: sort by (key, ts), split on key change OR
        # gap; session ids are then a single C-level groupby
        g = g.sort_values([key, ts_col], kind="stable")
        ts = g[ts_col].to_numpy()
        kv = g[key].to_numpy()
        new_session = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            same_key = kv[1:] == kv[:-1]
            if kv.dtype.kind == "f":  # null keys (NaN) are ONE group,
                same_key |= np.isnan(kv[1:]) & np.isnan(kv[:-1])  # like SQL PARTITION BY
            new_session[1:] = ~same_key | ((ts[1:] - ts[:-1]) > gap)
        sid = np.cumsum(new_session) - 1
        out = (
            pd.DataFrame({key: kv, "sid": sid, ts_col: ts})
            .groupby("sid", sort=True)
            .agg(
                **{key: (key, "first")},
                session_start=(ts_col, "min"),
                session_end=(ts_col, "max"),
                n_events=(ts_col, "size"),
            )
            .reset_index()
            .drop(columns="sid")
        )
        return out

    return (
        with_bucket(ds, [key], buckets)
        .groupby("__bucket")
        .map_groups(sessionize, batch_format="pandas", **remote_env())
    )


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
    output the same columns, dense per key.

    One ``hash(keys) % B`` co-group (a key's whole history in one
    bucket); the in-bucket body is vectorized across keys — per-segment
    ranges materialize via one repeat/arange pass and observed counts
    scatter onto the dense grid by integer position. Output row count
    is Σ_key (range/step + 1): bound the bucket span upstream for keys
    with multi-year ranges at tiny steps.
    """
    if step_s <= 0:
        raise ValueError(f"step_s must be positive, got {step_s}")

    from ._bucket import with_bucket

    step_us = np.int64(step_s) * 1_000_000

    def densify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + [bucket_col], kind="stable").drop(
            columns="__bucket"
        )
        m = len(g)
        if m == 0:
            return g
        ts = g[bucket_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        kdf = g[keys]
        change = np.zeros(m, dtype=bool)
        change[0] = True
        for c in keys:
            col = kdf[c].to_numpy()
            nul = pd.isna(kdf[c]).to_numpy()
            change[1:] |= (col[1:] != col[:-1]) & ~(nul[1:] & nul[:-1])
        starts = np.flatnonzero(change)
        seg_min = ts[starts]
        ends = np.r_[starts[1:], m] - 1
        seg_max = ts[ends]
        lens = ((seg_max - seg_min) // step_us + 1).astype(np.int64)
        total = int(lens.sum())
        base = np.repeat(seg_min, lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        dense_ts = base + within * step_us
        # scatter observed counts onto the dense grid
        seg_off = np.repeat(np.cumsum(lens) - lens, np.r_[starts[1:], m] - starts)
        pos = seg_off + (ts - np.repeat(seg_min, np.r_[starts[1:], m] - starts)) // step_us
        dense_n = np.zeros(total, dtype=np.int64)
        dense_n[pos] = g[count_col].to_numpy()
        out = {
            c: kdf[c].to_numpy()[np.repeat(starts, lens)] for c in keys
        }
        out[bucket_col] = dense_ts.astype("datetime64[us]")
        out[count_col] = dense_n
        return pd.DataFrame(out)

    return (
        with_bucket(ds, keys, buckets)
        .groupby("__bucket")
        .map_groups(densify, batch_format="pandas", **remote_env())
    )
