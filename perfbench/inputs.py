"""Seeded benchmark inputs and their independent references.

Every workload reads the same per-seed input set, generated with
``ulp_ray.fixtures.generate_transcripts`` and written as Parquet:

- ``base/``   the main table, one file per flagship partition;
- ``append/`` a quarter as many turns from a derived seed, in
  ``APPEND_FILES`` files, so an append-aware resume of the base run
  recomputes exactly one partition;
- ``warm_base/`` and ``warm_append/``: a tiny table in the same shape,
  for the warm-up op of each set-up.

``refs.json`` holds the answers the benchmark checks the program against.
They come from the generator itself (golden per-(rule, tool, role)
counts) and from DuckDB SQL over the generated table (the conversation
ops), never from the program under test.

Sets are cached under ``perfbench/.cache/`` by (seed, turns) and built
atomically (tmp dir + rename); only the newest ``CACHE_KEEP`` sets are
kept, so many seeds cannot fill the disk.
"""

from __future__ import annotations

import json
import os
import shutil
import time

PARTITIONS = 4
BASE_FILES = PARTITIONS  # one file per flagship partition (see README.md)
APPEND_FILES = BASE_FILES // PARTITIONS
APPEND_FRACTION = 4  # append = base turns // 4
WARM_TURNS = 4_000
CACHE_KEEP = 12
HOT_FRAC = 0.2
# timestamps are summed relative to the generator's base instant, so sums
# of many of them stay far from the int64 limit on the checking side
TS_BASE_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00 in µs

_SEED_STRIDE = 2**32  # derived seeds never collide with a base seed


def _derived(seed: int, k: int) -> int:
    return (seed % _SEED_STRIDE) + k * _SEED_STRIDE


def _write_files(table, out_dir: str, n_files: int) -> list[str]:
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    paths = []
    for i in range(n_files):
        path = os.path.join(out_dir, f"part-{i:05d}.parquet")
        pq.write_table(table.slice(i * per, per), path)
        paths.append(path)
    return paths


def _golden_rows(golden) -> list[list]:
    return sorted([r, t, ro, n] for (r, t, ro), n in golden.counts.items())


def _conversation_refs(table) -> dict:
    """Answers for the conversation ops, computed by DuckDB SQL on the
    generated table (no ulp_ray code involved)."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register("t", table)
        gaps_rows, gaps_firsts, gaps_sum_us = con.execute(
            """
            SELECT count(*), count(*) - count(d), sum(d) FROM (
              SELECT epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY conv_id ORDER BY turn_idx) AS d
              FROM t)
            """
        ).fetchone()
        dedup_rows, dedup_ts_sum_us = con.execute(
            "SELECT count(*), sum(m - $base) FROM "
            "(SELECT text, min(epoch_us(ts)) AS m FROM t GROUP BY text)",
            {"base": TS_BASE_US},
        ).fetchone()
        join_rows, join_sum_n_turns = con.execute(
            """
            SELECT count(*), sum(c) FROM t
            JOIN (SELECT conv_id, count(*) AS c FROM t GROUP BY conv_id) s
            USING (conv_id)
            """
        ).fetchone()
    finally:
        con.close()
    return {
        "gaps_rows": gaps_rows,
        "gaps_firsts": gaps_firsts,
        "gaps_sum_us": int(gaps_sum_us),
        "dedup_rows": dedup_rows,
        "dedup_ts_sum_us": int(dedup_ts_sum_us),
        "join_rows": join_rows,
        "join_sum_n_turns": int(join_sum_n_turns),
    }


def _build(path: str, seed: int, turns: int) -> None:
    from ulp_ray.fixtures import generate_transcripts

    base, g_base = generate_transcripts(turns, seed=_derived(seed, 0), hot_frac=HOT_FRAC)
    n_append = max(1, turns // APPEND_FRACTION)
    append, g_append = generate_transcripts(
        n_append, seed=_derived(seed, 1), hot_frac=HOT_FRAC
    )
    warm, _ = generate_transcripts(WARM_TURNS, seed=_derived(seed, 2), hot_frac=HOT_FRAC)
    base_files = _write_files(base, os.path.join(path, "base"), BASE_FILES)
    append_files = _write_files(append, os.path.join(path, "append"), APPEND_FILES)
    cut = WARM_TURNS * APPEND_FRACTION // (APPEND_FRACTION + 1)
    _write_files(warm.slice(0, cut), os.path.join(path, "warm_base"), BASE_FILES)
    _write_files(warm.slice(cut), os.path.join(path, "warm_append"), APPEND_FILES)
    refs = {
        "seed": seed,
        "n_base": base.num_rows,
        "n_append": append.num_rows,
        "base_bytes": sum(os.path.getsize(f) for f in base_files),
        "append_bytes": sum(os.path.getsize(f) for f in append_files),
        "golden_base": _golden_rows(g_base),
        "golden_append": _golden_rows(g_append),
        "conversations": _conversation_refs(base),
    }
    with open(os.path.join(path, "refs.json"), "w") as f:
        json.dump(refs, f)


def _evict(cache_root: str, keep: str) -> None:
    sets = [
        os.path.join(cache_root, d)
        for d in os.listdir(cache_root)
        if os.path.isdir(os.path.join(cache_root, d))
    ]
    sets.sort(key=os.path.getmtime, reverse=True)
    for old in sets[CACHE_KEEP:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


def ensure_inputs(cache_root: str, seed: int, turns: int) -> tuple[str, float]:
    """Path of the (seed, turns) input set, building it if absent.
    Returns ``(path, seconds spent building)``."""
    os.makedirs(cache_root, exist_ok=True)
    path = os.path.join(cache_root, f"s{seed}_n{turns}")
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(path, "refs.json")):
        shutil.rmtree(path, ignore_errors=True)
        tmp = f"{path}.building-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            _build(tmp, seed, turns)
            os.replace(tmp, path)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    built_s = time.perf_counter() - t0
    os.utime(path)  # most recently used
    _evict(cache_root, path)
    return path, built_s


def load_inputs(path: str) -> dict:
    """File lists + references of one input set."""

    def files(sub: str) -> list[str]:
        d = os.path.join(path, sub)
        return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))

    with open(os.path.join(path, "refs.json")) as f:
        refs = json.load(f)
    for sub in ("base", "append", "warm_base", "warm_append"):
        refs[sub] = files(sub)
    return refs
