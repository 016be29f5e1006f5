"""Local stand-in for the driver's correctness gate: run every
``__ray_entry__.queries()`` entry and its ``oracle_sql()`` twin on the same
sf dir, compare row count + (sorted-by-name) schema + order-insensitive
value hash. Usage: python scripts/check_oracle.py [sf_dir]"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd
import pyarrow as pa


def to_pandas(result) -> pd.DataFrame:
    try:
        import ray.data

        if isinstance(result, ray.data.Dataset):
            return result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].dt.tz_localize(None) if getattr(df[c].dt, "tz", None) is not None else df[c]
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6).astype(str)
        else:
            df[c] = df[c].astype(str)
    rows = sorted("\x1f".join(r) for r in df.itertuples(index=False, name=None))
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()


def stale_ray_workers() -> list[str]:
    """``"<pid> <title>"`` of each live ``ray::`` worker process, read from
    ``/proc`` (empty where there is none). Workers left by an earlier Ray
    session that was not shut down can break the new one's tasks."""
    found = []
    for pid in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                title = fh.read().split(b"\0")[0].decode(errors="replace")
        except OSError:  # the process ended meanwhile
            continue
        if title.startswith("ray::"):
            found.append(f"{pid} {title}")
    return found


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    stale = [] if ray.is_initialized() else stale_ray_workers()
    if stale:
        print(
            "check_oracle: ray:: worker processes of an earlier Ray session are "
            "still alive; stop them with `ray stop --force` and re-run:\n  "
            + "\n  ".join(stale),
            file=sys.stderr,
        )
        return 2
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for name in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings".split()
    ):
        con.execute(
            f"CREATE VIEW {name} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{name}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ok    {name}: rows-only check, {len(ours)} rows")
            continue
        theirs = con.execute(oracles[name]).fetchdf()
        problems = []
        if len(ours) != len(theirs):
            problems.append(f"rows {len(ours)} != {len(theirs)}")
        if sorted(ours.columns) != sorted(theirs.columns):
            problems.append(
                f"cols {sorted(ours.columns)} != {sorted(theirs.columns)}"
            )
        elif value_hash(ours) != value_hash(theirs):
            problems.append("value hash mismatch")
            merged = ours[sorted(ours.columns)].sort_values(
                sorted(ours.columns)
            ).reset_index(drop=True)
            merged2 = theirs[sorted(theirs.columns)].sort_values(
                sorted(theirs.columns)
            ).reset_index(drop=True)
            print(merged.head(3))
            print(merged2.head(3))
        if problems:
            print(f"FAIL  {name}: {'; '.join(problems)}")
            failures += 1
        else:
            print(f"PASS  {name}: {len(ours)} rows")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
