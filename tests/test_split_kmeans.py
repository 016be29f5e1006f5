"""Deterministic splits and sampling (``ulp_ray.stages.split``)."""

import os

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def convs(ray_session):
    rng = np.random.default_rng(7)
    n = 12_000
    return pa.table(
        {
            "conv_id": pa.array(
                [f"c{int(x)}" for x in rng.integers(0, 2_000, n)], pa.string()
            ),
            "row": pa.array(np.arange(n), pa.int64()),
        }
    )


def test_hash_split_disjoint_complete_group_atomic(convs):
    import ray.data

    from ulp_ray.stages.split import hash_split

    ds = ray.data.from_arrow(convs)
    splits = hash_split(ds, "conv_id", {"train": 0.8, "val": 0.1, "test": 0.1})
    parts = {name: s.to_pandas() for name, s in splits.items()}
    total = sum(len(p) for p in parts.values())
    assert total == convs.num_rows  # complete
    rows = set()
    for p in parts.values():
        ids = set(p["row"])
        assert not (rows & ids)  # disjoint
        rows |= ids
    # group-atomic: each conv_id appears in exactly one split
    seen: dict[str, str] = {}
    for name, p in parts.items():
        for c in p["conv_id"].unique():
            assert seen.setdefault(c, name) == name
    # fractions approximately honored (by conv count)
    n_convs = sum(p["conv_id"].nunique() for p in parts.values())
    assert abs(parts["train"]["conv_id"].nunique() / n_convs - 0.8) < 0.05


def test_hash_split_deterministic_across_runs(convs):
    import ray.data

    from ulp_ray.stages.split import hash_split

    ds = ray.data.from_arrow(convs)
    a = hash_split(ds, "conv_id", {"a": 0.5, "b": 0.5})["a"].to_pandas()
    b = hash_split(ds, "conv_id", {"a": 0.5, "b": 0.5})["a"].to_pandas()
    assert sorted(a["row"]) == sorted(b["row"])
    # different salt -> different membership
    c = hash_split(ds, "conv_id", {"a": 0.5, "b": 0.5}, salt=1)["a"].to_pandas()
    assert sorted(a["row"]) != sorted(c["row"])


def test_deterministic_sample_stable_and_group_atomic(convs):
    import ray.data

    from ulp_ray.stages.split import deterministic_sample

    ds = ray.data.from_arrow(convs)
    s1 = deterministic_sample(ds, "conv_id", 0.3).to_pandas()
    s2 = deterministic_sample(ds, "conv_id", 0.3).to_pandas()
    assert sorted(s1["row"]) == sorted(s2["row"])
    assert 0.2 < len(s1) / convs.num_rows < 0.4
    # a sampled conv is fully sampled
    df = convs.to_pandas()
    counts = df.groupby("conv_id").size()
    got = s1.groupby("conv_id").size()
    for c, n in got.items():
        assert counts[c] == n


def test_hash_split_write_one_pass_matches_lazy(convs, tmp_path):
    import os

    import pyarrow.parquet as pq
    import ray.data

    from ulp_ray.stages.split import hash_split, hash_split_write

    ds = ray.data.from_arrow(convs)
    paths = hash_split_write(
        ds, "conv_id", {"train": 0.8, "val": 0.2}, str(tmp_path / "sp")
    )
    lazy = hash_split(ds, "conv_id", {"train": 0.8, "val": 0.2})
    for name, p in paths.items():
        assert os.path.isdir(p)
        written = sorted(pq.read_table(p)["row"].to_pylist())
        assert written == sorted(lazy[name].to_pandas()["row"])


def test_hash_split_write_rerun_is_byte_identical(ray_session, tmp_path):
    """Re-running hash_split_write into the same out_dir must replace the
    split files in place (deterministic filenames + OVERWRITE), never
    append a second copy of the rows."""
    import glob
    import hashlib

    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.split import hash_split_write

    t = pa.table(
        {
            "doc_id": pa.array(range(1000), pa.int64()),
            "v": pa.array([i * 2 for i in range(1000)], pa.int64()),
        }
    )
    out = str(tmp_path / "splits")

    def digest_tree():
        d = {}
        for f in sorted(glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True)):
            d[os.path.relpath(f, out)] = hashlib.sha256(open(f, "rb").read()).hexdigest()
        return d

    paths = hash_split_write(
        ray.data.from_arrow(t), "doc_id", {"train": 0.8, "val": 0.2}, out
    )
    first = digest_tree()
    total = sum(
        ray.data.read_parquet(p).count() for p in paths.values()
    )
    assert total == 1000

    paths2 = hash_split_write(
        ray.data.from_arrow(t), "doc_id", {"train": 0.8, "val": 0.2}, out
    )
    assert paths2 == paths
    assert digest_tree() == first  # byte-identical, not additive
    assert sum(ray.data.read_parquet(p).count() for p in paths2.values()) == 1000

    # a changed layout removes stale split dirs
    hash_split_write(ray.data.from_arrow(t), "doc_id", {"all": 1.0}, out)
    assert not os.path.isdir(os.path.join(out, "__split=train"))


def test_grouped_sample_deterministic_fixed_size(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.split import grouped_sample

    rng = np.random.default_rng(3)
    g = rng.integers(0, 5, size=300)
    t = pa.table(
        {
            "g": pa.array([f"g{x}" for x in g]),
            "id": pa.array(np.arange(300, dtype=np.int64)),
        }
    )
    ds = ray.data.from_arrow(t)
    a = grouped_sample(ds, "g", "id", k=10).to_pandas()
    b = grouped_sample(ds, "g", "id", k=10).to_pandas()
    # deterministic across runs
    assert sorted(a["id"]) == sorted(b["id"])
    # exactly min(k, group size) rows per group
    sizes = a.groupby("g").size()
    import pandas as pd

    full = pd.Series(g).value_counts()
    for name, cnt in sizes.items():
        assert cnt == min(10, int(full[int(name[1:])]))
    # matches the SQL-twin definition (Knuth hash order)
    import pandas as pd

    df = t.to_pandas()
    df["h"] = (df["id"].to_numpy(np.uint64) * np.uint64(2654435761)) % np.uint64(
        1 << 32
    )
    want = (
        df.sort_values(["h", "id"]).groupby("g").head(10)["id"].sort_values().tolist()
    )
    assert sorted(a["id"]) == want


def test_token_budget_sample_matches_window_sql(ray_session):
    """Greedy per-group budget selection vs the DuckDB window-SUM twin;
    null costs count as 0; groups whose first pick already exceeds the
    budget select nothing."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from ulp_ray.stages.split import token_budget_sample

    rng = np.random.default_rng(11)
    n = 500
    t = pa.table(
        {
            "g": pa.array([f"s{x}" for x in rng.integers(0, 4, n)]),
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "cost": pa.array(
                [None if i % 97 == 0 else int(c) for i, c in
                 enumerate(rng.integers(1, 300, n))],
                pa.int64(),
            ),
        }
    )
    got = (
        token_budget_sample(
            ray.data.from_arrow(t).repartition(3), "g", "id", "cost", 1500
        )
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute(
        "SELECT g, id, cost FROM (SELECT *, SUM(COALESCE(cost, 0)) OVER ("
        "PARTITION BY g ORDER BY (id * 2654435761) % 4294967296, id) AS cum "
        "FROM t) WHERE cum <= 1500 ORDER BY id"
    ).df()
    import pandas as pd

    pd.testing.assert_frame_equal(
        got[["g", "id", "cost"]], exp, check_dtype=False
    )
    # each group's kept set is a prefix in hash order and within budget
    df = got.copy()
    assert (
        df.groupby("g")["cost"].sum().fillna(0) <= 1500
    ).all()
    # zero-budget edge: nothing survives (all costs >= 1)
    got0 = token_budget_sample(
        ray.data.from_arrow(t), "g", "id", "cost", 0
    ).to_pandas()
    assert len(got0) == 0 or (got0["cost"].fillna(0) == 0).all()
