"""Tests for column sampling strategies and prepared column scans."""
from __future__ import annotations

import pytest

from repro.core.sampling import load_column, sample_column_df
from repro.corpus.tablegen import ColumnSpec, CorpusSpec, TableSpec, Warehouse


@pytest.fixture(scope="module")
def col_df(spark, xs_corpus):
    spec, wh = xs_corpus
    cid = next(c for c, (_, col) in spec.columns.items() if col.kind == "entity")
    db, table, col = cid.split(".", 2)
    return wh.table_df(f"{db}.{table}").select(col), wh, cid


def test_full_returns_all(col_df):
    df, _, _ = col_df
    assert sample_column_df(df, sample=None).count() == df.count()
    assert sample_column_df(df, sample=None, strategy="random").count() == df.count()


def test_head_limits(col_df):
    df, _, _ = col_df
    assert sample_column_df(df, sample=7, strategy="head").count() == 7


def test_random_caps_at_sample(col_df):
    df, _, _ = col_df
    n = sample_column_df(df, sample=9, strategy="random", seed=1).count()
    assert n <= 9
    assert n >= 5  # oversampled fraction rarely under-delivers by much


def test_random_small_table_returns_all(spark):
    import pandas as pd

    df = spark.createDataFrame(pd.DataFrame({"x": [1, 2, 3]}))
    assert sample_column_df(df, sample=10, strategy="random").count() == 3


def test_unknown_strategy(col_df):
    df, _, _ = col_df
    for strategy in ("wat", "full"):  # sample=None is the full scan
        with pytest.raises(ValueError):
            sample_column_df(df, sample=5, strategy=strategy)


def test_load_column_sampled(col_df):
    _, wh, cid = col_df
    assert len(load_column(wh, cid, sample=6)) == 6


def test_load_column_full(col_df):
    df, wh, cid = col_df
    assert len(load_column(wh, cid)) == df.count()


@pytest.fixture(scope="module")
def tiny_spec(universe):
    cols = (
        ColumnSpec(name="ent", kind="entity", domain=universe.domains[0].name),
        ColumnSpec(name="amt", kind="numeric", null_frac=0.2),
    )
    return CorpusSpec(name="tiny", tables=[TableSpec("db", "t", 40, cols)], seed=5)


def _fresh_load(wh, col_id, **kw) -> list:
    """The column's values from a DataFrame planned for this call alone."""
    table, column = wh.spec.columns[col_id]
    df = sample_column_df(wh.table_df(table.table_id).select(column.name), **kw)
    return [r[0] for r in df.collect()]


@pytest.mark.parametrize(
    "kw",
    [
        dict(sample=None),
        dict(sample=6, strategy="head"),
        dict(sample=9, strategy="random", seed=3),
    ],
    ids=["full", "head", "random"],
)
@pytest.mark.parametrize("col", ["ent", "amt"])
def test_prepared_load_equals_fresh_plan(spark, tiny_spec, universe, kw, col):
    """The first and every later load of one read return what a freshly
    planned select returns, in order."""
    wh = Warehouse(spark, tiny_spec, universe)
    want = _fresh_load(wh, f"db.t.{col}", **kw)
    for _ in range(3):
        assert load_column(wh, f"db.t.{col}", **kw) == want


def test_mutating_a_load_leaves_the_next_one(spark, tiny_spec, universe):
    wh = Warehouse(spark, tiny_spec, universe)
    first = load_column(wh, "db.t.ent")
    want = list(first)
    first[0] = "changed"
    first.append("extra")
    assert load_column(wh, "db.t.ent") == want


def test_one_scan_per_distinct_read(spark, tiny_spec, universe):
    """Warehouses start with no scan; a repeated read reuses its DataFrame,
    and another sample gets its own."""
    wh = Warehouse(spark, tiny_spec, universe)
    assert wh.scans == {}
    load_column(wh, "db.t.ent")
    full = wh.scans[("db.t.ent", None, "head", 0)]
    load_column(wh, "db.t.ent")
    assert wh.scans[("db.t.ent", None, "head", 0)] is full
    load_column(wh, "db.t.ent", sample=6)
    assert wh.scans[("db.t.ent", 6, "head", 0)] is not full
    assert len(wh.scans) == 2


def test_unknown_col_id_raises_every_time(spark, tiny_spec, universe):
    wh = Warehouse(spark, tiny_spec, universe)
    for _ in range(2):
        with pytest.raises(KeyError):
            load_column(wh, "db.t.nope")
    assert wh.scans == {}


def test_warehouses_do_not_share_scans(spark, tiny_spec, universe):
    a = Warehouse(spark, tiny_spec, universe)
    b = Warehouse(spark, tiny_spec, universe)
    load_column(a, "db.t.ent")
    assert b.scans == {}
    assert load_column(b, "db.t.ent") == load_column(a, "db.t.ent")
    assert b.scans[("db.t.ent", None, "head", 0)] is not a.scans[("db.t.ent", None, "head", 0)]


def test_negative_sample_raises_on_both_paths(spark, tiny_spec, universe):
    """A negative sample is a ``ValueError`` for a load and for the cells
    frame alike; ``sample=0`` reads nothing on both."""
    wh = Warehouse(spark, tiny_spec, universe)
    for strategy in ("head", "random"):
        with pytest.raises(ValueError, match="sample"):
            load_column(wh, "db.t.ent", sample=-1, strategy=strategy)
    with pytest.raises(ValueError, match="sample"):
        wh.cells_long_df(sample=-1)
    assert wh.scans == {}
    assert load_column(wh, "db.t.ent", sample=0) == []
    assert wh.cells_long_df(sample=0).count() == 0
