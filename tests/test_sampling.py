"""Tests for column sampling strategies."""
from __future__ import annotations

import pytest

from repro.core.sampling import load_column, sample_column_df


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

