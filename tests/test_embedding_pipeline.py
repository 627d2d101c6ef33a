"""Tests for the distributed column-embedding pipeline."""
from __future__ import annotations

import numpy as np
import pytest
import pyspark.sql.functions as F

from repro.core.embedding import collect_embeddings, embed_columns_df
from repro.core.sampling import load_column
from repro.corpus.tablegen import cells_frame
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def columns():
    return [
        ("X", ["Acme Corp", "Beta Inc", "Acme Corp"]),
        ("Y", ["red", "blue", "green"]),
        ("Z", [None, ""]),
    ]


@pytest.fixture(scope="module")
def emb_df(spark, columns, model):
    return embed_columns_df(spark, cells_frame(spark, columns), model)


def test_one_row_per_nonempty_column(emb_df):
    rows = {r["col_id"] for r in emb_df.collect()}
    assert rows == {"X", "Y"}  # Z is all-null/empty → dropped


def test_matches_driver_side_embedding(emb_df, columns, model):
    """The distributed pipeline computes exactly model.embed_values."""
    got = {r["col_id"]: np.array(r["embedding"]) for r in emb_df.collect()}
    for cid, values in columns[:2]:
        expected = model.embed_values(values)
        assert np.allclose(got[cid], expected, atol=1e-6)


def test_embeddings_normalized(emb_df):
    for r in emb_df.collect():
        assert np.isclose(np.linalg.norm(r["embedding"]), 1.0, atol=1e-5)


def test_embedding_dim(emb_df, model):
    assert all(len(r["embedding"]) == model.dim for r in emb_df.collect())


def test_collect_embeddings(emb_df, model):
    ids, mat = collect_embeddings(emb_df)
    assert sorted(ids) == ["X", "Y"]
    assert mat.shape == (2, model.dim)
    assert mat.dtype == np.float32


def test_collect_empty(spark, model):
    empty = spark.createDataFrame([], "col_id string, value string")
    ids, mat = collect_embeddings(embed_columns_df(spark, empty, model))
    assert ids == [] and mat.shape == (0, 0)


def test_column_count_matches_oracle(spark, xs_corpus, model):
    """Every non-empty column of the XS warehouse gets exactly one
    embedding row — cross-checked by counting distinct columns in DuckDB
    over the same long frame."""
    spec, wh = xs_corpus
    cells = wh.cells_long_df(sample=20)
    emb = embed_columns_df(spark, cells, model)
    got = emb.select("col_id").groupBy().agg(
        F.count("*").alias("n_columns")
    )
    cells_pdf = cells.toPandas()
    assert_equivalent(
        got,
        "SELECT count(DISTINCT col_id) AS n_columns FROM cells WHERE value IS NOT NULL",
        cells=cells_pdf,
    )


def test_sampling_stability_of_embeddings(spark, xs_corpus, model):
    """§4.4 mechanism check: a 50-row sample's column embedding is close
    to the full-value embedding for entity columns."""
    from repro.embed_model.model import cosine

    spec, wh = xs_corpus
    ent = [c for c, (_, col) in spec.columns.items() if col.kind == "entity"][:5]
    for cid in ent:
        full = model.embed_values(load_column(wh, cid))
        samp = model.embed_values(load_column(wh, cid, sample=50))
        assert cosine(full, samp) > 0.9, cid


def test_embed_stage_runs_one_task_per_core(spark, tied_warehouse, model):
    """The embed stage runs ``defaultParallelism`` tasks: the six
    one-column tables make six Arrow rows, which Spark slices into one
    partition per core, and the ``mapInPandas`` reads those partitions
    with no shuffle in between."""
    sc = spark.sparkContext
    sc.setJobGroup("embed-stage", "embed-stage")
    try:
        collect_embeddings(
            embed_columns_df(spark, tied_warehouse.cells_long_df(), model)
        )
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    result_job = max(tracker.getJobIdsForGroup("embed-stage"))
    embed_stage = max(tracker.getJobInfo(result_job).stageIds)
    assert tracker.getStageInfo(embed_stage).numTasks == sc.defaultParallelism


def test_cells_read_stage_runs_one_task_per_core(spark, xs_corpus, model, capsys):
    """The stage that reads the cells of all 28 XS tables runs
    ``defaultParallelism`` tasks, not a few per table, and the build plan
    has no shuffle and no sort."""
    _, wh = xs_corpus
    sc = spark.sparkContext
    emb = embed_columns_df(spark, wh.cells_long_df(), model)
    emb.explain()
    plan = capsys.readouterr().out
    assert "Exchange" not in plan and "Sort" not in plan, plan
    sc.setJobGroup("cells-read", "cells-read")
    try:
        collect_embeddings(emb)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    first_job = min(tracker.getJobIdsForGroup("cells-read"))
    read_stage = min(tracker.getJobInfo(first_job).stageIds)
    assert tracker.getStageInfo(read_stage).numTasks == sc.defaultParallelism
