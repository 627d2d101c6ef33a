"""Tests for spec materialization and the Warehouse abstraction."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import pyspark.sql.functions as F
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import load_column
from repro.corpus.domains import default_universe
from repro.corpus.tablegen import (
    ColumnSpec,
    CorpusSpec,
    TableSpec,
    Warehouse,
    collect_per_column,
    column_distinct_pool,
    materialize_column,
    materialize_table,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def uni():
    return default_universe()


@pytest.fixture(scope="module")
def ent_spec(uni):
    return ColumnSpec(
        name="c", kind="entity", domain=uni.domains[0].name, fmt="snake",
        pool_lo=0.0, pool_hi=0.8,
    )


@pytest.fixture(scope="module")
def small_spec(uni):
    cols = (
        ColumnSpec(name="row_id", kind="id"),
        ColumnSpec(name="ent", kind="entity", domain=uni.domains[0].name),
        ColumnSpec(name="amt", kind="numeric"),
        ColumnSpec(name="day", kind="date"),
        ColumnSpec(name="note", kind="text", domain=uni.domains[1].name),
    )
    tables = [
        TableSpec(db="dbA", name="t0", n_rows=120, columns=cols),
        TableSpec(db="dbB", name="t1", n_rows=60, columns=cols[:3]),
    ]
    return CorpusSpec(name="mini", tables=tables, seed=3)


@pytest.fixture(scope="module")
def small_wh(spark, small_spec, uni):
    return Warehouse(spark, small_spec, uni)


def test_materialize_column_deterministic(ent_spec, uni):
    a = materialize_column(ent_spec, 50, uni, seed=11)
    b = materialize_column(ent_spec, 50, uni, seed=11)
    assert a.tolist() == b.tolist()


def test_materialize_column_seed_sensitivity(ent_spec, uni):
    a = materialize_column(ent_spec, 50, uni, seed=11)
    b = materialize_column(ent_spec, 50, uni, seed=12)
    assert a.tolist() != b.tolist()


def test_entity_values_come_from_pool(ent_spec, uni):
    vals = materialize_column(ent_spec, 90, uni, seed=1)
    pool = set(column_distinct_pool(ent_spec, uni, 90))
    assert set(vals) <= pool


def test_effective_pool_scales_with_rows(ent_spec, uni):
    small = column_distinct_pool(ent_spec, uni, 30)
    big = column_distinct_pool(ent_spec, uni, 3000)
    assert len(small) < len(big)


def test_pool_slices_overlap_as_specified(uni):
    a = ColumnSpec(name="a", kind="entity", domain=uni.domains[0].name,
                   pool_lo=0.0, pool_hi=0.72)
    b = ColumnSpec(name="b", kind="entity", domain=uni.domains[0].name,
                   pool_lo=0.08, pool_hi=0.80)
    pa = set(column_distinct_pool(a, uni, 600))
    pb = set(column_distinct_pool(b, uni, 600))
    containment = len(pa & pb) / len(pa)
    assert 0.7 <= containment <= 1.0


def test_disjoint_slices_do_not_overlap(uni):
    a = ColumnSpec(name="a", kind="entity", domain=uni.domains[0].name,
                   pool_lo=0.0, pool_hi=0.5)
    b = ColumnSpec(name="b", kind="entity", domain=uni.domains[0].name,
                   pool_lo=0.6, pool_hi=1.0)
    pa = set(column_distinct_pool(a, uni, 600))
    pb = set(column_distinct_pool(b, uni, 600))
    assert not (pa & pb)


@pytest.mark.parametrize("kind", ["numeric", "date", "id"])
def test_distractor_kinds_materialize(kind, uni):
    spec = ColumnSpec(name="x", kind=kind)
    vals = materialize_column(spec, 40, uni, seed=5)
    assert len(vals) == 40
    assert vals.notna().all()


def test_text_kind_materializes(uni):
    spec = ColumnSpec(name="x", kind="text", domain=uni.domains[2].name)
    vals = materialize_column(spec, 40, uni, seed=5)
    assert all(isinstance(v, str) and " " in v for v in vals)


def test_id_kind_unique(uni):
    spec = ColumnSpec(name="x", kind="id")
    vals = materialize_column(spec, 200, uni, seed=5)
    assert vals.nunique() == 200


def test_null_frac(uni):
    spec = ColumnSpec(name="x", kind="numeric", null_frac=0.5)
    vals = materialize_column(spec, 400, uni, seed=5)
    assert 0.3 < vals.isna().mean() < 0.7


def test_unknown_kind_raises(uni):
    with pytest.raises(ValueError):
        materialize_column(ColumnSpec(name="x", kind="wat"), 5, uni, seed=0)


def test_materialize_table_shape(small_spec, uni):
    pdf = materialize_table(small_spec.tables[0], uni, corpus_seed=3)
    assert pdf.shape == (120, 5)
    assert list(pdf.columns) == ["row_id", "ent", "amt", "day", "note"]


def test_spec_properties(small_spec):
    assert small_spec.n_tables == 2
    assert small_spec.n_columns == 8
    assert small_spec.avg_rows == 90.0
    assert len(small_spec.columns) == 8


def test_dotted_names_joining_to_one_col_id_raise():
    """``a.b``/``c`` and ``a``/``b.c`` both join to ``a.b.c``: resolving
    the spec's columns names the clash instead of keeping the last one."""
    cols = (ColumnSpec(name="x", kind="id"),)
    spec = CorpusSpec(
        name="clash",
        tables=[
            TableSpec(db="a.b", name="c", n_rows=5, columns=cols),
            TableSpec(db="a", name="b.c", n_rows=5, columns=cols),
        ],
    )
    assert spec.n_columns == 2
    with pytest.raises(ValueError, match=r"a\.b\.c\.x"):
        spec.columns


def test_column_spec_lookup(small_spec):
    c = small_spec.column_spec("dbA.t0.ent")
    assert c.kind == "entity"
    with pytest.raises(KeyError):
        small_spec.column_spec("dbA.t0.nope")


def test_warehouse_tables_registered(small_wh):
    assert small_wh.table_df("dbA.t0").count() == 120
    assert small_wh.table_df("dbB.t1").count() == 60


def test_column_values_full(small_wh):
    vals = load_column(small_wh, "dbA.t0.ent")
    assert vals == small_wh.table_pdf("dbA.t0")["ent"].tolist()


def test_column_values_sampled(small_wh):
    vals = load_column(small_wh, "dbA.t0.ent", sample=10)
    assert len(vals) == 10


def test_cells_long_df_counts_match_oracle(spark, small_wh, small_spec, uni):
    """The unpivot produces exactly n_rows cells per column — checked
    against DuckDB counting over the driver-side frames."""
    got = small_wh.cells_long_df().groupBy("col_id").agg(
        F.count("*").alias("n")
    )
    t0 = small_wh.table_pdf("dbA.t0")
    t1 = small_wh.table_pdf("dbB.t1")
    sql = """
        WITH cells AS (
          SELECT 'dbA.t0.' || c.col AS col_id
          FROM t0, (SELECT unnest(['row_id','ent','amt','day','note']) AS col) c
          UNION ALL
          SELECT 'dbB.t1.' || c.col
          FROM t1, (SELECT unnest(['row_id','ent','amt']) AS col) c
        )
        SELECT col_id, count(*) AS n FROM cells GROUP BY 1
    """
    assert_equivalent(got, sql, t0=t0, t1=t1)


def test_cells_long_df_sampled(small_wh):
    n = small_wh.cells_long_df(sample=5).count()
    # 5 rows per table, 5 + 3 columns.
    assert n == 5 * 5 + 5 * 3


def test_cells_long_df_of_no_columns_is_empty(small_wh):
    assert small_wh.cells_long_df(include_columns=set()).count() == 0


def test_cells_values_stringified(small_wh):
    row = small_wh.cells_long_df().first()
    assert isinstance(row["value"], str)


def test_warehouse_deterministic(spark, small_spec, uni):
    a = Warehouse(spark, small_spec, uni).table_pdf("dbA.t0")
    b = Warehouse(spark, small_spec, uni).table_pdf("dbA.t0")
    pd.testing.assert_frame_equal(a, b)


def test_text_columns_mix_stopwords(uni):
    """Free-text columns must not sit on a domain centroid (they mix in
    filler vocabulary)."""
    from repro.corpus.tablegen import _STOPWORDS

    spec = ColumnSpec(name="x", kind="text", domain=uni.domains[0].name)
    vals = materialize_column(spec, 200, uni, seed=5)
    words = [w for v in vals for w in str(v).split()]
    stop_share = np.mean([w in _STOPWORDS for w in words])
    assert 0.3 < stop_share < 0.85


@pytest.mark.parametrize("name", ["a.b", "it's", "back`tick", 'say "hi"'])
def test_odd_column_names_resolve_everywhere(spark, model, uni, name):
    """A column name with a dot, a quote or a backtick resolves to the same
    column in the cells frame, ``load_column``, ``column_spec`` and D3L."""
    from repro.baselines.d3l import D3L
    from repro.embed_model.tokenizer import char_ngrams

    cols = (
        ColumnSpec(name=name, kind="entity", domain=uni.domains[0].name),
        ColumnSpec(name="b", kind="id"),
    )
    spec = CorpusSpec(
        name="odd", tables=[TableSpec(db="db", name="t", n_rows=30, columns=cols)]
    )
    wh = Warehouse(spark, spec, uni)
    cid = f"db.t.{name}"
    assert spec.column_spec(cid).name == name
    cells = wh.cells_long_df().toPandas()
    loaded = load_column(wh, cid)
    assert loaded == wh.table_pdf("db.t")[name].tolist()
    assert sorted(cells.loc[cells["col_id"] == cid, "value"]) == sorted(map(str, loaded))
    d3l = D3L(model=model)
    d3l.build_index(wh)
    assert d3l.profiles[cid].name_grams == set(char_ngrams(name.lower()))


def test_cells_are_the_strings_load_column_returns(xs_corpus):
    """The build and the query see the same text: per column, the non-null
    cells equal ``str(v)`` of the non-null values ``load_column`` returns,
    as multisets, in full and at a 10-row sample."""
    spec, wh = xs_corpus
    for sample in (None, 10):
        cells = wh.cells_long_df(sample=sample).toPandas().dropna()
        got = cells.groupby("col_id")["value"].apply(sorted).to_dict()
        for cid in spec.columns:
            loaded = load_column(wh, cid, sample=sample)
            want = sorted(str(v) for v in loaded if v is not None and v == v)
            assert got.get(cid, []) == want, (cid, sample)


def _stage_rows(spark, model, wh) -> dict:
    """Each system's per-column stage output over ``wh``, as comparable
    rows."""
    from repro.baselines.d3l import D3L
    from repro.baselines.minhash import minhash_signatures_df
    from repro.core.embedding import embed_columns_df

    cells = wh.cells_long_df()
    d3l = D3L(model=model)
    d3l.build_index(wh)
    return {
        "embedding": [
            (r["col_id"], np.float32(r["embedding"]).tolist())
            for r in embed_columns_df(spark, cells, model).collect()
        ],
        "minhash": [tuple(r) for r in minhash_signatures_df(cells).collect()],
        "d3l": [_profile_row(p) for p in d3l.profiles.values()],
    }


def _profile_row(p) -> tuple:
    return (
        p.col_id,
        sorted(p.name_grams),
        None if p.minhash is None else p.minhash.tolist(),
        None if p.embedding is None else p.embedding.tolist(),
        sorted(p.patterns),
        None if p.numeric is None else p.numeric.tolist(),
    )


def _driver_rows(model, wh) -> dict:
    """The same rows computed on the driver, one column at a time, from
    the values ``load_column`` returns."""
    from repro.baselines.d3l import build_profile
    from repro.baselines.minhash import (
        N_PERM, PERM_SEED, minhash_signature, permutation_params,
    )

    a, b = permutation_params(N_PERM, PERM_SEED)
    out: dict = {"embedding": [], "minhash": [], "d3l": []}
    for cid, (_, c) in sorted(wh.spec.columns.items()):
        values = load_column(wh, cid)
        vec = model.embed_values([v for v in values if v is not None])
        if vec is not None:
            out["embedding"].append((cid, vec.tolist()))
        sig = minhash_signature(values, a, b)
        if sig is not None:
            out["minhash"].append((cid, sig.tolist()))
        out["d3l"].append(_profile_row(build_profile(cid, c.name, values, model, a, b)))
    return out


@pytest.mark.parametrize(
    "case",
    ["batches_of_3", "one_column", "all_null_column", "above_local_relation_threshold"],
)
def test_stage_rows_match_driver_side(spark, model, uni, case):
    """Embeddings, MinHash signatures and D3L profiles from the per-column
    stage equal the driver's bit for bit, one row per column: when every
    column spans several 3-row Arrow batches, when one column leaves most
    partitions empty, next to a column that is all null (which only D3L
    keeps), and when the cells frame is past Arrow's local-relation
    threshold, so that Spark makes one partition per record batch (two per
    core) rather than one per core."""
    dom = uni.domains[0].name
    cols = [
        ColumnSpec(name="ent", kind="entity", domain=dom),
        ColumnSpec(name="day", kind="date"),
        ColumnSpec(name="note", kind="text", domain=uni.domains[1].name),
    ]
    if case == "one_column":
        cols = cols[:1]
    if case == "all_null_column":
        cols.append(ColumnSpec(name="gone", kind="entity", domain=dom, null_frac=1.0))
    n_tables = 1 if case == "one_column" else 2
    tables = [TableSpec("db", f"t{i}", 20 - 9 * i, tuple(cols)) for i in range(n_tables)]
    wh = Warehouse(spark, CorpusSpec(name=case, tables=tables), uni)
    key, value = {
        "batches_of_3": ("spark.sql.execution.arrow.maxRecordsPerBatch", "3"),
        "above_local_relation_threshold": (
            "spark.sql.execution.arrow.localRelationThreshold", "0"
        ),
    }.get(case, ("spark.sql.execution.arrow.maxRecordsPerBatch", None))
    old = spark.conf.get(key)
    if value is not None:
        spark.conf.set(key, value)
    try:
        got = _stage_rows(spark, model, wh)
        n_parts = wh.cells_long_df().rdd.getNumPartitions()
    finally:
        spark.conf.set(key, old)
    want = _driver_rows(model, wh)
    for system in want:
        assert sorted(got[system]) == want[system], system
    dp = spark.sparkContext.defaultParallelism
    per_batch = case == "above_local_relation_threshold"
    assert n_parts == min(2 * dp if per_batch else dp, wh.spec.n_columns)


@pytest.mark.parametrize("system", ["embedding", "minhash"])
def test_split_column_raises(spark, model, system):
    """A long frame that splits a column across partitions makes the
    per-column stage emit that column once per partition; collecting the
    rows raises and names it rather than indexing it twice."""
    from repro.baselines.minhash import collect_signatures, minhash_signatures_df
    from repro.core.embedding import embed_columns_df
    from repro.core.simhash import SimHashIndex

    pdf = pd.DataFrame({"col_id": ["A"] * 4 + ["B"], "value": list("wxyzv")})
    # Round-robin rows: A's four cells land in both partitions.
    cells = spark.createDataFrame(pdf).repartition(2)
    with pytest.raises(ValueError, match="'A'"):
        if system == "embedding":
            SimHashIndex.build_from_df(
                embed_columns_df(spark, cells, model), dim=model.dim
            )
        else:
            collect_signatures(minhash_signatures_df(cells))


def test_d3l_split_column_raises(spark, model, small_wh, monkeypatch):
    """D3L keys its profiles by col_id: a cells frame that splits a column
    across partitions raises and names it, rather than keeping whichever
    partial profile comes last."""
    from repro.baselines.d3l import D3L

    a, b = "dbA.t0.ent", "dbA.t0.row_id"
    pdf = pd.DataFrame({"col_id": [a] * 4 + [b], "value": list("wxyzv")})
    # Round-robin rows: a's four cells land in both partitions.
    cells = spark.createDataFrame(pdf).repartition(2)
    monkeypatch.setattr(small_wh, "cells_long_df", lambda: cells)
    with pytest.raises(ValueError, match=f"'{a}'"):
        D3L(model=model).build_index(small_wh)


def _arrays_frame(spark, rows, dtype):
    elem = "double" if dtype is np.float32 else "long"
    return spark.createDataFrame(rows, f"col_id string, v array<{elem}>")


def _py(dtype, xs):
    """Python numbers of the Spark element type for ``dtype``."""
    return [(float if dtype is np.float32 else int)(x) for x in xs]


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_collect_per_column_rejects_ragged_arrays(spark, dtype):
    """Lengths 2, 1, 3 would reshape cleanly to (3, 2) as one flat buffer;
    the collect names the columns whose length differs from the first's."""
    rows = [("a", _py(dtype, [1, 2])), ("b", _py(dtype, [3])), ("c", _py(dtype, [4, 5, 6]))]
    with pytest.raises(ValueError, match=r"\['b', 'c'\]"):
        collect_per_column(_arrays_frame(spark, rows, dtype), "v", dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_collect_per_column_rejects_null_arrays(spark, dtype):
    rows = [("a", _py(dtype, [1, 2])), ("b", None), ("c", _py(dtype, [5, 6]))]
    with pytest.raises(ValueError, match=r"null for col_ids \['b'\]"):
        collect_per_column(_arrays_frame(spark, rows, dtype), "v", dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_collect_per_column_of_no_rows(spark, dtype):
    ids, mat = collect_per_column(_arrays_frame(spark, [], dtype), "v", dtype)
    assert ids == [] and mat.shape == (0, 0) and mat.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_collect_per_column_across_arrow_chunks(spark, dtype):
    """Rows collected in several 2-row Arrow chunks fill one C-contiguous
    matrix equal to a row-by-row conversion of the same rows."""
    g = np.random.default_rng(3)
    vals = g.standard_normal((9, 5)) * (1.0 if dtype is np.float32 else 2.0**40)
    rows = [(f"c{i}", _py(dtype, v)) for i, v in enumerate(vals)]
    frame = _arrays_frame(spark, rows, dtype).coalesce(2)
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, "2")
    try:
        n_chunks = frame.toArrow().column("v").num_chunks
        ids, mat = collect_per_column(frame, "v", dtype)
        ref = frame.collect()
    finally:
        spark.conf.set(key, old)
    assert n_chunks >= 4
    assert ids == [r["col_id"] for r in ref]
    assert np.array_equal(mat, np.array([r["v"] for r in ref], dtype=dtype))
    assert mat.dtype == dtype and mat.flags.c_contiguous


def _tables_agree(spark, wh, table_id):
    """The warehouse's table has the schema ``createDataFrame(pdf)`` gives,
    and ``load_column`` returns that frame's values for every column."""
    pdf = wh.table_pdf(table_id)
    ref = spark.createDataFrame(pdf)
    assert wh.table_df(table_id).schema == ref.schema, table_id
    rows = ref.collect()
    for name in pdf.columns:
        cid = f"{table_id}.{name}"
        assert load_column(wh, cid) == [r[name] for r in rows], cid


def test_tables_from_arrow_match_tables_from_pandas(spark, xs_corpus, uni):
    """Warehouse tables are made from Arrow tables, with the schema and
    values a pandas frame gives: for every XS table, and for a table with
    an all-null text column and an all-null numeric column."""
    _, xs = xs_corpus
    for t in xs.spec.tables:
        _tables_agree(spark, xs, t.table_id)
    cols = (
        ColumnSpec(name="ent", kind="entity", domain=uni.domains[0].name),
        ColumnSpec(name="gone", kind="entity", domain=uni.domains[0].name, null_frac=1.0),
        ColumnSpec(name="nan", kind="numeric", null_frac=1.0),
    )
    spec = CorpusSpec(name="nulls", tables=[TableSpec("db", "t", 12, cols)])
    wh = Warehouse(spark, spec, uni)
    assert wh.table_df("db.t").schema["gone"].dataType.simpleString() == "void"
    _tables_agree(spark, wh, "db.t")


# Names built from the characters that need quoting or resolving.
_odd_names = st.text(alphabet="ab.'\"` ", min_size=1, max_size=6)


@settings(max_examples=8, deadline=None)
@given(db=_odd_names, table=_odd_names, name=_odd_names)
def test_odd_identifiers_resolve_everywhere(spark, model, uni, db, table, name):
    """Any db, table and column name made of dots, quotes, backticks and
    spaces resolves to the same column in ``CorpusSpec.columns``, the cells
    frame, ``load_column`` and D3L's name grams."""
    from repro.baselines.d3l import D3L
    from repro.embed_model.tokenizer import char_ngrams

    cols = (
        ColumnSpec(name=name, kind="entity", domain=uni.domains[0].name),
        # No generated name can be this one, in any case.
        ColumnSpec(name="id_0", kind="id"),
    )
    spec = CorpusSpec(
        name="odd", tables=[TableSpec(db=db, name=table, n_rows=12, columns=cols)]
    )
    wh = Warehouse(spark, spec, uni)
    cid = f"{db}.{table}.{name}"
    assert spec.columns[cid][1].name == name
    loaded = load_column(wh, cid)
    assert loaded == wh.table_pdf(f"{db}.{table}")[name].tolist()
    assert load_column(wh, cid) == loaded
    assert load_column(wh, f"{db}.{table}.id_0") == load_column(wh, f"{db}.{table}.id_0")
    cells = wh.cells_long_df().toPandas()
    assert sorted(cells.loc[cells["col_id"] == cid, "value"]) == sorted(map(str, loaded))
    d3l = D3L(model=model)
    d3l.build_index(wh)
    assert d3l.profiles[cid].name_grams == set(char_ngrams(name.lower()))
