"""Tests for the evaluation harness and the paper-table renderers."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.corpus.tablegen import CorpusSpec, QuerySpec, TableSpec, ColumnSpec
from repro.eval import tables as T
from repro.eval.harness import RunResult, run_queries


def test_run_queries_collects_everything(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    rr = run_queries(warpgate_xs, "WarpGate", spec.queries, k=5, max_queries=4)
    assert len(rr.rankings) == 4
    assert len(rr.load_s) == 4 and len(rr.lookup_s) == 4
    assert rr.avg_e2e_s == pytest.approx(rr.avg_load_s + rr.avg_lookup_s)
    assert all(len(v) <= 5 for v in rr.rankings.values())


def test_run_result_pr_delegates(xs_corpus, warpgate_xs):
    spec, _ = xs_corpus
    rr = run_queries(warpgate_xs, "WarpGate", spec.queries, k=10)
    pts = rr.pr(ks=[1, 10])
    assert pts[0].k == 1 and pts[1].k == 10
    assert 0 <= pts[0].precision <= 1


def test_empty_run_result():
    rr = RunResult(system="x")
    assert rr.avg_load_s == 0.0 and rr.avg_e2e_s == 0.0


def test_paper_constants_shape():
    assert list(T.PAPER_TABLE1["dataset"]) == ["XS", "S", "M", "L", "Spider", "Sigma"]
    assert list(T.PAPER_TABLE2["dataset"]) == ["testbedS", "testbedM"]
    # Paper Table 2 ordering: Aurum ≪ WarpGate < D3L on both testbeds,
    # with lookup a minority share of WarpGate's e2e time. (The paper's
    # prose says "<25%" but its own Table 2 cells give 1.04/3.12 ≈ 33%,
    # so we assert the weaker minority-share claim the cells support.)
    for _, r in T.PAPER_TABLE2.iterrows():
        assert r["aurum_s"] < r["warpgate_s"] < r["d3l_s"]
        assert r["warpgate_lookup_s"] < 0.5 * r["warpgate_s"]


def test_table1_renderer():
    cols = (ColumnSpec(name="c", kind="id"),)
    spec = CorpusSpec(
        name="x",
        tables=[TableSpec(db="d", name="t", n_rows=10, columns=cols)],
        queries=[QuerySpec(column="d.t.c", answers=frozenset({"d.t.c2"}))],
    )
    df = T.table1({"x": spec})
    assert df.iloc[0]["n_tables"] == 1
    assert df.iloc[0]["n_queries"] == 1
    assert df.iloc[0]["avg_answers"] == 1.0


def test_table1_no_ground_truth_blank():
    cols = (ColumnSpec(name="c", kind="id"),)
    spec = CorpusSpec(
        name="x",
        tables=[TableSpec(db="d", name="t", n_rows=10, columns=cols)],
        queries=[QuerySpec(column="d.t.c", answers=frozenset())],
    )
    df = T.table1({"x": spec})
    assert df.iloc[0]["n_queries"] is None


def test_table2_renderer():
    def rr(load, lookup):
        r = RunResult(system="s")
        r.load_s = [load]
        r.lookup_s = [lookup]
        return r

    df = T.table2(
        {"testbedS": {"Aurum": rr(0, 0.001), "D3L": rr(1, 2), "WarpGate": rr(1, 0.5)}}
    )
    assert df.iloc[0]["aurum_s"] == pytest.approx(0.001)
    assert df.iloc[0]["d3l_s"] == pytest.approx(3.0)
    assert df.iloc[0]["warpgate_s"] == pytest.approx(1.5)
    assert df.iloc[0]["warpgate_lookup_s"] == pytest.approx(0.5)


def test_pr_table_renderer():
    from repro.eval.metrics import PRPoint

    df = T.pr_table({"Sys": [PRPoint(k=1, precision=0.5, recall=0.25)]})
    assert list(df.columns) == ["system", "k", "precision", "recall"]
    assert df.iloc[0]["precision"] == 0.5


def test_sample_efficiency_table_renderer():
    df = T.sample_efficiency_table(
        [("testbedS", "10", 0.5, 0.9, 0.001, 0.02)]
    )
    assert df.iloc[0]["sample"] == "10"
    assert df.iloc[0]["e2e_s"] == 0.02


def test_format_markdown():
    df = pd.DataFrame({"a": [1, None], "b": ["x", "y"]})
    md = T.format_markdown(df, "Title")
    assert md.startswith("### Title")
    lines = md.strip().splitlines()
    assert lines[2].startswith("| a | b |")
    assert "---" in lines[3]
    assert len(lines) == 6
