"""Tests for the experiment drivers (tiny-scale runs of each table)."""
from __future__ import annotations

import pytest

from repro.baselines.aurum import Aurum
from repro.baselines.d3l import D3L
from repro.core.warpgate import WarpGate
from repro.eval.experiments import (
    ExperimentContext,
    experiment_fig4,
    experiment_sample_efficiency,
    experiment_sigma_shape,
    experiment_table2,
)
from repro.eval.harness import TIMED_PASSES, RunResult


@pytest.fixture(scope="module")
def ctx(spark):
    return ExperimentContext(spark=spark, rows_scale=0.001, size_scale=0.12)


def test_context_lazy_model(ctx, model):
    assert ctx.model.dim == model.dim


def test_context_corpus_cached(ctx):
    a = ctx.corpus("XS")
    b = ctx.corpus("XS")
    assert a is b


def test_context_unknown_corpus(ctx):
    with pytest.raises(KeyError):
        ctx.corpus("nope")


def test_fig4_driver(ctx):
    table, results = experiment_fig4(ctx, "XS", ks=[1, 5], max_queries=6)
    assert set(table["system"]) == {"WarpGate", "Aurum", "D3L"}
    assert set(table["k"]) == {1, 5}
    assert ((table["precision"] >= 0) & (table["precision"] <= 1)).all()
    assert len(results) == 3


def test_table2_driver(ctx):
    df, per_ds = experiment_table2(ctx, datasets=("XS",), max_queries=5)
    row = df.iloc[0]
    assert row["dataset"] == "testbedXS"
    assert row["aurum_s"] < row["warpgate_s"]
    assert row["warpgate_lookup_s"] <= row["warpgate_s"]
    assert set(per_ds["testbedXS"]) == {"WarpGate", "Aurum", "D3L"}


def test_sample_efficiency_driver(ctx):
    df = experiment_sample_efficiency(
        ctx, datasets=("XS",), sample_sizes=(10, None), max_queries=5
    )
    assert list(df["sample"]) == ["10", "full"]
    assert ((df["r_at_10"] >= 0) & (df["r_at_10"] <= 1)).all()
    assert (df["e2e_s"] > 0).all()


def test_sample_efficiency_bertlike(ctx):
    df = experiment_sample_efficiency(
        ctx,
        datasets=("XS",),
        sample_sizes=(10,),
        max_queries=3,
        include_bertlike=True,
        bertlike_samples=(10,),
    )
    assert "bert:10" in set(df["sample"])


def test_drivers_share_indexed_systems_and_table2_passes(spark, monkeypatch):
    """Fig 4, Table 2 and §4.4 on one context index each system once, and
    §4.4's full row is read off Table 2's WarpGate median pass."""
    built, pr_of = [], []
    for cls in (WarpGate, Aurum, D3L):
        def build(self, wh, _build=cls.build_index):
            built.append(self)
            return _build(self, wh)
        monkeypatch.setattr(cls, "build_index", build)
    pr = RunResult.pr
    monkeypatch.setattr(RunResult, "pr", lambda self, ks=None: pr_of.append(self) or pr(self, ks))

    ctx = ExperimentContext(spark=spark, rows_scale=0.001, size_scale=0.12)
    experiment_fig4(ctx, "XS", max_queries=4)
    systems = ctx.systems("XS")
    _, passes = experiment_table2(ctx, datasets=("XS",), max_queries=4)
    pr_of.clear()
    df = experiment_sample_efficiency(
        ctx, datasets=("XS",), sample_sizes=(10, None), max_queries=4
    )

    assert ctx.systems("XS") is systems
    shared = {id(s) for s in systems.values()}
    assert [s for s in built if id(s) in shared] == list(systems.values())
    assert [s.config.sample for s in built if id(s) not in shared] == [10]
    median = passes["testbedXS"]["WarpGate"][TIMED_PASSES // 2]
    assert any(rr is median for rr in pr_of)
    assert df.set_index("sample").loc["full", "e2e_s"] == round(median.avg_e2e_s, 4)


def test_sigma_shape_driver(ctx):
    shape = experiment_sigma_shape(ctx)
    assert shape["median_rows"] < shape["avg_rows"]
