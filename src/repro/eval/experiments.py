"""End-to-end experiment drivers for every evaluation table.

These functions are the single source of truth for the paper's
experiments; ``jobs/*.py`` wraps them for spark-submit and
``benchmarks/*`` wraps them for pytest-benchmark, so both produce the
same rows.

Scales: the paper's corpora are ~100x larger than what a 4-core local
Spark can sweep in CI, so every driver takes ``rows_scale`` /
``size_scale`` knobs. Defaults below ("bench scale") keep the S→M
average-row ratio at the paper's ~15x, which is what Table 2's
linear-growth claim rests on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.aurum import Aurum
from repro.baselines.d3l import D3L
from repro.core.warpgate import WarpGate, WarpGateConfig
from repro.corpus.nextiajd import build_testbed
from repro.corpus.sigma import build_sigma_spec, warehouse_shape_stats
from repro.corpus.spider import build_spider, build_spider_spec
from repro.corpus.tablegen import CorpusSpec, Warehouse
from repro.embed_model.bertlike import BertLikeModel
from repro.embed_model.model import EmbeddingModel
from repro.embed_model.pretrained import pretrained_model
from repro.eval.harness import TIMED_PASSES, RunResult, run_queries, timed_runs
from repro.eval import tables as T

# Bench-scale defaults (see module docstring / DESIGN.md §4).
BENCH_ROWS_SCALE = 0.005
BENCH_SIZE_SCALE = 1.0
DEFAULT_KS = [1, 3, 5, 10]


@dataclass
class ExperimentContext:
    """What a batch of experiments shares, each built lazily once: the
    model, the corpora, each corpus's indexed systems and Table 2's timed
    passes."""

    spark: SparkSession
    rows_scale: float = BENCH_ROWS_SCALE
    size_scale: float = BENCH_SIZE_SCALE
    _model: EmbeddingModel | None = None
    _corpora: dict[str, tuple[CorpusSpec, Warehouse]] = field(default_factory=dict)
    _systems: dict[str, dict[str, object]] = field(default_factory=dict, init=False)
    _passes: dict[tuple[str, int | None], dict[str, list[RunResult]]] = field(
        default_factory=dict, init=False
    )

    @property
    def model(self) -> EmbeddingModel:
        if self._model is None:
            self._model = pretrained_model(self.spark)
        return self._model

    def corpus(self, name: str) -> tuple[CorpusSpec, Warehouse]:
        """``name`` ∈ {XS, S, M, L, spider}."""
        if name not in self._corpora:
            if name in ("XS", "S", "M", "L"):
                # testbedL appears only in Table 1 (the paper runs its
                # experiments on S and M); materializing L at full bench
                # row scale would dominate setup time for no measurement,
                # so it gets a 5x smaller row scale.
                rs = self.rows_scale * (0.2 if name == "L" else 1.0)
                self._corpora[name] = build_testbed(
                    self.spark,
                    name,
                    rows_scale=rs,
                    size_scale=self.size_scale,
                )
            elif name == "spider":
                self._corpora[name] = build_spider(
                    self.spark,
                    rows_scale=self.rows_scale * 20,  # Spider tables are small
                    size_scale=self.size_scale,
                )
            else:
                raise KeyError(name)
        return self._corpora[name]

    def systems(self, name: str) -> dict[str, object]:
        """WarpGate, Aurum and D3L, each indexed over corpus ``name`` once."""
        if name not in self._systems:
            _, wh = self.corpus(name)
            systems = {
                "WarpGate": WarpGate(model=self.model),
                "Aurum": Aurum(),
                "D3L": D3L(model=self.model),
            }
            for s in systems.values():
                s.build_index(wh)
            self._systems[name] = systems
        return self._systems[name]

    def timed_passes(self, name: str, max_queries: int | None) -> dict[str, list[RunResult]]:
        """System → its :func:`timed_runs` passes over corpus ``name``'s
        first ``max_queries`` queries, the three systems back to back;
        Table 2 and §4.4's full-value rows both read this one measurement."""
        key = (name, max_queries)
        if key not in self._passes:
            spec, _ = self.corpus(name)
            self._passes[key] = {
                sys_name: timed_runs(system, sys_name, spec.queries, max_queries=max_queries)
                for sys_name, system in self.systems(name).items()
            }
        return self._passes[key]


def experiment_table1(ctx: ExperimentContext) -> pd.DataFrame:
    """Table 1: dataset statistics of every (re-created) corpus."""
    specs: dict[str, CorpusSpec] = {}
    for name in ("XS", "S", "M", "L"):
        specs[name], _ = ctx.corpus(name)
    specs["Spider"], _ = ctx.corpus("spider")
    sigma_spec, _ = build_sigma_spec(
        rows_scale=ctx.rows_scale, size_scale=ctx.size_scale
    )
    specs["Sigma"] = sigma_spec
    return T.table1(specs)


def experiment_fig4(
    ctx: ExperimentContext,
    dataset: str,
    *,
    ks: list[int] | None = None,
    max_queries: int | None = None,
) -> tuple[pd.DataFrame, dict[str, RunResult]]:
    """Fig. 4 (as a table): P@k/R@k of all three systems on one corpus."""
    spec, _ = ctx.corpus(dataset)
    results = {
        name: run_queries(system, name, spec.queries, max_queries=max_queries)
        for name, system in ctx.systems(dataset).items()
    }
    # P/R over the queries actually run (never-run queries must not
    # count as misses when max_queries truncates the set).
    points = {name: r.pr(ks=ks or DEFAULT_KS) for name, r in results.items()}
    return T.pr_table(points), results


def experiment_table2(
    ctx: ExperimentContext,
    *,
    datasets: tuple[str, ...] = ("S", "M"),
    max_queries: int | None = 30,
) -> tuple[pd.DataFrame, dict[str, dict[str, list[RunResult]]]]:
    """Table 2: end-to-end query response time (k=10), full values, from
    each system's median pass. Also returns testbed → system → every
    pass, sorted by e2e time."""
    passes = {f"testbed{ds}": ctx.timed_passes(ds, max_queries) for ds in datasets}
    median = {
        ds: {name: runs[TIMED_PASSES // 2] for name, runs in by_sys.items()}
        for ds, by_sys in passes.items()
    }
    return T.table2(median), passes


def experiment_sample_efficiency(
    ctx: ExperimentContext,
    *,
    datasets: tuple[str, ...] = ("S", "M"),
    sample_sizes: tuple[int | None, ...] = (10, 100, 1000, None),
    max_queries: int | None = 30,
    include_bertlike: bool = False,
    bertlike_samples: tuple[int, ...] = (100,),
) -> pd.DataFrame:
    """§4.4: WarpGate effectiveness/efficiency across sample sizes, each
    row from its median pass; the full-value row is Table 2's WarpGate
    cell (:meth:`ExperimentContext.timed_passes`).

    Optionally repeats selected sample sizes with the BERT-like model to
    reproduce the quality-parity / ~10x-inference-cost finding.
    """
    # Table 2's passes first, so no sampled build precedes their timing.
    full = {
        ds: ctx.timed_passes(ds, max_queries)["WarpGate"][TIMED_PASSES // 2]
        for ds in datasets if None in sample_sizes
    }
    rows: list[tuple[str, str, float, float, float, float]] = []
    for ds in datasets:
        spec, wh = ctx.corpus(ds)
        runs = [(ctx.model, "WarpGate", s, "full" if s is None else str(s)) for s in sample_sizes]
        if include_bertlike:
            bert = BertLikeModel(base=ctx.model)
            runs += [(bert, "WarpGate-BERT", s, f"bert:{s}") for s in bertlike_samples]
        for model, name, sample, label in runs:
            if label == "full":
                rr = full[ds]
            else:
                wg = WarpGate(model=model, config=WarpGateConfig(sample=sample))
                wg.build_index(wh)
                rr = timed_runs(wg, name, spec.queries, max_queries=max_queries)[TIMED_PASSES // 2]
            pr = rr.pr(ks=[10])[0]
            rows.append((f"testbed{ds}", label, round(pr.precision, 3), round(pr.recall, 3),
                         round(rr.avg_lookup_s, 4), round(rr.avg_e2e_s, 4)))
    return T.sample_efficiency_table(rows)


def experiment_sigma_shape(ctx: ExperimentContext) -> dict[str, float]:
    """§5.1-style warehouse shape statistics of Sigma-lite."""
    spec, _ = build_sigma_spec(
        rows_scale=ctx.rows_scale, size_scale=ctx.size_scale
    )
    return warehouse_shape_stats(spec)
