"""Benchmark + reproduction of §4.4 (sample efficiency).

Sweeps WarpGate over sample sizes 10/100/1000/full on testbedS and
testbedM, plus the BERT-like heavyweight model at sample size 100. Each
row is its median pass; the full-value rows are Table 2's WarpGate
cells, read from the session context's one measurement.
Shape assertions encode the paper's findings:

* effectiveness is robust to sampling (R@10 within a few points of the
  full-value run at every sample size);
* sampled end-to-end query time drops well below the full-value run
  (the paper reaches interactive, <65 ms/query, speeds);
* the BERT-like model is on par in effectiveness but ~an order of
  magnitude slower in index lookup (inference inside the lookup phase).
"""
from __future__ import annotations

from benchmarks.conftest import BENCH_MAX_QUERIES
from repro.eval import tables as T
from repro.eval.experiments import experiment_sample_efficiency


def test_sample_efficiency_reproduction(benchmark, bench_ctx, capsys):
    df = benchmark.pedantic(
        experiment_sample_efficiency,
        args=(bench_ctx,),
        kwargs=dict(
            datasets=("S", "M"),
            sample_sizes=(10, 100, 1000, None),
            max_queries=BENCH_MAX_QUERIES,
            include_bertlike=True,
            bertlike_samples=(100,),
        ),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print(T.format_markdown(df, "§4.4 sample efficiency (measured)"))
    for ds in ("testbedS", "testbedM"):
        sub = df[df["dataset"] == ds].set_index("sample")
        full_r = sub.loc["full", "r_at_10"]
        for s in ("10", "100", "1000"):
            assert abs(sub.loc[s, "r_at_10"] - full_r) <= 0.15, (ds, s)
        # BERT-like: effectiveness parity, much slower lookup.
        assert abs(sub.loc["bert:100", "r_at_10"] - sub.loc["100", "r_at_10"]) <= 0.2
        assert sub.loc["bert:100", "lookup_s"] > 3 * sub.loc["100", "lookup_s"], ds
    # Sampling cuts e2e time substantially where rows are large enough to
    # matter (testbedM). On testbedS our tables are ~1k rows at bench
    # scale, so Spark's fixed per-job latency floors the load phase and
    # sampling can only be non-inferior there — the paper's S tables are
    # 200x larger, which is where its <35 ms claim bites.
    m = df[df["dataset"] == "testbedM"].set_index("sample")
    assert m.loc["100", "e2e_s"] < 0.5 * m.loc["full", "e2e_s"]
    s = df[df["dataset"] == "testbedS"].set_index("sample")
    assert s.loc["100", "e2e_s"] < 1.5 * s.loc["full", "e2e_s"]
