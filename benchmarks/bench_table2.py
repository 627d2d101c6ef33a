"""Benchmark + reproduction of Table 2 (end-to-end query response time).

The measurement is :func:`experiment_table2` on the session's context:
per (testbed, system), the full query loop at k=10 over the bench query
subset, against pre-built indexes — exactly the paper's measurement —
one untimed pass then ``TIMED_PASSES`` timed ones, the same passes
§4.4's full-value rows read. Each cell is the median pass (WarpGate's
lookup is that pass's); the test prints every cell's min and max next to
paper vs measured, and asserts the paper's shape:

* Aurum ≪ WarpGate < D3L on both testbeds;
* WarpGate's index lookup is a minority share of its e2e time;
* testbedM (≈15x the rows) is substantially slower than testbedS for
  the pipeline systems (near-linear growth in rows).
"""
from __future__ import annotations

import pandas as pd

from benchmarks.conftest import BENCH_MAX_QUERIES
from repro.eval import tables as T
from repro.eval.experiments import experiment_table2
from repro.eval.harness import TIMED_PASSES


def test_table2_reproduction(benchmark, bench_ctx, capsys):
    """Measure (or read the session's measurement of) Table 2 and
    validate its rows."""
    measured, table2_runs = benchmark.pedantic(
        experiment_table2,
        args=(bench_ctx,),
        kwargs=dict(max_queries=BENCH_MAX_QUERIES),
        rounds=1,
        iterations=1,
    )
    spread = pd.DataFrame(
        [
            (
                ds, name,
                round(passes[0].avg_e2e_s, 4), round(passes[-1].avg_e2e_s, 4),
                round(min(p.avg_lookup_s for p in passes), 4),
                round(max(p.avg_lookup_s for p in passes), 4),
            )
            for ds, by_sys in table2_runs.items()
            for name, passes in by_sys.items()
        ],
        columns=["dataset", "system", "e2e_min", "e2e_max", "lookup_min", "lookup_max"],
    )
    benchmark.extra_info["spread"] = spread.to_dict("records")
    with capsys.disabled():
        print()
        print(T.format_markdown(T.PAPER_TABLE2, "Table 2 (paper, seconds/query)"))
        print(T.format_markdown(measured, "Table 2 (measured, median pass, seconds/query)"))
        print(T.format_markdown(spread, f"Table 2 spread over {TIMED_PASSES} passes"))
    assert all(p.rankings for by_sys in table2_runs.values() for ps in by_sys.values() for p in ps)
    rows = measured.set_index("dataset")
    for ds in ("testbedS", "testbedM"):
        r = rows.loc[ds]
        assert r["aurum_s"] < 0.2 * r["warpgate_s"], ds
        assert r["warpgate_s"] < r["d3l_s"], ds
        assert r["warpgate_lookup_s"] < 0.6 * r["warpgate_s"], ds
    # Row-scaling shape: M (≈15x the rows) is several-fold slower than S
    # for WarpGate (the paper sees ~12x; Spark's fixed per-job latency
    # damps the ratio at our scale). D3L's per-query cost has a second
    # term proportional to the number of *columns* scanned (S has 2.4x
    # M's columns), which partially cancels the row term at reduced
    # scale — so its ratio is asserted weaker and the confound is
    # documented in EXPERIMENTS.md.
    assert rows.loc["testbedM", "warpgate_s"] > 2.0 * rows.loc["testbedS", "warpgate_s"]
    assert rows.loc["testbedM", "d3l_s"] > 1.1 * rows.loc["testbedS", "d3l_s"]
