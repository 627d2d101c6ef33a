"""Benchmark + reproduction of Table 2 (end-to-end query response time).

One benchmark per (testbed, system): the body is the full query loop at
k=10 over the bench query subset, against pre-built indexes — exactly
the paper's measurement — timed after one untimed pass over the same
queries. The final test assembles the Table 2 rows,
prints paper vs measured, and asserts the paper's shape:

* Aurum ≪ WarpGate < D3L on both testbeds;
* WarpGate's index lookup is a minority share of its e2e time;
* testbedM (≈15x the rows) is substantially slower than testbedS for
  the pipeline systems (near-linear growth in rows).
"""
from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_MAX_QUERIES
from repro.eval import tables as T
from repro.eval.harness import run_queries

_RESULTS: dict[str, dict] = {}


def _bench_system(benchmark, fixture, ds_label, name):
    spec, _, systems = fixture
    args = (systems[name], name, spec.queries)
    kwargs = dict(k=10, max_queries=BENCH_MAX_QUERIES)
    # One untimed pass first, so the timed one starts warm whichever
    # system and testbed run first.
    run_queries(*args, **kwargs)
    rr = benchmark.pedantic(
        run_queries, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    _RESULTS.setdefault(ds_label, {})[name] = rr
    benchmark.extra_info["avg_e2e_s"] = rr.avg_e2e_s
    benchmark.extra_info["avg_lookup_s"] = rr.avg_lookup_s
    assert rr.rankings


@pytest.mark.parametrize("system", ["Aurum", "D3L", "WarpGate"])
def test_bench_testbed_s(benchmark, indexed_s, system):
    _bench_system(benchmark, indexed_s, "testbedS", system)


@pytest.mark.parametrize("system", ["Aurum", "D3L", "WarpGate"])
def test_bench_testbed_m(benchmark, indexed_m, system):
    _bench_system(benchmark, indexed_m, "testbedM", system)


def test_table2_reproduction(benchmark, capsys):
    """Assemble and validate the Table 2 rows from the runs above."""
    assert set(_RESULTS) == {"testbedS", "testbedM"}, (
        "run the per-system benchmarks first (pytest runs this file in order)"
    )
    measured = benchmark.pedantic(
        T.table2, args=(_RESULTS,), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(T.format_markdown(T.PAPER_TABLE2, "Table 2 (paper, seconds/query)"))
        print(T.format_markdown(measured, "Table 2 (measured, seconds/query)"))
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
