"""Column loads: a read's first load against its prepared ones.

:func:`repro.core.sampling.load_column` plans each distinct read once
per warehouse and collects the planned DataFrame on every later load.
This benchmark times both on the testbedS bench keys (the first
``BENCH_MAX_QUERIES`` queries Table 2 runs), with full values and with
``sample=100``, on a warehouse of its own so that no read is prepared
before it is timed. Freshly planned loads of every key run first,
untimed, so the JVM's planner code is compiled before the first load is
timed. Each key's first load (plan + execute) is one call; its prepared
load is the median of ``REPEATS`` calls. The table gives p50/p90 over
the keys.

Gates: every load returns the values of a freshly planned select, and
the prepared p50 is below the first load's. Run it alone with
``PYTHONPATH=src:. python benchmarks/bench_load.py`` or under
``pytest benchmarks/``.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
import pandas as pd

from benchmarks.conftest import BENCH_MAX_QUERIES
from repro.core.sampling import load_column, sample_column_df
from repro.corpus.tablegen import CorpusSpec, Warehouse
from repro.eval.tables import format_markdown

SAMPLES = (None, 100)
WARM_ROUNDS = 10
REPEATS = 7
TITLE = "Column loads, testbedS bench keys (ms per load)"


def _fresh_load(wh: Warehouse, col_id: str, sample: int | None) -> list:
    """The column's values from a DataFrame planned for this call alone."""
    table, column = wh.spec.columns[col_id]
    quoted = column.name.replace("`", "``")
    df = wh.table_df(table.table_id).select(f"`{quoted}`")
    return [r[0] for r in sample_column_df(df, sample=sample).collect()]


def _timed_ms(fn) -> tuple[float, list]:
    t = time.perf_counter()
    out = fn()
    return (time.perf_counter() - t) * 1e3, out


def measure(wh: Warehouse, keys: list[str]) -> pd.DataFrame:
    """One row per sample size: the keys' first and prepared load times,
    their values loaded, and whether every load matched a fresh plan.
    ``wh`` must not have loaded any of ``keys`` yet."""
    fresh = {}
    for _ in range(WARM_ROUNDS):
        fresh = {(c, s): _fresh_load(wh, c, s) for c in keys for s in SAMPLES}
    rows = []
    for sample in SAMPLES:
        first, prepared, identical = [], [], True
        for cid in keys:
            t, values = _timed_ms(lambda: load_column(wh, cid, sample=sample))
            first.append(t)
            identical &= values == fresh[cid, sample]
            times = []
            for _ in range(REPEATS):
                t, again = _timed_ms(lambda: load_column(wh, cid, sample=sample))
                times.append(t)
                identical &= again == values
            prepared.append(statistics.median(times))
        rows.append(dict(
            values="full" if sample is None else sample,
            keys=len(keys),
            values_p50=int(np.median([len(fresh[c, sample]) for c in keys])),
            first_p50_ms=round(float(np.percentile(first, 50)), 2),
            first_p90_ms=round(float(np.percentile(first, 90)), 2),
            prepared_p50_ms=round(float(np.percentile(prepared, 50)), 2),
            prepared_p90_ms=round(float(np.percentile(prepared, 90)), 2),
            identical=identical,
        ))
    return pd.DataFrame(rows)


def run(spec: CorpusSpec, wh: Warehouse) -> pd.DataFrame:
    """:func:`measure` on a new warehouse over ``spec``, keyed by its
    first ``BENCH_MAX_QUERIES`` queries."""
    keys = [q.column for q in spec.queries[:BENCH_MAX_QUERIES]]
    return measure(Warehouse(wh.spark, spec, wh.universe), keys)


def check(table: pd.DataFrame) -> list[str]:
    """The gates that fail (empty when they hold)."""
    bad = [f"values differ at {v}" for v, ok in zip(table["values"], table.identical) if not ok]
    bad += [
        f"prepared p50 {p} ms >= first p50 {f} ms at {v}"
        for v, f, p in zip(table["values"], table.first_p50_ms, table.prepared_p50_ms)
        if p >= f
    ]
    return bad


def test_column_loads(bench_ctx, capsys):
    table = run(*bench_ctx.corpus("S"))
    with capsys.disabled():
        print()
        print(format_markdown(table, TITLE))
    assert not check(table), check(table)


if __name__ == "__main__":
    from pyspark.sql import SparkSession

    from repro.eval.experiments import ExperimentContext

    spark = SparkSession.builder.master("local[4]").getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    t = run(*ExperimentContext(spark=spark).corpus("S"))
    print(format_markdown(t, TITLE))
    print("gates:", check(t) or "hold")
    spark.stop()
