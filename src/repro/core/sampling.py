"""Row-sampling strategies for column loading (§3.1.3, §4.4).

CDW vendors charge per byte scanned, so WarpGate profiles columns from
small row samples instead of full scans. Two strategies:

* ``head`` — ``LIMIT n``: the cheapest scan a warehouse can do (stops
  early); the default, and what the paper's sample sizes refer to.
* ``random`` — Bernoulli ``TABLESAMPLE``-style sampling via
  ``df.sample``; costs a full scan but is unbiased. Used by tests to
  show the embedding is robust to *where* the sample comes from.

``sample=None`` loads everything (the no-sampling baseline of Fig.
4/Table 2), ``sample=0`` nothing, and a negative ``sample`` raises
``ValueError`` (:func:`check_sample`). :func:`load_column` is the one
way any system reads a column out of the warehouse.
"""
from __future__ import annotations

from pyspark.sql import DataFrame


def check_sample(sample: int | None) -> None:
    """Raise ``ValueError`` for a negative row sample, before Spark sees it."""
    if sample is not None and sample < 0:
        raise ValueError(f"sample must be None or >= 0, got {sample}")


def sample_column_df(
    df: DataFrame, *, sample: int | None, strategy: str = "head", seed: int = 0
) -> DataFrame:
    """Apply a sampling strategy to a single-column DataFrame."""
    check_sample(sample)
    if sample is None:
        return df
    if strategy == "head":
        return df.limit(sample)
    if strategy == "random":
        # Oversample the fraction slightly, then cap at ``sample`` rows.
        total = df.count()
        if total <= sample:
            return df
        frac = min(1.0, 1.5 * sample / total)
        return df.sample(fraction=frac, seed=seed).limit(sample)
    raise ValueError(f"unknown sampling strategy {strategy!r}")


def load_column(
    warehouse,
    col_id: str,
    *,
    sample: int | None = None,
    strategy: str = "head",
    seed: int = 0,
) -> list:
    """Pull one column's (possibly sampled) values out of the warehouse,
    as a new list.

    The analogue of a CDW scan, but not a real one: warehouse tables are
    ``createDataFrame`` frames of driver-held Arrow tables, which Spark
    plans as a ``LocalTableScan``, so the collect runs no Spark job.
    ``sample`` rows read with ``head`` become a ``LIMIT``.

    Each distinct read is planned once per warehouse: the first load of a
    ``(col_id, sample, strategy, seed)`` builds its DataFrame and keeps it
    in :attr:`Warehouse.scans`, and every load collects that DataFrame
    again, so Catalyst's analysis, optimization and physical planning,
    which its ``QueryExecution`` holds, are paid once and the scan runs on
    every call. Over a ``LocalTableScan`` the executed plan holds the
    pruned column's rows, so the JVM keeps at most one extra copy of each
    queried column; over files, each collect would read them again.
    """
    key = (col_id, sample, strategy, seed)
    df = warehouse.scans.get(key)
    if df is None:
        table, column = warehouse.spec.columns[col_id]
        quoted = column.name.replace("`", "``")
        df = warehouse.table_df(table.table_id).select(f"`{quoted}`")
        df = warehouse.scans[key] = sample_column_df(
            df, sample=sample, strategy=strategy, seed=seed
        )
    return [r[0] for r in df.collect()]
