"""Sigma-lite: a synthetic stand-in for the Sigma Sample Database.

The real corpus (98 tables, 1,343 columns, ~2.2M avg rows — Table 1) is
a Snowflake database of retail / financial / demographic / usage data
with **no ground truth**; the paper uses it for ad-hoc discovery (§4.3.3)
and scale discussion (§5.1). We rebuild its shape across six databases
and plant the §4.3.3 narrative: ``SALESFORCE.ACCOUNT.NAME`` (the query)
is semantically joinable with ``SALESFORCE.LEAD.COMPANY`` (same
database) and ``STOCKS.INDUSTRIES.COMPANY_NAME`` (cross-database, upper-
cased), and ``STOCKS.INDUSTRIES`` carries ``TICKER`` / ``INDUSTRY_GROUP``
columns that chain to ``STOCKS.PRICES.TICKER`` — Joey's discovery path.

Row counts are heavy-tailed (lognormal) so that, like the §5.1 customer
statistics, the *median* table is far smaller than the *average* table.
"""
from __future__ import annotations

import numpy as np

from repro.corpus.domains import DomainUniverse, default_universe
from repro.corpus.tablegen import (
    ColumnSpec,
    CorpusSpec,
    QuerySpec,
    TableSpec,
    Warehouse,
    fill_distractors,
)

N_TABLES = 98
N_COLS = 1_343
AVG_ROWS = 2_243_932

_DBS = ["salesforce", "stocks", "retail", "census", "cloudlogs", "finance"]


def build_sigma_spec(
    *,
    rows_scale: float = 0.01,
    size_scale: float = 1.0,
    universe: DomainUniverse | None = None,
    seed: int = 31,
) -> tuple[CorpusSpec, DomainUniverse]:
    if universe is None:
        universe = default_universe()
    g = np.random.default_rng(seed)
    company = next(d for d in universe.domains if d.kind == "company")
    ticker = next(d for d in universe.domains if d.kind == "finance")

    n_tables = max(8, int(round(N_TABLES * size_scale)))
    n_cols_target = max(5 * n_tables, int(round(N_COLS * size_scale)))
    avg_rows = max(30, int(AVG_ROWS * rows_scale))

    # Heavy tail: median rows ≪ average rows (§5.1's shape).
    factors = g.lognormal(0.0, 1.6, n_tables)
    factors = factors / factors.mean()
    rows = np.maximum(10, (factors * avg_rows)).astype(int)

    table_cols: dict[tuple[str, str], list[ColumnSpec]] = {}
    table_rows: dict[tuple[str, str], int] = {}

    def add_table(db: str, name: str, idx: int, cols: list[ColumnSpec]) -> None:
        table_cols[(db, name)] = [ColumnSpec(name="row_id", kind="id")] + cols
        table_rows[(db, name)] = int(rows[idx % len(rows)])

    # Narrative tables first.
    add_table(
        "salesforce",
        "account",
        0,
        [
            ColumnSpec(
                name="name", kind="entity", domain=company.name,
                fmt="identity", group=0, pool_lo=0.0, pool_hi=0.8,
            ),
            ColumnSpec(name="billing_total", kind="numeric"),
            ColumnSpec(name="created_at", kind="date"),
        ],
    )
    add_table(
        "salesforce",
        "lead",
        1,
        [
            ColumnSpec(
                name="company", kind="entity", domain=company.name,
                fmt="identity", group=0, pool_lo=0.05, pool_hi=0.85,
            ),
            ColumnSpec(name="contact_title", kind="text", domain=company.name),
            ColumnSpec(name="created_at", kind="date"),
        ],
    )
    add_table(
        "stocks",
        "industries",
        2,
        [
            ColumnSpec(
                name="company_name", kind="entity", domain=company.name,
                fmt="upper", group=0, pool_lo=0.0, pool_hi=0.85,
            ),
            ColumnSpec(
                name="ticker", kind="entity", domain=ticker.name,
                fmt="dashed", group=1, pool_lo=0.0, pool_hi=0.85,
            ),
            ColumnSpec(name="industry_group", kind="text", domain=company.name),
        ],
    )
    add_table(
        "stocks",
        "prices",
        3,
        [
            ColumnSpec(
                name="ticker", kind="entity", domain=ticker.name,
                fmt="dashed", group=1, pool_lo=0.0, pool_hi=0.85,
            ),
            ColumnSpec(name="close_price", kind="numeric"),
            ColumnSpec(name="trade_date", kind="date"),
        ],
    )

    # Generic filler tables with occasional join groups across dbs.
    dom_perm = list(np.random.default_rng(seed + 1).permutation(len(universe.domains)))
    gi = 2
    idx = 4
    while len(table_cols) < n_tables:
        db = _DBS[idx % len(_DBS)]
        name = f"tbl{idx:03d}"
        cols: list[ColumnSpec] = []
        if g.random() < 0.4:
            dom = universe.domains[dom_perm[gi % len(dom_perm)]]
            cols.append(
                ColumnSpec(
                    name=f"{dom.kind}_name",
                    kind="entity",
                    domain=dom.name,
                    fmt=str(g.choice(["identity", "upper", "snake"])),
                    group=gi,
                    pool_lo=0.0,
                    pool_hi=0.8,
                )
            )
            if g.random() < 0.5:
                gi += 1  # next table reuses the group half the time
        add_table(db, name, idx, cols)
        idx += 1

    kinds = ["numeric", "date", "id", "text", "numeric"]
    fill_distractors(table_cols, n_cols_target, kinds, universe, g)

    tables = [
        TableSpec(db=db, name=t, n_rows=table_rows[(db, t)], columns=tuple(cols))
        for (db, t), cols in table_cols.items()
    ]
    # Ad-hoc queries (§4.3.3): no labeled answers — answers left empty.
    queries = [
        QuerySpec(column="salesforce.account.name", answers=frozenset()),
        QuerySpec(column="stocks.industries.ticker", answers=frozenset()),
        QuerySpec(column="salesforce.lead.company", answers=frozenset()),
        QuerySpec(column="stocks.prices.ticker", answers=frozenset()),
    ]
    spec = CorpusSpec(name="sigma", tables=tables, queries=queries, seed=seed)
    return spec, universe


def build_sigma(
    spark,
    *,
    rows_scale: float = 0.01,
    size_scale: float = 1.0,
    universe: DomainUniverse | None = None,
    seed: int = 31,
) -> tuple[CorpusSpec, Warehouse]:
    spec, universe = build_sigma_spec(
        rows_scale=rows_scale, size_scale=size_scale, universe=universe, seed=seed
    )
    return spec, Warehouse(spark, spec, universe)


def warehouse_shape_stats(spec: CorpusSpec) -> dict[str, float]:
    """§5.1-style shape statistics of the generated warehouse."""
    rows = np.array([t.n_rows for t in spec.tables])
    cols = np.array([len(t.columns) for t in spec.tables])
    return {
        "n_tables": float(len(spec.tables)),
        "median_rows": float(np.median(rows)),
        "avg_rows": float(rows.mean()),
        "avg_cols_per_table": float(cols.mean()),
    }
