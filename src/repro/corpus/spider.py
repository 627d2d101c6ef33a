"""Spider-lite: synthetic PK/FK corpus shaped like the Spider dev set.

The paper parses Spider's schema SQL to extract PK/FK join paths as
ground truth (70 tables, 429 columns, ~7.6k avg rows, 60 queries with
1.1 answers on average — Table 1). Offline we rebuild that shape: 20
independent databases, each with parent tables exposing a PK column and
child tables exposing FK columns that reference a parent within the same
database.

Key regime differences vs NextiaJD-lite, mirrored from the paper's §4.3.2:

* PK/FK pairs share *values* (FK ⊆ PK by slicing) and usually share
  *syntactically similar column names* (``singer_id`` on both sides) —
  which is why D3L's name signal produces its recall jump at larger k.
* About half of the FK columns render values in a different surface
  format than their PK (independently sourced tables) — the share of
  join paths that syntactic-only Aurum cannot see.
* Ground truth comes from the schema (the generator's PK/FK record),
  not from containment labeling.
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

_PK_FMTS = ["identity", "snake", "upper"]
_ALT_FMTS = {"identity": "snake", "snake": "dashed", "upper": "lower"}

N_DBS = 20
N_TABLES = 70
N_COLS = 429
AVG_ROWS = 7_632
N_QUERIES = 60


def build_spider_spec(
    *,
    rows_scale: float = 0.1,
    size_scale: float = 1.0,
    universe: DomainUniverse | None = None,
    seed: int = 23,
) -> tuple[CorpusSpec, DomainUniverse]:
    """Build the Spider-lite spec with schema-derived PK/FK ground truth."""
    if universe is None:
        universe = default_universe()
    g = np.random.default_rng(seed)

    n_dbs = max(2, int(round(N_DBS * size_scale)))
    n_tables = max(2 * n_dbs, int(round(N_TABLES * size_scale)))
    n_cols_target = max(3 * n_tables, int(round(N_COLS * size_scale)))
    n_queries = max(4, int(round(N_QUERIES * size_scale)))
    avg_rows = max(20, int(AVG_ROWS * rows_scale))

    # Tables per db: at least one parent + one child each.
    db_tables: dict[str, list[str]] = {}
    ti = 0
    for d in range(n_dbs):
        db = f"spdb{d:02d}"
        db_tables[db] = []
        for _ in range(max(2, n_tables // n_dbs + (1 if d < n_tables % n_dbs else 0))):
            db_tables[db].append(f"t{ti:03d}")
            ti += 1

    dom_perm = list(g.permutation(len(universe.domains)))
    table_cols: dict[tuple[str, str], list[ColumnSpec]] = {}
    table_rows: dict[tuple[str, str], int] = {}
    factors = g.lognormal(0.0, 0.6, n_tables)
    factors = factors / factors.mean()
    fi = 0
    for db, tables in db_tables.items():
        for t in tables:
            table_cols[(db, t)] = [ColumnSpec(name="row_id", kind="id")]
            table_rows[(db, t)] = max(10, int(avg_rows * factors[fi]))
            fi += 1

    # PK/FK structure: per db, ~1/3 of tables are parents with distinct
    # PK domains; each remaining table gets an FK referencing a random
    # parent, drawn from a random sub-slice of the PK's pool (children
    # see different subsets of the dimension, as real fact tables do).
    # Occasionally a parent is duplicated (same-db dimension copy) →
    # queries with 2 answers, reproducing Spider's 1.1 answers/query.
    pk_of_fk: dict[str, list[str]] = {}
    fk_cols: list[str] = []
    di = 0
    for db, tables in db_tables.items():
        n_parents = max(1, len(tables) // 3)
        parents = tables[:n_parents]
        children = tables[n_parents:]
        pk_info: list[tuple[list[str], str, str, str]] = []  # ids, dom, fmt, name
        for parent in parents:
            dom = universe.domains[dom_perm[di % len(dom_perm)]]
            di += 1
            pk_fmt = str(g.choice(_PK_FMTS))
            pk_name = f"{dom.kind}_id"
            table_cols[(db, parent)].append(
                ColumnSpec(
                    name=pk_name,
                    kind="entity",
                    domain=dom.name,
                    fmt=pk_fmt,
                    pool_lo=0.0,
                    pool_hi=0.85,
                )
            )
            pk_ids = [f"{db}.{parent}.{pk_name}"]
            if g.random() < 0.12 and children:
                # Duplicated dimension: a child table carries a copy of
                # the PK column (same domain, same format, full slice).
                twin = children[0]
                table_cols[(db, twin)].append(
                    ColumnSpec(
                        name=pk_name,
                        kind="entity",
                        domain=dom.name,
                        fmt=pk_fmt,
                        pool_lo=0.0,
                        pool_hi=0.85,
                    )
                )
                pk_ids.append(f"{db}.{twin}.{pk_name}")
            pk_info.append((pk_ids, dom.name, pk_fmt, pk_name))
        for child in children:
            # One FK per child, plus (40% of the time) a second FK —
            # e.g. origin/destination role pairs — so the corpus carries
            # enough join paths for the paper's 60-query set.
            n_fks = 1 + (1 if g.random() < 0.4 else 0)
            for fki in range(n_fks):
                pk_ids, dom_name, pk_fmt, pk_name = pk_info[
                    int(g.integers(0, len(pk_info)))
                ]
                if any(p.startswith(f"{db}.{child}.") for p in pk_ids):
                    continue
                same_fmt = g.random() < 0.5
                fk_fmt = pk_fmt if same_fmt else _ALT_FMTS[pk_fmt]
                # FK names: usually the PK name verbatim, else prefixed.
                fk_name = (
                    pk_name if fki == 0 and g.random() < 0.7 else f"ref{fki}_{pk_name}"
                )
                fk_id = f"{db}.{child}.{fk_name}"
                if fk_id in pk_of_fk:
                    continue
                lo = float(g.uniform(0.0, 0.4))
                table_cols[(db, child)].append(
                    ColumnSpec(
                        name=fk_name,
                        kind="entity",
                        domain=dom_name,
                        fmt=fk_fmt,
                        pool_lo=lo,
                        pool_hi=lo + 0.45,
                    )
                )
                fk_cols.append(fk_id)
                pk_of_fk[fk_id] = pk_ids

    kinds = ["numeric", "date", "id", "text"]
    fill_distractors(table_cols, n_cols_target, kinds, universe, g)

    tables = [
        TableSpec(db=db, name=t, n_rows=table_rows[(db, t)], columns=tuple(cols))
        for (db, t), cols in table_cols.items()
    ]
    # Queries: FK columns, answers = their referenced PK column(s).
    q_cols = [fk_cols[int(i)] for i in g.permutation(len(fk_cols))[:n_queries]]
    queries = [
        QuerySpec(column=c, answers=frozenset(pk_of_fk[c])) for c in sorted(q_cols)
    ]
    spec = CorpusSpec(name="spider", tables=tables, queries=queries, seed=seed)
    return spec, universe


def build_spider(
    spark,
    *,
    rows_scale: float = 0.1,
    size_scale: float = 1.0,
    universe: DomainUniverse | None = None,
    seed: int = 23,
) -> tuple[CorpusSpec, Warehouse]:
    spec, universe = build_spider_spec(
        rows_scale=rows_scale, size_scale=size_scale, universe=universe, seed=seed
    )
    return spec, Warehouse(spark, spec, universe)
