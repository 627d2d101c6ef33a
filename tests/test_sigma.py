"""Tests for the Sigma-lite corpus and its §4.3.3 narrative columns."""
from __future__ import annotations

import pytest

from repro.corpus.sigma import (
    AVG_ROWS,
    N_COLS,
    N_TABLES,
    build_sigma_spec,
    warehouse_shape_stats,
)


@pytest.fixture(scope="module")
def spec():
    s, _ = build_sigma_spec(rows_scale=0.0001)
    return s


def test_shape_matches_paper(spec):
    assert spec.n_tables == N_TABLES
    assert spec.n_columns == N_COLS


def test_narrative_columns_exist(spec):
    ids = set(spec.columns)
    for cid in (
        "salesforce.account.name",
        "salesforce.lead.company",
        "stocks.industries.company_name",
        "stocks.industries.ticker",
        "stocks.industries.industry_group",
        "stocks.prices.ticker",
    ):
        assert cid in ids, cid


def test_narrative_company_columns_share_domain(spec):
    a = spec.column_spec("salesforce.account.name")
    lead = spec.column_spec("salesforce.lead.company")
    ind = spec.column_spec("stocks.industries.company_name")
    assert a.domain == lead.domain == ind.domain
    assert ind.fmt == "upper" and a.fmt == "identity"


def test_ticker_columns_share_domain(spec):
    t1 = spec.column_spec("stocks.industries.ticker")
    t2 = spec.column_spec("stocks.prices.ticker")
    assert t1.domain == t2.domain
    assert t1.domain != spec.column_spec("salesforce.account.name").domain


def test_adhoc_queries_have_no_ground_truth(spec):
    assert spec.queries
    assert all(not q.answers for q in spec.queries)


def test_heavy_tailed_rows(spec):
    stats = warehouse_shape_stats(spec)
    # §5.1's shape: median table much smaller than the average table.
    assert stats["median_rows"] < 0.6 * stats["avg_rows"]
    assert stats["n_tables"] == N_TABLES


def test_avg_rows_scaled(spec):
    assert spec.avg_rows == pytest.approx(AVG_ROWS * 0.0001, rel=0.35)


def test_deterministic():
    a, _ = build_sigma_spec(rows_scale=0.0001, seed=31)
    b, _ = build_sigma_spec(rows_scale=0.0001, seed=31)
    assert a.tables == b.tables


def test_multiple_databases(spec):
    dbs = {t.db for t in spec.tables}
    assert {"salesforce", "stocks"} <= dbs
    assert len(dbs) >= 5


def test_narrative_discovery(sigma_corpus, model):
    """Joey's workflow (§4.3.3): querying ACCOUNT.NAME surfaces
    LEAD.COMPANY (same db) and INDUSTRIES.COMPANY_NAME (cross-db)."""
    from repro.core.warpgate import WarpGate

    spec, wh = sigma_corpus
    wg = WarpGate(model=model)
    wg.build_index(wh)
    results, timing = wg.query("salesforce.account.name", k=5)
    top = [r.col_id for r in results]
    assert "salesforce.lead.company" in top
    assert "stocks.industries.company_name" in top
    assert timing.e2e_s > 0
