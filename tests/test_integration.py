"""Cross-system integration tests: the paper's headline orderings.

These assert the *shape* of the paper's results at unit-test scale —
the same assertions EXPERIMENTS.md makes at benchmark scale.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.aurum import Aurum
from repro.baselines.d3l import D3L
from repro.core.warpgate import WarpGate
from repro.eval.harness import run_queries
from repro.eval.metrics import pr_curve


@pytest.fixture(scope="module")
def spider_results(model, spider_corpus):
    spec, wh = spider_corpus
    results = {}
    for name, system in (
        ("WarpGate", WarpGate(model=model)), ("Aurum", Aurum()), ("D3L", D3L(model=model))
    ):
        system.build_index(wh)
        results[name] = run_queries(system, name, spec.queries, k=10)
    return spec, results


def _recall_at(results, queries, k):
    return pr_curve(results.rankings, queries, [k])[0].recall


def test_spider_warpgate_beats_aurum_large_margin(spider_results):
    """§4.3.2: embeddings outperform the syntactic-only approach by a
    large margin on PK/FK detection."""
    spec, res = spider_results
    r_wg = _recall_at(res["WarpGate"], spec.queries, 10)
    r_au = _recall_at(res["Aurum"], spec.queries, 10)
    assert r_wg > r_au + 0.3


def test_spider_warpgate_compares_favorably_to_d3l(spider_results):
    spec, res = spider_results
    r_wg = _recall_at(res["WarpGate"], spec.queries, 10)
    r_d3l = _recall_at(res["D3L"], spec.queries, 10)
    assert r_wg >= r_d3l - 0.05


def test_spider_d3l_recall_grows_with_k(spider_results):
    """§4.3.2: D3L's recall climbs as k grows (name-similarity signal
    surfaces PK/FKs deeper in its ranking)."""
    spec, res = spider_results
    pts = pr_curve(res["D3L"].rankings, spec.queries, [1, 5, 10])
    assert pts[2].recall > pts[0].recall + 0.2


def test_xs_full_ordering(warpgate_xs, aurum_xs, d3l_xs, xs_corpus):
    """Fig. 4(a/b) shape at XS scale: WarpGate ≥ D3L > Aurum for both
    precision and recall at k ∈ {1, 5, 10}."""
    spec, _ = xs_corpus
    curves = {}
    for name, sys_ in (
        ("WarpGate", warpgate_xs), ("Aurum", aurum_xs), ("D3L", d3l_xs)
    ):
        rr = run_queries(sys_, name, spec.queries, k=10)
        curves[name] = pr_curve(rr.rankings, spec.queries, [1, 5, 10])
    for i in range(3):
        assert curves["WarpGate"][i].recall >= curves["D3L"][i].recall - 0.05
        assert curves["D3L"][i].recall > curves["Aurum"][i].recall
        assert curves["WarpGate"][i].precision >= curves["Aurum"][i].precision


def test_aurum_fastest_per_query(warpgate_xs, aurum_xs, d3l_xs, xs_corpus):
    """Table 2 shape: Aurum's graph lookup is orders of magnitude faster
    than the pipeline systems, even at XS scale."""
    spec, _ = xs_corpus
    rr_au = run_queries(aurum_xs, "Aurum", spec.queries, k=10, max_queries=10)
    rr_wg = run_queries(warpgate_xs, "WarpGate", spec.queries, k=10, max_queries=10)
    rr_d3 = run_queries(d3l_xs, "D3L", spec.queries, k=10, max_queries=10)
    assert rr_au.avg_e2e_s < 0.1 * rr_wg.avg_e2e_s
    assert rr_au.avg_e2e_s < 0.1 * rr_d3.avg_e2e_s


def test_warpgate_lookup_minor_share(warpgate_xs, xs_corpus):
    """Table 2 parenthetical: index lookup is the minority of WarpGate's
    end-to-end time (data loading dominates)."""
    spec, _ = xs_corpus
    rr = run_queries(warpgate_xs, "WarpGate", spec.queries, k=10, max_queries=15)
    assert rr.avg_lookup_s < 0.5 * rr.avg_e2e_s


def test_scores_are_cosines_in_range(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    rr = run_queries(warpgate_xs, "WarpGate", spec.queries, k=10, max_queries=10)
    for scores in rr.scores.values():
        assert all(-1.0001 <= s <= 1.0001 for s in scores)


def test_systems_agree_on_easy_pairs(warpgate_xs, d3l_xs, xs_corpus):
    """Same-format high-containment pairs should be found by both
    WarpGate and D3L — disagreement there would signal a harness bug."""
    spec, _ = xs_corpus
    fmt_of = {
        t.col_id(c.name): c.fmt for t in spec.tables for c in t.columns
        if c.kind == "entity"
    }
    both = 0
    total = 0
    for q in spec.queries[:20]:
        easy = {a for a in q.answers if fmt_of.get(a) == fmt_of.get(q.column)}
        if not easy:
            continue
        wg, _ = warpgate_xs.query(q.column, k=10)
        d3, _ = d3l_xs.query(q.column, k=10)
        for a in easy:
            total += 1
            both += a in {r.col_id for r in wg} and a in {r.col_id for r in d3}
    assert total > 0 and both / total > 0.7


@pytest.mark.parametrize("system", ["SimHashIndex", "WarpGate", "Aurum", "D3L"])
def test_one_k_rule_for_every_query(system, request, xs_corpus):
    """Every ``query`` returns no results at k == 0, the first results
    at k > 0, and raises ValueError at k < 0."""
    spec, _ = xs_corpus
    col = spec.queries[0].column
    if system == "SimHashIndex":
        idx = request.getfixturevalue("warpgate_xs").index
        vec = idx.matrix[idx.ids.index(col)]

        def query(k):
            return idx.query(vec, k)
    else:
        fixture = {"WarpGate": "warpgate_xs", "Aurum": "aurum_xs", "D3L": "d3l_xs"}
        sys_ = request.getfixturevalue(fixture[system])

        def query(k):
            return sys_.query(col, k=k)[0]

    assert query(0) == []
    assert query(1) == query(10)[:1]
    for k in (-1, -3):
        with pytest.raises(ValueError):
            query(k)
