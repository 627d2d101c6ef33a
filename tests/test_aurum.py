"""Tests for the Aurum baseline."""
from __future__ import annotations

import pytest

from repro.baselines import aurum


def test_graph_built_over_columns(aurum_xs, xs_corpus):
    spec, _ = xs_corpus
    assert len(aurum_xs.graph) >= 0.9 * spec.n_columns


def test_edges_sorted_and_thresholded(aurum_xs):
    for cid, edges in list(aurum_xs.graph.items())[:50]:
        scores = [s for _, s in edges]
        assert scores == sorted(scores, reverse=True)
        assert all(s >= aurum.EDGE_THRESHOLD for s in scores)
        assert cid not in [c for c, _ in edges]


def test_query_is_lookup_only(aurum_xs, xs_corpus):
    """Aurum answers from the precomputed graph — no data loading."""
    spec, _ = xs_corpus
    results, timing = aurum_xs.query(spec.queries[0].column, k=10)
    assert timing.load_s == 0.0
    assert timing.lookup_s < 0.01  # dict lookup, sub-10ms


def test_query_caps_at_k(aurum_xs, xs_corpus):
    spec, _ = xs_corpus
    for q in spec.queries[:10]:
        results, _ = aurum_xs.query(q.column, k=3)
        assert len(results) <= 3


def test_unknown_column_empty(aurum_xs):
    results, _ = aurum_xs.query("no.such.column", k=5)
    assert results == []


def test_finds_same_format_pairs(aurum_xs, xs_corpus):
    """Aurum must retrieve verbatim-overlapping (same-format) answers —
    its recall comes entirely from those."""
    spec, _ = xs_corpus
    fmt_of = {
        t.col_id(c.name): c.fmt for t in spec.tables for c in t.columns
        if c.kind == "entity"
    }
    found = total = 0
    for q in spec.queries:
        qf = fmt_of.get(q.column)
        same_fmt_answers = {a for a in q.answers if fmt_of.get(a) == qf}
        if not same_fmt_answers:
            continue
        results, _ = aurum_xs.query(q.column, k=10)
        got = {r.col_id for r in results}
        total += len(same_fmt_answers)
        found += len(got & same_fmt_answers)
    assert total > 0
    assert found / total >= 0.5


def test_misses_cross_format_pairs(aurum_xs, xs_corpus):
    """The flip side: cross-format answers are mostly invisible to raw
    syntactic overlap (this is the paper's Fig. 4 gap)."""
    spec, _ = xs_corpus
    fmt_of = {
        t.col_id(c.name): c.fmt for t in spec.tables for c in t.columns
        if c.kind == "entity"
    }
    found = total = 0
    for q in spec.queries:
        qf = fmt_of.get(q.column)
        # Formats with zero raw-value overlap by construction.
        cross = {
            a for a in q.answers
            if fmt_of.get(a) != qf and {qf, fmt_of.get(a)} & {"snake"}
        }
        results, _ = aurum_xs.query(q.column, k=10)
        got = {r.col_id for r in results}
        total += len(cross)
        found += len(got & cross)
    if total:
        assert found / total <= 0.4


def test_index_build_time_recorded(aurum_xs):
    assert aurum_xs.index_build_s > 0


def test_tied_neighbors_in_col_id_order(tied_warehouse, monkeypatch):
    """Equal edge weights come back in col_id order, even when the
    signatures are collected in reverse col_id order."""
    collect = aurum.collect_signatures

    def reversed_collect(df):
        return [x[::-1] for x in collect(df.sort("col_id"))]

    monkeypatch.setattr(aurum, "collect_signatures", reversed_collect)
    a = aurum.Aurum()
    a.build_index(tied_warehouse)
    results, _ = a.query("db.t2.c", k=10)
    assert [r.col_id for r in results] == [f"db.t{i}.c" for i in (0, 1, 3, 4, 5)]
    assert {r.score for r in results} == {1.0}
