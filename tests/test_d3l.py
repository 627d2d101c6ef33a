"""Tests for the D3L five-signal ensemble baseline."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.d3l import (
    D3L,
    ColumnProfile,
    build_profile,
    numeric_profile,
    profile_similarity,
    value_pattern,
)
from repro.baselines.minhash import permutation_params
from repro.embed_model.tokenizer import char_ngrams


@pytest.fixture(scope="module")
def perms():
    return permutation_params(128, seed=7)


def test_qgrams_similar_names_overlap(perms, model):
    """The name signal: padded trigrams of the lowercased column name."""

    def grams(name):
        return build_profile(f"db.t.{name}", name, ["x"], model, *perms).name_grams

    a, b = grams("company_name"), grams("company")
    assert len(a & b) / len(a | b) > 0.3
    far = grams("zzz_metric")
    assert len(a & far) / len(a | far) < 0.2
    assert grams("Company") == b == set(char_ngrams("company"))


@pytest.mark.parametrize(
    "value,pattern",
    [
        ("Acme-12", "Aap9"),
        ("acme corp", "asa"),
        ("ABC", "A"),
        ("12.5", "9p9"),
        ("", ""),
        ("a1b2", "a9a9"),
    ],
)
def test_value_pattern(value, pattern):
    assert value_pattern(value) == pattern


def test_numeric_profile_detects_numbers():
    p = numeric_profile([1, 2, 3, 4.5, "6"])
    assert p is not None and len(p) == 5


def test_numeric_profile_rejects_text():
    assert numeric_profile(["a", "b", 1]) is None


def test_numeric_profile_empty():
    assert numeric_profile([]) is None


def test_build_profile_fields(perms, model):
    a, b = perms
    p = build_profile("db.t.company", "company", ["Acme Corp", "Beta Inc"], model, a, b)
    assert p.name_grams and p.patterns
    assert p.minhash is not None and p.embedding is not None
    assert p.numeric is None


def test_profile_similarity_self_high(perms, model):
    a, b = perms
    p = build_profile("db.t.company", "company", ["Acme Corp", "Beta Inc"], model, a, b)
    assert profile_similarity(p, p) > 0.95


def test_profile_similarity_unrelated_low(perms, model):
    a, b = perms
    p = build_profile("db.t.company", "company", ["Acme Corp", "Beta Inc"], model, a, b)
    q = build_profile("db.t.metric", "metric", [1.5, 2.5, 9.1], model, a, b)
    assert profile_similarity(p, q) < 0.4


def test_similarity_in_unit_interval(perms, model):
    a, b = perms
    p = build_profile("x.y.alpha", "alpha", ["one", "two"], model, a, b)
    q = build_profile("x.y.beta", "beta", ["three"], model, a, b)
    s = profile_similarity(p, q)
    assert 0.0 <= s <= 1.0


def test_d3l_index_profiles_all_columns(d3l_xs, xs_corpus):
    spec, _ = xs_corpus
    assert len(d3l_xs.profiles) >= 0.95 * spec.n_columns


def test_d3l_query_shape(d3l_xs, xs_corpus):
    spec, _ = xs_corpus
    results, timing = d3l_xs.query(spec.queries[0].column, k=10)
    assert len(results) == 10
    assert timing.load_s > 0 and timing.lookup_s > 0
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)
    assert spec.queries[0].column not in [r.col_id for r in results]


def test_d3l_recall_between_aurum_and_warpgate(
    d3l_xs, aurum_xs, warpgate_xs, xs_corpus
):
    """The paper's Fig. 4 ordering on NextiaJD: WarpGate ≥ D3L ≥ Aurum
    in recall@10 (ensemble dilutes embeddings; syntactic-only trails)."""
    spec, _ = xs_corpus

    def r10(sys_):
        rec = []
        for q in spec.queries:
            res, _ = sys_.query(q.column, k=10)
            got = {r.col_id for r in res}
            rec.append(len(got & q.answers) / len(q.answers))
        return float(np.mean(rec))

    r_wg, r_d3l, r_aurum = r10(warpgate_xs), r10(d3l_xs), r10(aurum_xs)
    assert r_wg >= r_d3l - 0.05
    assert r_d3l > r_aurum + 0.1


def test_profile_rehydration_roundtrip(perms, model):
    from repro.baselines.d3l import profiles_df_to_list
    import pandas as pd

    a, b = perms
    p = build_profile("db.t.c", "c", ["Acme", "Beta"], model, a, b)
    pdf = pd.DataFrame(
        {
            "col_id": [p.col_id],
            "name_grams": [sorted(p.name_grams)],
            "minhash": [p.minhash.tolist()],
            "embedding": [p.embedding.astype(float).tolist()],
            "patterns": [sorted(p.patterns)],
            "numeric": [None],
        }
    )
    q = profiles_df_to_list(pdf)[0]
    assert q.name_grams == p.name_grams
    assert np.array_equal(q.minhash, p.minhash)
    assert np.allclose(q.embedding, p.embedding, atol=1e-6)
    assert q.patterns == p.patterns
    assert q.numeric is None


def test_d3l_tied_scores_in_col_id_order(model, tied_warehouse, monkeypatch):
    """Equal ensemble scores come back in col_id order, even when the
    profiles are collected in reverse col_id order."""
    profiles = D3L._profiles_df
    monkeypatch.setattr(
        D3L, "_profiles_df", lambda s, c: profiles(s, c).sort_values("col_id")[::-1]
    )
    d = D3L(model=model)
    d.build_index(tied_warehouse)
    results, _ = d.query("db.t2.c", k=10)
    assert [r.col_id for r in results] == [f"db.t{i}.c" for i in (0, 1, 3, 4, 5)]
    assert len({r.score for r in results}) == 1
