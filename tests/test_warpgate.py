"""System tests for WarpGate over testbedXS."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.simhash import band_params_for_threshold
from repro.core.warpgate import WarpGate, WarpGateConfig


def test_index_covers_nonempty_columns(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    assert len(warpgate_xs.index.ids) >= 0.95 * spec.n_columns


def test_index_build_time_recorded(warpgate_xs):
    assert warpgate_xs.index_build_s > 0


def test_query_returns_k(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    results, timing = warpgate_xs.query(spec.queries[0].column, k=10)
    assert len(results) == 10
    assert timing.load_s > 0 and timing.lookup_s > 0
    assert timing.e2e_s == timing.load_s + timing.lookup_s


def test_query_excludes_self(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    for q in spec.queries[:10]:
        results, _ = warpgate_xs.query(q.column, k=10)
        assert q.column not in [r.col_id for r in results]


def test_query_scores_descending(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    results, _ = warpgate_xs.query(spec.queries[0].column, k=10)
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)


def test_top1_is_usually_an_answer(warpgate_xs, xs_corpus):
    """Effectiveness floor: P@1 ≥ 0.7 on XS (paper's Fig. 4 regime)."""
    spec, _ = xs_corpus
    hits = 0
    for q in spec.queries:
        results, _ = warpgate_xs.query(q.column, k=1)
        hits += bool(results) and results[0].col_id in q.answers
    assert hits / len(spec.queries) >= 0.7


def test_recall_at_10_floor(warpgate_xs, xs_corpus):
    spec, _ = xs_corpus
    recalls = []
    for q in spec.queries:
        results, _ = warpgate_xs.query(q.column, k=10)
        got = {r.col_id for r in results}
        recalls.append(len(got & q.answers) / len(q.answers))
    assert np.mean(recalls) >= 0.8


def test_answers_score_above_hard_negatives_mostly(warpgate_xs, xs_corpus):
    """Same-domain disjoint-slice columns may enter the top-k but true
    answers should usually outrank them."""
    spec, _ = xs_corpus
    wins = total = 0
    for q in spec.queries[:15]:
        results, _ = warpgate_xs.query(q.column, k=10)
        ranks = {r.col_id: i for i, r in enumerate(results)}
        ans_ranks = [ranks[a] for a in q.answers if a in ranks]
        other = [i for c, i in ranks.items() if c not in q.answers]
        if ans_ranks and other:
            total += 1
            wins += np.mean(ans_ranks) < np.mean(other)
    assert total and wins / total >= 0.7


def test_sampled_config_query(model, xs_corpus):
    spec, wh = xs_corpus
    wg = WarpGate(model=model, config=WarpGateConfig(sample=20))
    wg.build_index(wh)
    results, _ = wg.query(spec.queries[0].column, k=5)
    assert len(results) == 5


def test_sampling_preserves_ranking_quality(model, warpgate_xs, xs_corpus):
    """§4.4 at XS scale: R@10 with 20-row samples within a few points of
    full values."""
    spec, wh = xs_corpus
    wg = WarpGate(model=model, config=WarpGateConfig(sample=20))
    wg.build_index(wh)

    def r10(sys_):
        rec = []
        for q in spec.queries:
            res, _ = sys_.query(q.column, k=10)
            rec.append(len({r.col_id for r in res} & q.answers) / len(q.answers))
        return float(np.mean(rec))

    assert abs(r10(wg) - r10(warpgate_xs)) <= 0.12


def test_lookup_without_warehouse_raises(model):
    wg = WarpGate(model=model)
    with pytest.raises(AssertionError):
        wg.query("a.b.c")


def test_config_threshold_sets_bands(model, xs_corpus):
    _, wh = xs_corpus
    wg = WarpGate(model=model, config=WarpGateConfig(threshold=0.9, n_bits=128))
    wg.build_index(wh)
    b, r = band_params_for_threshold(0.9, 128)
    assert (wg.index.n_bands, wg.index.rows_per_band) == (b, r)


def test_empty_values_lookup(warpgate_xs):
    assert warpgate_xs.lookup([None, ""], k=5) == []


def _top10_digest(results) -> str:
    text = "|".join(f"{r.col_id}:{r.score:.6f}" for r in results)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _assert_top10_lists_match_digest(system, name, spec) -> None:
    expected = json.loads(
        (Path(__file__).parent / "xs_top10_digest.json").read_text()
    )[name]
    got = {c: _top10_digest(system.query(c, k=10)[0]) for c in spec.columns}
    assert set(got) == set(expected)
    changed = sorted(c for c in got if got[c] != expected[c])
    assert not changed, f"{len(changed)} {name} top-10 lists changed, e.g. {changed[:5]}"


def test_xs_top10_lists_match_checked_in_digest(warpgate_xs, xs_corpus):
    """Every XS top-10 list (ids and scores to 6 places) equals the one
    recorded in ``xs_top10_digest.json`` under the fixed seeds. Recall is
    already 1.0 on S, so this is what catches a ranking change. A change
    that moves rankings on purpose regenerates the file and says why."""
    _assert_top10_lists_match_digest(warpgate_xs, "warpgate", xs_corpus[0])


def test_xs_aurum_top10_lists_match_checked_in_digest(aurum_xs, xs_corpus):
    """Aurum's XS neighbor lists, the output of its MinHash profiling
    stage, equal the recorded ones."""
    _assert_top10_lists_match_digest(aurum_xs, "aurum", xs_corpus[0])


def test_xs_d3l_top10_lists_match_checked_in_digest(d3l_xs, xs_corpus):
    """D3L's XS top-10 lists, ranked over its profiling stage's output,
    equal the recorded ones."""
    _assert_top10_lists_match_digest(d3l_xs, "d3l", xs_corpus[0])


_BUILD_AND_QUERY = """
import sys
from pyspark.sql import SparkSession
from repro.core.warpgate import WarpGate
from repro.corpus.domains import default_universe
from repro.corpus.tablegen import ColumnSpec, CorpusSpec, TableSpec, Warehouse
from repro.embed_model.pretrained import pretrained_model

spark = SparkSession.builder.getOrCreate()
uni = default_universe()
cols = (ColumnSpec("e", "entity", domain=uni.domains[0].name), ColumnSpec("i", "id"))
tables = [TableSpec("db", f"t{i}", 30, cols) for i in range(3)]
wg = WarpGate(model=pretrained_model(spark))
wg.build_index(Warehouse(spark, CorpusSpec(name="tiny", tables=tables), uni))
assert wg.query("db.t0.e", k=3)[0]
print("IPython" in sys.modules)
spark.stop()
"""


def test_build_and_query_keep_ipython_out_of_the_driver():
    """A WarpGate build and query never import IPython into the driver.
    Passing a column *name* to a sort goes through
    ``pyspark.sql.functions.col``, whose call-site capture imports it
    (about 17 MB of driver RSS). Checked in a fresh interpreter, because
    other tests in this session call ``functions.col`` themselves."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        PYSPARK_SUBMIT_ARGS="--master local[2] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )
    out = subprocess.run(
        [sys.executable, "-c", _BUILD_AND_QUERY],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().splitlines()[-1] == "False"
