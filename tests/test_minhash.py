"""Tests for the MinHash substrate (accuracy oracle-checked vs DuckDB)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import pyspark.sql.functions as F

from repro.baselines.minhash import (
    N_PERM,
    PERM_SEED,
    collect_signatures,
    est_jaccard,
    minhash_signature,
    minhash_signatures_df,
    pairwise_jaccard,
    permutation_params,
    value_hashes,
)
from repro.corpus.tablegen import cells_frame
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def perms():
    return permutation_params(256, seed=7)


def test_permutation_params_deterministic():
    a1, b1 = permutation_params(64, seed=1)
    a2, b2 = permutation_params(64, seed=1)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_value_hashes_distinct_and_clean():
    h = value_hashes(["a", "a", "b", None, "", "nan"])
    assert len(h) == 2


def test_signature_deterministic(perms):
    a, b = perms
    s1 = minhash_signature(["x", "y", "z"], a, b)
    s2 = minhash_signature(["z", "y", "x", "x"], a, b)
    assert np.array_equal(s1, s2)  # set semantics, order-free


def test_signature_empty(perms):
    a, b = perms
    assert minhash_signature([], a, b) is None
    assert minhash_signature([None, ""], a, b) is None


def test_identical_sets_estimate_one(perms):
    a, b = perms
    s = minhash_signature(["p", "q", "r"], a, b)
    assert est_jaccard(s, s) == 1.0


def test_disjoint_sets_estimate_near_zero(perms):
    a, b = perms
    s1 = minhash_signature([f"a{i}" for i in range(50)], a, b)
    s2 = minhash_signature([f"b{i}" for i in range(50)], a, b)
    assert est_jaccard(s1, s2) <= 0.05


@pytest.mark.parametrize("overlap", [0.2, 0.5, 0.8])
def test_estimate_tracks_true_jaccard(perms, overlap):
    """MinHash estimate within ±0.12 of the exact Jaccard at 256 perms."""
    a, b = perms
    n = 200
    shared = [f"s{i}" for i in range(int(n * overlap))]
    s1 = minhash_signature(shared + [f"x{i}" for i in range(n - len(shared))], a, b)
    s2 = minhash_signature(shared + [f"y{i}" for i in range(n - len(shared))], a, b)
    true_j = len(shared) / (2 * n - len(shared))
    assert est_jaccard(s1, s2) == pytest.approx(true_j, abs=0.12)


def test_signatures_df_matches_driver(spark, perms):
    cells = cells_frame(spark, [("A", ["x", "y", "z"]), ("B", ["x", "w"])])
    a, b = permutation_params(N_PERM, PERM_SEED)
    ids, sigs = collect_signatures(minhash_signatures_df(cells))
    got = dict(zip(ids, sigs))
    assert np.array_equal(got["A"], minhash_signature(["x", "y", "z"], a, b))
    assert np.array_equal(got["B"], minhash_signature(["x", "w"], a, b))


def test_distinct_counts_match_oracle(spark):
    """The distinct-value universe the sketch summarizes matches DuckDB's
    per-column distinct counts (guards the dedup semantics)."""
    cells = pd.DataFrame(
        {
            "col_id": ["A"] * 4 + ["B"] * 3,
            "value": ["x", "x", "y", None, "w", "w", "w"],
        }
    )
    df = spark.createDataFrame(cells)
    got = (
        df.where(F.col("value").isNotNull())
        .groupBy("col_id")
        .agg(F.countDistinct("value").alias("n_distinct"))
    )
    assert_equivalent(
        got,
        "SELECT col_id, count(DISTINCT value) AS n_distinct FROM cells "
        "WHERE value IS NOT NULL GROUP BY 1",
        cells=cells,
    )


def test_pairwise_jaccard_matrix(perms):
    a, b = perms
    sigs = np.stack(
        [
            minhash_signature(["x", "y"], a, b),
            minhash_signature(["x", "y"], a, b),
            minhash_signature(["p", "q"], a, b),
        ]
    )
    m = pairwise_jaccard(sigs)
    assert m.shape == (3, 3)
    assert m[0, 1] == pytest.approx(1.0)
    assert m[0, 2] <= 0.05
    assert np.allclose(m, m.T)
