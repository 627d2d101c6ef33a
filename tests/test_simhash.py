"""Tests for the SimHash LSH index (theory + exactness vs brute force)."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pandas as pd
import pytest

from repro.core.simhash import (
    FULL_PRODUCT_FRACTION,
    SimHashIndex,
    band_params_for_threshold,
    bit_agreement_probability,
    hyperplanes,
    signature,
    signatures_df,
)


@pytest.mark.parametrize(
    "cos,expected",
    [(1.0, 1.0), (0.0, 0.5), (-1.0, 0.0)],
)
def test_bit_agreement_endpoints(cos, expected):
    assert bit_agreement_probability(cos) == pytest.approx(expected)


def test_bit_agreement_monotone():
    xs = np.linspace(-1, 1, 21)
    ps = [bit_agreement_probability(x) for x in xs]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_bit_agreement_matches_empirical():
    """Empirical bit-agreement of random hyperplanes matches 1 − θ/π."""
    g = np.random.default_rng(0)
    planes = hyperplanes(32, 4096, seed=1)
    a = g.standard_normal(32).astype(np.float32)
    # Construct b at a known angle from a.
    perp = g.standard_normal(32).astype(np.float32)
    perp -= perp @ a / (a @ a) * a
    a_n, p_n = a / np.linalg.norm(a), perp / np.linalg.norm(perp)
    for cos_target in (0.9, 0.7, 0.3):
        theta = np.arccos(cos_target)
        b = np.cos(theta) * a_n + np.sin(theta) * p_n
        agree = np.mean(signature(a_n, planes) == signature(b, planes))
        assert agree == pytest.approx(bit_agreement_probability(cos_target), abs=0.03)


@pytest.mark.parametrize("n_bits", [64, 128, 256])
def test_band_params_divide_bits(n_bits):
    b, r = band_params_for_threshold(0.7, n_bits)
    assert b * r == n_bits


def test_band_params_midpoint_near_threshold():
    b, r = band_params_for_threshold(0.7, 128)
    mid = (1.0 / b) ** (1.0 / r)
    assert mid == pytest.approx(bit_agreement_probability(0.7), abs=0.1)


def test_hyperplanes_deterministic():
    assert np.allclose(hyperplanes(8, 16, seed=3), hyperplanes(8, 16, seed=3))


@pytest.fixture(scope="module")
def random_index():
    g = np.random.default_rng(7)
    dim = 32
    mat = g.standard_normal((200, dim)).astype(np.float32)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    idx = SimHashIndex(dim=dim, n_bits=128, threshold=0.7, seed=5)
    sigs = np.stack([signature(v, idx.planes) for v in mat])
    idx.add_batch([f"c{i}" for i in range(200)], mat, sigs)
    return idx, mat


def test_query_matches_brute_force_topk(random_index):
    """Returned results are true cosines drawn from near the brute-force
    top of the ranking. (For random low-similarity queries LSH may miss
    the exact top-1 — that is the approximation, not a bug — but what it
    returns must be honestly scored and near-optimal.)"""
    idx, mat = random_index
    g = np.random.default_rng(9)
    for _ in range(5):
        q = g.standard_normal(32).astype(np.float32)
        qn = q / np.linalg.norm(q)
        brute_scores = -np.sort(-(mat @ qn))
        got = idx.query(q, 5)
        assert got[0].score <= brute_scores[0] + 1e-5
        # Top-1 within the brute-force top-30 of 200; all results honest.
        top30 = {f"c{i}" for i in np.argsort(-(mat @ qn))[:30]}
        assert got[0].col_id in top30
        for r in got:
            i = int(r.col_id[1:])
            assert r.score == pytest.approx(float(mat[i] @ qn), abs=1e-5)


def test_query_near_duplicate_always_found(random_index):
    """A vector nearly identical to an indexed one must come back first
    (banding guarantees collision at cosine ≈ 1)."""
    idx, mat = random_index
    q = mat[17] + 0.01 * np.random.default_rng(1).standard_normal(32).astype(
        np.float32
    )
    got = idx.query(q, 3)
    assert got[0].col_id == "c17"
    assert got[0].score > 0.99


def test_query_exclude(random_index):
    idx, mat = random_index
    got = idx.query(mat[17], 3, exclude={"c17"})
    assert "c17" not in [r.col_id for r in got]


def test_query_k_bound(random_index):
    idx, _ = random_index
    q = np.random.default_rng(2).standard_normal(32).astype(np.float32)
    assert len(idx.query(q, 7)) == 7


def test_query_scores_sorted(random_index):
    idx, _ = random_index
    q = np.random.default_rng(3).standard_normal(32).astype(np.float32)
    scores = [r.score for r in idx.query(q, 10)]
    assert scores == sorted(scores, reverse=True)


def test_empty_index():
    idx = SimHashIndex(dim=8)
    assert idx.query(np.ones(8), 5) == []


def test_zero_vector_query(random_index):
    idx, _ = random_index
    assert idx.query(np.zeros(32), 5) == []


def test_candidates_shrink_universe(random_index):
    """For a random query, banded candidates are a strict subset of the
    universe (the whole point of the LSH index)."""
    idx, mat = random_index
    g = np.random.default_rng(11)
    sizes = []
    for _ in range(10):
        q = g.standard_normal(32).astype(np.float32)
        sizes.append(len(idx.candidates(q / np.linalg.norm(q))))
    assert min(sizes) < 200


def test_signatures_df_matches_driver(spark):
    """Distributed signature computation equals the driver-side one."""
    g = np.random.default_rng(4)
    dim, n = 16, 12
    mat = g.standard_normal((n, dim)).astype(np.float32)
    planes = hyperplanes(dim, 64, seed=8)
    pdf = pd.DataFrame(
        {
            "col_id": [f"c{i}" for i in range(n)],
            "embedding": [v.astype(float).tolist() for v in mat],
        }
    )
    rows = signatures_df(spark.createDataFrame(pdf), planes).collect()
    got = {r["col_id"]: np.array(r["sig"], dtype=bool) for r in rows}
    for i in range(n):
        assert np.array_equal(got[f"c{i}"], signature(mat[i], planes))


def _emb_frame(spark, mat):
    pdf = pd.DataFrame(
        {
            "col_id": [f"c{i}" for i in range(len(mat))],
            "embedding": [v.astype(float).tolist() for v in mat],
        }
    )
    return spark.createDataFrame(pdf, "col_id string, embedding array<double>")


def test_build_from_df(spark):
    g = np.random.default_rng(6)
    mat = g.standard_normal((30, 16)).astype(np.float32)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    idx = SimHashIndex.build_from_df(_emb_frame(spark, mat), dim=16)
    assert len(idx.ids) == 30
    got = idx.query(mat[3], 1)
    assert got[0].col_id == "c3"


def test_build_from_df_matches_signatures_df_route(spark):
    """The driver-side build and the distributed signing route (collect
    ``signatures_df``, then ``add_batch``) give the same ids, matrix and
    band keys, duplicate vectors included; a row is a candidate exactly
    when some band slice of its signature packs to the query's."""
    g = np.random.default_rng(12)
    mat = 3.0 * g.standard_normal((40, 16)).astype(np.float32)
    mat[20:30] = mat[:10]  # duplicates share every band key
    df = _emb_frame(spark, mat)
    built = SimHashIndex.build_from_df(df, dim=16, n_bits=64, seed=2)
    ref = SimHashIndex(dim=16, n_bits=64, seed=2)
    rows = signatures_df(df, ref.planes).collect()
    ids = [r["col_id"] for r in rows]
    sigs = np.array([r["sig"] for r in rows], dtype=bool)
    ref.add_batch(ids, np.array([r["embedding"] for r in rows], dtype=np.float32), sigs)
    assert built.ids == ref.ids == sorted(ref.ids)
    assert built.matrix.dtype == np.float32
    assert np.array_equal(built.matrix, ref.matrix)
    assert np.array_equal(built.keys, ref.keys)
    sig_of = dict(zip(ids, sigs))
    r = ref.rows_per_band
    bands = [slice(s, s + r) for s in range(0, ref.n_bits, r)]

    def collides(sig, qsig):
        return any((np.packbits(sig[b]) == np.packbits(qsig[b])).all() for b in bands)

    for q in np.vstack([mat, g.standard_normal((20, 16))]):
        qsig = signature(q.astype(np.float32), ref.planes)
        expected = [i for i, cid in enumerate(built.ids) if collides(sig_of[cid], qsig)]
        got = built.candidates(q).tolist()
        assert got == expected
        found = {built.ids[i] for i in got}
        assert all((f"c{i}" in found) == (f"c{i + 20}" in found) for i in range(10))


def _index(ids, mat):
    idx = SimHashIndex(dim=mat.shape[1], n_bits=64)
    idx.add_batch(ids, mat, signature(mat, idx.planes))
    return idx


def test_build_is_independent_of_insertion_order():
    g = np.random.default_rng(15)
    mat = g.standard_normal((60, 16)).astype(np.float32)
    mat[40:50] = mat[5:15]
    ids = [f"c{i}" for i in range(60)]
    perm = g.permutation(60)
    a, b = _index(ids, mat), _index([ids[i] for i in perm], mat[perm])
    assert a.ids == b.ids == sorted(ids)
    assert np.array_equal(a.matrix, b.matrix) and np.array_equal(a.keys, b.keys)
    for q in np.vstack([mat[:20], g.standard_normal((5, 16))]):
        assert a.query(q, 10) == b.query(q, 10)
        assert a.query(q, 60) == b.query(q, 60)


def test_duplicate_vectors_come_back_in_col_id_order():
    """Exact ties are ordered by col_id, in the banded probe (k=6) and in
    the exhaustive fallback (k=30) alike."""
    mat = np.random.default_rng(16).standard_normal((30, 16)).astype(np.float32)
    mat[[27, 3, 18, 9, 22]] = mat[0]
    idx = _index([f"x{i:02d}" for i in range(30)][::-1], mat)
    for k in (6, 30):
        got = idx.query(mat[0], k)[:6]
        assert [r.col_id for r in got] == ["x02", "x07", "x11", "x20", "x26", "x29"]
        assert len({r.score for r in got}) == 1


def test_exhaustive_topk_matches_duckdb_oracle(spark):
    """The exhaustive ranking equals DuckDB's ``row_number() OVER (ORDER
    BY dot DESC, col_id)`` over the index matrix, with planted exact
    duplicates (DESIGN §7)."""
    from repro.oracle import assert_equivalent

    g = np.random.default_rng(17)
    mat = g.standard_normal((50, 16)).astype(np.float32)
    mat[[31, 7, 44]] = mat[12]
    mat[[2, 39]] = mat[25]
    idx = _index([f"db.t{i % 4}.c{i:02d}" for i in g.permutation(50)], mat)
    m = pd.DataFrame({"col_id": idx.ids, "vec": idx.matrix.astype(float).tolist()})
    sql = (
        "SELECT row_number() OVER (ORDER BY list_dot_product(m.vec, q.vec) DESC,"
        " m.col_id) AS rank, m.col_id AS col_id FROM m, q"
    )
    for qi in (12, 25, 0):
        q = mat[qi] / np.linalg.norm(mat[qi])
        ranks = [(i + 1, r.col_id) for i, r in enumerate(idx.query(q, 50))]
        got = spark.createDataFrame(ranks, "rank long, col_id string")
        assert_equivalent(got, sql, m=m, q=pd.DataFrame({"vec": [q.tolist()]}))
    # A probe that finds nothing forces the fallback at every k, k > C too.
    idx.candidates = lambda v: np.empty(0, dtype=np.intp)
    q = mat[12] / np.linalg.norm(mat[12])
    for k in (5, 60):
        ranks = [(i + 1, r.col_id) for i, r in enumerate(idx.query(q, k))]
        got = spark.createDataFrame(ranks, "rank long, col_id string")
        top = f"SELECT * FROM ({sql}) WHERE rank <= {k}"
        assert_equivalent(got, top, m=m, q=pd.DataFrame({"vec": [q.tolist()]}))


def test_exhaustive_fallback_copies_no_rows():
    """The fallback scores every row with one product over the matrix in
    place: a fallback query allocates far less than the matrix."""
    mat = np.random.default_rng(19).standard_normal((20_000, 64)).astype(np.float32)
    idx = _index([f"c{i:05d}" for i in range(len(mat))], mat)
    idx.candidates = lambda v: np.empty(0, dtype=np.intp)
    idx.query(mat[0], 10)
    tracemalloc.start()
    try:
        got = idx.query(mat[0], 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0].col_id == "c00000"
    assert peak < idx.matrix.nbytes / 4


def test_build_from_df_runs_one_spark_job(spark):
    mat = np.random.default_rng(13).standard_normal((25, 16)).astype(np.float32)
    df = _emb_frame(spark, mat)
    sc = spark.sparkContext
    sc.setJobGroup("simhash-build", "simhash-build")
    try:
        SimHashIndex.build_from_df(df, dim=16)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup("simhash-build")) == 1


def test_build_from_empty_df(spark):
    empty = spark.createDataFrame([], "col_id string, embedding array<double>")
    idx = SimHashIndex.build_from_df(empty, dim=16)
    assert idx.ids == [] and idx.matrix.shape == (0, 16)
    assert idx.query(np.ones(16), 5) == []


def test_add_batch_fills_empty_index_only(random_index):
    idx, mat = random_index
    with pytest.raises(ValueError):
        idx.add_batch(["x"], mat[:1], signature(mat[:1], idx.planes))


def test_add_batch_rejects_a_duplicate_id():
    mat = np.eye(3, 8, dtype=np.float32)
    idx = SimHashIndex(dim=8, n_bits=32)
    with pytest.raises(ValueError, match="'b'"):
        idx.add_batch(["b", "a", "b"], mat, signature(mat, idx.planes))
    assert idx.ids == []


def test_zero_vector_in_index_scores_zero():
    g = np.random.default_rng(14)
    mat = g.standard_normal((6, 8)).astype(np.float32)
    mat[2] = 0.0
    idx = SimHashIndex(dim=8, n_bits=32)
    idx.add_batch([f"c{i}" for i in range(6)], mat, signature(mat, idx.planes))
    assert not np.isnan(idx.matrix).any()
    assert np.allclose(np.linalg.norm(idx.matrix, axis=1), [1, 1, 0, 1, 1, 1])
    got = {r.col_id: r.score for r in idx.query(g.standard_normal(8), 6)}
    assert got["c2"] == 0.0
    assert not any(np.isnan(list(got.values())))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vectors_raise(random_index, bad):
    """A NaN or infinite vector can be neither ranked nor indexed."""
    idx, mat = random_index
    q = mat[0].copy()
    q[3] = bad
    with pytest.raises(ValueError):
        idx.query(q, 5)
    with pytest.raises(ValueError):
        _index(["a", "b"], np.vstack([mat[1], q]))


def _stable_sort_reference(idx, vec, k, exclude=frozenset()):
    """``query``'s answer from gathering the same candidates and sorting
    all of their scores stably."""
    v = vec.astype(np.float32) / np.linalg.norm(vec.astype(np.float32))
    cand = idx.candidates(v)
    if len(cand) < k + len(exclude):
        cand = np.arange(len(idx.ids))
    scores = np.take(idx.matrix, cand, axis=0) @ v
    out = []
    for i in np.argsort(-scores, kind="stable"):
        if len(out) == k:
            break
        if idx.ids[cand[i]] not in exclude:
            out.append((idx.ids[cand[i]], float(scores[i])))
    return out


def test_partial_selection_matches_full_stable_sort():
    """``query`` sorts only the scores at or above its (k + |exclude|)-th
    largest. Around a tie run straddling that place, and in the
    exhaustive fallback (k >= C), its lists equal a full stable sort of
    the same candidates, ids and scores both."""
    g = np.random.default_rng(18)
    n, dim = 80, 16
    q = g.standard_normal(dim).astype(np.float32)
    mat = g.standard_normal((n, dim)).astype(np.float32)
    mat[:6] = q + 0.05 * g.standard_normal((6, dim))  # ranked above the run
    tie = g.choice(np.arange(6, n), 7, replace=False)
    mat[tie] = q + 0.3 * g.standard_normal(dim)  # seven rows, one score
    names = [f"c{i:02d}" for i in g.permutation(n)]
    idx = _index(names, mat)
    ranked = _stable_sort_reference(idx, q, n)
    tied = {names[i] for i in tie}
    first = next(p for p, (c, _) in enumerate(ranked) if c in tied)
    assert (first, len({s for c, s in ranked if c in tied})) == (6, 1)
    assert {c for c, _ in ranked[first : first + 7]} == tied
    cand = {idx.ids[i] for i in idx.candidates(q)}
    assert {c for c, _ in ranked[:13]} <= cand and len(cand) < n
    excludes = (frozenset(), frozenset({names[0], names[tie[2]], names[40], "absent"}))
    for exclude in excludes:
        for k in [*range(1, 16), n - 1, n, n + 5]:
            got = [(r.col_id, r.score) for r in idx.query(q, k, exclude=set(exclude))]
            assert got == _stable_sort_reference(idx, q, k, exclude), (k, exclude)


@pytest.mark.parametrize("dim", [32, 64])
@pytest.mark.parametrize("n", [3, 7, 200, 2_553, 20_000])
def test_rerank_kernels_match_the_gathered_ranking(n, dim):
    """Whichever kernel scores the candidates (a gather, or one product
    over the whole matrix from ``FULL_PRODUCT_FRACTION`` of the rows on),
    ``query`` returns the gathered, fully stable-sorted ranking of the
    same candidates, ids and bit-identical scores. Candidate counts: 0,
    1, 2, either side of the crossover and C; a tie run straddles the
    cut-off; ``exclude`` holds a near, a tied and an absent id."""
    g = np.random.default_rng(n * dim)
    q = g.standard_normal(dim).astype(np.float32)
    mat = g.standard_normal((n, dim)).astype(np.float32)
    n_near = max(1, min(3, n // 4))
    n_tie = min(5, n - n_near)
    planted = g.permutation(n)[: n_near + n_tie]
    near, tie = planted[:n_near], planted[n_near:]
    mat[near] = q + 0.05 * g.standard_normal((n_near, dim))
    mat[tie] = q + 0.3 * g.standard_normal(dim)  # one score for the run
    ids = [f"c{i:05d}" for i in range(n)]
    idx = _index(ids, mat)
    s = idx.matrix @ (q / np.linalg.norm(q))
    rest = np.max(np.delete(s, planted), initial=-1.0)
    assert len(set(s[tie])) == 1 and s[near].min() > s[tie[0]] > rest
    pool = np.concatenate([planted, g.permutation(np.setdiff1d(np.arange(n), planted))])
    cross = math.ceil(FULL_PRODUCT_FRACTION * n)
    counts = sorted({c for c in (0, 1, 2, cross - 1, cross, cross + 1, n) if 0 <= c <= n})
    ks = sorted({1, 2, n_near + 1, n_near + 2, n - 1, n, n + 3} - {0})
    excludes = (frozenset(), frozenset({ids[near[0]], ids[tie[-1]], "absent"}))
    for c in counts:
        cand = np.sort(pool[:c])
        idx.candidates = lambda v, cand=cand: cand
        for k in ks:
            for exclude in excludes:
                got = [(r.col_id, r.score) for r in idx.query(q, k, exclude=set(exclude))]
                assert got == _stable_sort_reference(idx, q, k, exclude), (c, k, exclude)
    # One candidate: the scores of a one-row product and of the full
    # product can differ in the last bit, so many rows and queries.
    for row in g.choice(n, min(n, 20), replace=False):
        cand = np.array([row])
        idx.candidates = lambda v, cand=cand: cand
        v = g.standard_normal(dim).astype(np.float32)
        got = [(r.col_id, r.score) for r in idx.query(v, 1)]
        assert got == _stable_sort_reference(idx, v, 1), row
