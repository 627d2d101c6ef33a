"""MinHash signatures over column value sets, computed in Spark.

The syntactic-profiling substrate shared by both baselines: Aurum's
column profiles are MinHash sketches whose estimated Jaccard similarity
drives its relationship graph; D3L's value-extent signal is the same
sketch. Each of the ``n_perm`` hash functions maps a value's crc32 ``h``
to the low 32 bits of ``a·h + b`` computed in wrapping int64 arithmetic,
with ``a`` and ``b`` drawn below the Mersenne prime 2⁶¹−1. That is
deterministic across processes but not the ``(a·h + b) mod p``
permutation family: only ``a`` and ``h`` modulo 2³² reach the result,
and an even ``a`` discards high bits of ``h``.

Note these operate on **raw** value strings (no normalization): that is
the point of the syntactic baselines, and why formatting variants break
them where embeddings survive.
"""
from __future__ import annotations

import zlib

import numpy as np
from pyspark.sql import DataFrame

from repro.corpus.tablegen import apply_per_column, collect_per_column

_MERSENNE = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1
# The sketch both baselines use: N_PERM permutations drawn from PERM_SEED.
N_PERM = 128
PERM_SEED = 7


def permutation_params(n_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    g = np.random.default_rng(seed)
    a = g.integers(1, _MERSENNE, n_perm, dtype=np.int64)
    b = g.integers(0, _MERSENNE, n_perm, dtype=np.int64)
    return a, b


def value_hashes(values: list) -> np.ndarray:
    """crc32 of each distinct non-null value's raw string form."""
    seen: set[str] = set()
    for v in values:
        if v is None:
            continue
        s = str(v)
        if s and s != "None" and s != "nan":
            seen.add(s)
    return np.array([zlib.crc32(s.encode()) for s in seen], dtype=np.int64)


def minhash_signature(
    values: list, a: np.ndarray, b: np.ndarray
) -> np.ndarray | None:
    """(n_perm,) int64 signature, ``None`` for empty columns."""
    h = value_hashes(values)
    if h.size == 0:
        return None
    # (V, P) hashes: the int64 product wraps, and the mask keeps its low 32 bits.
    perm = (h[:, None] * a[None, :] + b[None, :]) & _MAX_HASH
    return perm.min(axis=0)


def est_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """MinHash Jaccard estimate: fraction of agreeing permutations."""
    return float(np.mean(sig_a == sig_b))


def minhash_signatures_df(cells: DataFrame) -> DataFrame:
    """``(col_id, signature)`` for every column of a long cells frame."""
    a, b = permutation_params(N_PERM, PERM_SEED)

    def _sig(col_id: str, values: list) -> tuple | None:
        sig = minhash_signature(values, a, b)
        return None if sig is None else (col_id, sig.tolist())

    return apply_per_column(cells, _sig, "col_id string, signature array<long>")


def collect_signatures(sig_df: DataFrame) -> tuple[list[str], np.ndarray]:
    return collect_per_column(sig_df, "signature", np.int64)


def pairwise_jaccard(sigs: np.ndarray) -> np.ndarray:
    """(C, C) estimated Jaccard matrix (chunked to bound memory)."""
    c = sigs.shape[0]
    out = np.zeros((c, c), dtype=np.float32)
    chunk = max(1, 2_000_000 // max(1, c * sigs.shape[1] // 64))
    for i in range(0, c, chunk):
        block = sigs[i : i + chunk]  # (m, P)
        eq = (block[:, None, :] == sigs[None, :, :]).mean(axis=2)
        out[i : i + chunk] = eq.astype(np.float32)
    return out
