"""SimHash (random-hyperplane) LSH index over column embeddings.

§3.1.2: cosine similarity is approximated by SimHash — each of
``n_bits`` random hyperplanes contributes one signature bit (the sign of
the projection), and two vectors agree on a bit with probability
``1 − θ/π`` where θ is the angle between them. Signatures are split into
``b`` bands of ``r`` bits (classic banding); vectors colliding with the
query in at least one band form the candidate sub-universe, which is
re-ranked by exact cosine. Band parameters are derived from the paper's
similarity threshold (0.7): we pick ``r`` so the band S-curve midpoint
``(1/b)^(1/r)`` sits closest to the threshold's bit-agreement
probability.

A band's ``r`` bits pack into one unsigned integer (``r`` ≤ 32), so the
probe is one integer compare per band and row. The re-rank scores the
candidates by the cheaper of two kernels. Below
:data:`FULL_PRODUCT_FRACTION` of the index it gathers the candidate rows
and multiplies them by the query; at or above it, one product over the
whole matrix beats the gather's copy, and the candidates' scores are
read out of it. Both give bit-identical scores on two or more rows, so
a single candidate always takes the gather. The re-rank then reads only
the top ``k + |exclude|`` scores: a partition finds the score at that
place, every candidate scoring at least as much (the whole tie run at
the cut-off included) is stable-sorted, and nothing else is sorted.

CDW discovery has stringent completeness requirements (§1), so when the
banded probe yields fewer than ``k + |exclude|`` candidates the index
falls back to an exhaustive scan — recall is never silently truncated by
the hash. The scan scores every row with the full product, in place.

The index is a small in-memory, per-warehouse structure (thousands of
columns), built on the driver: the embeddings are collected once, signed
with one matmul against the hyperplanes and stored as arrays in ``col_id``
order, so equal scores come back in ``col_id`` order however Spark
partitioned the build. Only profiling and embedding are distributed.
:func:`signatures_df` keeps the signing step's distributed form as a
reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.embedding import collect_embeddings
from repro.corpus.tablegen import require_unique_col_ids


# The candidate fraction of the index from which the re-rank scores by
# one product over the whole matrix instead of a gather. Measured on a
# 4-core host (OpenBLAS sgemv on 2 threads, d = 64): the two kernels
# cross at a fraction of 0.15-0.175 for every C from 2,553 to 200k; at
# 50k rows the full product takes 0.35-0.40 ms, a gather of 15 % of the
# rows the same (EXPERIMENTS.md, "Re-rank kernels"). The crossover is
# the host's: with one BLAS thread the 50k product takes 0.93-0.97 ms
# and the kernels cross at 0.35-0.4.
FULL_PRODUCT_FRACTION = 0.15


def bit_agreement_probability(cos_sim: float) -> float:
    """P[two vectors agree on one SimHash bit] given their cosine."""
    c = min(1.0, max(-1.0, cos_sim))
    return 1.0 - np.arccos(c) / np.pi


def band_params_for_threshold(threshold: float, n_bits: int) -> tuple[int, int]:
    """Pick ``(bands, rows_per_band)`` matching the S-curve midpoint to
    the threshold's bit-agreement probability."""
    p = bit_agreement_probability(threshold)
    best, best_err = None, float("inf")
    for r in (2, 4, 8, 16, 32):
        if n_bits % r:
            continue
        b = n_bits // r
        mid = (1.0 / b) ** (1.0 / r)
        err = abs(mid - p)
        if err < best_err:
            best, best_err = (b, r), err
    assert best is not None, f"no band split for n_bits={n_bits}"
    return best


def hyperplanes(dim: int, n_bits: int, seed: int) -> np.ndarray:
    """(n_bits, dim) Gaussian hyperplane normals."""
    return np.random.default_rng(seed).standard_normal((n_bits, dim)).astype(
        np.float32
    )


def signature(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Boolean signature of one vector, or one row per row of a matrix."""
    return (vecs @ planes.T) >= 0


def signatures_df(embeddings: DataFrame, planes: np.ndarray) -> DataFrame:
    """``(col_id, embedding, sig)`` — the signing step run distributed.

    The reference for the driver-side build: each Arrow batch is signed
    with one :func:`signature` call. ``sig`` holds 0/1 bytes.
    """

    def _sig(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            mat = np.array(pdf["embedding"].tolist(), dtype=np.float32)
            sigs = signature(mat.reshape(len(pdf), planes.shape[1]), planes)
            yield pdf.assign(sig=list(sigs.astype(np.int8)))

    return embeddings.mapInPandas(
        _sig, schema="col_id string, embedding array<double>, sig array<tinyint>"
    )


@dataclass
class SearchResult:
    col_id: str
    score: float


def full_product_pays(n_cand: int, n_rows: int) -> bool:
    """Whether the re-rank scores ``n_cand`` of ``n_rows`` candidates by
    one product over the whole matrix rather than by a gather. A single
    candidate never does: a one-row product can differ from the row's
    score in the full product in the last bit."""
    return n_cand > 1 and n_cand >= FULL_PRODUCT_FRACTION * n_rows


def check_k(k: int) -> None:
    """The ``k`` rule of every ``query``: ``k == 0`` asks for no
    results, and a negative ``k`` is an error."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


class SimHashIndex:
    """In-memory banded SimHash index over column embeddings.

    Rows are in ``col_id`` order. ``matrix`` holds the L2-normalized
    vectors (zero rows stay zero), so re-ranking is one matrix-vector
    product. ``keys[band, row]`` is a row's key in one band: its ``r``
    signature bits packed into one ``uint8``, ``uint16`` or ``uint32``.
    """

    def __init__(
        self,
        *,
        dim: int,
        n_bits: int = 128,
        threshold: float = 0.7,
        seed: int = 99,
    ) -> None:
        self.dim = dim
        self.n_bits = n_bits
        self.threshold = threshold
        self.planes = hyperplanes(dim, n_bits, seed)
        self.n_bands, self.rows_per_band = band_params_for_threshold(
            threshold, n_bits
        )
        self.ids: list[str] = []
        self.matrix = np.zeros((0, dim), dtype=np.float32)
        self.keys = self._band_keys(np.zeros((0, n_bits), dtype=bool)).T

    # -- build -----------------------------------------------------------
    def _band_keys(self, sigs: np.ndarray) -> np.ndarray:
        """Band keys, ``(..., n_bands)``, of one signature or a matrix of
        them: each band's packed bytes viewed as one unsigned integer."""
        shape = sigs.shape[:-1] + (self.n_bands, self.rows_per_band)
        packed = np.packbits(sigs.reshape(shape), axis=-1)
        return packed.view(f"u{packed.shape[-1]}")[..., 0]

    def add_batch(self, ids: list[str], mat: np.ndarray, sigs: np.ndarray) -> None:
        """Fill an empty index with pre-signed, finite vectors, one per
        col_id."""
        if self.ids:
            raise ValueError("add_batch fills an empty index")
        require_unique_col_ids(ids)
        mat = np.asarray(mat, dtype=np.float32)
        if not np.isfinite(mat).all():
            raise ValueError("index vectors must be finite")
        order = np.argsort(np.asarray(ids, dtype=str), kind="stable")
        self.ids = [ids[i] for i in order]
        # The reordered copy is the only new full-size array.
        norms = np.linalg.norm(mat, axis=1, keepdims=True)[order]
        m = mat[order]
        self.matrix = np.divide(m, norms, out=m, where=norms > 0)
        keys = self._band_keys(np.asarray(sigs, dtype=bool))[order]
        self.keys = np.ascontiguousarray(keys.T)

    @classmethod
    def build_from_df(
        cls,
        embeddings: DataFrame,
        *,
        dim: int,
        n_bits: int = 128,
        threshold: float = 0.7,
        seed: int = 99,
    ) -> "SimHashIndex":
        """Collect the ``(col_id, embedding)`` frame (its one Spark
        action), then sign and key every vector on the driver."""
        idx = cls(dim=dim, n_bits=n_bits, threshold=threshold, seed=seed)
        ids, mat = collect_embeddings(embeddings)
        if ids:
            idx.add_batch(ids, mat, signature(mat, idx.planes))
        return idx

    # -- search ----------------------------------------------------------
    def candidates(self, vec: np.ndarray) -> np.ndarray:
        """Ascending rows that share at least one band key with ``vec``."""
        q = self._band_keys(signature(vec.astype(np.float32), self.planes))
        return np.flatnonzero((self.keys == q[:, None]).any(0))

    def query(
        self,
        vec: np.ndarray,
        k: int,
        *,
        exclude: set[str] | None = None,
    ) -> list[SearchResult]:
        """Top-k by exact cosine over the banded candidate sub-universe,
        falling back to a full scan when the probe under-delivers. Equal
        scores come back in ``col_id`` order. A non-finite ``vec`` raises
        ``ValueError``."""
        check_k(k)
        v = vec.astype(np.float32)
        if not np.isfinite(v).all():
            raise ValueError("query vector must be finite")
        nv = np.linalg.norm(v)
        if k == 0 or len(self.ids) == 0 or nv == 0:
            return []
        v = v / nv
        cand = self.candidates(v)
        m = k + len(exclude or ())
        n = len(self.ids)
        if len(cand) < m:
            cand = np.arange(n)
        if full_product_pays(len(cand), n):
            scores = self.matrix @ v
            if len(cand) < n:
                scores = scores[cand]
        else:
            scores = np.take(self.matrix, cand, axis=0) @ v
        # Only the top m of the stable order by -score can be returned.
        # Keep every score >= the m-th largest, so a tie run at the
        # cut-off stays whole; ``top`` ascends, so ties stay in col_id order.
        cut = max(len(scores) - m, 0)
        top = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        order = top[np.argsort(-scores[top], kind="stable")]
        out: list[SearchResult] = []
        for oi in order:
            cid = self.ids[cand[oi]]
            if exclude and cid in exclude:
                continue
            out.append(SearchResult(col_id=cid, score=float(scores[oi])))
            if len(out) >= k:
                break
        return out
