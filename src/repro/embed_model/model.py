"""Token embedding model: vocabulary vectors + char-n-gram OOV fallback.

:class:`EmbeddingModel` is the artifact produced by
:mod:`repro.embed_model.train` and consumed by WarpGate's column
embedding pipeline and D3L's word-embedding signal. It is a plain
(vocab dict, float32 matrix) pair so it can be broadcast to Spark
executors cheaply.

Out-of-vocabulary tokens are embedded as the L2-normalized sum of hashed
character-trigram vectors (fastText-style). Each of the 2¹⁵ trigram
buckets has one row, the seeded Gaussian
``np.random.default_rng(bucket).standard_normal(dim)``, so any process
computes the same OOV vector for the same token — no shared state
needed. A process makes a row the first time one of its trigrams hashes
to that bucket and keeps it in a per-``dim`` cache (``_BUCKET_ROWS``),
so the cache holds only buckets in use and never more than 2¹⁵ rows per
``dim``. Spark's Python workers are reused across tasks, so each worker
builds its rows once.
"""
from __future__ import annotations

from dataclasses import dataclass
import zlib

import numpy as np

from repro.embed_model.tokenizer import char_ngrams, tokenize

_NGRAM_BUCKETS = 1 << 15
# dim -> {bucket -> read-only float64 row}, filled on first use. A row is
# a pure function of (bucket, dim), so every model, thread and test in the
# process can share it; a race at worst makes the same row twice.
_BUCKET_ROWS: dict[int, dict[int, np.ndarray]] = {}


def _ngram_vector(token: str, dim: int, scale: float) -> np.ndarray:
    """Deterministic char-trigram hash embedding for one token.

    Rows are summed one at a time in float64, in trigram order, which
    keeps every vector bit-identical to a fresh generator per trigram
    (``np.add.reduceat`` over the gathered rows is not).
    """
    rows = _BUCKET_ROWS.setdefault(dim, {})
    acc = np.zeros(dim, dtype=np.float64)
    for gram in char_ngrams(token):
        bucket = zlib.crc32(gram.encode()) % _NGRAM_BUCKETS
        row = rows.get(bucket)
        if row is None:
            row = np.random.default_rng(bucket).standard_normal(dim)
            row.flags.writeable = False
            rows[bucket] = row
        acc += row
    n = np.linalg.norm(acc)
    if n > 0:
        acc = acc / n * scale
    return acc.astype(np.float32)


@dataclass
class EmbeddingModel:
    """Immutable token embedding table.

    ``vectors`` rows are L2-normalized in-vocab token embeddings;
    ``oov_scale`` shrinks OOV fallback vectors so hash noise cannot
    dominate in-vocab signal when both appear in one column.
    """

    vocab: dict[str, int]
    vectors: np.ndarray  # (V, d) float32, rows L2-normalized
    oov_scale: float = 0.5

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def token_vector(self, token: str) -> np.ndarray:
        i = self.vocab.get(token)
        if i is not None:
            return self.vectors[i]
        return _ngram_vector(token, self.dim, self.oov_scale)

    def embed_tokens(self, tokens: list[str]) -> np.ndarray | None:
        """Mean of token vectors, L2-normalized; ``None`` if no tokens."""
        if not tokens:
            return None
        acc = np.zeros(self.dim, dtype=np.float64)
        oov: dict[str, int] = {}
        n = 0
        for t in tokens:
            i = self.vocab.get(t)
            if i is not None:
                acc += self.vectors[i]
            else:
                oov[t] = oov.get(t, 0) + 1
            n += 1
        for t, c in oov.items():
            acc += c * _ngram_vector(t, self.dim, self.oov_scale)
        if n == 0:
            return None
        acc /= n
        nrm = np.linalg.norm(acc)
        if nrm > 0:
            acc /= nrm
        return acc.astype(np.float32)

    def embed_values(self, values: list) -> np.ndarray | None:
        """Column embedding: mean over *distinct* values' token bags.

        Deduplication matches join semantics — a key's multiplicity in
        the data should not move the column's position in vector space.
        """
        toks: list[str] = []
        seen: set[str] = set()
        for v in values:
            s = str(v)
            if s in seen:
                continue
            seen.add(s)
            toks.extend(tokenize(v))
        return self.embed_tokens(toks)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            tokens=np.array(sorted(self.vocab, key=self.vocab.get)),
            vectors=self.vectors,
            oov_scale=self.oov_scale,
        )

    @classmethod
    def load(cls, path: str) -> "EmbeddingModel":
        z = np.load(path, allow_pickle=False)
        tokens = [str(t) for t in z["tokens"]]
        return cls(
            vocab={t: i for i, t in enumerate(tokens)},
            vectors=z["vectors"].astype(np.float32),
            oov_scale=float(z["oov_scale"]),
        )


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0 if either is zero)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
