"""Heavyweight "BERT-like" embedding model for the §4.4 comparison.

The paper's §4.4 finding: swapping Web Table Embeddings for BERT yields
embeddings *on par* in effectiveness but ~10x slower at inference, so
sampling matters even more. BERT itself cannot be shipped offline, so we
build the closest synthetic equivalent that exercises the same code
path: a model whose inference runs a multi-layer contextual mixing pass
over the token vectors (L transformer-ish layers of matrix multiplies +
nonlinearity + mean-pooled context injection) before pooling.

Two properties are preserved by construction and verified in tests:

* **Quality parity** — the final column embedding is dominated by the
  same mean-pooled token signal (the contextual residue is a small,
  fixed-weight additive term), so rankings track the base model's.
* **~10x inference cost** — the layer stack performs ≥10x the FLOPs of
  the base model's single lookup+mean, measured per embedded value.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embed_model.model import EmbeddingModel
from repro.embed_model.tokenizer import tokenize

# N_LAYERS and HIDDEN_MULT set the inference cost; CTX_WEIGHT is how much
# the contextual residue perturbs the base pooled embedding (kept small
# for quality parity); SEED draws the layer weights.
N_LAYERS = 6
HIDDEN_MULT = 4
CTX_WEIGHT = 0.1
SEED = 1234


@dataclass
class BertLikeModel:
    """Contextual wrapper over a base :class:`EmbeddingModel`."""

    base: EmbeddingModel
    _layers: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def __post_init__(self) -> None:
        g = np.random.default_rng(SEED)
        d = self.base.dim
        h = d * HIDDEN_MULT
        scale = 1.0 / np.sqrt(d)
        self._layers = [
            (
                (g.standard_normal((d, h)) * scale).astype(np.float32),
                (g.standard_normal((h, d)) * scale / HIDDEN_MULT).astype(
                    np.float32
                ),
            )
            for _ in range(N_LAYERS)
        ]

    @property
    def dim(self) -> int:
        return self.base.dim

    def _contextualize(self, tok_vecs: np.ndarray) -> np.ndarray:
        """Run the layer stack over a (T, d) token matrix, return (d,)."""
        x = tok_vecs
        for w_in, w_out in self._layers:
            ctx = x.mean(axis=0, keepdims=True)
            h = np.tanh((x + ctx) @ w_in)
            x = x + h @ w_out  # residual connection keeps signal centered
        return x.mean(axis=0)

    def embed_values(self, values: list) -> np.ndarray | None:
        """Column embedding with per-value contextual passes.

        Cost scales with the number of (distinct) values — the property
        that makes sampling matter for BERT-class models.
        """
        seen: set[str] = set()
        pooled: list[np.ndarray] = []
        ctx_parts: list[np.ndarray] = []
        for v in values:
            s = str(v)
            if s in seen:
                continue
            seen.add(s)
            toks = tokenize(v)
            if not toks:
                continue
            tok_vecs = np.stack([self.base.token_vector(t) for t in toks])
            pooled.append(tok_vecs.mean(axis=0))
            ctx_parts.append(self._contextualize(tok_vecs))
        if not pooled:
            return None
        base_vec = np.mean(pooled, axis=0)
        ctx_vec = np.mean(ctx_parts, axis=0)
        nb, nc = np.linalg.norm(base_vec), np.linalg.norm(ctx_vec)
        if nb > 0:
            base_vec = base_vec / nb
        if nc > 0:
            ctx_vec = ctx_vec / nc
        out = (1.0 - CTX_WEIGHT) * base_vec + CTX_WEIGHT * ctx_vec
        n = np.linalg.norm(out)
        if n > 0:
            out = out / n
        return out.astype(np.float32)
