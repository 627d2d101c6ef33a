"""The benchmark's workloads.

Each workload sets up its inputs, builds WarpGate's index once, and
answers one query per key. The untraced path calls only what an analyst
calls (``WarpGate.build_index`` / ``WarpGate.query``, or the
``SimHashIndex`` entry points for the catalog). The traced path calls
the same layers one at a time through their public functions, with a
materialization point between Spark stages, so each layer can be timed
from outside.
"""
from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core.simhash import SimHashIndex
from repro.core.warpgate import WarpGate, WarpGateConfig
from repro.corpus.nextiajd import build_testbed_spec
from repro.corpus.tablegen import Warehouse, materialize_table
from repro.embed_model.pretrained import pretrained_model
from repro.embed_model.tokenizer import tokenize

from measure import Spans

K = 10
S_ROWS_SCALE = 0.0002  # testbedS rows per table ~ 41 (paper's 209,646 x scale)
S_KEYS = 100  # query keys per s-full run, stratified by column kind
CATALOG_SIZE = 50_000
# Per-copy Gaussian noise, relative to a unit vector. At 0.3 the 50k
# catalog's mean LSH candidate fraction (0.174) is within 10 % of the one
# testbedS's own embeddings give (0.191). Less noise barely raises it
# (0.177 at 0.2) but fills more of each top-10 with the key's own copies.
CATALOG_NOISE = 0.3
CATALOG_KEYS = 100
KEYSET_SEED = 20230108  # fixes which keys a workload queries


class InputCache:
    """Generated inputs, pickled once per checkout so that every run does
    not regenerate them. The file name carries a digest of the sources
    under ``src/`` and the committed model, so a change to either
    regenerates them. Only files this class wrote are ever unpickled."""

    def __init__(self, root: Path, build_dir: Path) -> None:
        h = hashlib.sha1()
        files = sorted((root / "src").rglob("*.py")) + sorted((root / ".cache").glob("*.npz"))
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
        self.digest = h.hexdigest()[:16]
        self.build_dir = build_dir

    def get(self, name: str, make):
        path = self.build_dir / f"{name}-{self.digest}.pkl"
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as f:
                pickle.dump(make(), f)
            os.replace(tmp, path)
        with open(path, "rb") as f:
            return pickle.load(f)


def stratified_keys(kind_of: dict[str, str], n: int) -> list[str]:
    """``n`` keys drawn in proportion to each kind's share. The draw is
    the same for every run, so the mix of per-key costs is too; the run's
    seed only orders the requests (:func:`request_order`)."""
    g = np.random.default_rng(KEYSET_SEED)
    groups: dict[str, list[str]] = {}
    for key in sorted(kind_of):
        groups.setdefault(kind_of[key], []).append(key)
    total = len(kind_of)
    exact = {kind: n * len(ks) / total for kind, ks in groups.items()}
    quota = {kind: int(x) for kind, x in exact.items()}
    by_remainder = sorted(exact, key=lambda kd: quota[kd] - exact[kd])
    for kind in by_remainder[: n - sum(quota.values())]:
        quota[kind] += 1
    return [
        str(key)
        for kind in sorted(groups)
        for key in g.choice(groups[kind], size=quota[kind], replace=False)
    ]


def request_order(keys: list[str], seed: int) -> list[str]:
    """One cycle of requests: a seeded permutation of the keys."""
    return [keys[i] for i in np.random.default_rng(seed).permutation(len(keys))]


def token_counts(values, vocab: dict[str, int]) -> tuple[int, int, int]:
    """``(distinct values, tokens, OOV tokens)`` over a column's distinct
    values, deduplicated the way ``EmbeddingModel.embed_values`` does."""
    seen: set[str] = set()
    tokens = oov = 0
    for v in values:
        s = str(v)
        if s in seen:
            continue
        seen.add(s)
        for t in tokenize(v):
            tokens += 1
            oov += t not in vocab
    return len(seen), tokens, oov


def index_counts(index: SimHashIndex) -> dict[str, float]:
    """Vector, bucket and size counts, recomputed from the index's public
    planes, band split and matrix."""
    mat = np.asarray(index.matrix, dtype=np.float32)
    n = mat.shape[0]
    b, r = index.n_bands, index.rows_per_band
    sig = (mat @ index.planes.T) >= 0
    packed = np.packbits(sig[:, : b * r].reshape(n, b, r), axis=2)
    buckets, biggest = 0, 0
    for bi in range(b):
        _, sizes = np.unique(packed[:, bi, :], axis=0, return_counts=True)
        buckets += len(sizes)
        biggest = max(biggest, int(sizes.max()))
    return {
        "index.vectors": n,
        "index.buckets": buckets,
        "index.max_bucket": biggest,
        "index.matrix_mb": mat.nbytes / 1e6,
    }


@dataclass
class QueryCounts:
    values_loaded: int = 0
    distinct_values: int = 0
    tokens: int = 0
    oov_tokens: int = 0
    candidates: int = 0


@dataclass
class BuildCounts:
    cells: int = 0
    tokens: int = 0
    oov_tokens: int = 0


def signed_index(emb_df, dim: int, cfg: WarpGateConfig, spans: Spans) -> SimHashIndex:
    """``SimHashIndex.build_from_df`` split into its signing job (with
    the collect) and its driver-side bucketing."""
    from repro.core.simhash import signatures_df

    index = SimHashIndex(
        dim=dim, n_bits=cfg.n_bits, threshold=cfg.threshold, seed=cfg.seed
    )
    with spans.span("build", "build.sign", "build"):
        rows = signatures_df(emb_df, index.planes).collect()
        ids = [r["col_id"] for r in rows]
        mat = np.array([r["embedding"] for r in rows], dtype=np.float32)
        sigs = np.array([r["sig"] for r in rows], dtype=bool)
    with spans.span("build", "build.bucket", "build"):
        index.add_batch(ids, mat, sigs)
    return index


class SFull:
    """testbedS shape with full column values; every request is
    ``WarpGate.query(col_id, k=10)``."""

    name = "s-full"
    # With the JVM's default JIT thresholds the query path keeps getting
    # faster for ~100 s, but slowly: after 5 cycles, each key's best of
    # the next 5 moved by under 5 % wherever the window started.
    warmup_cycles = 5
    window_cycles = 5

    def __init__(self, spark, seed: int, cache: InputCache) -> None:
        self.spark = spark
        self.seed = seed
        self.config = WarpGateConfig()  # sample=None: full values
        self.spec, self.universe = cache.get(f"s-spec-{S_ROWS_SCALE}", s_spec)
        ids, vecs, _ = cache.get(
            f"s-embeddings-{S_ROWS_SCALE}", lambda: s_embeddings(spark)
        )
        self.reference = ids, vecs
        self.warehouse: Warehouse | None = None
        self.model = None
        self.wg: WarpGate | None = None

    def setup_rep(self) -> None:
        self.warehouse = Warehouse(self.spark, self.spec, self.universe)
        self.model = pretrained_model(self.spark)

    def build(self) -> None:
        self.wg = WarpGate(model=self.model, config=self.config)
        self.wg.build_index(self.warehouse)

    @property
    def index(self) -> SimHashIndex:
        return self.wg.index

    def staged_build(self, spans: Spans, counts: BuildCounts | None = None) -> None:
        """The build under a ``build`` span, one child span per layer. With
        ``counts``, the build's cells, tokens and OOV tokens are counted
        afterwards, outside every span."""
        from repro.core.embedding import embed_columns_df

        with spans.span("build", "build", None):
            with spans.span("build", "build.unpivot", "build"):
                cells = self.warehouse.cells_long_df(sample=self.config.sample).persist()
                n_cells = cells.count()
            with spans.span("build", "build.embed", "build"):
                emb = embed_columns_df(self.spark, cells, self.model).persist()
                emb.count()
            signed_index(emb, self.model.dim, self.config, spans)
        if counts is not None:
            counts.cells = n_cells
            pdf = cells.toPandas()
            for _, col in pdf.groupby("col_id", sort=False)["value"]:
                _, t, o = token_counts(col.dropna().tolist(), self.model.vocab)
                counts.tokens += t
                counts.oov_tokens += o
        emb.unpersist()
        cells.unpersist()

    def keys(self) -> list[str]:
        kind_of = {
            t.col_id(c.name): c.kind for t in self.spec.tables for c in t.columns
        }
        return request_order(stratified_keys(kind_of, S_KEYS), self.seed)

    def query(self, key: str):
        results, _ = self.wg.query(key, k=K)
        return results

    def traced_query(self, key: str, rid: str, spans: Spans, counts: QueryCounts):
        """The request's answer and the values it loaded, for the caller
        to count tokens in outside every span."""
        from repro.core.sampling import load_column

        cfg = self.config
        with spans.span(rid, "query.load", "request"):
            values = load_column(
                self.warehouse, key, sample=cfg.sample, strategy=cfg.strategy
            )
        with spans.span(rid, "query.embed", "request"):
            vec = self.model.embed_values(values)
        v = np.asarray(vec)
        with spans.span(rid, "query.probe", "request"):
            cand = self.index.candidates(v)
        with spans.span(rid, "query.index", "request"):
            results = self.index.query(v, K, exclude={key})
        counts.values_loaded = len(values)
        counts.candidates = len(cand)
        return results, values

    def sizes(self) -> dict:
        return {
            "columns": self.spec.n_columns,
            "tables": self.spec.n_tables,
            "cells": int(sum(t.n_rows * len(t.columns) for t in self.spec.tables)),
            "keys": S_KEYS,
        }


def s_spec():
    return build_testbed_spec("S", rows_scale=S_ROWS_SCALE)


def s_embeddings(spark) -> tuple[list[str], np.ndarray, list[str]]:
    """Ids, mean-pooled embeddings and kinds of every testbedS column,
    computed on the driver from the generated tables (no Spark job runs).
    They are s-full's reference vectors and the catalog's base."""
    spec, universe = s_spec()
    model = pretrained_model(spark)
    ids, vecs, kinds = [], [], []
    for t in spec.tables:
        pdf = materialize_table(t, universe, spec.seed)
        for c in t.columns:
            v = model.embed_values(pdf[c.name].dropna().tolist())
            if v is not None:
                ids.append(t.col_id(c.name))
                vecs.append(v)
                kinds.append(c.kind)
    return ids, np.array(vecs, dtype=np.float64), kinds


class Catalog:
    """50k column vectors: every testbedS column embedding plus seeded
    noisy copies. Requests call ``SimHashIndex.query(vec, 10,
    exclude={own id})`` directly, so the index is all of the request."""

    name = "catalog-50k"
    warmup_cycles = 2  # numpy only: no JIT to wait for
    window_cycles = 5

    def __init__(self, spark, seed: int, cache: InputCache) -> None:
        self.spark = spark
        self.seed = seed
        self.config = WarpGateConfig()
        _, base, base_kinds = cache.get(
            f"s-embeddings-{S_ROWS_SCALE}", lambda: s_embeddings(spark)
        )
        # Row i is a noisy copy of base column i mod len(base); only the
        # noise depends on the seed.
        src = np.resize(np.arange(len(base)), CATALOG_SIZE)
        g = np.random.default_rng(seed)
        noise = g.standard_normal((CATALOG_SIZE, base.shape[1]))
        vecs = base[src] + noise * (CATALOG_NOISE / np.sqrt(base.shape[1]))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        self.vectors = vecs
        self.dim = vecs.shape[1]
        self.ids = [f"cat{i:06d}" for i in range(CATALOG_SIZE)]
        self.row = {cid: i for i, cid in enumerate(self.ids)}
        self.base_kinds = base_kinds
        self.reference = self.ids, vecs
        self.pdf = pd.DataFrame({"col_id": self.ids, "embedding": list(vecs)})
        self.index: SimHashIndex | None = None

    def setup_rep(self) -> None:
        self.frame = self.spark.createDataFrame(
            self.pdf, "col_id string, embedding array<double>"
        )

    def build(self) -> None:
        cfg = self.config
        self.index = SimHashIndex.build_from_df(
            self.frame,
            dim=self.dim,
            n_bits=cfg.n_bits,
            threshold=cfg.threshold,
            seed=cfg.seed,
        )

    def staged_build(self, spans: Spans, counts: BuildCounts | None = None) -> None:
        with spans.span("build", "build", None):
            signed_index(self.frame, self.dim, self.config, spans)

    def keys(self) -> list[str]:
        # The first copy of a fixed, kind-stratified set of base columns.
        first_copy = {self.ids[i]: k for i, k in enumerate(self.base_kinds)}
        return request_order(stratified_keys(first_copy, CATALOG_KEYS), self.seed)

    def query(self, key: str):
        return self.index.query(self.vectors[self.row[key]], K, exclude={key})

    def traced_query(self, key: str, rid: str, spans: Spans, counts: QueryCounts):
        v = self.vectors[self.row[key]]
        with spans.span(rid, "query.probe", "request"):
            cand = self.index.candidates(v)
        with spans.span(rid, "query.index", "request"):
            results = self.index.query(v, K, exclude={key})
        counts.candidates = len(cand)
        return results, None

    def sizes(self) -> dict:
        return {"columns": CATALOG_SIZE, "cells": 0, "keys": CATALOG_KEYS}


WORKLOADS = {w.name: w for w in (SFull, Catalog)}
