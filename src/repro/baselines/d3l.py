"""D3L baseline (Bogatu et al., ICDE 2020) — five-evidence ensemble.

D3L scores column relatedness by aggregating five types of evidence
(§6 of the WarpGate paper):

1. **Name** — q-gram overlap between column names;
2. **Extent** — MinHash-estimated Jaccard of raw value sets;
3. **Word embedding** — cosine of mean value-token embeddings;
4. **Format** — overlap of value *pattern* abstractions (character-class
   run-length shapes, e.g. ``"Acme-12" → "Ap9"``);
5. **Distribution** — similarity of numeric summary statistics (only for
   numeric columns).

Corpus columns are profiled offline (full pass, as the original system
does). At query time D3L loads the query column, rebuilds all five
profiles from its full values, and aggregates per-signal similarities
against every corpus column — the ensemble work that makes it the
slowest system in Table 2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.minhash import (
    N_PERM,
    PERM_SEED,
    est_jaccard,
    minhash_signature,
    permutation_params,
)
from repro.core.sampling import load_column
from repro.core.simhash import SearchResult, check_k
from repro.core.warpgate import QueryTiming
from repro.corpus.tablegen import Warehouse, apply_per_column, require_unique_col_ids
from repro.embed_model.model import EmbeddingModel, cosine
from repro.embed_model.tokenizer import char_ngrams


def value_pattern(value) -> str:
    """Character-class run-length abstraction of one value."""
    out: list[str] = []
    prev = ""
    for ch in str(value):
        if ch.isdigit():
            c = "9"
        elif ch.isalpha():
            c = "A" if ch.isupper() else "a"
        elif ch.isspace():
            c = "s"
        else:
            c = "p"
        if c != prev:
            out.append(c)
            prev = c
    return "".join(out)


def numeric_profile(values: list) -> np.ndarray | None:
    """Summary-statistic vector for numeric columns, else ``None``."""
    nums = pd.to_numeric(pd.Series(values, dtype="object"), errors="coerce").dropna()
    if len(nums) == 0 or len(nums) < 0.8 * max(1, len(values)):
        return None
    arr = nums.to_numpy(dtype=np.float64)
    return np.array(
        [
            arr.mean(),
            arr.std(),
            np.quantile(arr, 0.25),
            np.quantile(arr, 0.5),
            np.quantile(arr, 0.75),
        ]
    )


@dataclass
class ColumnProfile:
    col_id: str
    name_grams: set[str]
    minhash: np.ndarray | None
    embedding: np.ndarray | None
    patterns: set[str]
    numeric: np.ndarray | None


def build_profile(
    col_id: str,
    name: str,
    values: list,
    model: EmbeddingModel,
    a: np.ndarray,
    b: np.ndarray,
) -> ColumnProfile:
    clean = [v for v in values if v is not None]
    return ColumnProfile(
        col_id=col_id,
        name_grams=set(char_ngrams(name.lower())),
        minhash=minhash_signature(clean, a, b),
        embedding=model.embed_values(clean),
        patterns={value_pattern(v) for v in clean[:2000]},
        numeric=numeric_profile(clean),
    )


def _jaccard_sets(a: set, b: set) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _numeric_similarity(pa: np.ndarray, pb: np.ndarray) -> float:
    denom = np.maximum(np.abs(pa) + np.abs(pb), 1e-9)
    return float(np.clip(1.0 - np.mean(np.abs(pa - pb) / denom), 0.0, 1.0))


def profile_similarity(q: ColumnProfile, c: ColumnProfile) -> float:
    """Average of the available per-signal similarities (each in [0,1])."""
    sims: list[float] = [
        _jaccard_sets(q.name_grams, c.name_grams),
        _jaccard_sets(q.patterns, c.patterns),
    ]
    if q.minhash is not None and c.minhash is not None:
        sims.append(est_jaccard(q.minhash, c.minhash))
    if q.embedding is not None and c.embedding is not None:
        sims.append(max(0.0, cosine(q.embedding, c.embedding)))
    if q.numeric is not None and c.numeric is not None:
        sims.append(_numeric_similarity(q.numeric, c.numeric))
    return float(np.mean(sims))


def profiles_df_to_list(pdf: pd.DataFrame) -> list[ColumnProfile]:
    """Rehydrate profiles collected from the distributed profiling job."""
    out = []
    for r in pdf.itertuples(index=False):
        out.append(
            ColumnProfile(
                col_id=r.col_id,
                name_grams=set(r.name_grams),
                minhash=np.array(r.minhash, dtype=np.int64)
                if r.minhash is not None
                else None,
                embedding=np.array(r.embedding, dtype=np.float32)
                if r.embedding is not None
                else None,
                patterns=set(r.patterns),
                numeric=np.array(r.numeric, dtype=np.float64)
                if r.numeric is not None
                else None,
            )
        )
    return out


@dataclass
class D3L:
    """Offline profiling + per-query five-signal ensemble ranking."""

    model: EmbeddingModel
    profiles: dict[str, ColumnProfile] = field(default_factory=dict)
    index_build_s: float = 0.0
    _warehouse: Warehouse | None = None
    _perms: tuple[np.ndarray, np.ndarray] | None = None

    def _profiles_df(self, cells: DataFrame) -> pd.DataFrame:
        a, b = self._perms
        model = self.model
        names = {cid: c.name for cid, (_, c) in self._warehouse.spec.columns.items()}

        def _prof(col_id: str, values: list) -> tuple:
            p = build_profile(col_id, names[col_id], values, model, a, b)
            return (
                p.col_id,
                sorted(p.name_grams),
                None if p.minhash is None else p.minhash.tolist(),
                None if p.embedding is None else p.embedding.astype(float).tolist(),
                sorted(p.patterns),
                None if p.numeric is None else p.numeric.tolist(),
            )

        schema = (
            "col_id string, name_grams array<string>, minhash array<long>, "
            "embedding array<double>, patterns array<string>, numeric array<double>"
        )
        return apply_per_column(cells, _prof, schema).toPandas()

    def build_index(self, warehouse: Warehouse) -> None:
        """Distributed full-pass profiling of every corpus column."""
        t0 = time.perf_counter()
        self._warehouse = warehouse
        self._perms = permutation_params(N_PERM, PERM_SEED)
        # col_id order, so the stable sort in query breaks ties by col_id.
        pdf = self._profiles_df(warehouse.cells_long_df()).sort_values("col_id")
        require_unique_col_ids(pdf["col_id"].tolist())
        self.profiles = {p.col_id: p for p in profiles_df_to_list(pdf)}
        self.index_build_s = time.perf_counter() - t0

    def query(
        self, col_id: str, *, k: int = 10
    ) -> tuple[list[SearchResult], QueryTiming]:
        assert self._warehouse is not None, "build_index() must run first"
        check_k(k)
        t0 = time.perf_counter()
        values = load_column(self._warehouse, col_id)
        t1 = time.perf_counter()
        name = self._warehouse.spec.column_spec(col_id).name
        qp = build_profile(col_id, name, values, self.model, *self._perms)
        scored = [
            SearchResult(col_id=cid, score=profile_similarity(qp, prof))
            for cid, prof in self.profiles.items()
            if cid != col_id
        ]
        scored.sort(key=lambda r: -r.score)
        t2 = time.perf_counter()
        return scored[:k], QueryTiming(load_s=t1 - t0, lookup_s=t2 - t1)
