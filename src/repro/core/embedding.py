"""Column embedding pipeline (Spark DataFrame → embeddings DataFrame).

The indexing half of WarpGate: every corpus column is encoded into a
d-dimensional vector by mean-pooling the token embeddings of its
*distinct* values (§3.1.1). The heavy lifting — tokenizing and pooling
millions of cells — runs distributed: ``tablegen.apply_per_column``
hash-partitions the long ``(col_id, value)`` cells frame by ``col_id``
into one partition per core, sorts each partition by ``col_id`` and
streams it through one ``mapInPandas``, which embeds each column inside
an executor with ``EmbeddingModel.embed_values`` over the broadcast
model.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.corpus.tablegen import apply_per_column
from repro.embed_model.model import EmbeddingModel


def embed_columns_df(
    spark: SparkSession, cells: DataFrame, model: EmbeddingModel
) -> DataFrame:
    """``(col_id, embedding)`` with one L2-normalized vector per column.

    Columns whose values yield no tokens (all-null, empty) are dropped —
    they cannot participate in similarity search.
    """
    bc = spark.sparkContext.broadcast(model)

    def _embed(col_id: str, values: list) -> tuple | None:
        vec = bc.value.embed_values(values)
        return None if vec is None else (col_id, vec.astype(float).tolist())

    return apply_per_column(cells, _embed, "col_id string, embedding array<double>")


def collect_embeddings(
    embeddings: DataFrame,
) -> tuple[list[str], np.ndarray]:
    """Collect an embeddings frame into (ids, row-aligned float32 matrix).

    One Spark action; with Arrow enabled the rows cross as Arrow batches.
    """
    pdf = embeddings.toPandas()
    ids = pdf["col_id"].tolist()
    if not ids:
        return [], np.zeros((0, 0), dtype=np.float32)
    mat = np.array(pdf["embedding"].tolist(), dtype=np.float32)
    return ids, mat
