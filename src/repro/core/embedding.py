"""Column embedding pipeline (Spark DataFrame → embeddings DataFrame).

The indexing half of WarpGate: every corpus column is encoded into a
d-dimensional vector by mean-pooling the token embeddings of its
*distinct* values (§3.1.1). The heavy lifting — tokenizing and pooling
millions of cells — runs distributed: ``tablegen.apply_per_column``
streams the cells frame, whose partitions hold whole columns, through one
``mapInPandas`` that embeds each column with
``EmbeddingModel.embed_values`` over the broadcast model.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.corpus.tablegen import apply_per_column, collect_per_column
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


def collect_embeddings(embeddings: DataFrame) -> tuple[list[str], np.ndarray]:
    """Collect an embeddings frame into (ids, row-aligned float32 matrix)."""
    return collect_per_column(embeddings, "embedding", np.float32)
