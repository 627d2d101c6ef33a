"""Generic synthetic-corpus machinery: specs, materialization, warehouse.

A corpus is described declaratively (``CorpusSpec`` → ``TableSpec`` →
``ColumnSpec``) and materialized deterministically from seeds. The
materialized corpus is exposed as a :class:`Warehouse`: one Spark
DataFrame per table, made from an Arrow table of its rows — the stand-in
for a cloud data warehouse. All discovery systems read columns *through*
the warehouse (:func:`repro.core.sampling.load_column`), so every system
pays the same "data loading" step (pulling a column out of the
warehouse; here a plan over driver-held rows that runs no Spark job, so
it is cheaper than the paper's CDW scan), and row sampling shortens it
as §3.1.3 describes.
Index builds read the whole corpus as one long ``(col_id, value)``
frame (:meth:`Warehouse.cells_long_df`) made from the same driver-held
rows, each column whole in one partition, which all three systems reduce
to one row per column with :func:`apply_per_column`, with no shuffle;
:func:`collect_per_column` brings those rows to the driver as one Arrow
table. A ``col_id`` is resolved only through :attr:`CorpusSpec.columns`.

Column kinds:

* ``entity``  — values drawn from a slice of a domain's entity pool and
  rendered with a formatting variant. Join-ability lives here.
* ``numeric`` / ``date`` — distractors (and fodder for D3L's
  distribution signal).
* ``id`` — unique hex surrogate keys (syntactic distractors).
* ``text`` — free-text noise built from random domain words.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import StructType

from repro.corpus.domains import FORMATS, DomainUniverse

# Generic filler vocabulary for free-text columns. Mixing these in keeps
# a text column's embedding off any single domain's centroid — free text
# *mentions* entities, it is not a join key (and should not outrank one).
_STOPWORDS = [
    "the", "total", "active", "status", "type", "value", "new", "old",
    "main", "report", "summary", "pending", "open", "closed", "review",
    "note", "update", "draft", "final", "misc",
]


@dataclass(frozen=True)
class ColumnSpec:
    """Declarative description of one generated column."""

    name: str
    kind: str  # 'entity' | 'numeric' | 'date' | 'id' | 'text'
    domain: str | None = None  # entity/text columns: domain name
    fmt: str = "identity"
    group: int | None = None  # join-group id; None = distractor
    pool_lo: float = 0.0  # slice of the domain pool this column draws from
    pool_hi: float = 1.0
    null_frac: float = 0.0


@dataclass(frozen=True)
class TableSpec:
    db: str
    name: str
    n_rows: int
    columns: tuple[ColumnSpec, ...]

    def col_id(self, col: str) -> str:
        return f"{self.db}.{self.name}.{col}"

    @property
    def table_id(self) -> str:
        return f"{self.db}.{self.name}"


@dataclass(frozen=True)
class QuerySpec:
    """A query column and its ground-truth joinable answers (col_ids)."""

    column: str
    answers: frozenset[str]


@dataclass
class CorpusSpec:
    name: str
    tables: list[TableSpec]
    queries: list[QuerySpec] = field(default_factory=list)
    seed: int = 0

    @property
    def n_tables(self) -> int:
        return len(self.tables)

    @property
    def n_columns(self) -> int:
        return sum(len(t.columns) for t in self.tables)

    @property
    def avg_rows(self) -> float:
        return float(np.mean([t.n_rows for t in self.tables])) if self.tables else 0.0

    @property
    def avg_answers(self) -> float:
        if not self.queries:
            return float("nan")
        return float(np.mean([len(q.answers) for q in self.queries]))

    @cached_property
    def columns(self) -> dict[str, tuple[TableSpec, ColumnSpec]]:
        """``col_id`` → its table and column: the one place a col_id is
        resolved (a name may hold dots, quotes or backticks). Two columns
        whose dotted names join to one col_id raise ``ValueError``."""
        pairs = [(t.col_id(c.name), (t, c)) for t in self.tables for c in t.columns]
        require_unique_col_ids([cid for cid, _ in pairs])
        return dict(pairs)

    def column_spec(self, col_id: str) -> ColumnSpec:
        return self.columns[col_id][1]


def fill_distractors(
    table_cols: dict[tuple[str, str], list[ColumnSpec]],
    n_cols_target: int,
    kinds: list[str],
    universe: DomainUniverse,
    g: np.random.Generator,
) -> None:
    """Append distractor columns of cycling ``kinds``, round-robin over
    the tables, until the corpus holds ``n_cols_target`` columns."""
    keys = list(table_cols)
    n_assigned = sum(len(v) for v in table_cols.values())
    for ci in range(n_cols_target - n_assigned):
        kind = kinds[ci % len(kinds)]
        dom = universe.domains[int(g.integers(0, len(universe.domains)))]
        table_cols[keys[ci % len(keys)]].append(
            ColumnSpec(
                name=f"{kind}_d{ci}",
                kind=kind,
                domain=dom.name if kind == "text" else None,
            )
        )


def _col_seed(corpus_seed: int, table_id: str, col: str) -> int:
    import zlib

    return corpus_seed ^ zlib.crc32(f"{table_id}.{col}".encode())


def column_distinct_pool(
    spec: ColumnSpec, universe: DomainUniverse, n_rows: int
) -> list[str]:
    """The formatted distinct-value pool an entity column draws rows from.

    The *effective* pool is a prefix of the domain pool sized ~n_rows/3,
    so that uniform sampling realizes ~95% of it regardless of scale;
    ``pool_lo``/``pool_hi`` then slice the effective pool by fraction.
    This keeps containment between overlapping slices scale-invariant —
    ground-truth labels stay stable from unit-test to benchmark scale.
    """
    dom = universe.by_name(spec.domain)
    pool = dom.pool()
    n_eff = min(len(pool), max(12, n_rows // 3))
    base = pool[:n_eff]
    lo = int(spec.pool_lo * n_eff)
    hi = max(lo + 1, int(spec.pool_hi * n_eff))
    fmt = FORMATS[spec.fmt]
    return [fmt(v) for v in base[lo:hi]]


def materialize_column(
    spec: ColumnSpec, n_rows: int, universe: DomainUniverse, seed: int
) -> pd.Series:
    """Deterministically generate one column of ``n_rows`` values."""
    g = np.random.default_rng(seed)
    if spec.kind == "entity":
        values = np.array(column_distinct_pool(spec, universe, n_rows), dtype=object)
        out = pd.Series(values[g.integers(0, len(values), n_rows)], dtype="object")
    elif spec.kind == "numeric":
        scale = 10.0 ** int(g.integers(0, 5))
        out = pd.Series((g.lognormal(0.0, 1.0, n_rows) * scale).round(3))
    elif spec.kind == "date":
        start = np.datetime64("2015-01-01")
        out = pd.Series(start + g.integers(0, 3000, n_rows).astype("timedelta64[D]"))
        out = out.astype(str)
    elif spec.kind == "id":
        base = g.integers(0, 1 << 30)
        out = pd.Series([f"{(base + i) & 0xFFFFFFFF:08x}" for i in range(n_rows)])
    elif spec.kind == "text":
        dom = universe.by_name(spec.domain)
        # ~60% filler words, ~40% domain words: related to the domain but
        # far from its centroid (free text mentions entities, it is not
        # a join key).
        lex = np.array(
            list(dom.lexicon)
            + _STOPWORDS * max(1, round(1.5 * len(dom.lexicon) / len(_STOPWORDS))),
            dtype=object,
        )
        # 3–8-word sentences: each row's first ``len`` words of a
        # (n_rows, 8) word matrix.
        words = lex[g.integers(0, len(lex), (n_rows, 8))]
        lens = g.integers(3, 9, n_rows)
        out = pd.Series([" ".join(w[:n]) for w, n in zip(words, lens)], dtype=object)
    else:  # pragma: no cover - spec construction guards this
        raise ValueError(f"unknown column kind {spec.kind!r}")
    if spec.null_frac > 0:
        mask = g.random(n_rows) < spec.null_frac
        out = out.mask(mask, None)
    return out


def materialize_table(
    spec: TableSpec, universe: DomainUniverse, corpus_seed: int
) -> pd.DataFrame:
    """Generate the full pandas frame for one table spec."""
    data = {
        c.name: materialize_column(
            c, spec.n_rows, universe, _col_seed(corpus_seed, spec.table_id, c.name)
        )
        for c in spec.columns
    }
    return pd.DataFrame(data)


class Warehouse:
    """The materialized corpus, exposed as Spark DataFrames per table.

    Each table's DataFrame is ``createDataFrame`` of the Arrow table of
    its pandas rows, which has the schema and rows ``createDataFrame`` of
    the pandas frame has and is made faster. Systems read one column
    with :func:`repro.core.sampling.load_column` (through
    :meth:`table_df`) and the whole corpus with :meth:`cells_long_df`.
    """

    def __init__(
        self, spark: SparkSession, spec: CorpusSpec, universe: DomainUniverse
    ) -> None:
        self.spark = spark
        self.spec = spec
        self.universe = universe
        self._dfs: dict[str, DataFrame] = {}
        self._pdfs: dict[str, pd.DataFrame] = {}
        for t in spec.tables:
            pdf = materialize_table(t, universe, spec.seed)
            self._pdfs[t.table_id] = pdf
            self._dfs[t.table_id] = spark.createDataFrame(
                pa.Table.from_pandas(pdf, preserve_index=False)
            )

    def table_df(self, table_id: str) -> DataFrame:
        return self._dfs[table_id]

    def table_pdf(self, table_id: str) -> pd.DataFrame:
        """The driver-side rows of one table, which :meth:`cells_long_df`
        reads and the tests' oracles compare against."""
        return self._pdfs[table_id]

    def cells_long_df(
        self,
        *,
        sample: int | None = None,
        include_columns: set[str] | None = None,
    ) -> DataFrame:
        """The :func:`cells_frame` of each column's first ``sample`` rows
        (all of them when ``sample`` is None) in :attr:`CorpusSpec.columns`
        order, the input of every index build. ``include_columns``
        restricts it to the given col_ids."""
        return cells_frame(self.spark, [
            (cid, self._pdfs[t.table_id][c.name].iloc[:sample])
            for cid, (t, c) in self.spec.columns.items()
            if include_columns is None or cid in include_columns
        ])


def _cell_strings(values) -> list[str | None]:
    s = pd.Series(values, dtype=object)
    return [str(v) if ok else None for v, ok in zip(s.tolist(), s.notna().tolist())]


def cells_frame(spark: SparkSession, columns: list[tuple[str, object]]) -> DataFrame:
    """The long ``(col_id, value)`` frame of ``(col_id, values)`` pairs,
    each column whole in one partition. A cell is ``None`` where its value
    is null or NaN and ``str(v)`` otherwise, in row order: the text
    :meth:`EmbeddingModel.embed_values` makes of what
    :func:`repro.core.sampling.load_column` returns.

    The columns become Arrow rows ``(col_id, values)``, cut at column
    boundaries into at most two record batches per core of about equal
    cell counts, then exploded. Under Arrow's ``localRelationThreshold``
    Spark slices that relation by rows (columns) into one partition per
    core; above it, it makes one partition per batch.
    """
    schema = pa.schema([("col_id", pa.string()), ("values", pa.list_(pa.string()))])
    cum = np.cumsum([len(v) for _, v in columns])
    # A partition above the threshold is shipped inside its task: with one
    # batch per core, a quarter of testbedM's cells per task ran a 2g
    # driver out of heap in 2 of 5 builds.
    n = 2 * spark.sparkContext.defaultParallelism
    cuts = np.searchsorted(cum, (cum[-1] if columns else 0) * np.arange(1, n) / n) + 1
    edges = np.unique(np.r_[0, np.minimum(cuts, len(columns)), len(columns)])
    # Spark rejects an Arrow table without batches: no columns, one empty batch.
    parts = [columns[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])] or [[]]
    # A batch's strings exist only while it is made: the driver never
    # holds every cell as a Python object.
    batches = (
        pa.RecordBatch.from_pydict(
            {"col_id": [c for c, _ in part], "values": [_cell_strings(v) for _, v in part]},
            schema=schema,
        )
        for part in parts
    )
    table = pa.Table.from_batches(batches, schema)
    return spark.createDataFrame(table).selectExpr("col_id", "explode(values) AS value")


def apply_per_column(cells: DataFrame, fn, schema: str) -> DataFrame:
    """One row of ``schema`` per column of a :func:`cells_frame`:
    ``fn(col_id, values)`` gets the column's non-null cells in row order
    and returns a row tuple, or ``None`` to drop the column.

    One ``mapInPandas``, no shuffle: it chains each partition's Arrow
    batches and calls ``fn`` once per run of equal ``col_id``s, which may
    span batches. A column split across partitions comes out twice.
    """
    names = StructType.fromDDL(schema).names

    def run(batches):
        pairs = chain.from_iterable(
            zip(b["col_id"].tolist(), b["value"].tolist()) for b in batches
        )
        rows = []
        for col_id, group in groupby(pairs, key=itemgetter(0)):
            row = fn(col_id, [v for _, v in group if v is not None])
            if row is not None:
                rows.append(row)
        yield pd.DataFrame.from_records(rows, columns=names)

    return cells.mapInPandas(run, schema)


def require_unique_col_ids(ids: list[str]) -> None:
    """Raise ``ValueError`` naming every col_id that appears more than once."""
    if dup := sorted(c for c, n in Counter(ids).items() if n > 1):
        raise ValueError(f"col_ids appear more than once: {dup}")


def collect_per_column(rows: DataFrame, field: str, dtype) -> tuple[list[str], np.ndarray]:
    """``(col_ids, matrix)`` of an :func:`apply_per_column` frame whose
    ``field`` holds one array per column, in one Spark action.

    The rows arrive as one Arrow table. Each record batch's arrays are one
    flat buffer, which is reshaped and written into a preallocated
    C-contiguous ``(C, d)`` matrix of ``dtype``, so no Python object is
    made per column or per element and no chunk is copied twice. A null
    array, or one whose length differs from the first column's, raises
    ``ValueError`` naming its col_id: the flat buffer would reshape without
    error yet misalign rows. A null element raises Arrow's ``ValueError``.
    """
    table = rows.toArrow()
    ids = table.column("col_id").to_pylist()
    require_unique_col_ids(ids)
    if not ids:
        return [], np.zeros((0, 0), dtype=dtype)
    arrays = table.column(field)
    lengths = pc.list_value_length(arrays).to_pylist()
    if nulls := [c for c, n in zip(ids, lengths) if n is None]:
        raise ValueError(f"{field} is null for col_ids {nulls}")
    d = lengths[0]
    if ragged := [c for c, n in zip(ids, lengths) if n != d]:
        raise ValueError(
            f"{field} of col_ids {ragged} differs in length from {ids[0]!r}'s {d}"
        )
    out = np.empty((len(ids), d), dtype=dtype)
    row = 0
    for chunk in arrays.chunks:
        n = len(chunk)
        out[row : row + n] = chunk.flatten().to_numpy().reshape(n, d)
        row += n
    return ids, out
