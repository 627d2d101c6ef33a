"""Benchmark fixtures: the bench-scale experiment context.

Bench scale (see DESIGN.md §4): ``rows_scale`` defaults to 0.005, which
keeps the paper's ~15x S→M average-row ratio (testbedS ≈ 1k rows/table,
testbedM ≈ 16k rows/table) while fitting a 4-core local Spark. Override
with ``REPRO_BENCH_ROWS_SCALE`` / ``REPRO_BENCH_SIZE_SCALE`` /
``REPRO_BENCH_MAX_QUERIES``.

One context serves the whole session, so each corpus's indexed systems
and Table 2's timed passes are made once and shared by every benchmark
(see :class:`repro.eval.experiments.ExperimentContext`).
"""
from __future__ import annotations

import os

import pytest

from repro.eval.experiments import ExperimentContext

BENCH_ROWS_SCALE = float(os.environ.get("REPRO_BENCH_ROWS_SCALE", "0.005"))
BENCH_SIZE_SCALE = float(os.environ.get("REPRO_BENCH_SIZE_SCALE", "1.0"))
BENCH_MAX_QUERIES = int(os.environ.get("REPRO_BENCH_MAX_QUERIES", "20"))


@pytest.fixture(scope="session")
def bench_ctx(spark):
    return ExperimentContext(
        spark=spark, rows_scale=BENCH_ROWS_SCALE, size_scale=BENCH_SIZE_SCALE
    )
