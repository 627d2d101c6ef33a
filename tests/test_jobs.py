"""Smoke tests for the spark-submit job entrypoints.

Jobs own their SparkSession lifecycle (they are spark-submit programs),
so these tests exercise parsing/wiring without launching a second
session: they assert the modules import, expose a ``main``, and document
their flags. The drivers they call are tested in ``test_experiments``.
"""
from __future__ import annotations

import importlib
import sys

import pytest

sys.path.insert(0, ".")  # jobs/ is a repo-root namespace package

JOB_MODULES = [
    "jobs.table1",
    "jobs.table2",
    "jobs.fig4",
    "jobs.sample_efficiency",
    "jobs.sigma_adhoc",
    "jobs.train_model",
]


@pytest.mark.parametrize("mod_name", JOB_MODULES)
def test_job_importable_with_main(mod_name):
    mod = importlib.import_module(mod_name)
    assert callable(mod.main)
    assert mod.__doc__ and "Usage" in mod.__doc__


def test_base_parser_flags():
    from jobs._common import base_parser

    args = base_parser("d").parse_args(
        ["--rows-scale", "0.01", "--size-scale", "0.5", "--max-queries", "7"]
    )
    assert args.rows_scale == 0.01
    assert args.size_scale == 0.5
    assert args.max_queries == 7


def test_base_parser_defaults():
    from jobs._common import base_parser
    from repro.eval.experiments import BENCH_ROWS_SCALE, BENCH_SIZE_SCALE

    args = base_parser("d").parse_args([])
    assert args.rows_scale == BENCH_ROWS_SCALE
    assert args.size_scale == BENCH_SIZE_SCALE


def test_fig4_dataset_flag():
    import jobs.fig4 as f4
    from jobs._common import base_parser

    p = base_parser(f4.__doc__)
    p.add_argument("--datasets", nargs="+", default=["S", "M", "spider"])
    args = p.parse_args(["--datasets", "XS"])
    assert args.datasets == ["XS"]
