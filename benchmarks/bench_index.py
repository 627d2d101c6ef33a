"""The re-rank's two kernels, timed without Spark.

``SimHashIndex.query`` scores its LSH candidates either by gathering
their rows and multiplying them by the query, or by one product over the
whole matrix read out at the candidates; :func:`full_product_pays`
chooses by the candidate fraction. This sweep times both kernels on
random unit vectors (d = 64, the model's width) at several index sizes
and candidate fractions, and prints the table. Only the kernels are
timed, each as its best of repeated calls, so the numbers are the
re-rank's floor on the host that runs it, not a query's latency.

Gate: far from the crossover (fraction ≤ 0.05 or ≥ 0.35) the kernel the
rule chooses takes at most 1.25× the cheaper one. Run it alone with
``PYTHONPATH=src python benchmarks/bench_index.py`` or under
``pytest benchmarks/``.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.simhash import full_product_pays
from repro.eval.tables import format_markdown

SIZES = (2_553, 10_000, 50_000, 200_000)
FRACTIONS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
DIM = 64
FAR_FROM_CROSSOVER = (0.05, 0.35)  # at or below / at or above
MAX_RATIO = 1.25


def _best_ms(fn, min_reps: int = 20, budget_s: float = 0.05) -> float:
    best, reps, start = float("inf"), 0, time.perf_counter()
    while reps < min_reps or time.perf_counter() - start < budget_s:
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
        reps += 1
    return best * 1e3


def sweep(seed: int = 0) -> pd.DataFrame:
    """One row per (C, fraction): each kernel's best time in ms, the
    kernel the rule chooses and its time over the cheaper one's."""
    g = np.random.default_rng(seed)
    rows = []
    for n in SIZES:
        mat = g.standard_normal((n, DIM)).astype(np.float32)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        v = mat[0]
        for frac in FRACTIONS:
            cand = np.sort(g.choice(n, round(frac * n), replace=False))
            gather = _best_ms(lambda: np.take(mat, cand, axis=0) @ v)
            full = _best_ms(lambda: (mat @ v)[cand])
            chosen = "full" if full_product_pays(len(cand), n) else "gather"
            t = full if chosen == "full" else gather
            rows.append(
                dict(C=n, fraction=frac, gather_ms=round(gather, 4),
                     full_ms=round(full, 4), chosen=chosen,
                     chosen_over_best=round(t / min(gather, full), 2))
            )
    return pd.DataFrame(rows)


def check(table: pd.DataFrame) -> pd.DataFrame:
    """The rows far from the crossover where the chosen kernel is more
    than ``MAX_RATIO`` times the cheaper one (empty when the gate holds)."""
    lo, hi = FAR_FROM_CROSSOVER
    far = table[(table.fraction <= lo) | (table.fraction >= hi)]
    return far[far.chosen_over_best > MAX_RATIO]


TITLE = "Re-rank kernels (best of repeated calls, d = 64)"


def test_rerank_kernel_choice(capsys):
    table = sweep()
    with capsys.disabled():
        print()
        print(format_markdown(table, TITLE))
    bad = check(table)
    assert bad.empty, bad.to_string()


if __name__ == "__main__":
    t = sweep()
    print(format_markdown(t, TITLE))
    print("gate:", "holds" if check(t).empty else "fails")
