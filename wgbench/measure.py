"""Measurement helpers: spans, percentiles, answer checks, Spark job
counts and the drift sentinel.

Nothing here imports the system under test, so the helpers can be read
(and reused) without a Spark session.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import time
from contextlib import contextmanager

import numpy as np

SCORE_TOL = 1e-5  # returned score vs exact cosine of the reference vectors
TIE_TOL = 1e-6  # tie-aware agreement: score >= exact k-th score - TIE_TOL


def p50(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=np.float64))) if len(xs) else 0.0


def p90(xs) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), 90)) if len(xs) else 0.0


def mean(xs) -> float:
    return float(np.mean(np.asarray(xs, dtype=np.float64))) if len(xs) else 0.0


def per_key_best(cycles: list[list[float]]) -> np.ndarray:
    """Each key's fastest latency over whole cycles (same key order in
    every cycle). On a shared machine whose speed flips between states
    every few seconds, the fastest of several requests is far steadier
    run to run than the pooled distribution."""
    return np.min(np.asarray(cycles, dtype=np.float64), axis=0)


class Spans:
    """In-memory span log. A span is ``(request, name, parent, start, end)``;
    spans of one request share the request id, and ``parent`` names the
    span that caused it (``None`` for a request's root)."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, str, str | None, float, float]] = []

    @contextmanager
    def span(self, request: str, name: str, parent: str | None = None):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((request, name, parent, t0, time.perf_counter()))

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, _, start, end in self.rows if n == name]

    def by_request(self, name: str) -> dict[str, float]:
        return {r: end - start for r, n, _, start, end in self.rows if n == name}

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {"request": r, "name": n, "parent": p, "start": s, "end": e}
                    for r, n, p, s, e in self.rows
                ],
                f,
            )


class AnswerChecker:
    """Checks every returned top-k list against reference vectors.

    A list passes when it holds ``k`` distinct ids, omits the query key,
    has non-increasing scores, every score is the exact cosine of the
    query's and the answer's reference vectors within ``SCORE_TOL``, and a
    repeated key returns its first list. The first answer for each key
    also gets a tie-aware agreement with the exact-cosine top-k.
    """

    def __init__(self, ids: list[str], matrix: np.ndarray, k: int) -> None:
        self.k = k
        self.pos = {cid: i for i, cid in enumerate(ids)}
        m = np.asarray(matrix, dtype=np.float64)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.unit = m / norms
        self.first: dict[str, list[str]] = {}
        self.agreement: dict[str, float] = {}
        self.failures: list[str] = []

    def check(self, key: str, results) -> bool:
        err = self._problem(key, results)
        if err is not None:
            self.failures.append(f"{key}: {err}")
        return err is None

    def _problem(self, key: str, results) -> str | None:
        ids = [r.col_id for r in results]
        scores = [float(r.score) for r in results]
        if len(ids) != self.k or len(set(ids)) != self.k:
            return f"expected {self.k} distinct ids, got {ids}"
        if key in ids:
            return "answer contains the query key"
        if any(b > a for a, b in zip(scores, scores[1:])):
            return f"scores increase down the list: {scores}"
        if key not in self.pos or any(i not in self.pos for i in ids):
            return "unknown id"
        q = self.unit[self.pos[key]]
        exact = self.unit[[self.pos[i] for i in ids]] @ q
        worst = float(np.max(np.abs(exact - np.asarray(scores))))
        if worst > SCORE_TOL:
            return f"score differs from exact cosine by {worst:.3g}"
        if key in self.first:
            if self.first[key] != ids:
                return "repeated key returned a different list"
            return None
        self.first[key] = ids
        all_scores = self.unit @ q
        all_scores[self.pos[key]] = -np.inf
        kth = np.partition(all_scores, -self.k)[-self.k]
        self.agreement[key] = float(np.sum(exact >= kth - TIE_TOL)) / self.k
        return None

    def topk_agreement(self) -> float:
        return mean(list(self.agreement.values()))


class JobCounter:
    """Counts the Spark jobs and completed tasks run inside a block."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self._n = 0

    @contextmanager
    def count(self, out: dict):
        self._n += 1
        group = f"wgbench-{self._n}"
        self.sc.setJobGroup(group, group)
        try:
            yield
        finally:
            tracker = self.sc.statusTracker()
            jobs = tracker.getJobIdsForGroup(group)
            tasks = 0
            for j in jobs:
                info = tracker.getJobInfo(j)
                for s in info.stageIds if info else ():
                    st = tracker.getStageInfo(s)
                    tasks += st.numCompletedTasks if st else 0
            out["jobs"] = len(jobs)
            out["tasks"] = tasks
            self.sc.setJobGroup("wgbench-idle", "wgbench-idle")


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _cpu_ticks() -> dict[str, int]:
    with open("/proc/stat") as f:
        parts = f.readline().split()
    vals = [int(x) for x in parts[1:]]
    return {"total": sum(vals[:8]), "steal": vals[7] if len(vals) > 7 else 0}


def _calibration_s() -> float:
    """Median of five timings of a fixed Python + BLAS loop."""
    a = np.random.default_rng(0).standard_normal((128, 128))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        b = a
        for _ in range(100):
            b = np.tanh(b @ a)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be read."""
    with open("/proc/self/maps") as f:
        libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def sentinel_point() -> dict:
    """Machine state at one moment: steal ticks and calibration time."""
    ticks = _cpu_ticks()
    return {
        "steal_ticks": ticks["steal"],
        "total_ticks": ticks["total"],
        "calibration_s": _calibration_s(),
        "loadavg_1m": os.getloadavg()[0],
    }


def sentinel_static(master: str) -> dict:
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "spark_master": master,
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }


def steal_frac(start: dict, end: dict) -> float:
    total = end["total_ticks"] - start["total_ticks"]
    return (end["steal_ticks"] - start["steal_ticks"]) / total if total else 0.0
