"""WarpGate benchmark: cold index build, then warm discovery latency.

Run from the root of a checkout:

    python3 wgbench/run.py --workload s-full --seed 1 --seconds 5 --trace 0

One run starts a local Spark session, sets the workload up several
times (the median counts), builds WarpGate's index once (the first
build in the process, so it is cold), warms the query path until the
per-cycle median settles, and then runs a closed loop of requests: one
analyst who waits for each answer. Requests walk a seeded permutation of
the workload's keys, and the window ends on a whole cycle. Every answer
is checked. The last line of standard output is the result; the line
before it is a report with the drift sentinel.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` instead times
each layer through its public functions and prints the per-layer
metrics. Inputs depend only on ``--seed``. Everything the run writes
goes under ``.bench_build/wgbench`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

SETUP_REPS = 3
SPARK_CORES = 4
SPARK_DRIVER_MEMORY = "2g"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_env(root: Path) -> Path:
    """Point every temporary and Spark directory into the build dir, and
    make ``src`` importable here and in Spark's Python workers."""
    build_dir = root / ".bench_build" / "wgbench"
    tmp = build_dir / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    src = str(root / "src")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = src
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    sys.path.insert(0, src)
    return build_dir


def start_spark(tmp: Path):
    """The repo's job session (``jobs/_common.make_spark``) on a fixed
    ``local[N]``, with the progress bar off and files kept in ``tmp``."""
    from pyspark.sql import SparkSession

    cores = min(SPARK_CORES, os.cpu_count() or 1)
    spark = (
        SparkSession.builder.appName("wgbench")
        .master(f"local[{cores}]")
        .config("spark.driver.memory", SPARK_DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "spark-warehouse"))
        .config(
            "spark.driver.extraJavaOptions",
            f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
        )
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def call(request, key):
    """A request's answer, or the exception it raised."""
    try:
        return request(key)
    except Exception as e:  # a failed request is counted, not fatal
        return e


class Tally:
    """Counts requests and checks each answer."""

    def __init__(self, checker) -> None:
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def record(self, key: str, outcome) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failed += 1
            self.checker.failures.append(f"{key}: {type(outcome).__name__}: {outcome}")
        else:
            self.failed += not self.checker.check(key, outcome)

    def cycle(self, keys, request) -> list[float]:
        """One pass over ``keys`` by one client; each request's latency (s)."""
        lat = []
        for key in keys:
            t0 = time.perf_counter()
            outcome = call(request, key)
            lat.append(time.perf_counter() - t0)
            self.record(key, outcome)
        return lat


def warm_up(tally, keys, wl) -> list[float]:
    """Warm the query path before the window with ``wl.warmup_cycles``
    whole cycles. A fixed count, not a settle rule: the JVM's JIT state
    depends on how many requests it has served, so every run's window
    starts at the same point. Returns each cycle's p50 (ms)."""
    from measure import p50

    return [1e3 * p50(tally.cycle(keys, wl.query)) for _ in range(wl.warmup_cycles)]


def run(args, root: Path, build_dir: Path, bench: dict) -> tuple[dict, dict]:
    import measure as M
    from workloads import (
        K,
        WORKLOADS,
        BuildCounts,
        InputCache,
        QueryCounts,
        index_counts,
        token_counts,
    )

    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    tmp = build_dir / "tmp"
    report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    report["sentinel_start"] = M.sentinel_point()
    metrics: dict[str, float] = {}
    phases: dict[str, float] = {}
    report["phases_s"] = phases
    t_phase = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name] = now - t_phase[0]
        t_phase[0] = now

    t0 = time.perf_counter()
    spark = start_spark(tmp)
    metrics["spark.start_s"] = time.perf_counter() - t0
    try:
        report["machine"] = M.sentinel_static(spark.sparkContext.master)
        phase("spark")
        wl = WORKLOADS[args.workload](spark, args.seed, InputCache(root, build_dir))
        jobs = M.JobCounter(spark.sparkContext)
        phase("inputs")

        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup_rep()
            reps.append(time.perf_counter() - t0)
        report["setup_reps_s"] = reps
        metrics["warehouse.load_s"] = statistics.median(reps)
        metrics["setup_s"] = metrics["spark.start_s"] + metrics["warehouse.load_s"]
        phase("setup")

        spans = M.Spans()
        if args.trace:
            # Cold staged build for the layer split, then a plain and a
            # staged warm build: their ratio is what tracing costs.
            bcounts = BuildCounts()
            wl.staged_build(spans, bcounts)
            plain_jobs: dict = {}
            t0 = time.perf_counter()
            with jobs.count(plain_jobs):
                wl.build()
            plain_s = time.perf_counter() - t0
            warm = M.Spans()
            wl.staged_build(warm)
            metrics["trace.build_overhead_frac"] = warm.total("build") / plain_s - 1
            metrics["spark.jobs_per_build"] = plain_jobs["jobs"]
            metrics["spark.tasks_per_build"] = plain_jobs["tasks"]
            for layer in ("unpivot", "embed", "sign", "bucket"):
                metrics[f"build.{layer}_s"] = spans.total(f"build.{layer}")
            metrics["build.cells"] = bcounts.cells
            metrics["build.tokens"] = bcounts.tokens
            metrics["build.oov_token_frac"] = bcounts.oov_tokens / max(1, bcounts.tokens)
        else:
            t0 = time.perf_counter()
            wl.build()
            metrics["build_s"] = time.perf_counter() - t0

        phase("build")
        index = wl.index
        metrics.update(index_counts(index))
        report["sizes"] = wl.sizes() | {"index_mb": metrics["index.matrix_mb"]}
        keys = wl.keys()
        # Answers are checked against the workload's own reference vectors,
        # not the index's, and the index must hold exactly those columns.
        ref_ids, ref_vecs = wl.reference
        index_complete = sorted(index.ids) == sorted(ref_ids)
        report["index_columns"] = [len(index.ids), len(ref_ids)]
        tally = Tally(M.AnswerChecker(ref_ids, ref_vecs, K))

        phase("checker")
        report["warmup_p50_ms"] = warm_up(tally, keys, wl)
        phase("warmup")

        qcounts: dict[str, QueryCounts] = {}

        def traced(key):
            rid = f"q{tally.attempted}"
            c = QueryCounts()
            with spans.span(rid, "request", None):
                results, values = wl.traced_query(key, rid, spans, c)
            if key not in qcounts:
                if values is not None:
                    c.distinct_values, c.tokens, c.oov_tokens = token_counts(
                        values, wl.model.vocab
                    )
                qcounts[key] = c
            return results

        # The window: whole cycles until --seconds have passed, and at least
        # wl.window_cycles. A traced run alternates plain and traced cycles,
        # at least one of each, since its layer latencies are not gated.
        min_cycles = 1 if args.trace else wl.window_cycles
        cycles: list[list[float]] = []
        query_jobs: dict = {}
        t_start = time.perf_counter()
        n_traced = 0
        while (
            time.perf_counter() - t_start < args.seconds
            or len(cycles) < min_cycles
            or n_traced < args.trace
        ):
            if args.trace and (len(cycles) + n_traced) % 2:
                with jobs.count(query_jobs) if n_traced == 0 else nullcontext():
                    tally.cycle(keys, traced)
                n_traced += 1
            else:
                cycles.append(tally.cycle(keys, wl.query))
        phase("window")
        plain = [x for c in cycles for x in c]
        report["window_cycles"] = len(cycles) + n_traced
        report["window_requests"] = len(plain)
        report["window_pooled_p50_ms"] = 1e3 * M.p50(plain)
        report["window_pooled_p90_ms"] = 1e3 * M.p90(plain)

        if args.trace:
            def ms(xs):
                return [1e3 * x for x in xs]

            load = ms(spans.durations("query.load"))
            embed = ms(spans.durations("query.embed"))
            probe = spans.by_request("query.probe")
            whole = spans.by_request("query.index")
            rerank = ms([whole[r] - probe[r] for r in whole])
            n = len(index.ids)
            cs = list(qcounts.values())
            tokens = sum(c.tokens for c in cs)
            fallback = [c.candidates < K + 1 for c in cs]
            scored = [n if fb else c.candidates for c, fb in zip(cs, fallback)]
            metrics |= {
                "query.load_p50_ms": M.p50(load),
                "query.load_p90_ms": M.p90(load),
                "query.values_loaded_p50": M.p50([c.values_loaded for c in cs]),
                "spark.jobs_per_query": query_jobs["jobs"] / len(keys),
                "query.embed_p50_ms": M.p50(embed),
                "query.embed_p90_ms": M.p90(embed),
                "query.distinct_values_p50": M.p50([c.distinct_values for c in cs]),
                "query.oov_token_frac": sum(c.oov_tokens for c in cs) / max(1, tokens),
                "query.probe_p50_ms": M.p50(ms(probe.values())),
                "query.rerank_p50_ms": M.p50(rerank),
                "query.candidate_frac": M.mean([c.candidates / n for c in cs]),
                "query.fallback_frac": M.mean(fallback),
                "query.rerank_useful_frac": M.mean([K / s for s in scored]),
                "trace.query_overhead_frac": M.p50(spans.durations("request"))
                / M.p50(plain)
                - 1,
            }
            spans.dump(str(build_dir / f"trace-{args.workload}-{args.seed}.json"))
        else:
            best = M.per_key_best(cycles)
            metrics["query_p50_ms"] = 1e3 * M.p50(best)
            metrics["query_p90_ms"] = 1e3 * M.p90(best)
            # Drift self-check: the window's first and second half (whole
            # cycles each) should agree within the p50 bound.
            half = len(cycles) // 2
            first, second = (
                1e3 * M.p50(M.per_key_best(part)) for part in (cycles[:half], cycles[half:])
            )
            report["window_half_p50_ms"] = [first, second]
            report["window_drift_flag"] = (
                abs(second - first) > bound["query_p50_ms"] * metrics["query_p50_ms"]
            )
        metrics["topk_agreement"] = tally.checker.topk_agreement()
        report["failures"] = tally.checker.failures[:5]
        metrics["peak_rss_mb"] = M.peak_rss_mb()
        phase("metrics")
    finally:
        stop_spark(spark)
    phase("stop")
    report["sentinel_end"] = M.sentinel_point()
    report["steal_frac"] = M.steal_frac(report["sentinel_start"], report["sentinel_end"])
    result = {
        "correct": index_complete
        and tally.failed == 0
        and len(tally.checker.agreement) == len(keys),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or not (root / "BENCHMARK.json").is_file():
        print("wgbench: run from a checkout root holding src/repro", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in bench[group]}
    build_dir = prepare_env(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"wgbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, report = run(args, root, build_dir, bench)
    missing = sorted(set(wanted) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result["metrics"] = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in wanted.items()
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
