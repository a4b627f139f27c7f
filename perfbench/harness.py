"""Workloads, set-up, and the closed loop that times mining jobs."""
from __future__ import annotations

import math
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.gthinker.engine import JobResult, run_serial, run_spark

from standins import Reference, Standin, build_standin, standin_edges

__all__ = [
    "SMALL",
    "WORKLOADS",
    "LoopResult",
    "Workload",
    "closed_loop",
    "launch_jvm",
    "mine",
    "peak_rss_mb",
    "set_up",
    "shutdown",
    "start_session",
    "tail",
]

SMALL = ("CX_GSE1730", "CX_GSE10158", "Ca-GrQc", "Enron", "Hyves", "kmer", "USA Road")


@dataclass(frozen=True)
class Workload:
    datasets: tuple[str, ...]
    spark: bool  # False: run_serial A_base; True: run_spark A_time at nproc
    # relabellings of each stand-in per pass: the work of one Patent job
    # moves by about 10 % with the labelling, so one run's median spans four
    labellings: int = 1


# Why each workload is here, and what it predicts, is in perfbench/README.md.
WORKLOADS = {
    "serial-patent": Workload(("Patent",), spark=False, labellings=4),
    "spark-patent": Workload(("Patent",), spark=True, labellings=4),
    "spark-youtube": Workload(("YouTube",), spark=True),
    "spark-small": Workload(SMALL, spark=True),
    # one tiny stand-in, for the benchmark's own smoke test
    "smoke": Workload(("CX_GSE1730",), spark=True),
}
SETUP_REPS = 3


def mine(standin: Standin, spark, nproc: int) -> JobResult:
    """One mining job: graph in memory -> maximal set on the driver."""
    spec = standin.spec
    if spark is None:
        return run_serial(standin.graph, spec.gamma, spec.tau_size, strategy="base")
    return run_spark(
        spark, standin.graph, spec.gamma, spec.tau_size, strategy="time",
        tau_split=spec.tau_split, tau_time=spec.tau_time, parallelism=nproc,
    )


def launch_jvm() -> float:
    """Launch the Spark JVM that every session of this process runs in;
    returns its wall seconds. Driver memory, host and temp dirs are fixed
    here by ``PYSPARK_SUBMIT_ARGS`` (see run.py)."""
    from pyspark import SparkContext

    t0 = time.perf_counter()
    SparkContext._ensure_initialized()
    return time.perf_counter() - t0


def start_session(nproc: int, work_dir: Path):
    """A ``local[nproc]`` session without UI or console progress bar, in
    the JVM that :func:`launch_jvm` started."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{nproc}]")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(work_dir / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop the session, then the JVM, and wait for the JVM to exit."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def set_up(workload: Workload, seed: int, workload_seed: int, nproc: int,
           work_dir: Path):
    """Set up ``SETUP_REPS`` times; keep the last session and stand-ins.

    One set-up is: start a SparkSession (Spark workloads only), build the
    workload's stand-ins, each under ``workload.labellings`` relabellings
    drawn from ``seed``, and warm up with one pass of jobs over the small
    stand-ins. Each set-up starts its session, and with it its Python
    workers, anew; the JVM is launched once, before the first set-up, so
    that every set-up does the same work. After the last set-up, a second
    warm-up pass runs untimed: the first pass after a single one ran about
    20 % slower than the next on ``spark-small``. Returns (session or None,
    stand-ins, seconds of each set-up, seconds of the JVM launch or 0)."""
    jvm_s = launch_jvm() if workload.spark else 0.0
    spark = None
    times = []
    for _ in range(SETUP_REPS):
        if spark is not None:
            spark.stop()
        t0 = time.perf_counter()
        if workload.spark:
            spark = start_session(nproc, work_dir)
        edges = {n: standin_edges(n, workload_seed)
                 for n in dict.fromkeys(workload.datasets + SMALL)}
        inputs = [build_standin(n, edges[n], seed, i) for n in workload.datasets
                  for i in range(workload.labellings)]
        warm = {s.name: s for s in inputs}
        warm = [warm.get(n) or build_standin(n, edges[n], seed) for n in SMALL]
        for s in warm:
            mine(s, spark, nproc)
        times.append(time.perf_counter() - t0)
    for s in warm:
        mine(s, spark, nproc)
    return spark, inputs, times, jvm_s


@dataclass
class LoopResult:
    times: list[float]  # wall seconds of every job attempted
    failed: int  # jobs that raised or returned another maximal set
    results: list[JobResult | None]  # counters only; the sets are dropped


def closed_loop(inputs: list[Standin], references: list[Reference],
                jobs: Sequence[Callable[[Standin], JobResult]], seconds: float,
                rng: random.Random) -> list[LoopResult]:
    """One client, one job at a time: the next job starts when the previous
    maximal set is back on the driver and checked against the reference of
    the same index. In pass p, ``inputs[i]`` is run by
    ``jobs[(p + i) % len(jobs)]``, so two job functions alternate, a drift
    in host speed falls on both alike, and every ``len(jobs)`` passes give
    each function every input once. Runs whole passes over ``inputs``, each
    in a seeded order, until ``seconds`` have passed and every function has
    run every input. Returns one result per job function."""
    outs = [LoopResult([], 0, []) for _ in jobs]
    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        order = list(range(len(inputs)))
        rng.shuffle(order)
        for i in order:
            fn = (p + i) % len(jobs)
            out = outs[fn]
            t0 = time.perf_counter()
            try:
                result = jobs[fn](inputs[i])
            except Exception:  # counted as a failed job; the loop goes on
                traceback.print_exc(file=sys.stderr)
                result = None
            out.times.append(time.perf_counter() - t0)
            if result is None or not references[i].matches(result.maximal):
                out.failed += 1
            if result is not None:  # keep no sets, so memory does not grow per job
                result = replace(result, results=set(), maximal=set())
            out.results.append(result)
        p += 1
        if p >= len(jobs) and time.perf_counter() >= deadline:
            return outs


def tail(times: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least ten
    samples above it, by nearest rank. Needs more than ten samples."""
    n = len(times)
    p = math.floor(100 * (n - 10) / n)
    return sorted(times)[math.ceil(p * n / 100) - 1], p


def peak_rss_mb() -> float:
    """Peak resident memory of this (driver) process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
