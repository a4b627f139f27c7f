#!/usr/bin/env python3
"""The repository's mining benchmark.

    python3 perfbench/run.py --workload spark-patent --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One run builds the seeded stand-ins, starts a ``local[nproc]``
SparkSession (Spark workloads only), times a closed loop of mining jobs
for ``--seconds``, checks every maximal set against the serial reference,
and prints every metric with its unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``). ``--workload all`` runs every workload in turn and
prints the serial Patent time next to the Spark one (the COST check).
Workloads, metrics and their predictions are described in README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CACHE = WORK / "references"
# serial-patent and spark-youtube are not in BENCHMARK.json; run them by name
# or through "all". One serial job runs on a single core, whose speed on a
# shared host moves by up to 30 % from minute to minute, and one YouTube job
# takes 20-60 s (perfbench/README.md).
ALL_WORKLOADS = ("serial-patent", "spark-patent", "spark-youtube", "spark-small")

END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "driver_peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=ALL_WORKLOADS + ("all", "smoke"))
    p.add_argument("--seed", type=int, default=0,
                   help="permutes the vertex ids of every stand-in (default 0)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the closed loop starts new jobs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload-seed", type=int, default=0,
                   help="0: registry stand-ins; K>0: regenerate them with seed "
                        "registry seed + 100 K")
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.workload_seed < 0:
        p.error("seeds must be non-negative")
    return args


def configure_env(nproc: int) -> None:
    """Environment the Spark JVM and its Python workers are launched with.

    ``repro`` is not installed, so the workers find it only through
    ``PYTHONPATH``; every temp and scratch dir is kept in ``WORK``."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    paths = [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(p for p in paths if p))
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{nproc}]",
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])
    # every JVM spark-submit starts: temp files here, no /tmp/hsperfdata_*
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(str(tmp))}"
    sys.path.insert(0, str(SRC))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(args: argparse.Namespace, nproc: int) -> dict:
    import harness
    import spans
    import standins

    workload = harness.WORKLOADS[args.workload]
    if standins.missing_references(workload.datasets, args.workload_seed, CACHE):
        # in a child process, so its memory stays out of this driver's peak
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--prepare",
                        "--workload", args.workload,
                        "--workload-seed", str(args.workload_seed)], check=True)

    spark = None
    try:
        spark, inputs, setup_times, jvm_s = harness.set_up(
            workload, args.seed, args.workload_seed, nproc, WORK)
        sets = {n: standins.reference_sets(n, args.workload_seed, CACHE)
                for n in workload.datasets}
        refs = [standins.reference_for(s, sets[s.name]) for s in inputs]

        def job(s):
            return harness.mine(s, spark, nproc)

        tracer = spans.Tracer(spark) if args.trace else None
        # traced jobs alternate with untraced ones, which give job_s
        jobs = (job, tracer.job(job)) if tracer else (job,)
        loops = harness.closed_loop(inputs, refs, jobs, args.seconds,
                                    random.Random(args.seed))
    finally:
        harness.shutdown(spark)

    plain, traced = loops[0], loops[-1]
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    e2e = {
        "job_s": statistics.median(plain.times),
        "setup_s": statistics.median(setup_times),
        "driver_peak_rss_mb": harness.peak_rss_mb(),
    }
    notes = {
        "job_s": f"median of {len(plain.times)} jobs",
        "setup_s": "median of " + ", ".join(_fmt(t) for t in setup_times)
                   + (f"; JVM launch {_fmt(jvm_s)} s before them, not included"
                      if workload.spark else ""),
    }
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"workload_seed={args.workload_seed} nproc={nproc} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, value in e2e.items():
        print(f"  {name:32s} {_fmt(value):>12s} {END_TO_END_UNITS[name]:6s} "
              f"{notes.get(name, '')}")
    if len(plain.times) >= 20:  # so that the percentile is at least the median
        tail_s, tail_p = harness.tail(plain.times)
        print(f"  {'job_s_tail':32s} {_fmt(tail_s):>12s} {'s':6s} "
              f"p{tail_p} of {len(plain.times)} jobs")
    print(f"  {'failed_jobs_ratio':32s} {_fmt(failed / attempted):>12s} {'ratio':6s} "
          f"{failed} of {attempted} jobs")
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    if args.trace:
        layers = spans.layer_metrics(tracer, traced.results, nproc,
                                     statistics.median(plain.times))
        notes = {
            "trace.job_s": f"median of {len(traced.times)} traced jobs",
            "trace.overhead_s": f"trace.job_s {_fmt(layers['trace.job_s'])} s minus "
                                f"job_s {_fmt(e2e['job_s'])} s of the alternating "
                                "untraced jobs",
        }
        for name, value in layers.items():
            print(f"  {name:32s} {_fmt(value):>12s} {spans.LAYER_UNITS[name]:6s} "
                  f"{notes.get(name, '')}")
        _print_accounting(layers, workload.spark)
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        metrics = {k: (v, spans.LAYER_UNITS[k]) for k, v in layers.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _print_accounting(m: dict, spark: bool) -> None:
    """How much of the mean traced job's wall time the layer spans explain."""
    if spark:
        parts = ("global_graph.spawn_all_s", "engine.encode_s", "engine.collect_s",
                 "engine.decode_s", "postprocess.s")
    else:
        parts = ("global_graph.spawn_all_s", "tasks.mine_s", "tasks.materialize_s",
                 "postprocess.s")
    covered = sum(m[p] for p in parts)
    job_s = covered + m["trace.job_self_s"]
    print(f"  accounting: {' + '.join(parts)} = {_fmt(covered)} s of the mean "
          f"traced job {_fmt(job_s)} s ({100 * covered / job_s:.1f} %)")


def run_all(args: argparse.Namespace, nproc: int) -> dict:
    """Every workload in its own process, then one summary."""
    out = {}
    for name in ALL_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workload-seed", str(args.workload_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        print(proc.stdout, end="", flush=True)
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nsummary")
    for name, res in out.items():
        print(f"  {name}: correct={res['correct']} "
              f"failed {res['failed']} of {res['attempted']} jobs")
        for metric, mv in res["metrics"].items():
            print(f"    {metric:32s} {_fmt(mv['value']):>12s} {mv['unit']}")
    if not args.trace:
        serial = out["serial-patent"]["metrics"]["job_s"]["value"]
        parallel = out["spark-patent"]["metrics"]["job_s"]["value"]
        print(f"  COST check on Patent: serial job_s {_fmt(serial)} s (1 thread) vs "
              f"spark job_s {_fmt(parallel)} s ({nproc} cores): "
              f"{serial / parallel:.2f}x")
    path = WORK / "results" / f"all-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1))
    print(f"  results written to {path.relative_to(ROOT)}")
    return {
        "correct": all(r["correct"] for r in out.values()),
        "attempted": sum(r["attempted"] for r in out.values()),
        "failed": sum(r["failed"] for r in out.values()),
        "metrics": {f"{w}/{k}": v for w, r in out.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC} has no repro package; run it from a full checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if args.workload == "all":
        result = run_all(args, nproc)
    else:
        configure_env(nproc)
        if args.prepare:
            import harness
            import standins

            standins.ensure_references(harness.WORKLOADS[args.workload].datasets,
                                       args.workload_seed, CACHE)
            return 0
        result = run_workload(args, nproc)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
