"""The redesigned G-thinker execution engine, reproduced on PySpark.

Two interchangeable drivers run the same task code
(:func:`repro.gthinker.tasks.run_task`):

* :func:`run_serial` — single-threaded reference (the paper's "serial
  mining time"; also the Quick+/Quick comparison harness).
* :func:`run_spark` — the distributed engine. Each *round* is one
  ``mapInPandas`` pass over a DataFrame of tasks; the child subtasks a
  partition does not mine itself become the next round's DataFrame.
  The paper's scheduling redesign maps to:

  - **big-task prioritization** (global queue Q_global): tasks are
    sorted by estimated cost (|ext(S)|) descending before partitioning,
    so every partition starts with its biggest tasks;
  - **task stealing / load balancing**: the sorted tasks are dealt
    round-robin over ``parallelism`` partitions (Spark's round-robin
    ``repartition``), spreading big tasks evenly across cores —
    the dataflow analogue of stealing from overloaded machines;
  - **local queue Q_local** (A_time): after running the task rows it
    was dealt, a partition pops the subtasks its timeouts spawned LIFO
    and mines them, pushing their children, until τ_time × (its task
    rows) has passed since it started. Only what is still on its stack
    then goes back to the driver, i.e. to Q_global and the next round.
    A_base and A_split ship every subtask they create;
  - the **old engine** (pre-redesign, for Table 4's G-thinker column)
    is the same loop with prioritization off (spawn-order FIFO).

  The k-core-pruned input graph is shipped once per executor as a
  broadcast (the analogue of G-thinker's distributed vertex store +
  remote vertex cache: every vertex pulled at most once), together with
  the mining order computed once on the driver.

  Tasks and results cross the Python/JVM boundary as typed rows
  (``kind``, ``s``, ``ext`` as ``array<bigint>``). As in the paper's
  engine, candidates stay on the worker that found them until it has
  dropped those another of its candidates contains; only the survivors
  reach the driver's final maximality pass.
"""
from __future__ import annotations

import json
import logging
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql.types import ArrayType, LongType, StringType, StructField, StructType

from ..core.gamma import make_gamma
from ..core.postprocess import maximal_only, timed_maximal_only
from ..core.quickplus import QUICK_PLUS, MineConfig, MineStats
from ..graphs.global_graph import GlobalGraph
from .tasks import run_task

__all__ = ["JobResult", "run_serial", "run_spark", "spawn_all"]

_log = logging.getLogger(__name__)

# Task rows carry global vertex ids: a root row holds its spawn vertex in
# ``s``; a subtask row holds S and ext(S). Output rows add a JSON
# ``payload`` used only by the per-partition stats row and feature rows.
# StructTypes rather than DDL strings: Spark parses a string in the JVM
# on every call, once per round.
_IDS = ArrayType(LongType())
_TASK_SCHEMA = StructType([
    StructField("kind", StringType()), StructField("s", _IDS), StructField("ext", _IDS)
])
_ROW_SCHEMA = StructType([*_TASK_SCHEMA.fields, StructField("payload", StringType())])


@dataclass
class JobResult:
    """Everything the evaluation tables need from one job."""

    results: set[frozenset[int]] = field(default_factory=set)
    maximal: set[frozenset[int]] = field(default_factory=set)
    job_time: float = 0.0
    mine_time: float = 0.0  # sum of per-task mining time
    materialize_time: float = 0.0  # sum of subtask-subgraph build time
    # Spark path: ``results`` holds the candidates that survived each
    # partition's maximality filter (timed in ``worker_filter_time``),
    # and ``postprocess_time`` is the driver's final pass alone.
    postprocess_time: float = 0.0
    worker_filter_time: float = 0.0  # sum of per-partition filter time
    n_root_tasks: int = 0
    n_subtasks: int = 0  # every subtask created, drained on a worker or shipped
    n_rounds: int = 0
    stats: MineStats = field(default_factory=MineStats)
    task_features: pd.DataFrame | None = None  # Tables 1–2 per-task rows

    @property
    def n_results(self) -> int:
        return len(self.results)

    @property
    def n_maximal(self) -> int:
        return len(self.maximal)


def spawn_all(
    gg: GlobalGraph, gamma, tau_size: int, cfg: MineConfig = QUICK_PLUS
):
    """Preprocess ((P2) k-core + two-hop-size prune), compute the
    mining order (degenerate (P7) recoding when enabled) and build all
    root tasks. Returns (pruned GlobalGraph, list[SpawnTask]).

    Raises ``ValueError`` for γ < 0.5: the (P1) two-hop shrink assumes
    a quasi-clique has diameter ≤ 2, which only holds for γ ≥ 0.5."""
    gam = make_gamma(gamma)
    if 2 * gam.num < gam.den:
        raise ValueError(f"gamma must be >= 0.5, got {gam.value}")
    pruned = gg.pruned_subgraph(gam, tau_size)
    alive, rank, skip = _mining_order(pruned, cfg)
    tasks = []
    for v in sorted(alive, key=lambda u: rank[u]):
        if v in skip:
            continue  # (P7) degenerate rule: subsets of N(v_max) cannot be maximal
        t = pruned.spawn_task(v, rank, alive, gam, tau_size)
        if t is not None:
            tasks.append(t)
    return pruned, tasks


def _mining_order(pruned: GlobalGraph, cfg: MineConfig):
    """(alive vertices, rank, (P7) skip set) of the pruned graph."""
    alive = {v for v in range(pruned.n) if pruned.adj[v]}
    rank, skip = pruned.mining_order(alive, cfg.degenerate_cover)
    return alive, rank, skip


def _merge_outcome(job: JobResult, outcome) -> list:
    job.results.update(outcome.results)
    job.mine_time += outcome.mine_time
    job.materialize_time += outcome.materialize_time
    job.stats.merge(outcome.stats)
    job.n_subtasks += len(outcome.subtasks)
    return outcome.subtasks


def _run_subtask(pruned: GlobalGraph, s_set, ext_set, gamma, tau_size, **kw):
    """Re-materialize a child task's subgraph (counted as
    materialization time) and run it."""
    t0 = time.perf_counter()
    verts = set(s_set) | set(ext_set)
    g, ids = pruned.induce_local(verts)
    pos = {u: i for i, u in enumerate(ids)}
    s_mask = 0
    for u in s_set:
        s_mask |= 1 << pos[u]
    ext_mask = 0
    for u in ext_set:
        ext_mask |= 1 << pos[u]
    mat = time.perf_counter() - t0
    out = run_task(g, ids, s_mask, ext_mask, gamma, tau_size, **kw)
    out.materialize_time += mat
    return out


def run_serial(
    gg: GlobalGraph,
    gamma,
    tau_size: int,
    *,
    strategy: str = "base",
    tau_split: int = 50,
    tau_time: float = 1.0,
    cfg: MineConfig = QUICK_PLUS,
    collect_task_features: bool = False,
) -> JobResult:
    """Single-threaded engine: process root tasks in order, then drain
    the subtask queue FIFO. Ground truth for the distributed runs."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    job = JobResult()
    t_start = time.perf_counter()
    pruned, roots = spawn_all(gg, gamma, tau_size, cfg)
    job.n_root_tasks = len(roots)
    kw = dict(strategy=strategy, tau_split=tau_split, tau_time=tau_time, cfg=cfg)
    feats = []
    queue: list[tuple[frozenset, frozenset]] = []
    for t in roots:
        t0 = time.perf_counter()
        out = run_task(t.graph, t.ids, t.s_mask, t.ext_mask, gamma, tau_size, **kw)
        queue.extend(_merge_outcome(job, out))
        if collect_task_features:
            feats.append(_features_row(t, out, time.perf_counter() - t0))
    while queue:
        s_set, ext_set = queue.pop(0)
        out = _run_subtask(pruned, s_set, ext_set, gamma, tau_size, **kw)
        queue.extend(_merge_outcome(job, out))
    job.maximal, job.postprocess_time = timed_maximal_only(job.results)
    job.job_time = time.perf_counter() - t_start
    if collect_task_features:
        job.task_features = pd.DataFrame(feats)
    return job


def _features_row(task, outcome, elapsed: float) -> dict:
    """Per-task subgraph features of Tables 1–2."""
    g = task.graph
    degs = [g.degree(v) for v in range(g.n) if g.adj[v]]
    n_v = len(degs)
    n_e = sum(degs) // 2
    core = 0
    k = 1
    while g.kcore_mask(k) != 0:
        core = k
        k += 1
    return {
        "root": task.root,
        "num_vertices": n_v,
        "num_edges": n_e,
        "max_degree": max(degs, default=0),
        "avg_degree": (2 * n_e / n_v) if n_v else 0.0,
        "core_number": core,
        "task_time_ms": elapsed * 1000.0,
        "n_results": len(outcome.results),
    }


# --------------------------------------------------------------- spark
def _ids(cell) -> list[int]:
    """Python ints from an ``array<bigint>`` cell: a numpy array under
    Arrow, a list otherwise. numpy ints must not reach the bitmasks."""
    return cell.tolist() if isinstance(cell, np.ndarray) else list(cell)


def _mine_rows(
    g_all: GlobalGraph, alive, rank, rows, gamma, tau_size: int,
    deadline: float, *, collect_task_features: bool = False, **kw,
) -> list[tuple]:
    """One Spark partition's work in a round: run the ``(kind, s, ext)``
    task rows it was dealt, then drain its own subtasks (Q_local) LIFO
    until ``deadline`` (a ``perf_counter`` time) has passed. Returns the
    output rows: the partition's locally maximal candidates, the
    subtasks still on its stack, one stats row and any feature rows.

    Root rows carry only the spawn vertex id; the ego-net task subgraph
    is rebuilt from ``g_all`` (counted as materialization, like
    G-thinker's frontier pulls)."""
    acc = JobResult()  # accumulates this partition's outcomes
    stack: list[tuple[frozenset, frozenset]] = []
    feat_rows = []
    for kind, s_ids, e_ids in rows:
        t_task0 = time.perf_counter()
        if kind == "root":
            t0 = time.perf_counter()
            task = g_all.spawn_task(int(s_ids[0]), rank, alive, gamma, tau_size)
            acc.materialize_time += time.perf_counter() - t0
            if task is None:
                continue
            out = run_task(task.graph, task.ids, task.s_mask, task.ext_mask,
                           gamma, tau_size, **kw)
            if collect_task_features:
                feat_rows.append(_features_row(task, out, time.perf_counter() - t_task0))
        else:
            out = _run_subtask(g_all, _ids(s_ids), _ids(e_ids), gamma, tau_size, **kw)
        stack.extend(_merge_outcome(acc, out))
    while stack and time.perf_counter() < deadline:
        s_set, ext_set = stack.pop()
        out = _run_subtask(g_all, s_set, ext_set, gamma, tau_size, **kw)
        stack.extend(_merge_outcome(acc, out))
    # A candidate strictly inside another candidate is not maximal, so
    # dropping it here never loses a global maximal set; the driver's
    # final pass removes what other partitions dominate. (maximal_only,
    # not timed_maximal_only: tracers patch the latter on the driver.)
    t0 = time.perf_counter()
    kept = maximal_only(acc.results)
    filter_t = time.perf_counter() - t0
    stat = {"mine": acc.mine_time, "mat": acc.materialize_time, "filter": filter_t,
            "drained": acc.n_subtasks - len(stack), "stats": acc.stats.__dict__}
    out_rows = [("res", list(s), None, None) for s in kept]
    out_rows += [("sub", list(s), list(e), None) for s, e in stack]
    out_rows.append(("stat", None, None, json.dumps(stat)))
    out_rows += [("feat", None, None, json.dumps(fr)) for fr in feat_rows]
    return out_rows


def run_spark(
    spark,
    gg: GlobalGraph,
    gamma,
    tau_size: int,
    *,
    strategy: str = "time",
    tau_split: int = 50,
    tau_time: float = 1.0,
    cfg: MineConfig = QUICK_PLUS,
    parallelism: int | None = None,
    prioritize_big: bool = True,
    collect_task_features: bool = False,
) -> JobResult:
    """Distributed engine (see module docstring for the mapping)."""
    sc = spark.sparkContext
    n_part = parallelism or sc.defaultParallelism
    job = JobResult()
    t_start = time.perf_counter()
    pruned, roots = spawn_all(gg, gamma, tau_size, cfg)
    job.n_root_tasks = len(roots)
    if not roots:
        job.job_time = time.perf_counter() - t_start
        return job
    alive, rank, _ = _mining_order(pruned, cfg)
    bc = sc.broadcast((pruned, alive, rank))
    kw = dict(strategy=strategy, tau_split=tau_split, tau_time=tau_time, cfg=cfg)
    gam = make_gamma(gamma)

    def mine_partition(pdf_iter):
        """mapInPandas worker: :func:`_mine_rows` over the partition's
        rows. Under A_time the partition may drain its subtasks for
        τ_time per task row it was dealt: the time its tasks were
        granted, so what they did not use goes to their children."""
        sys.setrecursionlimit(20000)
        g_all, alive, rank = bc.value
        rows = [r for pdf in pdf_iter for r in zip(pdf["kind"], pdf["s"], pdf["ext"])]
        budget = tau_time * len(rows) if strategy == "time" else 0.0
        deadline = time.perf_counter() + budget
        out_rows = _mine_rows(g_all, alive, rank, rows, gam, tau_size, deadline,
                              collect_task_features=collect_task_features, **kw)
        yield pd.DataFrame(out_rows, columns=["kind", "s", "ext", "payload"])

    # Round 0: root tasks, biggest estimated subgraphs first when
    # prioritizing. The cost of a root is its |ext| after spawn_task's
    # k-core shrink of the two-hop ego net; of a subtask, its |ext|.
    pending = pd.DataFrame({
        "kind": "root",
        "s": [[t.root] for t in roots],
        "ext": [[] for _ in roots],
        "cost": [t.ext_mask.bit_count() for t in roots],
    })
    feat_frames = []
    while not pending.empty:
        job.n_rounds += 1
        t_round = time.perf_counter()
        n_in = len(pending)
        if prioritize_big:
            pending = pending.sort_values("cost", ascending=False, kind="stable")
        tasks_df = (
            spark.createDataFrame(pending[["kind", "s", "ext"]], schema=_TASK_SCHEMA)
            .coalesce(1)  # single input partition => exact round-robin deal
            .repartition(min(n_part, max(1, len(pending))))
        )
        out_pdf = tasks_df.mapInPandas(mine_partition, schema=_ROW_SCHEMA).toPandas()
        kind = out_pdf["kind"]
        res = out_pdf["s"][kind == "res"]
        job.results.update(frozenset(_ids(s)) for s in res)
        subs = out_pdf[kind == "sub"]
        pending = pd.DataFrame({
            "kind": "sub",
            "s": [_ids(s) for s in subs["s"]],
            "ext": [_ids(e) for e in subs["ext"]],
            "cost": [len(e) for e in subs["ext"]],
        })
        drained = 0
        part_mine = []
        for payload in out_pdf["payload"][kind == "stat"]:
            st = json.loads(payload)
            drained += st["drained"]
            part_mine.append(st["mine"])
            job.mine_time += st["mine"]
            job.materialize_time += st["mat"]
            job.worker_filter_time += st["filter"]
            job.stats.merge(MineStats(**st["stats"]))
        job.n_subtasks += drained + len(pending)
        feat_frames += [json.loads(p) for p in out_pdf["payload"][kind == "feat"]]
        _log.info(
            "round %d: %d task rows in, %d subtasks drained, %d shipped, "
            "%d result rows, %.3f s wall, partition mining max %.3f / min %.3f s",
            job.n_rounds, n_in, drained, len(pending), len(res),
            time.perf_counter() - t_round, max(part_mine), min(part_mine),
        )
    bc.unpersist()
    job.maximal, job.postprocess_time = timed_maximal_only(job.results)
    job.job_time = time.perf_counter() - t_start
    if collect_task_features:
        job.task_features = pd.DataFrame(feat_frames)
    return job
