"""The redesigned G-thinker execution engine, reproduced on PySpark.

As in G-thinker, every task runs through one compute loop
(``_task_loop``). It lists the spawn vertices with an estimated cost,
sorts them biggest first (big-task prioritization) and hands them to a
*stage executor*; inside it :func:`_mine_rows` is the only code that runs
tasks (:func:`repro.gthinker.tasks.run_task`). It pulls task rows from a
queue, builds each task where it runs (a root task or a subtask, through
the one builder in :mod:`repro.graphs.global_graph`), mines it, and
pushes the subtasks a τ_time timeout or a τ_split split creates back to
the queue.
A job is one stage over a :class:`repro.gthinker.qglobal.QGlobal`; it
leaves one :class:`StageStats` in ``JobResult.stage``, and the INFO log
line of the job renders it. Both engines run the stage through the same
executor contract, and differ only in the executor:

* :func:`run_serial` — single-threaded reference (the paper's "serial
  mining time"; also the Quick+/Quick comparison harness): the stage is
  one partition run in-process
  (:func:`repro.gthinker.qglobal.run_in_process`), so its queue serves
  the root rows first, then every subtask LIFO (Q_local).
* :func:`run_spark` — the distributed engine: one RDD stage whose
  partitions pull from a Q_global the driver holds
  (:func:`repro.gthinker.qglobal.run_stage`). It deals the sorted rows
  round-robin, so big tasks spread evenly across cores, and serves each
  subtask to the next idle partition as soon as it is created (task
  stealing).

  The pruned input graph is shipped once per executor as a broadcast
  (the analogue of G-thinker's distributed vertex store + remote vertex
  cache: every vertex pulled at most once). Its vertex ids are the
  mining order the driver computed once (Section 7's ID recoding), so
  nothing else travels with it; the driver maps candidates back to
  input ids through its ``labels``.

  As in the paper's engine, candidates stay on the worker that found
  them until it has dropped those another of its candidates contains;
  only the survivors reach the driver's final maximality pass, in the
  stage's one ``collect``.
"""
from __future__ import annotations

import json
import logging
import sys
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from functools import partial

from ..core.gamma import make_gamma, make_mining_gamma
from ..core.postprocess import maximal_only, timed_maximal_only
from ..core.quickplus import MineStats
from ..graphs.global_graph import GlobalGraph
from .qglobal import ROOT, run_in_process, run_stage
from .tasks import STRATEGIES, run_task

__all__ = ["JobResult", "StageStats", "run_serial", "run_spark", "spawn_all"]

_log = logging.getLogger(__name__)


@dataclass
class StageStats:
    """The one stage of a job with spawn rows, as the driver saw it."""

    rows_in: int  # spawn rows the driver dealt
    result_rows: int  # candidates that reached the driver
    wall_s: float  # sort, dispatch and decode
    dispatch_s: float  # hand out the rows, run the partitions, collect
    decode_s: float  # merge the partitions' outputs into the job
    # Per partition, in partition order:
    part_rows: list[int]  # rows run: its own list, pulled subtasks, rows of other lists
    part_pulls: list[int]  # pulls made, the last of them answered "stop"
    part_wait_s: list[float]  # time blocked in a pull
    part_mine_s: list[float]  # mining time
    part_mat_s: list[float]  # subgraph materialization time
    part_filter_s: list[float]  # candidate filter time (serial: 0)
    part_wall_s: list[float]  # the partition body's own wall time, entry to return

    @property
    def launch_s(self) -> float:
        """Dispatch+collect time no partition body accounts for: task
        launch, shipping and collect around the slowest partition."""
        return self.dispatch_s - max(self.part_wall_s)

    def __str__(self) -> str:
        """The stage's INFO log line."""
        return (
            f"stage: {self.rows_in} task rows in, "
            f"{sum(self.part_rows) - self.rows_in} subtasks run, "
            f"{self.result_rows} result rows, {self.wall_s:.3f} s wall, "
            f"partition mining max {max(self.part_mine_s):.3f} / "
            f"min {min(self.part_mine_s):.3f} s, "
            f"{sum(self.part_pulls)} pulls, wait max {max(self.part_wait_s):.3f} / "
            f"min {min(self.part_wait_s):.3f} s, "
            f"driver dispatch+collect {self.dispatch_s:.3f} / decode {self.decode_s:.3f} s, "
            f"launch {self.launch_s:.3f} s"
        )


@dataclass
class JobResult:
    """Everything the evaluation tables need from one job."""

    results: set[frozenset[int]] = field(default_factory=set)  # input ids
    maximal: set[frozenset[int]] = field(default_factory=set)
    job_time: float = 0.0
    spawn_time: float = 0.0  # driver: preprocess, mining order and spawn rows
    mine_time: float = 0.0  # sum of per-task mining time
    materialize_time: float = 0.0  # sum of subtask-subgraph build time
    # Spark path: ``results`` holds the candidates that survived each
    # partition's maximality filter (timed in ``worker_filter_time``),
    # and ``postprocess_time`` is the driver's final pass alone.
    postprocess_time: float = 0.0
    worker_filter_time: float = 0.0  # sum of per-partition filter time
    n_root_tasks: int = 0  # root tasks built (a spawn row's task may prune away)
    # the pruned graph's size (Table 3(b)): vertices with an edge, and edges
    n_pruned_vertices: int = 0
    n_pruned_edges: int = 0
    stage: StageStats | None = None
    stats: MineStats = field(default_factory=MineStats)

    @property
    def n_rounds(self) -> int:
        """1 whenever there are spawn rows, on either engine."""
        return int(self.stage is not None)

    @property
    def n_subtasks(self) -> int:
        """Every subtask created, on whichever partition."""
        return self.stats.n_subtasks

    @property
    def n_results(self) -> int:
        return len(self.results)

    @property
    def n_maximal(self) -> int:
        return len(self.maximal)

    def to_json(self) -> str:
        """The job record: job-level counters and times, the miner's
        phase counters and the stage record, without the result sets."""
        rec = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("results", "maximal", "stats", "stage")}
        rec.update(n_rounds=self.n_rounds, n_subtasks=self.n_subtasks,
                   n_results=self.n_results, n_maximal=self.n_maximal,
                   stats=asdict(self.stats),
                   stage=asdict(self.stage) if self.stage else None)
        return json.dumps(rec)


def spawn_all(gg: GlobalGraph, gamma, tau_size: int, quick_plus: bool = True):
    """Preprocess ((P2) k-core + two-hop-size prune), order the kept
    vertices for mining (degenerate (P7) order under Quick+) and list the
    spawn vertices. Returns (pruned GlobalGraph, spawn rows).

    The pruned graph is recoded into the mining order: its vertex i is
    the i-th of :meth:`GlobalGraph.mining_order`, ``labels[i]`` its input
    id. The rows are one ``(v, cost)`` per vertex, in mining order, that
    (P7) does not skip and that passes :meth:`GlobalGraph.spawn_task`'s
    first test, at least k = ⌈γ(τ_size − 1)⌉ neighbours. The cost is v's
    number of neighbours with a higher id. The root task itself is built
    where it runs (:func:`_mine_rows`), and may still prune away.

    Raises ``ValueError`` for γ < 0.5: the (P1) two-hop shrink assumes
    a quasi-clique has diameter ≤ 2, which only holds for γ ≥ 0.5. Also
    for τ_size < 2: a vertex with no edge is then a maximal result, but
    tasks spawn only from vertices that have one."""
    gam = make_mining_gamma(gamma)
    if tau_size < 2:
        raise ValueError(f"tau_size must be >= 2, got {tau_size}")
    pruned = gg.pruned_subgraph(gam, tau_size)
    pruned = pruned.subgraph(pruned.mining_order(quick_plus))
    # (P7) degenerate rule: subsets of N(v_max), the last ids, cannot be maximal
    n_spawn = pruned.n - (pruned.degree(0) if quick_plus and pruned.n else 0)
    k = gam.ceil_mul(tau_size - 1)
    p, idx = pruned.indptr, pruned.indices
    rows = [(v, p[v + 1] - bisect_right(idx, v, p[v], p[v + 1]))  # sorted slice: ids above v
            for v in range(n_spawn) if p[v + 1] - p[v] >= k]
    return pruned, rows


def _mine_rows(g_all: GlobalGraph, queue, gamma, tau_size: int, **kw) -> tuple[set, dict]:
    """One partition's work: pull ``[kind, S ids, ext ids]`` task rows
    from ``queue`` until a pull returns none, run each, and push the
    ``(S, ext)`` subtasks each one creates back to ``queue`` at once.
    Returns the candidates found, in ``g_all``'s ids, and a stats dict.

    Every row takes one path: build its task from ``g_all``, then
    :func:`run_task`. A root row carries only the spawn vertex id, and
    :meth:`GlobalGraph.spawn_task` builds its ego-net task; a subtask
    row's task comes from :meth:`GlobalGraph.task`. Either build counts
    as materialization, like G-thinker's frontier pulls."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    results: set = set()
    stats = MineStats()
    n_rows = n_roots = n_pulls = 0
    wait = mine = mat = 0.0
    while True:
        t0 = time.perf_counter()
        rows = queue.pull()
        wait += time.perf_counter() - t0
        n_pulls += 1
        if not rows:
            break
        n_rows += len(rows)
        for kind, s_ids, e_ids in rows:
            t_task0 = time.perf_counter()
            task = (g_all.spawn_task(s_ids[0], gamma, tau_size) if kind == ROOT
                    else g_all.task(s_ids, e_ids))
            mat += time.perf_counter() - t_task0
            if task is None:
                continue  # the root task pruned away
            out = run_task(task.graph, task.ids, task.s_mask, task.ext_mask,
                           gamma, tau_size, **kw)
            if task.root is not None:
                n_roots += 1
            results.update(out.results)
            mine += out.mine_time
            mat += out.materialize_time
            stats.merge(out.stats)
            if out.subtasks:
                queue.push(out.subtasks)
    stat = {"rows": n_rows, "roots": n_roots, "pulls": n_pulls, "wait": wait,
            "mine": mine, "mat": mat, "filter": 0.0, "stats": stats.__dict__}
    return results, stat


def _mine_and_filter(mine, graph, queue) -> tuple[set, dict]:
    """A Spark partition's body: ``mine(graph, queue)``, then drop the
    candidates another of them contains, which are not maximal. (Not
    timed_maximal_only: tracers patch that on the driver.)"""
    cands, stat = mine(graph, queue)
    t0 = time.perf_counter()
    kept = maximal_only(cands)
    stat["filter"] = time.perf_counter() - t0
    return kept, stat


def _task_loop(gg: GlobalGraph, gamma, tau_size: int, executor, *, strategy: str,
               quick_plus: bool = True, **kw) -> JobResult:
    """The task loop both engines share. ``executor(graph, rows, mine)``
    runs the job's one stage over a :class:`repro.gthinker.qglobal.QGlobal`
    of the sorted ``rows``: ``mine(graph, queue)``, i.e. :func:`_mine_rows`
    (on Spark with the worker filter around it), in every partition. It
    returns ``((candidates, stats dict), wall seconds)`` per partition,
    in partition order. ``graph`` is the pruned graph, in mining-order
    ids; the loop maps candidates back to input ids."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    job = JobResult()
    t_start = time.perf_counter()
    pruned, spawned = spawn_all(gg, gamma, tau_size, quick_plus)
    job.spawn_time = time.perf_counter() - t_start
    job.n_pruned_vertices, job.n_pruned_edges = pruned.n, pruned.num_edges()
    mine = partial(_mine_rows, gamma=make_gamma(gamma), tau_size=tau_size, strategy=strategy,
                   quick_plus=quick_plus, **kw)
    if spawned:
        t_round = time.perf_counter()
        # big-task prioritization: biggest cost first (stable)
        rows = [[ROOT, [v], []] for v, _ in sorted(spawned, key=lambda r: r[1], reverse=True)]
        t_dispatch = time.perf_counter()
        parts = executor(pruned, rows, mine)
        t_decode = time.perf_counter()
        part_stats = []
        n_cands = 0
        labels = pruned.labels
        for (cands, st), wall in parts:
            st["wall"] = wall
            n_cands += len(cands)
            while cands:  # popped, so each candidate is held in one id space at a time
                job.results.add(frozenset(map(labels.__getitem__, cands.pop())))
            part_stats.append(st)
            job.n_root_tasks += st["roots"]
            job.mine_time += st["mine"]
            job.materialize_time += st["mat"]
            job.worker_filter_time += st["filter"]
            job.stats.merge(MineStats(**st["stats"]))
        t_end = time.perf_counter()
        job.stage = StageStats(
            rows_in=len(rows), result_rows=n_cands, wall_s=t_end - t_round,
            dispatch_s=t_decode - t_dispatch, decode_s=t_end - t_decode,
            part_rows=[st["rows"] for st in part_stats],
            part_pulls=[st["pulls"] for st in part_stats],
            part_wait_s=[st["wait"] for st in part_stats],
            part_mine_s=[st["mine"] for st in part_stats],
            part_mat_s=[st["mat"] for st in part_stats],
            part_filter_s=[st["filter"] for st in part_stats],
            part_wall_s=[st["wall"] for st in part_stats],
        )
        _log.info("%s", job.stage)
    job.maximal, job.postprocess_time = timed_maximal_only(job.results)
    job.job_time = time.perf_counter() - t_start
    return job


def run_serial(
    gg: GlobalGraph,
    gamma,
    tau_size: int,
    *,
    strategy: str = "base",
    tau_split: int = 50,
    tau_time: float = 1.0,
    quick_plus: bool = True,
) -> JobResult:
    """Single-threaded engine: the shared task loop with its stage run
    in-process as one partition of a Q_global
    (:func:`repro.gthinker.qglobal.run_in_process`) and no candidate
    filter. So ``results`` holds every candidate. Ground truth for the
    distributed runs. ``quick_plus=False`` mines with Quick (Table 15)."""
    return _task_loop(gg, gamma, tau_size, run_in_process, strategy=strategy,
                      tau_split=tau_split, tau_time=tau_time, quick_plus=quick_plus)


def run_spark(
    spark,
    gg: GlobalGraph,
    gamma,
    tau_size: int,
    *,
    strategy: str = "time",
    tau_split: int = 50,
    tau_time: float = 1.0,
    parallelism: int | None = None,
) -> JobResult:
    """Distributed engine (see module docstring for the mapping): one
    stage of n partitions that pull from a Q_global served on
    ``spark.driver.host`` (:func:`repro.gthinker.qglobal.run_stage`, which
    raises ``RuntimeError`` if a partition lost its connection while it
    held rows, and refuses ``spark.speculation``)."""
    def on_spark(graph, rows, mine):
        return run_stage(spark, parallelism, graph, rows, partial(_mine_and_filter, mine))

    return _task_loop(gg, gamma, tau_size, on_spark, strategy=strategy,
                      tau_split=tau_split, tau_time=tau_time)
