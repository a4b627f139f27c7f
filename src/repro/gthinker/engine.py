"""The redesigned G-thinker execution engine, reproduced on PySpark.

As in G-thinker, every task runs through one compute loop
(``_task_loop``). It keeps the pending task rows, the global queue
Q_global, and sorts them by estimated cost (|ext(S)|) descending before
each round, so the biggest tasks start first (big-task prioritization).
A *round executor* runs the round; inside it :func:`_mine_rows` is the
only code that runs tasks (:func:`repro.gthinker.tasks.run_task`):
after the task rows it was dealt, it pops the subtasks they spawned
LIFO (the local queue Q_local) and mines them, pushing their children,
until its deadline. What is left on its stack goes back to Q_global.
Each round leaves one :class:`RoundStats` in ``JobResult.rounds``; the
INFO log line of a round renders that record.

* :func:`run_serial` — single-threaded reference (the paper's "serial
  mining time"; also the Quick+/Quick comparison harness): the round
  runs in-process with no deadline, so one round drains every subtask.
* :func:`run_spark` — the distributed engine: a round is one RDD stage.
  The driver deals the sorted rows round-robin into n = min(parallelism,
  rows) lists (:func:`_deal`), so big tasks spread evenly across cores —
  the dataflow analogue of task stealing — and ``parallelize`` makes
  each list one partition, with no shuffle. Under A_time a partition
  drains for τ_time × (its task rows) from its start; A_base and
  A_split ship every subtask.

  The k-core-pruned input graph is shipped once per executor as a
  broadcast (the analogue of G-thinker's distributed vertex store +
  remote vertex cache: every vertex pulled at most once), together with
  the mining order computed once on the driver.

  Task rows and partition outputs cross as pickled tuples of Python
  ints, sets and dicts. As in the paper's engine, candidates stay on the
  worker that found them until it has dropped those another of its
  candidates contains; only the survivors reach the driver's final
  maximality pass. Before it returns, a partition body drops the zip
  importers from its reused Python worker's import cache
  (:func:`_drop_zip_finders`): PySpark's per-task
  ``importlib.invalidate_caches()`` would otherwise re-read the whole
  directory of ``pyspark.zip`` and the spark-core jar on every task.
"""
from __future__ import annotations

import json
import logging
import math
import sys
import time
import zipimport
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import TYPE_CHECKING

from ..core.gamma import make_gamma
from ..core.postprocess import maximal_only, timed_maximal_only
from ..core.quickplus import QUICK_PLUS, MineConfig, MineStats
from ..graphs.global_graph import GlobalGraph
from .tasks import STRATEGIES, run_task

if TYPE_CHECKING:  # pandas takes 0.5 s to import; fresh workers never need it
    import pandas as pd

__all__ = ["JobResult", "RoundStats", "run_serial", "run_spark", "spawn_all"]

_log = logging.getLogger(__name__)


@dataclass
class RoundStats:
    """One round of the task loop, as the driver saw it."""

    round: int
    rows_in: int  # task rows dealt
    drained: int  # subtasks mined on the partition that made them
    shipped: int  # subtasks left on a stack: the next round's rows
    result_rows: int  # candidates that reached the driver
    wall_s: float  # sort, dispatch and decode
    dispatch_s: float  # hand out the rows, run the partitions, collect
    decode_s: float  # merge the partitions' outputs into the job
    part_rows: list[int]  # task rows dealt to each partition, in partition order
    part_mine_s: list[float]  # mining time of each partition
    part_mat_s: list[float]  # subgraph materialization time of each partition
    part_filter_s: list[float]  # candidate filter time of each partition (serial: 0)
    part_wall_s: list[float]  # each partition body's own wall time, entry to return

    @property
    def launch_s(self) -> float:
        """Dispatch+collect time no partition body accounts for: task
        launch, shipping and collect around the slowest partition."""
        return self.dispatch_s - max(self.part_wall_s)

    def __str__(self) -> str:
        """The round's INFO log line."""
        return (
            f"round {self.round}: {self.rows_in} task rows in, "
            f"{self.drained} subtasks drained, {self.shipped} shipped, "
            f"{self.result_rows} result rows, {self.wall_s:.3f} s wall, "
            f"partition mining max {max(self.part_mine_s):.3f} / "
            f"min {min(self.part_mine_s):.3f} s, "
            f"driver dispatch+collect {self.dispatch_s:.3f} / decode {self.decode_s:.3f} s, "
            f"launch {self.launch_s:.3f} s"
        )


@dataclass
class JobResult:
    """Everything the evaluation tables need from one job."""

    results: set[frozenset[int]] = field(default_factory=set)
    maximal: set[frozenset[int]] = field(default_factory=set)
    job_time: float = 0.0
    spawn_time: float = 0.0  # driver: preprocess, mining order and root tasks
    mine_time: float = 0.0  # sum of per-task mining time
    materialize_time: float = 0.0  # sum of subtask-subgraph build time
    # Spark path: ``results`` holds the candidates that survived each
    # partition's maximality filter (timed in ``worker_filter_time``),
    # and ``postprocess_time`` is the driver's final pass alone.
    postprocess_time: float = 0.0
    worker_filter_time: float = 0.0  # sum of per-partition filter time
    n_root_tasks: int = 0
    n_subtasks: int = 0  # every subtask created, drained on a worker or shipped
    rounds: list[RoundStats] = field(default_factory=list)
    stats: MineStats = field(default_factory=MineStats)
    task_features: pd.DataFrame | None = None  # Tables 1–2 per-task rows

    @property
    def n_rounds(self) -> int:
        """Serial path: 1 whenever there are root tasks."""
        return len(self.rounds)

    @property
    def n_results(self) -> int:
        return len(self.results)

    @property
    def n_maximal(self) -> int:
        return len(self.maximal)

    def to_json(self) -> str:
        """The job record: job-level counters and times, the miner's
        phase counters and one dict per round, without the result sets."""
        rec = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("results", "maximal", "stats", "rounds", "task_features")}
        rec.update(n_rounds=self.n_rounds, n_results=self.n_results,
                   n_maximal=self.n_maximal, stats=asdict(self.stats),
                   rounds=[asdict(r) for r in self.rounds])
        return json.dumps(rec)


def spawn_all(
    gg: GlobalGraph, gamma, tau_size: int, cfg: MineConfig = QUICK_PLUS
):
    """Preprocess ((P2) k-core + two-hop-size prune), compute the
    mining order (degenerate (P7) recoding when enabled) and build all
    root tasks. Returns (pruned GlobalGraph, list[SpawnTask]); the
    pruned graph's ``order`` holds the mining order's (alive, rank), so
    the task loop does not compute it again.

    Raises ``ValueError`` for γ < 0.5: the (P1) two-hop shrink assumes
    a quasi-clique has diameter ≤ 2, which only holds for γ ≥ 0.5. Also
    for τ_size < 2: a vertex with no edge is then a maximal result, but
    tasks spawn only from vertices that have one."""
    gam = make_gamma(gamma)
    if 2 * gam.num < gam.den:
        raise ValueError(f"gamma must be >= 0.5, got {gam.value}")
    if tau_size < 2:
        raise ValueError(f"tau_size must be >= 2, got {tau_size}")
    pruned = gg.pruned_subgraph(gam, tau_size)
    alive, rank, skip = _mining_order(pruned, cfg)
    pruned.order = alive, rank
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


def _deal(rows: list, n: int) -> list[list]:
    """Deal ``rows`` round-robin into ``n`` slots: row i goes to slot
    i mod n, at position i // n. On cost-sorted rows every slot gets
    one of the n biggest tasks, then one of the next n, and so on."""
    return [rows[j::n] for j in range(n)]


def _drop_zip_finders() -> None:
    """Forget every zip importer in ``sys.path_importer_cache``. Call it
    only at the end of a Spark partition body: PySpark runs
    ``importlib.invalidate_caches()`` before each task, and a cached
    ``zipimporter`` then re-reads its archive's whole directory. The
    entries are deleted, not set to None (None means "no finder here");
    an import that needs one again rebuilds it from
    ``zipimport._zip_directory_cache`` without reading the archive."""
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def _mine_rows(
    g_all: GlobalGraph, alive, rank, rows, gamma, tau_size: int,
    deadline: float, *, collect_task_features: bool = False, **kw,
) -> tuple[set, list, dict, list]:
    """One partition's work in a round: run the ``(kind, s, ext)`` task
    rows it was dealt, then drain its own subtasks (Q_local) LIFO until
    ``deadline`` (a ``perf_counter`` time) has passed. Returns the
    candidates found, the ``(S, ext)`` subtasks still on its stack, a
    stats dict and the feature rows.

    Root rows carry only the spawn vertex id; the ego-net task subgraph
    is rebuilt from ``g_all`` (counted as materialization, like
    G-thinker's frontier pulls)."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    acc = JobResult()  # accumulates this partition's outcomes
    stack: list[tuple[frozenset, frozenset]] = []
    feat_rows = []
    for kind, s_ids, e_ids in rows:
        t_task0 = time.perf_counter()
        if kind == "root":
            t0 = time.perf_counter()
            task = g_all.spawn_task(s_ids[0], rank, alive, gamma, tau_size)
            acc.materialize_time += time.perf_counter() - t0
            if task is None:
                continue
            out = run_task(task.graph, task.ids, task.s_mask, task.ext_mask,
                           gamma, tau_size, **kw)
            if collect_task_features:
                feat_rows.append(_features_row(task, out, time.perf_counter() - t_task0))
        else:
            out = _run_subtask(g_all, s_ids, e_ids, gamma, tau_size, **kw)
        stack.extend(_merge_outcome(acc, out))
    while stack and time.perf_counter() < deadline:
        s_set, ext_set = stack.pop()
        out = _run_subtask(g_all, s_set, ext_set, gamma, tau_size, **kw)
        stack.extend(_merge_outcome(acc, out))
    stat = {"rows": len(rows), "mine": acc.mine_time, "mat": acc.materialize_time,
            "drained": acc.n_subtasks - len(stack), "stats": acc.stats.__dict__}
    return acc.results, stack, stat, feat_rows


def _task_loop(gg: GlobalGraph, gamma, tau_size: int, rounds, *, strategy: str,
               cfg: MineConfig, collect_task_features: bool, **kw) -> JobResult:
    """The task loop both engines share. ``rounds(graph, mine)`` is a
    context manager yielding the round executor: given a round's sorted
    ``(kind, s, ext)`` rows, it runs ``mine(*graph, rows, deadline=...)``,
    i.e. :func:`_mine_rows`, on them and returns one ``(candidates,
    (S, ext) subtasks left, stats dict, feature rows)`` tuple per
    partition, in partition order."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    job = JobResult()
    t_start = time.perf_counter()
    pruned, roots = spawn_all(gg, gamma, tau_size, cfg)
    job.spawn_time = time.perf_counter() - t_start
    job.n_root_tasks = len(roots)
    alive, rank = pruned.order
    mine = partial(_mine_rows, gamma=make_gamma(gamma), tau_size=tau_size, strategy=strategy,
                   cfg=cfg, collect_task_features=collect_task_features, **kw)
    # Q_global: (cost, kind, s, ext) rows, biggest cost first. Round 0
    # holds the roots; a root's cost is its |ext| after spawn_task's
    # k-core shrink of the two-hop ego net, a subtask's is its |ext|.
    pending = [(t.ext_mask.bit_count(), "root", [t.root], []) for t in roots]
    feats = []
    with rounds((pruned, alive, rank), mine) as run_round:
        while pending:
            t_round = time.perf_counter()
            pending.sort(key=lambda row: row[0], reverse=True)  # stable
            t_dispatch = time.perf_counter()
            parts = run_round([row[1:] for row in pending])
            t_decode = time.perf_counter()
            subs, part_stats = [], []
            n_cands = 0
            for cands, stack, st, feat_rows in parts:
                job.results.update(cands)
                n_cands += len(cands)
                subs += stack
                part_stats.append(st)
                feats += feat_rows
                job.mine_time += st["mine"]
                job.materialize_time += st["mat"]
                job.worker_filter_time += st["filter"]
                job.stats.merge(MineStats(**st["stats"]))
            drained = sum(st["drained"] for st in part_stats)
            job.n_subtasks += drained + len(subs)
            t_end = time.perf_counter()
            rec = RoundStats(
                round=job.n_rounds + 1, rows_in=len(pending), drained=drained,
                shipped=len(subs), result_rows=n_cands, wall_s=t_end - t_round,
                dispatch_s=t_decode - t_dispatch, decode_s=t_end - t_decode,
                part_rows=[st["rows"] for st in part_stats],
                part_mine_s=[st["mine"] for st in part_stats],
                part_mat_s=[st["mat"] for st in part_stats],
                part_filter_s=[st["filter"] for st in part_stats],
                part_wall_s=[st["wall"] for st in part_stats],
            )
            job.rounds.append(rec)
            _log.info("%s", rec)
            pending = [(len(e), "sub", s, e) for s, e in subs]
    job.maximal, job.postprocess_time = timed_maximal_only(job.results)
    job.job_time = time.perf_counter() - t_start
    if collect_task_features:
        import pandas as pd

        job.task_features = pd.DataFrame(feats)
    return job


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
    """Single-threaded engine: the shared task loop with its round run
    in-process, with no deadline and no candidate filter. So one round
    drains every subtask LIFO and ``results`` holds every candidate.
    Ground truth for the distributed runs."""

    def in_process(graph, mine):
        def run_round(rows):
            t0 = time.perf_counter()
            out = mine(*graph, rows, deadline=math.inf)
            out[2].update(filter=0.0, wall=time.perf_counter() - t0)
            return [out]

        return nullcontext(run_round)

    return _task_loop(gg, gamma, tau_size, in_process, strategy=strategy,
                      tau_split=tau_split, tau_time=tau_time, cfg=cfg,
                      collect_task_features=collect_task_features)


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
    collect_task_features: bool = False,
) -> JobResult:
    """Distributed engine (see module docstring for the mapping). Each
    partition body ends by dropping its worker's zip importers, so the
    next task's ``importlib.invalidate_caches()`` re-reads no archive."""
    sc = spark.sparkContext
    n_part = parallelism or sc.defaultParallelism

    @contextmanager
    def on_spark(graph, mine):
        bc = sc.broadcast(graph)

        def mine_partition(rows):
            """One partition's one element: the rows dealt to it. Under
            A_time it drains for the time they were granted and did not use."""
            t_entry = time.perf_counter()
            budget = tau_time * len(rows) if strategy == "time" else 0.0
            deadline = time.perf_counter() + budget
            cands, stack, stat, feat_rows = mine(*bc.value, rows, deadline=deadline)
            # A candidate strictly inside another candidate is not
            # maximal, so dropping it here never loses a global maximal
            # set; the driver's final pass removes what other partitions
            # dominate. (maximal_only, not timed_maximal_only: tracers
            # patch the latter on the driver.)
            t0 = time.perf_counter()
            kept = maximal_only(cands)
            stat["filter"] = time.perf_counter() - t0
            _drop_zip_finders()
            stat["wall"] = time.perf_counter() - t_entry
            return kept, stack, stat, feat_rows

        def run_round(rows):
            n = min(n_part, len(rows))
            # n lists into n slices: parallelize keeps each list whole
            # as its partition's one element, so the deal is exact.
            return sc.parallelize(_deal(rows, n), n).map(mine_partition).collect()

        try:
            yield run_round
        finally:
            bc.unpersist()

    return _task_loop(gg, gamma, tau_size, on_spark, strategy=strategy,
                      tau_split=tau_split, tau_time=tau_time, cfg=cfg,
                      collect_task_features=collect_task_features)
