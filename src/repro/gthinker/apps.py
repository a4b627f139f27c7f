"""Table 4 workloads on the task engine: TC, MCF, GM.

Each workload is the paper's per-vertex divide-and-conquer task shape:
a task spawned from v works on v's (1- or 2-hop) ego neighbourhood
restricted to higher ids, so every triangle / clique / pattern match is
counted exactly once. On Spark the spawn vertices are the rows of the
mining engine's stage (:func:`repro.gthinker.qglobal.run_stage`), run
against a broadcast adjacency. Table 4's two engines differ only in the
row order (``prioritize_big``): the redesigned engine sorts spawn
vertices by degree descending; the old engine takes them in id order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.maxclique import max_clique
from ..graphs.global_graph import GlobalGraph
from .qglobal import run_stage

__all__ = ["AppResult", "run_app_spark", "run_app_serial"]


@dataclass
class AppResult:
    value: int  # count, or max clique size
    job_time: float
    n_tasks: int


# ------------------------------------------------------------ kernels
def _triangles_at(gg: GlobalGraph, v: int) -> int:
    """#{triangles whose smallest vertex is v}."""
    adj = gg.adj
    total = 0
    nbrs = [u for u in adj[v] if u > v]
    nbr_set = set(nbrs)
    for u in nbrs:
        total += sum(1 for w in adj[u] if w > u and w in nbr_set)
    return total


def _max_clique_at(gg: GlobalGraph, v: int) -> int:
    """Size of the largest clique whose smallest vertex is v."""
    cand = [u for u in gg.adj[v] if u > v]
    if not cand:
        return 1
    task = gg.task([v], cand)
    # v is adjacent to every candidate, so clique(v-ego)+1
    best = max_clique(task.graph, task.ext_mask)
    return best.bit_count() + 1


def _squares_at(gg: GlobalGraph, v: int) -> int:
    """#{4-cycles a-b-c-d whose smallest vertex is v}: choose neighbours
    b < d of v, count common neighbours c > v distinct from v."""
    adj = gg.adj
    nbrs = [u for u in adj[v] if u > v]  # ascending: adj[v] is sorted
    total = 0
    for i, b in enumerate(nbrs):
        nb = set(adj[b])
        for d in nbrs[i + 1:]:
            total += sum(1 for c in nb.intersection(adj[d]) if c > v)
    return total


_APP_KERNELS = {
    "tc": _triangles_at,
    "mcf": _max_clique_at,
    "gm": _squares_at,
}
_APP_COMBINE = {"tc": sum, "mcf": max, "gm": sum}


# ------------------------------------------------------------ drivers
def run_app_serial(gg: GlobalGraph, app: str) -> AppResult:
    kernel, combine = _APP_KERNELS[app], _APP_COMBINE[app]
    t0 = time.perf_counter()
    verts = gg.vertices()
    vals = [kernel(gg, v) for v in verts]
    value = combine(vals) if vals else 0
    return AppResult(value=int(value), job_time=time.perf_counter() - t0,
                     n_tasks=len(verts))


def run_app_spark(
    spark,
    gg: GlobalGraph,
    app: str,
    *,
    parallelism: int | None = None,
    prioritize_big: bool = True,
) -> AppResult:
    """One stage of per-vertex tasks; a partition combines the kernel
    values of the vertex ids it pulls, if any."""
    kernel, combine = _APP_KERNELS[app], _APP_COMBINE[app]
    t0 = time.perf_counter()
    verts = gg.vertices()
    if not verts:
        return AppResult(0, time.perf_counter() - t0, 0)
    if prioritize_big:
        verts.sort(key=lambda v: -gg.degree(v))

    def work(g_all: GlobalGraph, queue) -> list[int]:
        vals = []
        while vs := queue.pull():
            vals += [kernel(g_all, v) for v in vs]
        return [combine(vals)] if vals else []

    parts = run_stage(spark, parallelism, gg, verts, work)
    value = combine([v for vals, _ in parts for v in vals])
    return AppResult(value=int(value), job_time=time.perf_counter() - t0,
                     n_tasks=len(verts))
