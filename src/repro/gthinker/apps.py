"""Table 4 workloads on the task engine: TC, MCF, GM.

Each workload is the paper's per-vertex divide-and-conquer task shape:
a task spawned from v works on v's (1- or 2-hop) ego neighbourhood
restricted to higher ids, so every triangle / clique / pattern match is
counted exactly once. Tasks run inside ``mapInPandas`` against a
broadcast adjacency (the G-thinker vertex-store analogue), with the
same big-task-first scheduling knob as the quasi-clique engine
(``prioritize_big``): the redesigned engine sorts spawn vertices by
degree descending; the old engine takes them in arbitrary id order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pandas as pd

from ..core.bitset import bits, mask_of
from ..core.maxclique import max_clique
from ..graphs.global_graph import GlobalGraph

__all__ = ["AppResult", "run_app_spark", "run_app_serial"]


@dataclass
class AppResult:
    value: int  # count, or max clique size
    job_time: float
    n_tasks: int


# ------------------------------------------------------------ kernels
def _triangles_at(gg: GlobalGraph, v: int) -> int:
    """#{triangles whose smallest vertex is v}."""
    total = 0
    nbrs = [u for u in gg.adj[v] if u > v]
    nbr_set = set(nbrs)
    for u in nbrs:
        total += sum(1 for w in gg.adj[u] if w > u and w in nbr_set)
    return total


def _max_clique_at(gg: GlobalGraph, v: int) -> int:
    """Size of the largest clique whose smallest vertex is v."""
    cand = sorted(u for u in gg.adj[v] if u > v)
    if not cand:
        return 1
    g, ids = gg.induce_local(set(cand) | {v})
    pos = {u: i for i, u in enumerate(ids)}
    within = mask_of(pos[u] for u in cand)
    # v is adjacent to every candidate, so clique(v-ego)+1
    best = max_clique(g, within & g.adj[pos[v]])
    return best.bit_count() + 1


def _squares_at(gg: GlobalGraph, v: int) -> int:
    """#{4-cycles a-b-c-d whose smallest vertex is v}: choose neighbours
    b < d of v, count common neighbours c > v distinct from v."""
    nbrs = sorted(u for u in gg.adj[v] if u > v)
    total = 0
    for i, b in enumerate(nbrs):
        for d in nbrs[i + 1:]:
            common = gg.adj[b] & gg.adj[d]
            total += sum(1 for c in common if c > v and c != v)
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
    verts = [v for v in range(gg.n) if gg.adj[v]]
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
    """One round of per-vertex tasks over mapInPandas + broadcast graph."""
    kernel, combine = _APP_KERNELS[app], _APP_COMBINE[app]
    sc = spark.sparkContext
    n_part = parallelism or sc.defaultParallelism
    t0 = time.perf_counter()
    verts = [v for v in range(gg.n) if gg.adj[v]]
    if not verts:
        return AppResult(0, time.perf_counter() - t0, 0)
    if prioritize_big:
        verts.sort(key=lambda v: -len(gg.adj[v]))
    bc = sc.broadcast(gg)

    def work(pdf_iter):
        g_all: GlobalGraph = bc.value
        for pdf in pdf_iter:
            vals = [kernel(g_all, int(v)) for v in pdf["v"]]
            yield pd.DataFrame({"val": [combine(vals) if vals else 0]})

    df = (
        spark.createDataFrame(pd.DataFrame({"v": verts}))
        .coalesce(1)
        .repartition(min(n_part, len(verts)))
    )
    parts = df.mapInPandas(work, schema="val long").toPandas()
    value = combine(parts["val"].tolist()) if len(parts) else 0
    bc.unpersist()
    return AppResult(value=int(value), job_time=time.perf_counter() - t0,
                     n_tasks=len(verts))
