"""Tables 1 & 2 — features of the top-10 most expensive tasks.

Times every A_base root task serially (:func:`task_features`: its
subgraph features and the time to build and mine it), fits the
regression model of :mod:`repro.analysis.regression` on *all* tasks,
and reports the 10 longest-running tasks with their predicted times —
showing, as the paper does, that the predictions are way off for
stragglers.
"""
from __future__ import annotations

import sys
import time

import pandas as pd

from ..analysis.regression import fit_predict_task_times
from ..core.gamma import make_gamma
from ..graphs.global_graph import GlobalGraph
from ..gthinker.engine import spawn_all
from ..gthinker.tasks import run_task
from .common import cached_dataset, print_table

COLUMNS = ["num_vertices", "num_edges", "max_degree", "avg_degree",
           "core_number", "task_time_ms", "predicted_ms"]


def _features(task, n_results: int, elapsed: float) -> dict:
    """Per-task subgraph features of Tables 1–2."""
    g = task.graph
    degs = [g.degree(v) for v in range(g.n) if g.adj[v]]
    n_v = len(degs)
    n_e = sum(degs) // 2
    core = 0
    while g.kcore_mask(core + 1):
        core += 1
    return {
        "num_vertices": n_v,
        "num_edges": n_e,
        "max_degree": max(degs, default=0),
        "avg_degree": (2 * n_e / n_v) if n_v else 0.0,
        "core_number": core,
        "task_time_ms": elapsed * 1000.0,
        "n_results": n_results,
    }


def task_features(gg: GlobalGraph, gamma, tau_size: int) -> pd.DataFrame:
    """One row per A_base root task of ``gg``, biggest spawn cost first:
    its root (an input id), its subgraph's features and the time to build
    it (:meth:`GlobalGraph.spawn_task`) and mine it whole
    (:func:`run_task`), in this thread. A root whose task prunes away
    has no row."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    gam = make_gamma(gamma)
    pruned, spawned = spawn_all(gg, gam, tau_size)
    rows = []
    # the engines' order, biggest first: the regression's CV folds depend on row order
    for v, _ in sorted(spawned, key=lambda r: r[1], reverse=True):
        t0 = time.perf_counter()
        task = pruned.spawn_task(v, gam, tau_size)
        if task is None:
            continue
        out = run_task(task.graph, task.ids, task.s_mask, task.ext_mask, gam, tau_size,
                       strategy="base")
        elapsed = time.perf_counter() - t0
        rows.append({"root": pruned.labels[v], **_features(task, len(out.results), elapsed)})
    return pd.DataFrame(rows)


def run(spark=None, dataset: str = "YouTube", top_n: int = 10,
        gamma: float | None = None) -> pd.DataFrame:
    """``spark`` is unused: an A_base root task is the same work on
    either engine, and is timed serially."""
    gg, spec = cached_dataset(dataset)
    gam = spec.gamma if gamma is None else gamma
    fitted = fit_predict_task_times(task_features(gg, gam, spec.tau_size))
    top = fitted.nlargest(top_n, "task_time_ms").sort_values("task_time_ms")
    out = top[COLUMNS].reset_index(drop=True)
    table_no = 1 if dataset == "YouTube" else 2
    print_table(
        f"Table {table_no}: top-{top_n} most expensive tasks on {dataset} "
        f"(gamma={gam}, tau_size={spec.tau_size})",
        out,
    )
    return out
