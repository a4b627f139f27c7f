"""Task-level execution shared by the serial and Spark engines.

A *task* is ⟨S, ext(S)⟩ plus the compact subgraph induced by S ∪ ext(S)
(Section 3), as :meth:`repro.graphs.global_graph.GlobalGraph.task` or
``spawn_task`` builds it. ``run_task`` mines one task with one call of
:meth:`repro.core.quickplus.Miner.mine`; the paper's three strategies
differ only in its deadline. It reports results, child subtasks (in
the ids ``ids`` maps compact ids to), mining time and
subgraph-materialization time — the two quantities Tables 12–14
compare.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..core.bitset import bits
from ..core.gamma import Gamma
from ..core.graph import LocalGraph
from ..core.quickplus import Miner, MineStats

__all__ = ["TaskOutcome", "run_task", "STRATEGIES"]

STRATEGIES = ("base", "split", "time")


@dataclass
class TaskOutcome:
    """What one task produced."""

    results: list[frozenset[int]] = field(default_factory=list)  # in ``ids``
    subtasks: list[tuple[frozenset[int], frozenset[int]]] = field(
        default_factory=list
    )  # (S, ext) in ``ids``
    mine_time: float = 0.0
    materialize_time: float = 0.0
    stats: MineStats = field(default_factory=MineStats)


def run_task(
    graph: LocalGraph,
    ids: list[int],
    s_mask: int,
    ext_mask: int,
    gamma: Gamma | float,
    tau_size: int,
    *,
    strategy: str = "base",
    tau_split: int = 50,
    tau_time: float = 1.0,
    quick_plus: bool = True,
) -> TaskOutcome:
    """Execute iteration 3 of UDF compute() (Algorithms 8–10).

    ``strategy``:
      * ``base``  — Algorithm 3 in full (no decomposition).
      * ``split`` — Algorithm 8: decompose one level iff
        |ext(S)| > τ_split (a deadline already past), else mine serially.
      * ``time``  — Algorithms 9/10: mine with a τ_time budget; on
        timeout every surviving branch becomes a subtask.

    Raises ``ValueError`` for any other strategy.

    ``quick_plus=False`` mines with Quick (Table 15).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    miner = Miner(g=graph, gamma=gamma, tau_size=tau_size, quick_plus=quick_plus)
    t0 = time.perf_counter()
    deadline = None  # base, and split at |ext(S)| ≤ τ_split: mine it all
    if strategy == "time":
        deadline = t0 + tau_time
    elif strategy == "split" and ext_mask.bit_count() > tau_split:
        deadline = -math.inf  # already past: wrap every top-level branch
    miner.mine(s_mask, ext_mask, deadline)
    mine_time = time.perf_counter() - t0

    # Translating child (S, ext) masks back through ``ids`` is part of the
    # subtask materialization cost (Alg 8 line 19 / Alg 10 lines 19-21).
    t1 = time.perf_counter()
    out = TaskOutcome(mine_time=mine_time, stats=miner.stats)
    out.results = [frozenset(ids[i] for i in s) for s in miner.results]
    for s_m, e_m in miner.subtasks:
        out.subtasks.append(
            (
                frozenset(ids[i] for i in bits(s_m)),
                frozenset(ids[i] for i in bits(e_m)),
            )
        )
    out.materialize_time = time.perf_counter() - t1
    return out
