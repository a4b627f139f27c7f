"""Interleaved in-process A/B of the Quick+ kernel on one dataset.

    python3 tools/kernel_ab.py SRC_A SRC_B --dataset Patent [--passes 2]

``SRC_A`` and ``SRC_B`` are two ``src`` directories (say, a checkout of
the parent commit and the working tree) whose ``spawn_all`` returns a
pruned graph with ``labels``. Each one's ``repro`` package is copied
into a temporary directory under its own name (``repro_a``,
``repro_b``; ``src/`` uses only relative imports, so the copies do not
see each other) and imported into this one process. Each side loads the
dataset and spawns its root tasks with its own code; the root lists must
match in input ids (the pruned graph's ``labels``). Then every root
task's A_base ``run_task`` runs on both sides in turn, alternating which
side goes first, and the two sides must return the same result sets for
every task, in input ids. Timing both sides in one process, task by
task, cancels most of the drift between runs that separate processes on
a shared host see.

Prints one JSON object: for each side the sums of the mining time and
of the bounds, critical, cover and lookahead phase timers, and the ratio
B / A of each sum. It also prints the B / A mining-time ratio of each
pass and the quartiles of those ratios (q1, median, q3): their spread
shows how far one pass, or one run, can be trusted.
"""
from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

PHASES = {"mine_s": None, "bounds_s": "t_bounds", "critical_s": "t_critical",
          "cover_s": "t_cover", "lookahead_s": "t_lookahead"}


def load_side(src: Path, name: str, into: Path):
    """Import ``src/repro`` as package ``name`` from a copy in ``into``;
    returns its (datasets, engine, tasks) modules."""
    shutil.copytree(src / "repro", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tuple(importlib.import_module(f"{name}.{mod}")
                 for mod in ("graphs.datasets", "gthinker.engine", "gthinker.tasks"))


def run_ab(src_a: Path, src_b: Path, dataset: str, passes: int = 1) -> dict:
    with tempfile.TemporaryDirectory() as tmp:  # alive while the copies run
        sys.path.insert(0, tmp)
        try:
            sides = [load_side(src, name, Path(tmp))
                     for src, name in ((src_a, "repro_a"), (src_b, "repro_b"))]
        finally:
            sys.path.remove(tmp)
        return _interleave(sides, dataset, passes) | {"a_src": str(src_a), "b_src": str(src_b)}


def _root_tasks(engine, gg, spec) -> tuple:
    """The pruned graph's ``labels`` and the root tasks one side builds:
    ``spawn_all`` lists ``(v, cost)`` spawn rows and ``spawn_task``
    builds each, dropping those that prune away."""
    pruned, rows = engine.spawn_all(gg, spec.gamma, spec.tau_size)
    tasks = (pruned.spawn_task(v, spec.gamma, spec.tau_size) for v, _ in rows)
    return pruned.labels, [t for t in tasks if t is not None]


def _interleave(sides, dataset: str, passes: int) -> dict:
    spawned = []
    for datasets, engine, _ in sides:
        gg, spec = datasets.load_dataset(dataset)
        spawned.append(_root_tasks(engine, gg, spec))
    roots = [[labels[t.root] for t in tasks] for labels, tasks in spawned]
    if roots[0] != roots[1]:
        raise AssertionError(f"{dataset}: the two sides spawn different root tasks")
    roots = roots[0]
    sums = [dict.fromkeys(PHASES, 0.0) for _ in sides]
    pass_mine = [[0.0] * passes for _ in sides]
    for p in range(passes):
        for i, root in enumerate(roots):
            found = [None, None]
            for side in ((0, 1) if (p * len(roots) + i) % 2 == 0 else (1, 0)):
                labels, tasks = spawned[side]
                t = tasks[i]
                out = sides[side][2].run_task(t.graph, t.ids, t.s_mask, t.ext_mask,
                                              spec.gamma, spec.tau_size, strategy="base")
                found[side] = {frozenset(labels[v] for v in s) for s in out.results}
                pass_mine[side][p] += out.mine_time
                for key, attr in PHASES.items():
                    sums[side][key] += out.mine_time if attr is None else getattr(out.stats, attr)
            if found[0] != found[1]:
                raise AssertionError(f"{dataset}: root {root} gives different result sets")
    pass_ratios = [b / a for a, b in zip(*pass_mine) if a]
    return {
        "dataset": dataset, "tasks": len(roots), "passes": passes,
        "a": sums[0], "b": sums[1],
        "ratio_b_over_a": {key: sums[1][key] / sums[0][key] if sums[0][key] else None
                           for key in PHASES},
        "pass_mine_ratio_b_over_a": pass_ratios,
        "pass_mine_ratio_quartiles": (
            statistics.quantiles(pass_ratios, n=4, method="inclusive")
            if len(pass_ratios) > 1 else pass_ratios * 3),
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src_a", type=Path, help="the A side's src directory")
    ap.add_argument("src_b", type=Path, help="the B side's src directory")
    ap.add_argument("--dataset", default="Patent", help="a repro.graphs.datasets name")
    ap.add_argument("--passes", type=int, default=1, help="passes over the root tasks")
    args = ap.parse_args(argv)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    print(json.dumps(run_ab(args.src_a.resolve(), args.src_b.resolve(),
                            args.dataset, args.passes)))


if __name__ == "__main__":
    main()
