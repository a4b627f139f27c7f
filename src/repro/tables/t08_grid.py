"""Table 8 — effect of (τ_split, τ_time) on A_time's running time.

The paper sweeps a 5×6 grid per dataset; our grids are scaled to the
stand-in costs (τ_time values are scaled down with the graphs). The
asterisked best cell of each grid is the tuned value used by Table 7.

A_time never reads τ_split: ``tasks.run_task`` consults it only under
``strategy == "split"``. Every run here is A_time, so the τ_split axis
only repeats each τ_time cell; its differences are run-to-run noise.
"""
from __future__ import annotations

import pandas as pd

from ..gthinker.engine import run_spark
from .common import cached_dataset, print_table

# per-dataset scaled grids (the paper's spirit: one coarse grid around
# the tuned optimum; expensive datasets get smaller grids)
GRIDS: dict[str, tuple[list[int], list[float]]] = {
    "Patent": ([1000, 200, 50], [0.2, 0.05, 0.01]),
    "YouTube": ([1000, 500], [0.05, 0.01]),
    "Hyves": ([1000, 200, 50], [0.2, 0.05, 0.01]),
    "Enron": ([1000, 200, 50], [0.2, 0.05, 0.01]),
    "Amazon": ([1000, 100], [0.1, 0.01]),
    "CX_GSE1730": ([500, 100], [0.2, 0.01]),
    "CX_GSE10158": ([500, 100], [0.05, 0.01]),
    "Ca-GrQc": ([1000, 100], [0.01, 0.001]),
    "kmer": ([1000, 100], [0.1, 0.01]),
    "USA Road": ([1000, 5], [0.1, 0.01]),
}


def run(spark, datasets: list[str] | None = None) -> pd.DataFrame:
    rows = []
    for name in datasets or list(GRIDS):
        gg, spec = cached_dataset(name)
        splits, times = GRIDS[name]
        for ts in splits:
            for tt in times:
                job = run_spark(spark, gg, spec.gamma, spec.tau_size,
                                strategy="time", tau_split=ts, tau_time=tt)
                rows.append({
                    "Dataset": name, "Tsplit": ts, "Ttime_s": tt,
                    "Time_s": round(job.job_time, 2),
                    "Subtasks": job.n_subtasks,
                })
    df = pd.DataFrame(rows)
    return print_table("Table 8: effect of (tau_split, tau_time) on A_time", df)
