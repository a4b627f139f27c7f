"""Tables 15 & 16 — Quick+ vs Quick, and per-pruning-phase cost.

Table 15: single-threaded Quick+ vs Quick (``quick_plus=False``) on every
dataset; reports times and the results Quick misses (the paper found 1
missed result on CX_GSE1730 / Ca-GrQc).
Table 16: Quick+'s cumulative time inside each pruning phase —
lookahead, cover-vertex, critical-vertex, lower/upper bounds.
"""
from __future__ import annotations

import pandas as pd

from ..gthinker.engine import run_serial
from .common import DATASETS, cached_dataset, print_table

T16_DATASETS = ["CX_GSE1730", "CX_GSE10158", "Ca-GrQc", "Enron", "Amazon", "Hyves"]


def run_t15(datasets: list[str] | None = None) -> pd.DataFrame:
    rows = []
    for name in datasets or list(DATASETS):
        gg, spec = cached_dataset(name)
        plus = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
        orig = run_serial(gg, spec.gamma, spec.tau_size, strategy="base",
                          quick_plus=False)
        rows.append({
            "Dataset": name,
            "QuickPlus_s": round(plus.job_time, 2),
            "Quick_s": round(orig.job_time, 2),
            "QuickPlus_maximal": plus.n_maximal,
            "Quick_maximal": orig.n_maximal,
            "Missed_by_Quick": len(plus.maximal - orig.maximal),
        })
    return print_table("Table 15: Quick+ vs Quick (single-threaded)",
                       pd.DataFrame(rows))


def run_t16(datasets: list[str] | None = None) -> pd.DataFrame:
    rows = []
    for name in datasets or T16_DATASETS:
        gg, spec = cached_dataset(name)
        job = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
        s = job.stats
        rows.append({
            "Dataset": name,
            "Lookahead_ms": round(s.t_lookahead * 1000, 2),
            "Cover_ms": round(s.t_cover * 1000, 2),
            "Critical_ms": round(s.t_critical * 1000, 2),
            "LB_UB_ms": round(s.t_bounds * 1000, 2),
            "Job_s": round(job.job_time, 2),
        })
    return print_table("Table 16: cost of pruning phases (Quick+)",
                       pd.DataFrame(rows))
