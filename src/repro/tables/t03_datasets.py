"""Table 3 — dataset statistics, raw (a) and after pruning (b).

(a) |V|, |E|, |E|/|V|, max degree of each stand-in (with the paper's
real-graph sizes alongside for scale context).
(b) default (τ_size, γ, k) and the statistics of the graph after the
(P2) k-core prune + the two-hop-size prune of Section 8.
"""
from __future__ import annotations

import pandas as pd

from ..core.gamma import make_gamma
from .common import DATASETS, cached_dataset, print_table


def run(spark=None) -> tuple[pd.DataFrame, pd.DataFrame]:
    raw_rows, pruned_rows = [], []
    for name, spec in DATASETS.items():
        gg, _ = cached_dataset(name)
        degs = [gg.degree(v) for v in gg.vertices()]
        nv, ne = len(degs), gg.num_edges()
        raw_rows.append({
            "Data": name, "V": nv, "E": ne,
            "E/V": round(ne / nv, 2), "MaxDeg": max(degs),
            "paper_V": spec.paper_nv, "paper_E": spec.paper_ne,
        })
        gam = make_gamma(spec.gamma)
        k = gam.ceil_mul(spec.tau_size - 1)
        pruned = gg.pruned_subgraph(gam, spec.tau_size)
        pdegs = [pruned.degree(v) for v in pruned.vertices()]
        pnv, pne = len(pdegs), pruned.num_edges()
        pruned_rows.append({
            "Data": name, "Tsize": spec.tau_size, "gamma": spec.gamma, "k": k,
            "V": pnv, "E": pne,
            "E/V": round(pne / pnv, 2) if pnv else 0.0,
            "MaxDeg": max(pdegs, default=0),
        })
    a = print_table("Table 3(a): dataset statistics (stand-ins)",
                    pd.DataFrame(raw_rows))
    b = print_table("Table 3(b): default parameters + pruned statistics",
                    pd.DataFrame(pruned_rows))
    return a, b
