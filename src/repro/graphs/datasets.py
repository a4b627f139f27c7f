"""Registry of the 10 dataset stand-ins (paper Table 3).

Each entry pairs a seeded generator with the default quasi-clique
parameters (γ, τ_size) — chosen, like the paper's Table 3(b), to return
a "reasonable number of result subgraphs" on the stand-in — and the
tuned (τ_split, τ_time) used by Table 7. Scales are ~100–1000× smaller
than the real graphs (laptop-scale substitution documented in
DESIGN.md §3); the *structure* of each stand-in mirrors its original:

* the YouTube stand-in plants one oversized near-γ community → a single
  straggler task (paper Table 1);
* the Patent stand-in plants several medium near-γ communities → a
  handful of stragglers (paper Table 2);
* kmer/USA-Road are path/lattice graphs where the k-core prune leaves
  only tiny structures and decomposition can only add overhead.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..graphs.generators import (
    edges_pdf,
    grid_graph,
    path_clique_graph,
    planted_community_graph,
)
from .global_graph import GlobalGraph

__all__ = ["DatasetSpec", "DATASETS", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """One stand-in dataset + its default mining parameters."""

    name: str  # paper's dataset name
    build: Callable[[], set]
    gamma: float
    tau_size: int
    tau_split: int
    tau_time: float  # seconds, scaled down from the paper's values
    paper_nv: int  # |V| of the real graph (for Table 3 context)
    paper_ne: int


def _cx_gse1730() -> set:
    return planted_community_graph(
        300,
        communities=[(16, 0.95), (14, 0.95), (13, 0.92), (12, 0.92), (12, 0.9)],
        ba_m=3,
        seed=101,
    )


def _cx_gse10158() -> set:
    return planted_community_graph(
        480,
        communities=[(13, 0.9), (12, 0.88), (11, 0.9), (11, 0.88), (10, 0.9)],
        ba_m=3,
        seed=102,
    )


def _ca_grqc() -> set:
    return planted_community_graph(
        1500,
        communities=[(9, 0.95)] * 12 + [(8, 0.95)] * 12 + [(7, 1.0)] * 10,
        ba_m=2,
        seed=103,
    )


def _enron() -> set:
    return planted_community_graph(
        3000,
        communities=[(20, 0.92), (16, 0.92), (14, 0.9), (13, 0.9), (12, 0.92),
                     (12, 0.9), (11, 0.92)],
        ba_m=3,
        seed=104,
        overlap=2,
    )


def _amazon() -> set:
    return planted_community_graph(
        5000,
        communities=[(8, 0.85)] * 20 + [(7, 0.9)] * 20,
        ba_m=2,
        seed=105,
    )


def _hyves() -> set:
    return planted_community_graph(
        8000,
        communities=[(18, 0.92), (15, 0.92), (14, 0.9), (13, 0.9), (12, 0.92)],
        ba_m=2,
        seed=106,
    )


def _youtube() -> set:
    # one oversized near-γ community = the paper's single straggler task
    return planted_community_graph(
        10000,
        communities=[(32, 0.93), (20, 0.95), (19, 0.95), (18, 0.95), (18, 0.94)],
        ba_m=2,
        seed=107,
    )


def _patent() -> set:
    # several medium near-γ communities = several stragglers
    return planted_community_graph(
        12000,
        communities=[(29, 0.92), (28, 0.92), (28, 0.93), (27, 0.92), (27, 0.93),
                     (26, 0.92), (20, 0.95), (19, 0.95), (18, 0.95)],
        ba_m=2,
        seed=108,
    )


def _kmer() -> set:
    return path_clique_graph(n_paths=150, path_len=100, n_cliques=40,
                             clique_size=5, seed=109)


def _usa_road() -> set:
    return grid_graph(60, 50, keep=0.8, seed=110)


DATASETS: dict[str, DatasetSpec] = {
    "CX_GSE1730": DatasetSpec("CX_GSE1730", _cx_gse1730, 0.9, 12, 500, 0.2,
                              998, 5096),
    "CX_GSE10158": DatasetSpec("CX_GSE10158", _cx_gse10158, 0.8, 10, 100, 0.05,
                               1621, 7079),
    "Ca-GrQc": DatasetSpec("Ca-GrQc", _ca_grqc, 0.8, 7, 1000, 0.001,
                           5242, 14496),
    "Enron": DatasetSpec("Enron", _enron, 0.9, 11, 1000, 0.2, 36692, 183831),
    "Amazon": DatasetSpec("Amazon", _amazon, 0.5, 7, 100, 0.1, 334863, 925872),
    "Hyves": DatasetSpec("Hyves", _hyves, 0.9, 12, 50, 0.2, 1402673, 2777419),
    "YouTube": DatasetSpec("YouTube", _youtube, 0.9, 16, 15, 0.01,
                           1134890, 2987624),
    "Patent": DatasetSpec("Patent", _patent, 0.9, 15, 50, 0.05,
                          3774768, 16518947),
    "kmer": DatasetSpec("kmer", _kmer, 0.5, 5, 100, 0.01, 67716231, 69389281),
    "USA Road": DatasetSpec("USA Road", _usa_road, 0.5, 4, 5, 0.1,
                            23947347, 28854312),
}


def load_dataset(name: str) -> tuple[GlobalGraph, DatasetSpec]:
    spec = DATASETS[name]
    gg = GlobalGraph.from_edges(edges_pdf(spec.build()))
    return gg, spec

