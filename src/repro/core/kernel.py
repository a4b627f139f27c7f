"""Kernel-expansion baseline — Sanei-Mehri et al. [31] (Tables 9, 11).

Two phases, as the paper describes in Section 2 / Section 8:

1. *Kernel mining*: mine γ'-quasi-cliques (γ' > γ — faster, since the
   search space is much smaller), keep the top-k' largest maximal ones
   as kernels. Using γ' = 1.0 makes kernels cliques, which is the
   configuration of the paper's Table 11 G-thinker port.
2. *Expansion*: for every kernel S, gather candidates within 2 hops of
   S (no vertex-id restriction — kernels lose the spawn-vertex
   ordering, which is why [31] redundantly re-explores space), prune
   with iterative bounding, then mine ⟨S, ext(S)⟩ exactly. Return the
   top-k largest maximal γ-quasi-cliques found.

The method is *incomplete by construction*: results not containing any
kernel are never found — the incompleteness the paper demonstrates on
GSE10158/Amazon. Tests assert exactly that failure mode.

Like the miner, it refuses γ < 0.5: the 2-hop candidate scope of phase 2
assumes a quasi-clique has diameter ≤ 2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .gamma import make_mining_gamma
from .postprocess import maximal_only
from .quickplus import Miner
from ..graphs.global_graph import GlobalGraph

__all__ = ["KernelResult", "kernel_expansion"]


@dataclass
class KernelResult:
    results: set = field(default_factory=set)  # top-k maximal γ-QCs found
    all_found: set = field(default_factory=set)
    kernels: list = field(default_factory=list)
    kernel_time: float = 0.0
    expand_time: float = 0.0
    job_time: float = 0.0


def _expand_kernel(gg: GlobalGraph, kernel: frozenset[int], gam, tau_size):
    """Phase 2 for one kernel: candidates = 2-hop neighbourhood of the
    kernel (k-core-pruned), then exact mining of ⟨S, ext(S)⟩."""
    k = gam.ceil_mul(tau_size - 1)
    scope: set[int] = set()
    for v in kernel:
        scope |= gg.two_hop(v)
    task = gg.task(kernel, {v for v in scope - kernel if gg.degree(v) >= k})
    miner = Miner(g=task.graph, gamma=gam, tau_size=tau_size)
    s_mask, ext_mask = task.s_mask, task.ext_mask
    pruned = False
    if ext_mask:
        pruned, s_mask, ext_mask = miner.iterative_bounding(s_mask, ext_mask)
    if not pruned and ext_mask:
        found = miner.mine(s_mask, ext_mask)
        if not found:
            miner.emit_if_valid(s_mask)
    else:
        miner.emit_if_valid(s_mask)
    return {frozenset(task.ids[i] for i in s) for s in miner.results}


def kernel_expansion(
    gg: GlobalGraph,
    *,
    gamma_prime: float,
    k_prime: int,
    gamma: float,
    k: int,
    tau_size: int,
) -> KernelResult:
    """Full [31] pipeline with parameter quadruple (γ', k', γ, k).
    Raises ``ValueError`` for γ < 0.5 before mining anything."""
    from ..gthinker.engine import run_serial  # local import: avoid cycle

    gam = make_mining_gamma(gamma)
    out = KernelResult()
    t0 = time.perf_counter()
    phase1 = run_serial(gg, gamma_prime, tau_size, strategy="base")
    kernels = sorted(phase1.maximal, key=lambda s: (-len(s), sorted(s)))[:k_prime]
    out.kernels = kernels
    out.kernel_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    found: set[frozenset[int]] = set()
    for kern in kernels:
        found |= _expand_kernel(gg, kern, gam, tau_size)
    out.all_found = maximal_only(found)
    out.results = set(
        sorted(out.all_found, key=lambda s: (-len(s), sorted(s)))[:k]
    )
    out.expand_time = time.perf_counter() - t1
    out.job_time = out.kernel_time + out.expand_time
    return out
