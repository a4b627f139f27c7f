"""Whole-input-graph representation and task-subgraph construction.

:class:`GlobalGraph` is the driver/broadcast-side view of the input
graph: set-based adjacency over global vertex ids. It implements the
preprocessing the paper applies before mining — (P2) k-core shrink,
the two-hop-size prune of Section 8, and the (P7) degenerate
cover-vertex vertex ordering — plus construction of the per-vertex
spawn tasks (the k-core of the 2-hop ego network restricted to
higher-ordered vertices, Algorithms 4–7 collapsed into one local step
since the whole pruned graph is available via broadcast).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..core.gamma import Gamma, make_gamma
from ..core.graph import LocalGraph

__all__ = ["GlobalGraph", "SpawnTask"]


@dataclass
class SpawnTask:
    """A root task: compact subgraph + id map + initial (S, ext) masks."""

    root: int  # global id
    graph: LocalGraph  # compact ids 0..k-1
    ids: list[int]  # compact -> global id
    s_mask: int
    ext_mask: int


class GlobalGraph:
    """Undirected simple graph over global ids 0..n-1, set adjacency."""

    def __init__(self, n: int, adj: list[set[int]]):
        self.n = n
        self.adj = adj

    # ---------------------------------------------------------- build
    @classmethod
    def from_edges(cls, edges) -> "GlobalGraph":
        """``edges``: iterable of (u, v) pairs or a pandas DataFrame with
        columns src/dst. Vertex ids must be 0..n-1 (n inferred); a
        negative or non-integer id raises ``ValueError``."""
        if isinstance(edges, pd.DataFrame):
            ends = edges[["src", "dst"]].to_numpy()
        else:
            ends = np.asarray(list(edges))
        if ends.size and (ends.dtype.kind not in "iu" or ends.min() < 0):
            raise ValueError(f"vertex ids must be integers >= 0 (got {ends.dtype} ids)")
        adj: dict[int, set[int]] = {}
        hi = -1
        for u, v in ends.tolist():
            if u == v:
                continue
            hi = max(hi, u, v)
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        n = hi + 1
        return cls(n, [adj.get(v, set()) for v in range(n)])

    def to_edge_pdf(self) -> pd.DataFrame:
        """Canonical src < dst edge table (for Spark/DuckDB checks)."""
        src, dst = [], []
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    src.append(u)
                    dst.append(v)
        return pd.DataFrame({"src": np.array(src, dtype=np.int64),
                             "dst": np.array(dst, dtype=np.int64)})

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    # ------------------------------------------------- preprocessing
    def kcore_vertices(self, k: int) -> set[int]:
        """Peeling k-core over the whole graph (P2 preprocessing)."""
        deg = {v: len(self.adj[v]) for v in range(self.n) if self.adj[v]}
        stack = [v for v, d in deg.items() if d < k]
        alive = set(deg)
        while stack:
            v = stack.pop()
            if v not in alive or deg[v] >= k:
                continue
            alive.discard(v)
            for w in self.adj[v]:
                if w in alive:
                    deg[w] -= 1
                    if deg[w] < k:
                        stack.append(w)
        return alive

    def two_hop(self, v: int, within: set[int] | None = None) -> set[int]:
        """N_2^+(v): v plus everything within 2 hops (restricted)."""
        if within is not None and v not in within:
            return set()
        n1 = self.adj[v] if within is None else self.adj[v] & within
        out = set(n1)
        out.add(v)
        for u in n1:
            out |= self.adj[u] if within is None else self.adj[u] & within
        return out

    def pruned_vertices(self, gamma: Gamma | float, tau_size: int) -> set[int]:
        """Section 8 preprocessing: k-core with k = ceil(γ(τ_size-1)),
        then drop vertices whose two-hop neighbourhood is < τ_size."""
        gam = make_gamma(gamma)
        k = gam.ceil_mul(tau_size - 1)
        core = self.kcore_vertices(k)
        return {v for v in core if len(self.two_hop(v, core)) >= tau_size}

    def pruned_subgraph(self, gamma: Gamma | float, tau_size: int) -> "GlobalGraph":
        """The pruned graph of Table 3(b), re-using global ids (vertices
        outside the pruned set become isolated)."""
        keep = self.pruned_vertices(gamma, tau_size)
        adj = [
            (self.adj[v] & keep) if v in keep else set() for v in range(self.n)
        ]
        return GlobalGraph(self.n, adj)

    # ----------------------------------------------- vertex ordering
    def mining_order(self, alive: set[int], degenerate_cover: bool) -> tuple[dict[int, int], set[int]]:
        """Rank for the set-enumeration order (Section 7's ID recoding).

        With the degenerate (P7) rule: v_max (max degree in the pruned
        graph) gets rank 0, N(v_max) get the largest ranks (and are
        *not spawned from* — any quasi-clique inside N(v_max) extends
        with v_max, hence is non-maximal), everything else is ranked by
        ascending degree. Returns (rank, skip_spawn_set).
        """
        if not alive:
            return {}, set()
        if not degenerate_cover:
            rank = {v: i for i, v in enumerate(sorted(alive, key=lambda v: (len(self.adj[v] & alive), v)))}
            return rank, set()
        vmax = max(alive, key=lambda v: (len(self.adj[v] & alive), -v))
        nbrs = self.adj[vmax] & alive
        middle = sorted(
            alive - nbrs - {vmax}, key=lambda v: (len(self.adj[v] & alive), v)
        )
        tail = sorted(nbrs, key=lambda v: (len(self.adj[v] & alive), v))
        rank = {vmax: 0}
        for i, v in enumerate(middle, start=1):
            rank[v] = i
        for i, v in enumerate(tail, start=1 + len(middle)):
            rank[v] = i
        return rank, set(nbrs)

    # --------------------------------------------------- task spawn
    def spawn_task(
        self,
        v: int,
        rank: dict[int, int],
        alive: set[int],
        gamma: Gamma | float,
        tau_size: int,
    ) -> SpawnTask | None:
        """Build the root task for spawn vertex v (Algorithms 4–7):
        2-hop ego network over higher-ranked alive vertices, shrunk to
        its k-core; None if v itself drops out (task pruned)."""
        gam = make_gamma(gamma)
        k = gam.ceil_mul(tau_size - 1)
        if v not in alive or len(self.adj[v] & alive) < k:
            return None
        rv = rank[v]
        scope = {u for u in self.two_hop(v, alive) if u == v or rank[u] > rv}
        if len(scope) < tau_size:
            return None
        ids = sorted(scope, key=lambda u: rank[u])
        pos = {u: i for i, u in enumerate(ids)}
        g = LocalGraph(len(ids))
        for u in ids:
            m = 0
            for w in self.adj[u] & scope:
                m |= 1 << pos[w]
            g.adj[pos[u]] = m
        core = g.kcore_mask(k)
        if not (core >> pos[v]) & 1:
            return None
        gsub = g.induce(core)
        s_mask = 1 << pos[v]
        ext_mask = core & ~s_mask
        if ext_mask == 0 or core.bit_count() < tau_size:
            return None
        return SpawnTask(root=v, graph=gsub, ids=ids, s_mask=s_mask, ext_mask=ext_mask)

    def induce_local(self, vertices: set[int]) -> tuple[LocalGraph, list[int]]:
        """Compact LocalGraph induced by a global-id vertex set (used to
        re-materialize subtask subgraphs, Alg 8 line 19)."""
        ids = sorted(vertices)
        pos = {u: i for i, u in enumerate(ids)}
        g = LocalGraph(len(ids))
        for u in ids:
            m = 0
            for w in self.adj[u] & vertices:
                m |= 1 << pos[w]
            g.adj[pos[u]] = m
        return g, ids
