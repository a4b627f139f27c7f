"""Local (per-task) graph representation with bitmask adjacency.

A :class:`LocalGraph` holds an undirected simple graph over vertex ids
``0..n-1`` as one Python-int bitmask per vertex. This is the in-memory
form every mining task works on — the Spark engine ships vertex-id
lists and re-induces subgraphs from a broadcast ``LocalGraph``.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .bitset import bits, mask_of

__all__ = ["LocalGraph"]


class LocalGraph:
    """Undirected graph over ``0..n-1`` with bitmask adjacency lists."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int] | None = None):
        self.n = n
        self.adj: list[int] = list(adj) if adj is not None else [0] * n

    # ---------------------------------------------------------- build
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LocalGraph":
        g = cls(n)
        for u, v in edges:
            u, v = int(u), int(v)  # numpy ints would poison the bitmasks
            if u == v:
                continue  # ignore self-loops
            g.adj[u] |= 1 << v
            g.adj[v] |= 1 << u
        return g

    def edges(self) -> list[tuple[int, int]]:
        """Canonical (u < v) edge list."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for off in bits(higher):
                out.append((u, u + 1 + off))
        return out

    # ------------------------------------------------------- queries
    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    # ------------------------------------------------------ subgraph
    def induce(self, vertex_mask: int) -> "LocalGraph":
        """Induced subgraph on the same id space (vertices outside the
        mask become isolated). Keeping the id space fixed lets masks be
        compared across a task tree without renumbering."""
        g = LocalGraph(self.n)
        for v in bits(vertex_mask):
            g.adj[v] = self.adj[v] & vertex_mask
        return g

    # --------------------------------------------------------- k-core
    def kcore_mask(self, k: int, within: int | None = None) -> int:
        """Vertex mask of the k-core (restricted to ``within`` if given),
        via the O(|E|)-style peeling algorithm [Batagelj & Zaversnik]:
        repeatedly delete vertices with degree < k."""
        alive = within if within is not None else (1 << self.n) - 1
        # queue of vertices to re-check
        stack = [v for v in bits(alive) if (self.adj[v] & alive).bit_count() < k]
        while stack:
            v = stack.pop()
            bit = 1 << v
            if not (alive & bit):
                continue
            if (self.adj[v] & alive).bit_count() >= k:
                continue
            alive &= ~bit
            for w in bits(self.adj[v] & alive):
                if (self.adj[w] & alive).bit_count() < k:
                    stack.append(w)
        return alive

    # ------------------------------------------------------ two-hop
    def two_hop_mask(self, v: int, within: int | None = None) -> int:
        """Mask of vertices within 2 hops of ``v`` (B(v) ∪ N(v) ∪ {v}),
        paths restricted to ``within`` if given."""
        alive = within if within is not None else (1 << self.n) - 1
        n1 = self.adj[v] & alive
        m = n1 | (1 << v)
        for u in bits(n1):
            m |= self.adj[u] & alive
        return m & alive

    def connected(self, vertex_mask: int) -> bool:
        """Is the induced subgraph on ``vertex_mask`` connected?"""
        if vertex_mask == 0:
            return True
        start = (vertex_mask & -vertex_mask).bit_length() - 1
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= self.adj[v] & vertex_mask
            frontier = nxt & ~seen
            seen |= frontier
        return seen == vertex_mask
