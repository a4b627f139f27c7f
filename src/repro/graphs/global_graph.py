"""Whole-input-graph representation and task-subgraph construction.

:class:`GlobalGraph` is the driver/broadcast-side view of the input
graph, the analogue of G-thinker's vertex table: CSR adjacency over
global vertex ids, two flat stdlib arrays. ``indptr`` (``array('q')``,
n + 1 entries) and ``indices`` (``array('i')``) hold vertex v's sorted
neighbours at ``indices[indptr[v]:indptr[v + 1]]``, so a vertex costs
8 B of ``indptr`` plus 4 B per adjacency entry, an unused id included.
The arrays are stdlib ``array``s, not numpy ones, so a pickled graph
unpickles on a Spark worker without importing numpy; the driver-side
steps (build, (P2) k-core, the two prunes) import numpy where they run
and view the arrays through ``np.frombuffer``.

It implements the preprocessing the paper applies before mining —
(P2) k-core shrink, the two-hop-size prune of Section 8, and the (P7)
degenerate cover-vertex vertex ordering — plus the one builder of
compact task graphs, :meth:`GlobalGraph.local_graph`. Every ⟨S, ext⟩
becomes a :class:`Task` through it: a root task from ``spawn_task``
(the k-core of the 2-hop ego network restricted to higher-ordered
vertices, Algorithms 4–7 collapsed into one local step since the whole
pruned graph is available via broadcast), and any other task from
``task``.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import repeat

from ..core.bitset import mask_of
from ..core.gamma import Gamma, make_gamma
from ..core.graph import LocalGraph

__all__ = ["GlobalGraph", "Task"]

MAX_ID = 2**31 - 1  # ``indices`` holds int32 ids


@dataclass
class Task:
    """⟨S, ext⟩ as compact subgraph + id map + (S, ext) masks."""

    graph: LocalGraph  # compact ids 0..k-1
    ids: list[int]  # compact -> global id
    s_mask: int
    ext_mask: int
    root: int | None = None  # the spawn vertex's global id, for a root task


class Neighbours:
    """Read-only ``adj`` of a :class:`GlobalGraph`: ``adj[v]`` is v's
    sorted neighbour slice, an ``array('i')``; ``len(adj) == n``."""

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: array, indices: array):
        self.indptr = indptr
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, v: int) -> array:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def __iter__(self):
        p, idx = self.indptr, self.indices
        return (idx[p[v]:p[v + 1]] for v in range(len(p) - 1))


def _csr_arrays(indptr, indices) -> tuple[array, array]:
    """numpy CSR -> the stdlib arrays a :class:`GlobalGraph` holds."""
    import numpy as np

    return (array("q", indptr.astype(np.int64).tobytes()),
            array("i", indices.astype(np.int32).tobytes()))


class GlobalGraph:
    """Undirected simple graph over global ids 0..n-1, CSR adjacency."""

    def __init__(self, indptr: array, indices: array):
        self.indptr = indptr
        self.indices = indices
        self.n = len(indptr) - 1
        # (alive vertices, rank) of the mining order: ``engine.spawn_all``
        # records it on the pruned graph it returns, for the task loop
        self.order: tuple[set[int], dict[int, int]] | None = None

    @property
    def adj(self) -> Neighbours:
        return Neighbours(self.indptr, self.indices)

    # ---------------------------------------------------------- build
    @classmethod
    def from_edges(cls, edges) -> "GlobalGraph":
        """``edges``: iterable of (u, v) pairs or a pandas DataFrame with
        columns src/dst. Vertex ids must be 0..n-1 (n inferred from the
        edges that are not self-loops); a negative or non-integer id, or
        one of 2³¹ or more, raises ``ValueError``. Self-loops and
        repeated edges, in either orientation, are dropped."""
        # imported here, not at the top: Spark workers unpickle a
        # GlobalGraph, and importing pandas there would cost 0.5 s
        import numpy as np
        import pandas as pd

        if isinstance(edges, pd.DataFrame):
            ends = edges[["src", "dst"]].to_numpy()
        else:
            ends = np.asarray(list(edges))
        if ends.size and (ends.dtype.kind not in "iu" or ends.min() < 0):
            raise ValueError(f"vertex ids must be integers >= 0 (got {ends.dtype} ids)")
        if ends.size and ends.max() > MAX_ID:
            raise ValueError(f"vertex ids must be < 2**31 (got id {ends.max()})")
        ends = ends.reshape(-1, 2).astype(np.int64)
        ends = ends[ends[:, 0] != ends[:, 1]]
        n = int(ends.max()) + 1 if ends.size else 0
        u, v = ends[:, 0], ends[:, 1]
        # one key per directed entry, sorted: by source, then neighbour
        src, dst = np.divmod(np.unique(np.concatenate([u * n + v, v * n + u])), max(n, 1))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(*_csr_arrays(indptr, dst))

    def _np(self):
        """numpy views of (indptr, indices); no copy."""
        import numpy as np

        return (np.frombuffer(self.indptr, dtype=np.int64),
                np.frombuffer(self.indices, dtype=np.int32))

    def to_edge_pdf(self) -> pd.DataFrame:
        """Canonical src < dst edge table (for Spark/DuckDB checks)."""
        import numpy as np
        import pandas as pd

        indptr, indices = self._np()
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        dst = indices.astype(np.int64)
        up = src < dst
        return pd.DataFrame({"src": src[up], "dst": dst[up]})

    def degree(self, v: int) -> int:
        return self.indptr[v + 1] - self.indptr[v]

    def vertices(self) -> list[int]:
        """The vertices with an edge, ascending."""
        p = self.indptr
        return [v for v in range(self.n) if p[v + 1] > p[v]]

    def num_edges(self) -> int:
        return len(self.indices) // 2

    # ------------------------------------------------- preprocessing
    def _kcore_mask(self, k: int):
        """Boolean numpy mask of the k-core of the vertices with an edge
        (P2), peeled on the arrays: each round drops the alive vertices
        below degree k among the neighbours of the last round's drops,
        so a round costs the degrees of what it drops, not n."""
        import numpy as np

        indptr, indices = self._np()
        full = np.diff(indptr)
        deg = full.copy()  # degree among the alive vertices
        alive = deg > 0
        drop = np.flatnonzero(alive & (deg < k))
        while drop.size:
            alive[drop] = False
            starts, lens = indptr[drop], full[drop]
            # the concatenated neighbour slices of ``drop``
            at = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
            nbrs, hits = np.unique(indices[at], return_counts=True)
            deg[nbrs] -= hits
            drop = nbrs[alive[nbrs] & (deg[nbrs] < k)]
        return alive

    def _induced(self, keep) -> tuple:
        """numpy CSR (indptr, indices) of the edges among the ``keep``
        mask's vertices, over the same id space."""
        import numpy as np

        indptr, indices = self._np()
        src = np.repeat(np.arange(self.n), np.diff(indptr))
        inside = keep[src] & keep[indices]
        sub = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[inside], minlength=self.n), out=sub[1:])
        return sub, indices[inside]

    def kcore_vertices(self, k: int) -> set[int]:
        """Peeling k-core over the whole graph (P2 preprocessing)."""
        import numpy as np

        return set(np.flatnonzero(self._kcore_mask(k)).tolist())

    def two_hop(self, v: int, within: set[int] | None = None) -> set[int]:
        """N_2^+(v): v plus everything within 2 hops (restricted)."""
        if within is not None and v not in within:
            return set()
        p, idx = self.indptr, self.indices  # adj[u] inlined: this runs per root task
        n1 = idx[p[v]:p[v + 1]]
        out = set(n1) if within is None else within.intersection(n1)
        for u in list(out):
            out.update(idx[p[u]:p[u + 1]])
        if within is not None:
            out &= within
        out.add(v)
        return out

    def _pruned_mask(self, gamma: Gamma | float, tau_size: int):
        """numpy mask of :meth:`pruned_vertices`. Sets are built for the
        k-core's vertices alone, holding their neighbours in it."""
        import numpy as np

        k = make_gamma(gamma).ceil_mul(tau_size - 1)
        keep = self._kcore_mask(k)
        indptr, indices = self._induced(keep)
        p, nb = indptr.tolist(), indices.tolist()
        core = {v: set(nb[p[v]:p[v + 1]]) for v in np.flatnonzero(keep).tolist()}
        for v, n1 in core.items():
            if len(n1) + 1 >= tau_size:
                continue  # v and N(v) alone reach τ_size
            out = set(n1)
            for u in n1:
                out |= core[u]
            out.add(v)
            if len(out) < tau_size:
                keep[v] = False
        return keep

    def pruned_vertices(self, gamma: Gamma | float, tau_size: int) -> set[int]:
        """Section 8 preprocessing: k-core with k = ceil(γ(τ_size-1)),
        then drop vertices whose two-hop neighbourhood in the core is
        < τ_size."""
        import numpy as np

        return set(np.flatnonzero(self._pruned_mask(gamma, tau_size)).tolist())

    def pruned_subgraph(self, gamma: Gamma | float, tau_size: int) -> "GlobalGraph":
        """The pruned graph of Table 3(b), re-using global ids (vertices
        outside the pruned set become isolated)."""
        return GlobalGraph(*_csr_arrays(*self._induced(self._pruned_mask(gamma, tau_size))))

    # ----------------------------------------------- vertex ordering
    def mining_order(self, alive: set[int], quick_plus: bool) -> tuple[dict[int, int], set[int]]:
        """Rank for the set-enumeration order (Section 7's ID recoding).

        Quick orders every vertex by ascending degree. Quick+ adds the
        degenerate (P7) rule: v_max (max degree in the pruned
        graph) gets rank 0, N(v_max) get the largest ranks (and are
        *not spawned from* — any quasi-clique inside N(v_max) extends
        with v_max, hence is non-maximal), everything else is ranked by
        ascending degree. Degrees count alive neighbours; ties go to the
        smaller id. Returns (rank, skip_spawn_set).
        """
        if not alive:
            return {}, set()
        adj = self.adj
        deg = {v: len(alive.intersection(adj[v])) for v in alive}
        key = lambda v: (deg[v], v)
        if not quick_plus:
            return {v: i for i, v in enumerate(sorted(alive, key=key))}, set()
        vmax = max(alive, key=lambda v: (deg[v], -v))
        nbrs = alive.intersection(adj[vmax])
        order = [vmax, *sorted(alive - nbrs - {vmax}, key=key), *sorted(nbrs, key=key)]
        return {v: i for i, v in enumerate(order)}, nbrs

    # ----------------------------------------------------- tasks
    def local_graph(self, ids: list[int]) -> LocalGraph:
        """The :class:`LocalGraph` induced by ``ids``: compact id i is
        ``ids[i]``."""
        bit = {u: 1 << i for i, u in enumerate(ids)}.get
        p, idx = self.indptr, self.indices  # adj[u] inlined: this runs per task
        zeros = repeat(0)  # bit(w, 0): w outside ``ids`` adds nothing
        # the bits are distinct, so their sum is their OR
        return LocalGraph(len(ids), [sum(map(bit, idx[p[u]:p[u + 1]], zeros)) for u in ids])

    def task(self, s_ids, ext_ids) -> Task:
        """The task ⟨S, ext⟩ for disjoint global-id sets S and ext, its
        compact ids in ascending global id: a subtask (Alg 8 line 19), a
        kernel to expand, or an MCF ego net."""
        ids = sorted({*s_ids, *ext_ids})
        s = set(s_ids)
        s_mask = mask_of(i for i, u in enumerate(ids) if u in s)
        return Task(self.local_graph(ids), ids, s_mask, ((1 << len(ids)) - 1) & ~s_mask)

    def spawn_task(
        self,
        v: int,
        rank: dict[int, int],
        alive: set[int],
        gamma: Gamma | float,
        tau_size: int,
    ) -> Task | None:
        """Build the root task for spawn vertex v (Algorithms 4–7):
        2-hop ego network over higher-ranked alive vertices, shrunk to
        its k-core; None if v itself drops out (task pruned). Compact
        ids are in rank order, so v is compact id 0."""
        gam = make_gamma(gamma)
        k = gam.ceil_mul(tau_size - 1)
        if v not in alive or len(alive.intersection(self.adj[v])) < k:
            return None
        rv = rank[v]
        ids = sorted((u for u in self.two_hop(v, alive) if u == v or rank[u] > rv),
                     key=rank.__getitem__)
        if len(ids) < tau_size:
            return None
        g = self.local_graph(ids)
        core = g.kcore_mask(k)
        ext_mask = core & ~1
        if not core & 1 or not ext_mask or core.bit_count() < tau_size:
            return None  # v dropped out, or too little is left
        return Task(g.induce(core), ids, 1, ext_mask, root=v)
