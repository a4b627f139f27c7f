"""Whole-input-graph representation and task-subgraph construction.

:class:`GlobalGraph` is the driver/broadcast-side view of a graph, the
analogue of G-thinker's vertex table: CSR adjacency over vertex ids
0..n-1, two flat stdlib arrays. ``indptr`` (``array('q')``, n + 1
entries) and ``indices`` (``array('i')``) hold vertex v's sorted
neighbours at ``indices[indptr[v]:indptr[v + 1]]``, so a vertex costs
8 B of ``indptr`` plus 4 B per adjacency entry, an unused id included.
``labels[v]`` is vertex v's input id: the identity (a ``range``) on an
input graph, an ``array('i')`` on a graph :meth:`GlobalGraph.subgraph`
recoded. The arrays are stdlib ``array``s, not numpy ones, so a pickled
graph unpickles on a Spark worker without importing numpy; the
driver-side steps (build, (P2) k-core, the prune, recoding) import numpy
where they run and view the arrays through ``np.frombuffer``.

It implements the preprocessing the paper applies before mining —
(P2) k-core shrink, the two-hop-size prune of Section 8, and the (P7)
degenerate cover-vertex mining order, which ``engine.spawn_all`` makes
the pruned graph's vertex ids (Section 7's ID recoding) — plus the one
builder of compact task graphs, :meth:`GlobalGraph.local_graph`. Every
⟨S, ext⟩ becomes a :class:`Task` through it: a root task from
``spawn_task`` (the k-core of the 2-hop ego network restricted to
higher ids, Algorithms 4–7 collapsed into one local step since the
whole pruned graph is available via broadcast), and any other task
from ``task``.
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
    ids: list[int]  # compact -> id in the GlobalGraph that built the task
    s_mask: int
    ext_mask: int
    root: int | None = None  # the spawn vertex's id, for a root task


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


def _csr(src, dst, n: int) -> tuple[array, array]:
    """The stdlib CSR arrays of the directed entries ``(src[i], dst[i])``,
    numpy int64 arrays of ids 0..n-1: each entry once, neighbours sorted."""
    import numpy as np

    # one key per entry, sorted: by source, then neighbour
    src, dst = np.divmod(np.unique(src * n + dst), max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return array("q", indptr.tobytes()), array("i", dst.astype(np.int32).tobytes())


class GlobalGraph:
    """Undirected simple graph over ids 0..n-1, CSR adjacency; ``labels``
    maps each id to its input id."""

    def __init__(self, indptr: array, indices: array, labels: array | range | None = None):
        self.indptr = indptr
        self.indices = indices
        self.n = len(indptr) - 1
        self.labels = range(self.n) if labels is None else labels

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
        return cls(*_csr(np.concatenate([u, v]), np.concatenate([v, u]), n))

    def _np(self):
        """numpy views of (indptr, indices); no copy."""
        import numpy as np

        return (np.frombuffer(self.indptr, dtype=np.int64),
                np.frombuffer(self.indices, dtype=np.int32))

    def _entries(self):
        """numpy int64 (source, neighbour) of every adjacency entry."""
        import numpy as np

        indptr, indices = self._np()
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        return src, indices.astype(np.int64)

    def to_edge_pdf(self) -> pd.DataFrame:
        """Canonical src < dst edge table (for Spark/DuckDB checks)."""
        import pandas as pd

        src, dst = self._entries()
        up = src < dst
        return pd.DataFrame({"src": src[up], "dst": dst[up]})

    def subgraph(self, ids: list[int]) -> "GlobalGraph":
        """The subgraph induced by ``ids`` (distinct ids of this graph),
        recoded: its vertex i is ``ids[i]`` here, and its ``labels[i]``
        is ``self.labels[ids[i]]``."""
        import numpy as np

        new = np.full(self.n, -1, dtype=np.int64)
        new[ids] = np.arange(len(ids))
        src, dst = (new[e] for e in self._entries())
        inside = (src >= 0) & (dst >= 0)
        labels = self.labels
        return GlobalGraph(*_csr(src[inside], dst[inside], len(ids)),
                           array("i", [labels[v] for v in ids]))

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

    def two_hop(self, v: int) -> set[int]:
        """N_2^+(v): v plus everything within 2 hops."""
        p, idx = self.indptr, self.indices  # adj[u] inlined: this runs per root task
        out = set(idx[p[v]:p[v + 1]])
        for u in list(out):
            out.update(idx[p[u]:p[u + 1]])
        out.add(v)
        return out

    def pruned_subgraph(self, gamma: Gamma | float, tau_size: int) -> "GlobalGraph":
        """Section 8 preprocessing, the pruned graph of Table 3(b): the
        k-core with k = ceil(γ(τ_size-1)), less the vertices whose
        two-hop neighbourhood in it is < τ_size, recoded by
        :meth:`subgraph` in ascending id. Sets are built for the k-core's
        vertices alone."""
        import numpy as np

        k = make_gamma(gamma).ceil_mul(tau_size - 1)
        core = self.subgraph(np.flatnonzero(self._kcore_mask(k)).tolist())
        p, nb = core.indptr.tolist(), core.indices.tolist()
        nbrs = [set(nb[p[v]:p[v + 1]]) for v in range(core.n)]
        keep = [v for v, n1 in enumerate(nbrs)
                if len(n1) + 1 >= tau_size  # v and N(v) alone reach τ_size
                or len({v}.union(n1, *map(nbrs.__getitem__, n1))) >= tau_size]
        return core.subgraph(keep)

    # ----------------------------------------------- vertex ordering
    def mining_order(self, quick_plus: bool) -> list[int]:
        """The vertices with an edge in set-enumeration order, the order
        Section 7 recodes vertex ids into.

        Quick orders every vertex by ascending degree. Quick+ adds the
        degenerate (P7) rule: v_max (max degree) comes first, N(v_max)
        last (and is *not spawned from* — any quasi-clique inside
        N(v_max) extends with v_max, hence is non-maximal), everything
        else in between by ascending degree. Ties go to the smaller id.
        """
        by_degree = sorted(self.vertices(), key=self.degree)  # stable: ties by id
        if not quick_plus or not by_degree:
            return by_degree
        vmax = max(by_degree, key=self.degree)  # the first of max degree: the smallest id
        nbrs = set(self.adj[vmax])
        return [vmax, *(v for v in by_degree if v != vmax and v not in nbrs),
                *(v for v in by_degree if v in nbrs)]

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
        """The task ⟨S, ext⟩ for disjoint id sets S and ext, its compact
        ids in ascending input id (``labels``): a subtask (Alg 8 line
        19), a kernel to expand, or an MCF ego net."""
        ids = sorted({*s_ids, *ext_ids}, key=self.labels.__getitem__)
        s = set(s_ids)
        s_mask = mask_of(i for i, u in enumerate(ids) if u in s)
        return Task(self.local_graph(ids), ids, s_mask, ((1 << len(ids)) - 1) & ~s_mask)

    def spawn_task(self, v: int, gamma: Gamma | float, tau_size: int) -> Task | None:
        """Build the root task for spawn vertex v (Algorithms 4–7): the
        2-hop ego network over v and the vertices with a higher id (on
        the pruned graph, those after v in the mining order), shrunk to
        its k-core; None if v itself drops out (task pruned). Compact ids
        ascend, so v is compact id 0."""
        k = make_gamma(gamma).ceil_mul(tau_size - 1)
        if self.degree(v) < k:
            return None
        ids = sorted(u for u in self.two_hop(v) if u >= v)
        if len(ids) < tau_size:
            return None
        g = self.local_graph(ids)
        core = g.kcore_mask(k)
        ext_mask = core & ~1
        if not core & 1 or not ext_mask or core.bit_count() < tau_size:
            return None  # v dropped out, or too little is left
        return Task(g.induce(core), ids, 1, ext_mask, root=v)
