"""GlobalGraph: preprocessing, ordering, spawn tasks (graphs/global_graph.py)."""
import random

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitset import bits
from repro.core.gamma import make_gamma
from repro.graphs.generators import edges_pdf, er_graph, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_serial, spawn_all


@pytest.fixture()
def gg():
    return GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(120, [(10, 0.95)], seed=2))
    )


class TestBuild:
    def test_from_edge_list_and_pdf_agree(self):
        pairs = [(0, 1), (1, 2), (2, 0), (2, 3)]
        g1 = GlobalGraph.from_edges(pairs)
        g2 = GlobalGraph.from_edges(pd.DataFrame(pairs, columns=["src", "dst"]))
        assert list(g1.adj) == list(g2.adj)

    def test_roundtrip_edge_pdf(self, gg):
        back = GlobalGraph.from_edges(gg.to_edge_pdf())
        assert list(back.adj) == list(gg.adj)

    def test_self_loops_dropped(self):
        g = GlobalGraph.from_edges([(1, 1), (0, 1)])
        assert set(g.adj[1]) == {0}

    def test_numpy_ids_accepted(self):
        pairs = [(np.int64(0), np.int32(1)), (np.int64(1), np.int64(2))]
        assert [set(a) for a in GlobalGraph.from_edges(pairs).adj] == [{1}, {0, 2}, {1}]

    @pytest.mark.parametrize("bad", [-1, 1.0, np.float64(2.0), "3"])
    def test_bad_ids_refused(self, bad):
        pairs = [(0, 1), (1, bad)]
        with pytest.raises(ValueError, match="vertex ids"):
            GlobalGraph.from_edges(pairs)
        with pytest.raises(ValueError, match="vertex ids"):
            GlobalGraph.from_edges(pd.DataFrame(pairs, columns=["src", "dst"]))

    @pytest.mark.parametrize("big", [2**31, np.int64(2**62)])
    def test_ids_beyond_int32_refused(self, big):
        """``indices`` holds int32 ids: a larger one is refused, not wrapped."""
        pairs = [(0, 1), (1, big)]
        with pytest.raises(ValueError, match=r"vertex ids must be < 2\*\*31"):
            GlobalGraph.from_edges(pairs)
        with pytest.raises(ValueError, match=r"vertex ids must be < 2\*\*31"):
            GlobalGraph.from_edges(pd.DataFrame(pairs, columns=["src", "dst"]))

    def test_negative_id_is_not_a_silent_wrong_answer(self):
        """K4 on {-1, 1, 2, 3} is a 0.9-quasi-clique of size 4; with -1
        left out of ``adj`` the engine returned no set at all."""
        k4 = [(u, v) for u in (-1, 1, 2, 3) for v in (1, 2, 3) if u < v]
        with pytest.raises(ValueError, match="vertex ids"):
            run_serial(GlobalGraph.from_edges(k4), 0.9, 4)


def kcore(gg, k) -> set[int]:
    """The (P2) k-core's vertices, from the peel's mask."""
    return set(np.flatnonzero(gg._kcore_mask(k)).tolist())


def kept(pruned) -> set[int]:
    """The input ids of a pruned graph's vertices with an edge."""
    return {pruned.labels[v] for v in pruned.vertices()}


class TestKCore:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_kcore_degree_invariant(self, gg, k):
        core = kcore(gg, k)
        for v in core:
            assert len(core.intersection(gg.adj[v])) >= k

    def test_kcore_maximality(self, gg):
        # adding any removed vertex violates the invariant transitively:
        # check the standard fixpoint property instead — re-peeling the
        # core changes nothing.
        core = kcore(gg, 3)
        sub = GlobalGraph.from_edges(
            [(u, v) for u in core for v in core.intersection(gg.adj[u])])
        assert kcore(sub, 3) == core

    def test_matches_local_graph_kcore(self, gg):
        from repro.core.graph import LocalGraph

        lg = LocalGraph.from_edges(
            gg.n, [(u, v) for u in range(gg.n) for v in gg.adj[u] if u < v]
        )
        for k in (2, 3, 4):
            assert set(bits(lg.kcore_mask(k))) == kcore(gg, k)


class TestPrune:
    def test_pruned_vertices_subset_of_kcore(self, gg):
        gam = make_gamma(0.9)
        keep = kept(gg.pruned_subgraph(gam, 8))
        core = kcore(gg, gam.ceil_mul(7))
        assert keep <= core
        sub = gg.subgraph(sorted(core))  # two hops inside the k-core
        at = {u: i for i, u in enumerate(sub.labels)}
        for v in keep:
            assert len(sub.two_hop(at[v])) >= 8

    def test_pruned_subgraph_isolates_dropped(self, gg):
        """The pruned graph holds the kept vertices' edges among
        themselves, recoded in ascending input id; no dropped vertex
        keeps an edge."""
        pruned = gg.pruned_subgraph(0.9, 8)
        keep, lab = kept(pruned), pruned.labels
        assert keep and list(lab) == sorted(lab)
        for v in range(pruned.n):
            assert {lab[u] for u in pruned.adj[v]} == keep.intersection(gg.adj[lab[v]])


def check_recoded_like_reference(gg, quick_plus):
    """spawn_all's pruned graph: vertex i is the set-based reference
    order's i-th vertex, its edges map through ``labels`` to the
    reference's, and under Quick+ N(v_max) = N(0) are the last ids."""
    pruned, _ = spawn_all(gg, 0.8, 6, quick_plus)
    want = ref_pruned(ref_adjacency((u, w) for u in gg.vertices() for w in gg.adj[u]), 0.8, 6)
    alive, rank, _ = ref_spawn_rows(want, make_gamma(0.8).ceil_mul(5), quick_plus)
    lab = pruned.labels
    assert list(lab) == sorted(alive, key=rank.__getitem__) != []
    assert [{lab[u] for u in a} for a in pruned.adj] == [want[v] for v in lab]
    if quick_plus:
        d = pruned.degree(0)
        assert list(pruned.adj[0]) == list(range(pruned.n - d, pruned.n))


class TestMiningOrder:
    def test_degenerate_order_puts_vmax_first(self, gg):
        order = gg.mining_order(quick_plus=True)
        vmax = max(gg.vertices(), key=lambda v: (gg.degree(v), -v))
        nbrs = set(gg.adj[vmax])
        assert order[0] == vmax
        # neighbours of vmax come last, everything else by ascending degree
        assert set(order[len(order) - len(nbrs):]) == nbrs
        middle = order[1:len(order) - len(nbrs)]
        assert middle == sorted(middle, key=lambda v: (gg.degree(v), v))
        assert sorted(order) == gg.vertices()
        check_recoded_like_reference(gg, quick_plus=True)

    def test_plain_order_is_permutation(self, gg):
        order = gg.mining_order(quick_plus=False)
        assert sorted(order) == gg.vertices()
        assert order == sorted(order, key=lambda v: (gg.degree(v), v))
        check_recoded_like_reference(gg, quick_plus=False)

    def test_empty_alive(self, gg):
        assert GlobalGraph.from_edges([]).mining_order(True) == []


class TestSpawnTask:
    def test_spawn_scope_is_two_hop_higher_rank(self, gg):
        gam = make_gamma(0.8)
        tau = 6
        pruned, _ = spawn_all(gg, gam, tau)
        spawned = 0
        for v in range(min(30, pruned.n)):
            t = pruned.spawn_task(v, gam, tau)
            if t is None:
                continue
            spawned += 1
            two_hop = pruned.two_hop(v)
            assert t.root == v
            assert t.ids[0] == v and t.s_mask == 1  # the root is compact id 0
            assert t.ids == sorted(t.ids)  # ids are the mining order
            for gid in t.ids:
                assert gid >= v
                assert gid in two_hop
            # k-core invariant inside the task subgraph
            k = gam.ceil_mul(tau - 1)
            for i in range(t.graph.n):
                if t.graph.adj[i]:
                    assert t.graph.degree(i) >= k
        assert spawned > 0

    def test_induce_local_roundtrip(self, gg):
        """GlobalGraph.task: compact ids in ascending global id, S/ext
        masks over them, and the induced adjacency."""
        ext = set(list(gg.adj[5])[:3])
        t = gg.task({5}, ext)
        g, ids = t.graph, t.ids
        assert ids == sorted(ext | {5}) and t.root is None
        assert t.s_mask == 1 << ids.index(5)
        assert t.ext_mask == sum(1 << ids.index(u) for u in ext)
        for i, u in enumerate(ids):
            for j, w in enumerate(ids):
                assert bool(g.adj[i] >> j & 1) == (w in gg.adj[u])


# ------------------------------------------- set-based reference
def ref_adjacency(edges) -> list[set[int]]:
    """Set adjacency of an edge list: self-loops dropped, n = 1 + the
    largest id of an edge that is not a self-loop."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        if u != v:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    return [adj.get(v, set()) for v in range(max(adj, default=-1) + 1)]


def ref_kcore(adj, k) -> set[int]:
    """Stack peel of the vertices with an edge."""
    deg = {v: len(a) for v, a in enumerate(adj) if a}
    stack = [v for v, d in deg.items() if d < k]
    alive = set(deg)
    while stack:
        v = stack.pop()
        if v not in alive or deg[v] >= k:
            continue
        alive.discard(v)
        for w in adj[v] & alive:
            deg[w] -= 1
            if deg[w] < k:
                stack.append(w)
    return alive


def ref_pruned(adj, gamma, tau) -> list[set[int]]:
    """k-core, then keep the vertices with >= τ_size vertices within two
    hops inside it; the kept vertices' edges among themselves."""
    core = ref_kcore(adj, make_gamma(gamma).ceil_mul(tau - 1))
    keep = set()
    for v in core:
        two_hop = {v} | (adj[v] & core)
        for u in adj[v] & core:
            two_hop |= adj[u] & core
        if len(two_hop) >= tau:
            keep.add(v)
    return [adj[v] & keep if v in keep else set() for v in range(len(adj))]


def ref_spawn_rows(adj, k, quick_plus):
    """(alive, rank, rows) of spawn_all on a pruned set adjacency."""
    alive = {v for v, a in enumerate(adj) if a}
    deg = lambda v: len(adj[v] & alive)
    if not alive:
        return alive, {}, []
    skip = set()
    order = sorted(alive, key=lambda v: (deg(v), v))
    if quick_plus:
        vmax = max(alive, key=lambda v: (deg(v), -v))
        skip = adj[vmax] & alive
        order = ([vmax] + [v for v in order if v != vmax and v not in skip]
                 + [v for v in order if v in skip])
    rank = {v: i for i, v in enumerate(order)}
    rows = [(v, sum(rank[u] > rank[v] for u in adj[v] & alive)) for v in order
            if v not in skip and len(adj[v] & alive) >= k]
    return alive, rank, rows


@st.composite
def messy_edge_lists(draw):
    """Edge lists over sparse ids: two near-cliques, a path and random
    edges, with repeats, both orientations and self-loops."""
    ids = draw(st.lists(st.integers(0, 300), min_size=2, max_size=24, unique=True))
    pairs = []
    for _ in range(2):
        dense = draw(st.lists(st.sampled_from(ids), max_size=10, unique=True))
        pairs += [(u, v) for i, u in enumerate(dense) for v in dense[i + 1:]]
    gone = draw(st.sets(st.integers(0, len(pairs)), max_size=len(pairs) // 4))
    pairs = [e for i, e in enumerate(pairs) if i not in gone]
    chain = draw(st.lists(st.sampled_from(ids), max_size=12, unique=True))
    pairs += zip(chain, chain[1:])  # a path peels over many rounds
    pairs += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                           max_size=60))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return pairs + [(v, u) for u, v in extra] + [(u, u) for u, _ in extra[:4]]


class TestSetReference:
    @given(messy_edge_lists(), st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]),
           st.integers(2, 6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_csr_preprocess_and_spawn_match_sets(self, edges, gamma, tau, quick_plus):
        """CSR from_edges -> pruned_subgraph -> spawn_all keeps the same
        vertices, mining order, neighbour sets and spawn rows as the
        set-based code, once mapped through the pruned graph's labels."""
        adj = ref_adjacency(edges)
        gg = GlobalGraph.from_edges(edges)
        assert [set(a) for a in gg.adj] == adj
        assert all(list(a) == sorted(a) for a in gg.adj)
        k = make_gamma(gamma).ceil_mul(tau - 1)
        assert kcore(gg, k) == ref_kcore(adj, k)
        want = ref_pruned(adj, gamma, tau)
        assert kept(gg.pruned_subgraph(gamma, tau)) == {v for v, a in enumerate(want) if a}
        pruned, rows = spawn_all(gg, gamma, tau, quick_plus)
        lab = pruned.labels
        alive, rank, want_rows = ref_spawn_rows(want, k, quick_plus)
        assert list(lab) == sorted(alive, key=rank.__getitem__)
        assert [{lab[u] for u in a} for a in pruned.adj] == [want[v] for v in lab]
        assert all(list(a) == sorted(a) for a in pruned.adj)
        assert [(lab[v], cost) for v, cost in rows] == want_rows
