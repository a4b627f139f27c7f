"""GlobalGraph: preprocessing, ordering, spawn tasks (graphs/global_graph.py)."""
import random

import numpy as np
import pandas as pd
import pytest

from repro.core.bitset import bits
from repro.core.gamma import make_gamma
from repro.graphs.generators import edges_pdf, er_graph, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_serial


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
        assert g1.adj == g2.adj

    def test_roundtrip_edge_pdf(self, gg):
        back = GlobalGraph.from_edges(gg.to_edge_pdf())
        assert back.adj == gg.adj

    def test_self_loops_dropped(self):
        g = GlobalGraph.from_edges([(1, 1), (0, 1)])
        assert g.adj[1] == {0}

    def test_numpy_ids_accepted(self):
        pairs = [(np.int64(0), np.int32(1)), (np.int64(1), np.int64(2))]
        assert GlobalGraph.from_edges(pairs).adj == [{1}, {0, 2}, {1}]

    @pytest.mark.parametrize("bad", [-1, 1.0, np.float64(2.0), "3"])
    def test_bad_ids_refused(self, bad):
        pairs = [(0, 1), (1, bad)]
        with pytest.raises(ValueError, match="vertex ids"):
            GlobalGraph.from_edges(pairs)
        with pytest.raises(ValueError, match="vertex ids"):
            GlobalGraph.from_edges(pd.DataFrame(pairs, columns=["src", "dst"]))

    def test_negative_id_is_not_a_silent_wrong_answer(self):
        """K4 on {-1, 1, 2, 3} is a 0.9-quasi-clique of size 4; with -1
        left out of ``adj`` the engine returned no set at all."""
        k4 = [(u, v) for u in (-1, 1, 2, 3) for v in (1, 2, 3) if u < v]
        with pytest.raises(ValueError, match="vertex ids"):
            run_serial(GlobalGraph.from_edges(k4), 0.9, 4)


class TestKCore:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_kcore_degree_invariant(self, gg, k):
        core = gg.kcore_vertices(k)
        for v in core:
            assert len(gg.adj[v] & core) >= k

    def test_kcore_maximality(self, gg):
        # adding any removed vertex violates the invariant transitively:
        # check the standard fixpoint property instead — re-peeling the
        # core changes nothing.
        core = gg.kcore_vertices(3)
        sub = GlobalGraph(gg.n, [gg.adj[v] & core if v in core else set()
                                 for v in range(gg.n)])
        assert sub.kcore_vertices(3) == core

    def test_matches_local_graph_kcore(self, gg):
        from repro.core.graph import LocalGraph

        lg = LocalGraph.from_edges(
            gg.n, [(u, v) for u in range(gg.n) for v in gg.adj[u] if u < v]
        )
        for k in (2, 3, 4):
            assert set(bits(lg.kcore_mask(k))) == gg.kcore_vertices(k)


class TestPrune:
    def test_pruned_vertices_subset_of_kcore(self, gg):
        gam = make_gamma(0.9)
        keep = gg.pruned_vertices(gam, 8)
        core = gg.kcore_vertices(gam.ceil_mul(7))
        assert keep <= core
        for v in keep:
            assert len(gg.two_hop(v, core)) >= 8

    def test_pruned_subgraph_isolates_dropped(self, gg):
        pruned = gg.pruned_subgraph(0.9, 8)
        keep = gg.pruned_vertices(0.9, 8)
        for v in range(gg.n):
            if v not in keep:
                assert pruned.adj[v] == set()
            else:
                assert pruned.adj[v] == gg.adj[v] & keep


class TestMiningOrder:
    def test_degenerate_order_puts_vmax_first(self, gg):
        alive = {v for v in range(gg.n) if gg.adj[v]}
        rank, skip = gg.mining_order(alive, quick_plus=True)
        vmax = max(alive, key=lambda v: (len(gg.adj[v] & alive), -v))
        assert rank[vmax] == 0
        assert skip == gg.adj[vmax] & alive
        # neighbours of vmax occupy the largest ranks
        tail = sorted(rank[v] for v in skip)
        assert tail == list(range(len(alive) - len(skip), len(alive)))

    def test_plain_order_is_permutation(self, gg):
        alive = {v for v in range(gg.n) if gg.adj[v]}
        rank, skip = gg.mining_order(alive, quick_plus=False)
        assert skip == set()
        assert sorted(rank.values()) == list(range(len(alive)))

    def test_empty_alive(self, gg):
        assert gg.mining_order(set(), True) == ({}, set())


class TestSpawnTask:
    def test_spawn_scope_is_two_hop_higher_rank(self, gg):
        gam = make_gamma(0.8)
        tau = 6
        pruned = gg.pruned_subgraph(gam, tau)
        alive = {v for v in range(pruned.n) if pruned.adj[v]}
        rank, _ = pruned.mining_order(alive, True)
        spawned = 0
        for v in sorted(alive)[:30]:
            t = pruned.spawn_task(v, rank, alive, gam, tau)
            if t is None:
                continue
            spawned += 1
            two_hop = pruned.two_hop(v, alive)
            assert t.root == v
            assert t.ids[0] == v and t.s_mask == 1  # the root is compact id 0
            assert [rank[u] for u in t.ids] == sorted(rank[u] for u in t.ids)
            for gid in t.ids:
                assert gid == v or rank[gid] > rank[v]
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
