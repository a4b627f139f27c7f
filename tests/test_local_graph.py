"""LocalGraph: adjacency, induce, k-core, 2-hop, connectivity."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitset import bits, mask_of
from repro.core.graph import LocalGraph


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return LocalGraph.from_edges(n, edges), edges


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(2, max_n))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    seed = draw(st.integers(0, 10**6))
    return random_graph(n, p, seed)[0]


class TestBasics:
    def test_from_edges_symmetric(self):
        g = LocalGraph.from_edges(4, [(0, 1), (1, 2), (0, 1)])
        assert g.adj[0] >> 1 & 1 and g.adj[1] >> 0 & 1
        assert g.degree(1) == 2 and g.degree(3) == 0
        assert g.num_edges() == 2

    def test_self_loops_ignored(self):
        g = LocalGraph.from_edges(3, [(0, 0), (0, 1)])
        assert g.num_edges() == 1 and not g.adj[0] & 1

    def test_edges_canonical(self):
        g = LocalGraph.from_edges(4, [(2, 1), (3, 0)])
        assert g.edges() == [(0, 3), (1, 2)]

    @given(graphs())
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.num_edges()


class TestInduce:
    @given(graphs(), st.integers(0, 10**6))
    def test_induce_keeps_only_internal_edges(self, g, seed):
        rng = random.Random(seed)
        keep = {v for v in range(g.n) if rng.random() < 0.6}
        sub = g.induce(mask_of(keep))
        for u, v in sub.edges():
            assert u in keep and v in keep and g.adj[u] >> v & 1
        for u in keep:
            for v in keep:
                if u < v and g.adj[u] >> v & 1:
                    assert sub.adj[u] >> v & 1


class TestKCore:
    def _peel_reference(self, g, k):
        alive = set(range(g.n))
        alive = {v for v in alive if g.adj[v]}
        while True:
            bad = [v for v in alive if len(set(bits(g.adj[v])) & alive) < k]
            if not bad:
                return alive
            alive -= set(bad)

    @given(graphs(), st.integers(0, 6))
    @settings(max_examples=60)
    def test_matches_reference_peeling(self, g, k):
        got = set(bits(g.kcore_mask(k)))
        # reference keeps isolated vertices out; kcore_mask keeps all for
        # k = 0, so compare only for k >= 1
        if k >= 1:
            assert got == self._peel_reference(g, k)

    def test_triangle_is_2core(self):
        g = LocalGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert set(bits(g.kcore_mask(2))) == {0, 1, 2}
        assert g.kcore_mask(3) == 0

    @given(graphs(), st.integers(1, 6))
    def test_every_core_vertex_has_k_core_neighbors(self, g, k):
        core = g.kcore_mask(k)
        for v in bits(core):
            assert (g.adj[v] & core).bit_count() >= k


class TestTwoHopAndConnectivity:
    def test_two_hop_path(self):
        g = LocalGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert set(bits(g.two_hop_mask(0))) == {0, 1, 2}
        assert set(bits(g.two_hop_mask(2))) == {0, 1, 2, 3, 4}

    @given(graphs())
    def test_two_hop_matches_bfs(self, g):
        for v in range(g.n):
            d1 = set(bits(g.adj[v]))
            d2 = set()
            for u in d1:
                d2 |= set(bits(g.adj[u]))
            assert set(bits(g.two_hop_mask(v))) == {v} | d1 | d2

    def test_connected(self):
        g = LocalGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert g.connected(mask_of({0, 1, 2}))
        assert not g.connected(mask_of({0, 1, 3}))
        assert g.connected(mask_of({3, 4}))
        assert g.connected(0)  # empty set is trivially connected
