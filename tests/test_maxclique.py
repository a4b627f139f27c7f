"""Max-clique branch-and-bound vs brute force."""
import random
from itertools import combinations

import pytest

from repro.core.bitset import bits, mask_of
from repro.core.graph import LocalGraph
from repro.core.maxclique import max_clique


def brute_max_clique(g: LocalGraph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for combo in combinations(range(g.n), r):
            if all(g.adj[a] >> b & 1 for a, b in combinations(combo, 2)):
                return r
        if best:
            return best
    return 0


@pytest.mark.parametrize("seed", range(20))
def test_matches_brute(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    p = rng.choice([0.3, 0.5, 0.7, 0.9])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = LocalGraph.from_edges(n, edges)
    got = max_clique(g)
    # verify it is a clique
    vs = list(bits(got))
    assert all(g.adj[a] >> b & 1 for i, a in enumerate(vs) for b in vs[i + 1:])
    assert got.bit_count() == brute_max_clique(g)


def test_complete_graph():
    g = LocalGraph.from_edges(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
    assert max_clique(g).bit_count() == 6


def test_triangle_plus_pendant():
    g = LocalGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert set(bits(max_clique(g))) == {0, 1, 2}


def test_within_restriction():
    g = LocalGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert max_clique(g, within=mask_of({2, 3})).bit_count() == 2


def test_empty_graph():
    g = LocalGraph(3)
    assert max_clique(g).bit_count() == 1  # single vertex is a clique
