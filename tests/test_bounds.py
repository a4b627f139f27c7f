"""Pruning-rule mathematics (repro/core/bounds.py) — Theorems 1–9.

Strategy: generate small random graphs + (S, ext) splits, then verify
each bound/pruning statement directly against brute-force enumeration
of the subsets it quantifies over.
"""
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitset import bits, mask_of
from repro.core.bounds import (
    DegreeSnapshot,
    best_cover_vertex,
    cover_set,
    critical_vertices,
    lower_bound,
    upper_bound,
)
from repro.core.brute import is_quasi_clique
from repro.core.gamma import make_gamma
from repro.core.graph import LocalGraph


@st.composite
def graph_split(draw):
    """(graph, S_mask, ext_mask, gamma) with S non-empty, S∩ext = ∅."""
    n = draw(st.integers(3, 11))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    p = draw(st.sampled_from([0.4, 0.6, 0.8]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = LocalGraph.from_edges(n, edges)
    s_size = draw(st.integers(1, max(1, n // 2)))
    verts = list(range(n))
    rng.shuffle(verts)
    s = verts[:s_size]
    ext = [v for v in verts[s_size:] if rng.random() < 0.8]
    gamma = draw(st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9, 1.0]))
    return g, mask_of(s), mask_of(ext), make_gamma(gamma)


def ceil_table(snap, gam):
    """ceil(γ·x) for every x the bounds of one snapshot read: x < |S| + |ext|."""
    return gam.ceil_table(len(snap.s_list) + len(snap.ext_list))


def valid_extensions(g, S, ext, gam):
    """All Z ⊆ ext with S∪Z a γ-quasi-clique (degree condition only —
    connectivity is implied for the γ ≥ 0.5 values used here)."""
    ext_list = list(bits(ext))
    out = []
    for r in range(len(ext_list) + 1):
        for z in combinations(ext_list, r):
            q = S | mask_of(z)
            s = q.bit_count()
            need = gam.ceil_mul(s - 1)
            if all((g.adj[v] & q).bit_count() >= need for v in bits(q)):
                out.append(mask_of(z))
    return out


class TestUpperBound:
    @given(graph_split())
    @settings(max_examples=150, deadline=None)
    def test_no_valid_extension_exceeds_us(self, gs):
        g, S, ext, gam = gs
        if gam.num == 0 or ext == 0:
            return
        snap = DegreeSnapshot(g, S, ext)
        u_s = upper_bound(snap, gam, ceil_table(snap, gam))
        for z in valid_extensions(g, S, ext, gam):
            if z.bit_count() >= 1:
                assert u_s is not None and z.bit_count() <= u_s, (
                    f"valid extension of size {z.bit_count()} exceeds U_S={u_s}"
                )

    def test_clique_allows_full_extension(self):
        g = LocalGraph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        snap = DegreeSnapshot(g, mask_of({0}), mask_of({1, 2, 3}))
        gam = make_gamma(1.0)
        u_s = upper_bound(snap, gam, ceil_table(snap, gam))
        assert u_s == 3


class TestLowerBound:
    @given(graph_split())
    @settings(max_examples=150, deadline=None)
    def test_no_valid_extension_below_ls(self, gs):
        g, S, ext, gam = gs
        if gam.num == 0 or ext == 0:
            return
        snap = DegreeSnapshot(g, S, ext)
        l_s = lower_bound(snap, ceil_table(snap, gam))
        for z in valid_extensions(g, S, ext, gam):
            assert l_s is not None and z.bit_count() >= l_s, (
                f"valid extension of size {z.bit_count()} below L_S={l_s}"
            )

    def test_quasi_clique_s_gives_zero(self):
        g = LocalGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        snap = DegreeSnapshot(g, mask_of({0, 1, 2}), 0)
        assert lower_bound(snap, ceil_table(snap, make_gamma(0.5))) == 0


class TestCriticalVertex:
    @given(graph_split())
    @settings(max_examples=100, deadline=None)
    def test_valid_extensions_contain_critical_neighbors(self, gs):
        """Theorem 9: any valid strict extension S' absorbs N_ext(v) of
        every critical vertex v."""
        g, S, ext, gam = gs
        if gam.num == 0 or ext == 0:
            return
        snap = DegreeSnapshot(g, S, ext)
        ceil = ceil_table(snap, gam)
        l_s = lower_bound(snap, ceil)
        if l_s is None:
            return
        for v in critical_vertices(snap, l_s, ceil):
            nbrs = g.adj[v] & ext
            for z in valid_extensions(g, S, ext, gam):
                if z != 0:  # strict extension
                    assert nbrs & ~z == 0, "critical neighbor missing from S'"


class TestCoverVertex:
    @given(graph_split())
    @settings(max_examples=100, deadline=None)
    def test_cover_extension_is_not_maximal(self, gs):
        """(P7): extending S inside C_S(u) only -> adding u still valid."""
        g, S, ext, gam = gs
        if gam.num == 0 or ext == 0:
            return
        thr = gam.ceil_mul(S.bit_count())
        for u in bits(ext):
            c = cover_set(g.adj, S, ext, thr, u)
            if c is None or c == 0:
                continue
            for z in valid_extensions(g, S, c & ~(1 << u), gam):
                q = S | z
                if q.bit_count() >= 1 and is_quasi_clique(g, q, gam):
                    assert is_quasi_clique(g, q | (1 << u), gam), (
                        "Q∪u not a quasi-clique — cover rule would lose results"
                    )

    @given(graph_split())
    @settings(max_examples=60, deadline=None)
    def test_best_cover_is_argmax(self, gs):
        g, S, ext, gam = gs
        u, c = best_cover_vertex(g, S, ext, gam)
        sizes = {}
        thr = gam.ceil_mul(S.bit_count())
        for cand in bits(ext):
            cs = cover_set(g.adj, S, ext, thr, cand) if S else (g.adj[cand] & ext)
            if cs is not None:
                sizes[cand] = cs.bit_count()
        if u is None:
            assert all(v == 0 for v in sizes.values())
        else:
            assert c.bit_count() == max(sizes.values())

    def test_degenerate_cover_is_neighborhood(self):
        g = LocalGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        u, c = best_cover_vertex(g, 0, mask_of({0, 1, 2, 3}), make_gamma(0.5))
        assert u == 0 and set(bits(c)) == {1, 2, 3}


class TestLemma1:
    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 30),
           st.sampled_from([0.5, 0.6, 0.75, 0.9, 1.0]))
    def test_lemma1(self, a, b, n, gamma):
        """Lemma 1 [39]: a+n < ceil(γ(b+n)) implies a+i < ceil(γ(b+i)) ∀ i ≤ n."""
        gam = make_gamma(gamma)
        if a + n < gam.ceil_mul(b + n):
            for i in range(n + 1):
                assert a + i < gam.ceil_mul(b + i)
