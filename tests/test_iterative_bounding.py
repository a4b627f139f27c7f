"""Algorithm 2 (iterative_bounding) unit behaviors."""
import random

import pytest

from repro.core.bitset import bits, mask_of
from repro.core.brute import is_quasi_clique
from repro.core.gamma import make_gamma
from repro.core.graph import LocalGraph
from repro.core.quickplus import Miner


def miner_for(n, edges, gamma=0.9, tau=3, quick_plus=True):
    g = LocalGraph.from_edges(n, edges)
    return Miner(g=g, gamma=make_gamma(gamma), tau_size=tau, quick_plus=quick_plus)


class TestReturnContract:
    def test_false_implies_nonempty_ext(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randint(4, 10)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < 0.6
            ]
            m = miner_for(n, edges, gamma=rng.choice([0.6, 0.8, 0.9]))
            s0 = rng.randrange(n)
            ext0 = mask_of(v for v in range(n) if v != s0 and rng.random() < 0.8)
            if not ext0:
                continue
            pruned, s, ext = m.iterative_bounding(1 << s0, ext0)
            if not pruned:
                assert ext != 0
            assert s & ext == 0
            assert s & (1 << s0)  # S only grows

    def test_emitted_sets_always_valid(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(4, 10)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < 0.7
            ]
            m = miner_for(n, edges, gamma=0.8, tau=3)
            s0 = rng.randrange(n)
            ext0 = mask_of(v for v in range(n) if v != s0)
            m.iterative_bounding(1 << s0, ext0)
            for res in m.results:
                assert is_quasi_clique(m.g, mask_of(res), 0.8)
                assert len(res) >= 3


class TestCriticalMove:
    def test_critical_vertex_forces_neighbors_in(self):
        # S = {0,1} non-adjacent, ext = {2} adjacent to both, γ=0.5:
        # d_S_min = 0 < ceil(0.5·1) so L_S = 1, and vertex 0 has
        # d_S + d_ext = 1 = ceil(0.5·(2+1-1)) → critical → 2 is forced
        # into S, giving the valid path {0,1,2}.
        m = miner_for(3, [(0, 2), (1, 2)], gamma=0.5, tau=3)
        pruned, s, ext = m.iterative_bounding(mask_of({0, 1}), mask_of({2}))
        assert set(bits(s)) == {0, 1, 2}
        assert pruned  # ext exhausted; path emitted as candidate
        assert frozenset({0, 1, 2}) in m.results

    def test_quick_single_critical_still_sound(self):
        m = miner_for(3, [(0, 2), (1, 2)], gamma=0.5, tau=3, quick_plus=False)
        m.iterative_bounding(mask_of({0, 1}), mask_of({2}))
        for res in m.results:
            assert is_quasi_clique(m.g, mask_of(res), 0.5)


class TestTypeIIPruning:
    def test_hopeless_s_pruned_without_emit(self):
        # 0 isolated from ext: S={0}, ext={1,2} with no 0-edges; gamma=0.9
        m = miner_for(3, [(1, 2)], gamma=0.9, tau=2)
        pruned, s, ext = m.iterative_bounding(mask_of({0}), mask_of({1, 2}))
        assert pruned
        assert not m.results  # S itself is an invalid singleton here

    def test_stats_counters_advance(self):
        rng = random.Random(2)
        n = 10
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        m = miner_for(n, edges, gamma=0.9, tau=4)
        m.iterative_bounding(mask_of({0}), mask_of(range(1, n)))
        s = m.stats
        assert s.t_bounds >= 0
        assert s.n_type1_pruned >= 0 and s.n_type2_pruned >= 0


class TestEmitDedup:
    def test_duplicate_emissions_counted_once(self):
        m = miner_for(3, [(0, 1), (0, 2), (1, 2)], gamma=1.0, tau=3)
        assert m.emit_if_valid(mask_of({0, 1, 2}))
        assert m.emit_if_valid(mask_of({0, 1, 2}))
        assert m.stats.n_emitted == 1 and len(m.results) == 1

    def test_invalid_not_emitted(self):
        m = miner_for(3, [(0, 1)], gamma=1.0, tau=2)
        assert not m.emit_if_valid(mask_of({0, 1, 2}))
        assert not m.results


class TestGammaBelowHalf:
    def test_miner_refuses_gamma_below_half(self):
        # two disjoint edges: with gamma=0.3 and |S|=4 the degree bound
        # is ceil(0.3*3)=1, which both components satisfy, so the degree
        # test alone would accept the disconnected union. The miner
        # assumes diameter ≤ 2 and refuses γ < 0.5 instead.
        with pytest.raises(ValueError, match=r"gamma must be >= 0\.5, got 0\.3"):
            miner_for(4, [(0, 1), (2, 3)], gamma=0.3, tau=4)
        assert miner_for(4, [(0, 1), (2, 3)], gamma=0.5, tau=4).gamma == make_gamma("1/2")


class TestCeilingTable:
    """The miner reads ceil(γ·x) from a table built once per task graph."""

    @pytest.mark.parametrize("gamma", ["1/2", 0.89, 0.9, "2/3", 1.0])
    def test_table_is_ceil_mul(self, gamma):
        n = 12
        m = miner_for(n, [(u, u + 1) for u in range(n - 1)], gamma=gamma)
        gam = make_gamma(gamma)
        assert len(m._ceil) == 2 * n + 1
        assert m._ceil == [gam.ceil_mul(x) for x in range(2 * n + 1)]

    def test_float_trap(self):
        # 0.9 * 10 == 9.000000000000002 in floats; the table must hold 9
        m = miner_for(12, [(0, 1)], gamma=0.9)
        assert m._ceil[10] == 9

    @pytest.mark.parametrize("n", [2, 3, 8, 20])
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 1.0])
    def test_largest_index_read_on_clique(self, n, gamma):
        """On K_n with S = {0}, the bounding reads ceil(γ·(n − 1)) at most
        (s + d_ext(u) with d_ext(u) = n − 2), inside the table."""

        class Recording(list):
            def __getitem__(self, i):
                read.append(i)
                return super().__getitem__(i)

        read = []
        m = miner_for(n, [(u, v) for u in range(n) for v in range(u + 1, n)],
                      gamma=gamma, tau=2)
        m._ceil = Recording(m._ceil)
        m.iterative_bounding(1, ((1 << n) - 1) & ~1)
        assert read and min(read) >= 0
        assert max(read) == n - 1 < len(m._ceil)
