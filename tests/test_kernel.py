"""Kernel-expansion baseline [31] (repro/core/kernel.py)."""
import pytest

from repro.core.bitset import mask_of
from repro.core.brute import brute_force_maximal, is_quasi_clique
from repro.core.graph import LocalGraph
from repro.core.kernel import kernel_expansion
from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph


def _case(seed=21):
    pdf = edges_pdf(
        planted_community_graph(
            200, [(10, 1.0), (9, 0.95), (8, 0.95)], ba_m=2, seed=seed
        )
    )
    return GlobalGraph.from_edges(pdf)


class TestKernelExpansion:
    def test_results_are_valid_quasi_cliques(self):
        gg = _case()
        g = LocalGraph.from_edges(
            gg.n, [(u, v) for u in range(gg.n) for v in gg.adj[u] if u < v]
        )
        out = kernel_expansion(
            gg, gamma_prime=0.95, k_prime=6, gamma=0.85, k=5, tau_size=6
        )
        assert out.results
        for s in out.results:
            assert len(s) >= 6
            assert is_quasi_clique(g, mask_of(s), 0.85)

    def test_every_result_contains_a_kernel_or_extends_one(self):
        gg = _case()
        out = kernel_expansion(
            gg, gamma_prime=0.95, k_prime=3, gamma=0.85, k=10, tau_size=6
        )
        for s in out.results:
            assert any(set(k) <= set(s) for k in out.kernels)

    def test_incomplete_vs_exact(self):
        """The paper's demonstrated failure mode: with few kernels, some
        true maximal quasi-cliques are never found."""
        gg = _case()
        from repro.gthinker.engine import run_serial

        exact = run_serial(gg, 0.85, 6, strategy="base").maximal
        out = kernel_expansion(
            gg, gamma_prime=0.99, k_prime=1, gamma=0.85, k=1000, tau_size=6
        )
        assert out.all_found < exact  # strictly misses results

    def test_topk_ordering(self):
        gg = _case()
        out = kernel_expansion(
            gg, gamma_prime=0.95, k_prime=4, gamma=0.85, k=3, tau_size=6
        )
        assert len(out.results) <= 3
        if out.all_found and out.results:
            kept = min(len(s) for s in out.results)
            dropped = [s for s in out.all_found - out.results]
            if dropped:
                assert max(len(s) for s in dropped) <= max(kept, kept)

    @pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "no kernel"])
    def test_gamma_below_half_refused(self, kernels):
        """The 2-hop candidate scope assumes diameter ≤ 2, so γ < 0.5 is
        refused, also where phase 1 would find no kernel to expand."""
        gg = _case() if kernels else GlobalGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError, match=r"gamma must be >= 0\.5, got 0\.4"):
            kernel_expansion(gg, gamma_prime=0.95, k_prime=3, gamma=0.4, k=5, tau_size=6)

    def test_phase_times_recorded(self):
        gg = _case()
        out = kernel_expansion(
            gg, gamma_prime=0.95, k_prime=2, gamma=0.9, k=5, tau_size=6
        )
        assert out.kernel_time > 0 and out.job_time >= out.kernel_time
