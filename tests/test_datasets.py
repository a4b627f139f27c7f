"""Dataset registry (repro/graphs/datasets.py)."""
import pytest

from repro.core.gamma import make_gamma
from repro.graphs.datasets import DATASETS, load_dataset


class TestRegistry:
    def test_ten_datasets_like_the_paper(self):
        assert len(DATASETS) == 10
        assert set(DATASETS) == {
            "CX_GSE1730", "CX_GSE10158", "Ca-GrQc", "Enron", "Amazon",
            "Hyves", "YouTube", "Patent", "kmer", "USA Road",
        }

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_specs_sane(self, name):
        spec = DATASETS[name]
        assert 0.5 <= spec.gamma <= 1.0
        assert spec.tau_size >= 3
        assert spec.tau_split >= 1
        assert spec.tau_time > 0
        assert spec.paper_nv > 0 and spec.paper_ne > 0

    @pytest.mark.parametrize("name", ["CX_GSE1730", "Hyves", "USA Road"])
    def test_loading_deterministic(self, name):
        g1, _ = load_dataset(name)
        g2, _ = load_dataset(name)
        assert list(g1.adj) == list(g2.adj)

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_pruned_graph_nonempty(self, name):
        """Default (γ, τ_size) must leave a non-trivial pruned graph —
        otherwise the dataset exercises nothing (paper Table 3(b))."""
        gg, spec = load_dataset(name)
        pruned = gg.pruned_subgraph(make_gamma(spec.gamma), spec.tau_size)
        assert len(pruned.vertices()) >= spec.tau_size

    def test_straggler_datasets_are_bigger_after_pruning(self):
        """YouTube/Patent stand-ins must retain the paper's property of
        having the largest pruned graphs (they host the stragglers)."""
        sizes = {}
        for name in ("YouTube", "Patent", "kmer", "CX_GSE1730"):
            gg, spec = load_dataset(name)
            pruned = gg.pruned_subgraph(spec.gamma, spec.tau_size)
            sizes[name] = pruned.num_edges()
        assert sizes["Patent"] > sizes["kmer"]
        assert sizes["YouTube"] > sizes["CX_GSE1730"]
