"""Task-level execution semantics (repro/gthinker/tasks.py)."""
import pytest

from repro.core.bitset import mask_of
from repro.core.graph import LocalGraph
from repro.gthinker.tasks import run_task


@pytest.fixture()
def clique6():
    n = 6
    g = LocalGraph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    ids = list(range(100, 100 + n))  # global ids distinct from compact ids
    return g, ids


class TestRunTask:
    def test_base_finds_clique_in_global_ids(self, clique6):
        g, ids = clique6
        out = run_task(g, ids, mask_of({0}), mask_of(range(1, 6)), 0.9, 3,
                       strategy="base")
        assert frozenset(range(100, 106)) in out.results
        assert out.subtasks == []
        assert out.mine_time > 0

    def test_split_generates_subtasks_when_ext_large(self):
        # hub 0 + two triangles {1,2,3}, {4,5,6}: S∪ext is NOT a quasi-
        # clique, so the Alg 8 lookahead cannot short-circuit the split.
        n = 7
        edges = [(0, i) for i in range(1, 7)] + [
            (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)
        ]
        g = LocalGraph.from_edges(n, edges)
        ids = list(range(100, 100 + n))
        out = run_task(g, ids, mask_of({0}), mask_of(range(1, 7)), 0.9, 3,
                       strategy="split", tau_split=2)
        assert out.subtasks, "|ext|=6 > tau_split=2 must decompose"
        for s, e in out.subtasks:
            assert s and set(s) <= set(range(100, 107))
            assert set(e) <= set(range(100, 107))
            assert not (set(s) & set(e))

    def test_split_mines_serially_when_ext_small(self, clique6):
        g, ids = clique6
        out = run_task(g, ids, mask_of({0}), mask_of(range(1, 6)), 0.9, 3,
                       strategy="split", tau_split=50)
        assert out.subtasks == []
        assert frozenset(range(100, 106)) in out.results

    def test_time_zero_budget_decomposes(self, clique6):
        g, ids = clique6
        out = run_task(g, ids, mask_of({0}), mask_of(range(1, 6)), 0.9, 3,
                       strategy="time", tau_time=0.0)
        # lookahead emits the full clique immediately even under timeout
        assert frozenset(range(100, 106)) in out.results

    def test_large_budget_no_subtasks(self, clique6):
        g, ids = clique6
        out = run_task(g, ids, mask_of({0}), mask_of(range(1, 6)), 0.9, 3,
                       strategy="time", tau_time=10.0)
        assert out.subtasks == []

    def test_unknown_strategy_raises(self, clique6):
        g, ids = clique6
        with pytest.raises(ValueError):
            run_task(g, ids, 1, 2, 0.9, 3, strategy="bogus")

    def test_stats_populated(self, clique6):
        g, ids = clique6
        out = run_task(g, ids, mask_of({0}), mask_of(range(1, 6)), 0.9, 3,
                       strategy="base")
        assert out.stats.n_recursive_calls >= 1
        assert out.stats.n_emitted == len(out.results)
