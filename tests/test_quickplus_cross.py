"""End-to-end correctness of the Quick+ miner vs the brute-force oracle.

These are the load-bearing correctness tests: on dozens of seeded
random graphs, the maximal result set of every serial strategy must
equal brute-force enumeration exactly.
"""
import random

import pytest

from repro.core.brute import brute_force_maximal
from repro.core.graph import LocalGraph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_serial


def make_case(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 13)
    p = rng.choice([0.3, 0.5, 0.7, 0.85])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    gamma = rng.choice([0.5, 0.6, 0.7, 0.8, 0.9])
    tau = rng.choice([3, 4, 5])
    g = LocalGraph.from_edges(n, edges)
    gg = GlobalGraph.from_edges(edges)
    return g, gg, gamma, tau


CASE_SEEDS = list(range(30))


@pytest.mark.parametrize("seed", CASE_SEEDS)
class TestExactness:
    def test_base_strategy(self, seed):
        g, gg, gamma, tau = make_case(seed)
        expect = brute_force_maximal(g, gamma, tau)
        job = run_serial(gg, gamma, tau, strategy="base")
        assert job.maximal == expect

    def test_split_strategy(self, seed):
        g, gg, gamma, tau = make_case(seed)
        expect = brute_force_maximal(g, gamma, tau)
        job = run_serial(gg, gamma, tau, strategy="split", tau_split=2)
        assert job.maximal == expect

    def test_time_strategy_immediate_timeout(self, seed):
        # tau_time=0 forces decomposition at every level — the stress
        # case for the subtask path.
        g, gg, gamma, tau = make_case(seed)
        expect = brute_force_maximal(g, gamma, tau)
        job = run_serial(gg, gamma, tau, strategy="time", tau_time=0.0)
        assert job.maximal == expect


@pytest.mark.parametrize("seed", CASE_SEEDS[:15])
def test_quick_original_sound_but_maybe_incomplete(seed):
    """The Quick emulation may MISS results (that is the paper's point)
    but must stay *sound*: every reported set is a valid quasi-clique,
    and is contained in some true maximal one. (Its own postprocessed
    'maximal' set can include sets dominated only by results it missed,
    so subset-of-expect would be too strong.)"""
    from repro.core.bitset import mask_of
    from repro.core.brute import is_quasi_clique

    g, gg, gamma, tau = make_case(seed)
    expect = brute_force_maximal(g, gamma, tau)
    job = run_serial(gg, gamma, tau, strategy="base", quick_plus=False)
    for s in job.maximal:
        assert len(s) >= tau
        assert is_quasi_clique(g, mask_of(s), gamma)
        assert any(s <= t for t in expect), f"{set(s)} not within any true maximal"


def test_quick_original_misses_results_somewhere():
    """Table 15's qualitative claim: there exist graphs where Quick
    misses a true maximal result that Quick+ finds."""
    missed = 0
    for seed in range(120):
        g, gg, gamma, tau = make_case(seed)
        expect = brute_force_maximal(g, gamma, tau)
        orig = run_serial(gg, gamma, tau, strategy="base", quick_plus=False)
        if expect - orig.maximal:
            missed += 1
    assert missed >= 1, "expected Quick emulation to miss results on some input"


@pytest.mark.parametrize("gamma,tau", [(0.5, 3), (0.8, 4), (0.9, 5), (1.0, 3)])
def test_clique_input(gamma, tau):
    n = 6
    g = LocalGraph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    gg = GlobalGraph.from_edges(g.edges())
    job = run_serial(gg, gamma, tau, strategy="base")
    assert job.maximal == {frozenset(range(n))}


def test_empty_graph():
    gg = GlobalGraph.from_edges([])
    job = run_serial(gg, 0.9, 3, strategy="base")
    assert job.maximal == set() and job.n_root_tasks == 0
