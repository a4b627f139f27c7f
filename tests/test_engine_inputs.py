"""Edge-case inputs on both engines, each checked against brute force
on the LocalGraph with the same vertices and edges."""
import pickle
import random

import pytest

from repro.core.brute import brute_force_maximal
from repro.core.graph import LocalGraph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_serial, run_spark, spawn_all

ENGINES = ["serial", "spark-1", "spark-4"]


def _random_edges(n, p, seed):
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def mine(request, engine, edges, gamma, tau_size):
    gg = GlobalGraph.from_edges(edges)
    if engine == "serial":
        return run_serial(gg, gamma, tau_size)
    spark = request.getfixturevalue("spark")
    return run_spark(spark, gg, gamma, tau_size, strategy="time", tau_time=0.0,
                     parallelism=int(engine.split("-")[1]))


def expected(edges, gamma, tau_size):
    n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return brute_force_maximal(LocalGraph.from_edges(n, edges), gamma, tau_size)


BASE = _random_edges(11, 0.6, seed=4)
# a 9-vertex near-clique with a 3-vertex tail ...
NEAR_CLIQUE = ([(u, v) for u in range(9) for v in range(u + 1, 9) if (u + v) % 5]
               + [(0, 9), (9, 10), (10, 11)])
# ... and its vertices' ids in the "sparse_ids" case: sparse, permuted, up to about 10**6
SPARSE_IDS = random.Random(5).sample(range(10**6), 11) + [10**6 - 1]
CASES = {
    "empty": [],
    # every edge three times, twice reversed
    "duplicate_edges": BASE + [(v, u) for u, v in BASE] + [(v, u) for u, v in BASE[::2]],
    # a loop on every vertex, and a vertex whose only edge is a loop
    "self_loops": BASE + [(v, v) for v in range(11)] + [(11, 11)],
    "tau_size_2": _random_edges(9, 0.3, seed=7),
    "sparse_ids": [(SPARSE_IDS[u], SPARSE_IDS[v]) for u, v in NEAR_CLIQUE],
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case,gamma,tau_size", [
    ("empty", 0.9, 3),
    ("duplicate_edges", 0.7, 4),
    ("self_loops", 0.7, 4),
    ("tau_size_2", 0.5, 2),
    ("tau_size_2", 0.8, 2),
    ("sparse_ids", 0.8, 5),
])
def test_matches_brute_force(request, engine, case, gamma, tau_size):
    edges = CASES[case]
    if case == "sparse_ids":  # brute force on the dense original, mapped to the sparse ids
        expect = {frozenset(SPARSE_IDS[v] for v in s)
                  for s in expected(NEAR_CLIQUE, gamma, tau_size)}
    else:
        expect = expected(edges, gamma, tau_size)
    if case != "empty":
        assert expect, "a case with no result would check nothing"
    assert mine(request, engine, edges, gamma, tau_size).maximal == expect


@pytest.mark.parametrize("engine", ENGINES)
def test_gamma_below_half_refused(request, engine):
    """A 6-cycle is a 0.4-quasi-clique of diameter 3, which the (P1)
    two-hop shrink would lose: refuse γ < 0.5 rather than return ∅."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    assert frozenset(range(6)) in expected(edges, 0.4, 6)
    with pytest.raises(ValueError, match=r"gamma must be >= 0\.5, got 0\.4"):
        mine(request, engine, edges, 0.4, 6)


@pytest.mark.parametrize("engine", ENGINES)
def test_tau_size_1_refused(request, engine):
    """With τ_size = 1 a vertex without edges is a maximal result, which
    brute force finds and the task spawn never visits: refuse it."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 5)]
    assert frozenset({4}) in expected(edges, 0.8, 1)
    with pytest.raises(ValueError, match="tau_size must be >= 2"):
        mine(request, engine, edges, 0.8, 1)


def test_sparse_ids_keep_the_broadcast_small():
    """The pruned graph holds the kept vertices alone, whatever their
    input ids: an ``indptr`` over the input id space would take 8 MB."""
    pruned, rows = spawn_all(GlobalGraph.from_edges(CASES["sparse_ids"]), 0.8, 5)
    assert rows and len(pickle.dumps(pruned)) < 2048
    assert set(pruned.labels) <= set(SPARSE_IDS)
