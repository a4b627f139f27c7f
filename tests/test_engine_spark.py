"""Distributed engine (run_spark) vs serial ground truth and brute force."""
import logging
import math
import random

import pytest

from repro.core.brute import brute_force_maximal
from repro.core.gamma import make_gamma
from repro.core.graph import LocalGraph
from repro.core.postprocess import maximal_only
from repro.core.quickplus import QUICK_PLUS
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import (
    _mine_rows, _mining_order, run_serial, run_spark, spawn_all,
)
from repro.gthinker.tasks import run_task


def make_case(seed):
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    p = rng.choice([0.5, 0.7])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    gamma = rng.choice([0.6, 0.8, 0.9])
    g = LocalGraph.from_edges(n, edges)
    gg = GlobalGraph(n, [set(g.neighbors(v)) for v in range(n)])
    return g, gg, gamma, 3


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("strategy,kw", [
    ("base", {}),
    ("split", dict(tau_split=2)),
    ("time", dict(tau_time=0.0)),
])
def test_spark_matches_brute_force(spark, seed, strategy, kw):
    g, gg, gamma, tau = make_case(seed)
    expect = brute_force_maximal(g, gamma, tau)
    job = run_spark(spark, gg, gamma, tau, strategy=strategy, **kw)
    assert job.maximal == expect


@pytest.fixture(scope="module")
def comm_gg():
    return GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(300, [(14, 0.95), (11, 0.95)], seed=8))
    )


class TestSparkEngine:
    def test_matches_serial_on_planted_graph(self, spark, comm_gg):
        serial = run_serial(comm_gg, 0.85, 9, strategy="base")
        for strategy, kw in [
            ("base", {}),
            ("split", dict(tau_split=5)),
            ("time", dict(tau_time=0.001)),
        ]:
            job = run_spark(spark, comm_gg, 0.85, 9, strategy=strategy, **kw)
            assert job.maximal == serial.maximal, strategy

    def test_parallelism_knob(self, spark, comm_gg):
        lo = run_spark(spark, comm_gg, 0.85, 9, strategy="time",
                       tau_time=0.001, parallelism=1)
        hi = run_spark(spark, comm_gg, 0.85, 9, strategy="time",
                       tau_time=0.001, parallelism=8)
        assert lo.maximal == hi.maximal

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_worker_filter_ships_fewer_int_candidates(
        self, spark, comm_gg, parallelism
    ):
        """A timeout of 0 decomposes every task the same way on both
        engines, so the serial run's results are the unfiltered union of
        the candidates the Spark workers found."""
        serial = run_serial(comm_gg, 0.85, 9, strategy="time", tau_time=0.0)
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="time",
                        tau_time=0.0, parallelism=parallelism)
        assert job.maximal == serial.maximal
        assert job.n_results <= serial.n_results
        if parallelism == 1:  # one partition sees every candidate of a round
            assert job.n_results < serial.n_results
        assert job.results <= serial.results
        for dropped in serial.results - job.results:
            assert any(dropped < kept for kept in job.results)
        assert all(
            type(v) is int for s in job.results | job.maximal for v in s
        )
        assert job.worker_filter_time > 0

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_time_with_local_drain_matches_serial_base(
        self, spark, comm_gg, parallelism
    ):
        serial = run_serial(comm_gg, 0.85, 9, strategy="base")
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="time",
                        tau_time=0.001, parallelism=parallelism)
        assert job.maximal == serial.maximal
        assert job.n_subtasks == job.stats.n_subtasks

    @pytest.mark.parametrize("strategy,kw", [
        ("base", {}),
        ("split", dict(tau_split=5)),
        ("time", dict(tau_time=0.001)),
    ])
    def test_n_subtasks_counts_every_subtask_created(
        self, spark, comm_gg, strategy, kw
    ):
        """Drained subtasks count as well as shipped ones."""
        for job in (run_serial(comm_gg, 0.85, 9, strategy=strategy, **kw),
                    run_spark(spark, comm_gg, 0.85, 9, strategy=strategy, **kw)):
            assert job.n_subtasks == job.stats.n_subtasks

    def test_rounds_and_stats_populated(self, spark, comm_gg, caplog):
        caplog.set_level(logging.INFO, logger="repro.gthinker.engine")
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="split", tau_split=3)
        assert job.n_rounds >= 1
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "repro.gthinker.engine"]
        assert len(lines) == job.n_rounds  # one line per round
        assert lines[0].startswith("round 1: ")
        assert job.mine_time > 0
        assert job.n_root_tasks > 0

    def test_unknown_strategy_refused_on_the_driver(self, spark, comm_gg):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            run_spark(spark, comm_gg, 0.85, 9, strategy="bogus")

    def test_task_features_via_spark(self, spark, comm_gg):
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="base",
                        collect_task_features=True)
        assert job.task_features is not None
        assert len(job.task_features) == job.n_root_tasks


class TestLocalDrain:
    """One partition's body, run in-process on every root task at
    τ_time = 0, where each task decomposes the same way on every run."""

    KW = dict(strategy="time", tau_split=50, tau_time=0.0, cfg=QUICK_PLUS)

    @pytest.fixture(scope="class")
    def partition(self, comm_gg):
        pruned, roots = spawn_all(comm_gg, 0.85, 9)
        alive, rank, _ = _mining_order(pruned, QUICK_PLUS)
        rows = [("root", [t.root], []) for t in roots]
        return pruned, alive, rank, roots, rows

    def mine(self, partition, deadline):
        pruned, alive, rank, _, rows = partition
        cands, stack, stat, _ = _mine_rows(pruned, alive, rank, rows,
                                           make_gamma(0.85), 9, deadline, **self.KW)
        by_kind = {"res": [("res", list(s)) for s in cands],
                   "sub": [("sub", list(s), list(e)) for s, e in stack]}
        return by_kind, stat

    def test_unbounded_drain_ships_no_subtask(self, partition, comm_gg):
        rows, stat = self.mine(partition, math.inf)
        assert rows["sub"] == []
        assert stat["drained"] == stat["stats"]["n_subtasks"] > 0
        found = maximal_only(frozenset(r[1]) for r in rows["res"])
        assert found == run_serial(comm_gg, 0.85, 9, strategy="base").maximal

    def test_past_deadline_ships_what_run_task_returns(self, partition):
        rows, stat = self.mine(partition, 0)
        assert stat["drained"] == 0
        expect = set()
        for t in partition[3]:
            out = run_task(t.graph, t.ids, t.s_mask, t.ext_mask,
                           make_gamma(0.85), 9, **self.KW)
            expect.update(out.subtasks)
        shipped = [(frozenset(r[1]), frozenset(r[2])) for r in rows["sub"]]
        assert len(shipped) == len(expect) > 0
        assert set(shipped) == expect


def test_spark_small_dataset_matches_serial(spark):
    gg, spec = load_dataset("CX_GSE10158")
    serial = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
    job = run_spark(spark, gg, spec.gamma, spec.tau_size, strategy="time",
                    tau_time=spec.tau_time)
    assert job.maximal == serial.maximal
