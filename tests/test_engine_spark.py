"""Distributed engine (run_spark) vs serial ground truth and brute force."""
import json
import logging
import math
import random
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from repro.core.brute import brute_force_maximal
from repro.core.gamma import make_gamma
from repro.core.graph import LocalGraph
from repro.core.postprocess import maximal_only
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import (
    _mine_rows, _Stack, run_serial, run_spark, spawn_all,
)
from repro.gthinker.qglobal import ROOT
from repro.gthinker.tasks import run_task


def make_case(seed):
    rng = random.Random(seed)
    n = rng.randint(8, 14)
    p = rng.choice([0.5, 0.7])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    gamma = rng.choice([0.6, 0.8, 0.9])
    g = LocalGraph.from_edges(n, edges)
    gg = GlobalGraph.from_edges(edges)
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
        if parallelism == 1:  # one partition sees every candidate of the job
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

    @pytest.mark.parametrize("strategy,kw", [
        ("base", {}),
        ("split", dict(tau_split=5)),
        ("time", dict(tau_time=0.001)),
    ])
    def test_n_subtasks_counts_every_subtask_created(
        self, spark, comm_gg, strategy, kw
    ):
        """Every subtask counts, whichever partition ran it: each one
        created is run once, as a row beyond the spawn rows."""
        for job in (run_serial(comm_gg, 0.85, 9, strategy=strategy, **kw),
                    run_spark(spark, comm_gg, 0.85, 9, strategy=strategy, **kw)):
            assert job.n_subtasks == sum(job.stage.part_rows) - job.stage.rows_in

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_one_stage_record(self, spark, comm_gg, caplog, parallelism):
        """A job is one stage that runs every row: each spawn row once and
        each subtask once, wherever it was pulled. The record adds up to
        the job and is what the job's one log line shows."""
        caplog.set_level(logging.INFO, logger="repro.gthinker.engine")
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="split", tau_split=3,
                        parallelism=parallelism)
        n_spawn = len(spawn_all(comm_gg, 0.85, 9)[1])
        assert job.n_rounds == 1
        rec = job.stage
        n = min(parallelism, n_spawn)
        assert rec.rows_in == n_spawn >= job.n_root_tasks > 0
        assert job.n_subtasks > 0 and job.mine_time > 0
        assert sum(rec.part_rows) == n_spawn + job.n_subtasks
        for per_part in (rec.part_rows, rec.part_pulls, rec.part_wait_s, rec.part_mine_s,
                         rec.part_mat_s, rec.part_filter_s, rec.part_wall_s):
            assert len(per_part) == n
        # the last pull answers "stop"; a late partition may find its rows taken
        assert all(p >= 1 + (r > 0) for p, r in zip(rec.part_pulls, rec.part_rows))
        assert all(w <= t for w, t in zip(rec.part_wait_s, rec.part_wall_s))
        assert all(m <= w for m, w in zip(rec.part_mine_s, rec.part_wall_s))
        assert 0 <= rec.launch_s == rec.dispatch_s - max(rec.part_wall_s)
        assert rec.dispatch_s + rec.decode_s <= rec.wall_s
        assert rec.result_rows >= job.n_results
        assert math.isclose(sum(rec.part_mine_s), job.mine_time)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "repro.gthinker.engine"]
        assert lines == [str(rec)]

    @pytest.mark.parametrize("strategy,kw", [
        ("base", {}),
        ("split", dict(tau_split=3)),
        ("time", dict(tau_time=0.0)),
    ])
    @pytest.mark.parametrize("partitions", ["one", "twice the cores"])
    def test_matches_serial_at_any_parallelism(self, spark, comm_gg, strategy, kw, partitions):
        """Parallelism 1, and twice the cores: more partitions than Spark
        runs at once, so some start after others have taken their rows."""
        parallelism = 1 if partitions == "one" else 2 * spark.sparkContext.defaultParallelism
        serial = run_serial(comm_gg, 0.85, 9, strategy=strategy, **kw)
        job = run_spark(spark, comm_gg, 0.85, 9, strategy=strategy,
                        parallelism=parallelism, **kw)
        assert job.maximal == serial.maximal
        assert job.n_root_tasks == serial.n_root_tasks
        if strategy != "time":  # timeouts make A_time's subtasks vary
            assert job.n_subtasks == serial.n_subtasks
        assert len(job.stage.part_rows) == min(parallelism, job.stage.rows_in)

    def test_speculation_refused(self, comm_gg):
        conf = {"spark.speculation": "true"}
        spark = SimpleNamespace(conf=SimpleNamespace(get=lambda k, d=None: conf.get(k, d)))
        with pytest.raises(ValueError, match="spark.speculation"):
            run_spark(spark, comm_gg, 0.85, 9)

    def test_stage_copies_no_spark_conf(self, spark, comm_gg, monkeypatch):
        """The stage reads spark.speculation and spark.driver.host from
        spark.conf: SparkContext.getConf copies every key over Py4J."""
        def copy_conf():
            raise AssertionError("the stage copied the SparkConf")

        monkeypatch.setattr(spark.sparkContext, "getConf", copy_conf)
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="base")
        assert job.maximal == run_serial(comm_gg, 0.85, 9).maximal

    @pytest.mark.parametrize("engine", ["serial", "spark"])
    def test_job_record_as_json(self, spark, comm_gg, engine):
        """to_json() holds the counters, times and stage record, and no
        result set. The stage's per-partition mat and filter times add up
        to the job's; the serial stage filters nothing."""
        kw = dict(strategy="split", tau_split=3)
        job = (run_serial(comm_gg, 0.85, 9, **kw) if engine == "serial"
               else run_spark(spark, comm_gg, 0.85, 9, **kw))
        rec = json.loads(job.to_json())
        assert rec["stage"] == asdict(job.stage)
        assert rec["stats"] == asdict(job.stats)
        assert rec["job_time"] == job.job_time
        assert 0 < rec["spawn_time"] == job.spawn_time < job.job_time
        for name in ("n_root_tasks", "n_subtasks", "n_rounds", "n_results", "n_maximal",
                     "n_pruned_vertices", "n_pruned_edges"):
            assert rec[name] == getattr(job, name)
        # Table 3(b)'s columns: the pruned graph's vertices with an edge, and edges
        pruned = comm_gg.pruned_subgraph(0.85, 9)
        keep = {pruned.labels[v] for v in pruned.vertices()}
        assert rec["n_pruned_vertices"] == len(keep) > 0
        assert rec["n_pruned_edges"] == sum(
            len(keep.intersection(comm_gg.adj[v])) for v in keep) // 2 > 0
        assert not {"results", "maximal", "task_features"} & rec.keys()
        r = rec["stage"]
        assert len(r["part_mat_s"]) == len(r["part_filter_s"]) == len(r["part_rows"])
        assert all(m <= w for m, w in zip(r["part_mat_s"], r["part_wall_s"]))
        assert math.isclose(sum(job.stage.part_mat_s), job.materialize_time)
        assert math.isclose(sum(job.stage.part_filter_s), job.worker_filter_time)
        if engine == "serial":
            assert job.worker_filter_time == 0.0
        else:
            assert job.worker_filter_time > 0

    def test_unknown_strategy_refused_on_the_driver(self, spark, comm_gg):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            run_spark(spark, comm_gg, 0.85, 9, strategy="bogus")

    def test_task_features_via_spark(self, spark, comm_gg):
        job = run_spark(spark, comm_gg, 0.85, 9, strategy="base",
                        collect_task_features=True)
        assert job.task_features is not None
        assert len(job.task_features) == job.n_root_tasks


class TestLocalDrain:
    """One partition's body, run in-process on every spawn row at
    τ_time = 0, where each task decomposes the same way on every run."""

    KW = dict(strategy="time", tau_split=50, tau_time=0.0)

    @pytest.fixture(scope="class")
    def partition(self, comm_gg):
        pruned, spawned = spawn_all(comm_gg, 0.85, 9)
        rows = [[ROOT, [v], []] for v, _ in spawned]
        return pruned, rows

    def mine(self, partition, queue):
        return _mine_rows(partition[0], queue, make_gamma(0.85), 9, **self.KW)

    def test_unbounded_drain_ships_no_subtask(self, partition, comm_gg):
        """On run_serial's stack, every subtask is mined where it was made."""
        cands, stat, _ = self.mine(partition, _Stack(partition[1]))
        n_subtasks = stat["stats"]["n_subtasks"]
        assert stat["rows"] == len(partition[1]) + n_subtasks
        assert n_subtasks > 0
        assert stat["pulls"] == n_subtasks + 2
        lab = partition[0].labels  # candidates are in the pruned graph's ids
        assert ({frozenset(lab[v] for v in c) for c in maximal_only(cands)}
                == run_serial(comm_gg, 0.85, 9, strategy="base").maximal)

    def test_pushes_what_run_task_returns(self, partition):
        """Each subtask is pushed once, as run_task made it."""
        pushed = []
        queue = SimpleNamespace(pull=iter([partition[1], []]).__next__, push=pushed.extend)
        _, stat, _ = self.mine(partition, queue)
        assert stat["pulls"] == 2 and stat["rows"] == len(partition[1])
        pruned, rows = partition
        expect = []
        for _, (v,), _ in rows:
            t = pruned.spawn_task(v, make_gamma(0.85), 9)
            if t is not None:
                expect += run_task(t.graph, t.ids, t.s_mask, t.ext_mask,
                                   make_gamma(0.85), 9, **self.KW).subtasks
        assert len(pushed) == len(expect) == stat["stats"]["n_subtasks"] > 0
        assert set(pushed) == set(expect)


def test_spark_small_dataset_matches_serial(spark):
    gg, spec = load_dataset("CX_GSE10158")
    serial = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
    job = run_spark(spark, gg, spec.gamma, spec.tau_size, strategy="time",
                    tau_time=spec.tau_time)
    assert job.maximal == serial.maximal
