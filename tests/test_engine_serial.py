"""Serial engine driver invariants (repro/gthinker/engine.py)."""
import logging
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.gamma import make_gamma
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker import engine
from repro.gthinker.engine import run_serial, spawn_all
from repro.gthinker.qglobal import _deal
from repro.tables.t01_02_task_features import task_features


@pytest.fixture(scope="module")
def comm_gg():
    return GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(250, [(12, 0.95), (10, 0.95)], seed=6))
    )


def built_roots(gg, gamma, tau, quick_plus=True):
    """The root tasks of spawn_all's rows that spawn_task builds."""
    pruned, rows = spawn_all(gg, gamma, tau, quick_plus)
    tasks = (pruned.spawn_task(v, make_gamma(gamma), tau) for v, _ in rows)
    return [t for t in tasks if t is not None]


class TestSpawnAll:
    def test_degenerate_cover_skips_vmax_neighbors(self, comm_gg):
        roots_plus = built_roots(comm_gg, 0.85, 8)
        roots_all = built_roots(comm_gg, 0.85, 8, quick_plus=False)
        assert len(roots_plus) <= len(roots_all)

    def test_roots_meet_size_threshold(self, comm_gg):
        roots = built_roots(comm_gg, 0.85, 8)
        assert roots
        for t in roots:
            assert t.graph.n >= 1
            assert (t.s_mask | t.ext_mask).bit_count() >= 8
            assert t.s_mask.bit_count() == 1

    def test_spawn_masks_disjoint(self, comm_gg):
        for t in built_roots(comm_gg, 0.85, 8):
            assert t.s_mask & t.ext_mask == 0

    def test_rows_list_every_root_with_its_higher_ranked_degree(self, comm_gg):
        """One row per spawn vertex in mining order (the pruned graph's
        ids), each root built from one; the cost counts the neighbours
        with an id above v."""
        pruned, rows = spawn_all(comm_gg, 0.85, 8)
        assert [v for v, _ in rows] == sorted(v for v, _ in rows)
        for v, cost in rows:
            assert cost == sum(u > v for u in pruned.adj[v])
        assert {t.root for t in built_roots(comm_gg, 0.85, 8)} <= {v for v, _ in rows}
        job = run_serial(comm_gg, 0.85, 8)
        assert job.n_root_tasks == len(built_roots(comm_gg, 0.85, 8)) < len(rows)

    def test_gamma_below_half_refused(self):
        # A 6-cycle is a 0.4-quasi-clique (every degree 2 ≥ ceil(0.4·5)),
        # but its diameter is 3, so the (P1) two-hop shrink would lose
        # it: the engine must refuse γ < 0.5 rather than return ∅.
        cycle = GlobalGraph.from_edges([(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ValueError, match=r"gamma must be >= 0\.5, got 0\.4"):
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
        """The in-process stage runs every subtask, so a serial job is
        the one stage of the shared loop and logs one stage line."""
        caplog.set_level(logging.INFO, logger="repro.gthinker.engine")
        job = run_serial(comm_gg, 0.85, 8, strategy=strategy, **kw)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "repro.gthinker.engine"]
        assert job.n_rounds == 1
        assert len(lines) == 1
        m = re.fullmatch(
            r"stage: (\d+) task rows in, (\d+) subtasks run, "
            r"(\d+) result rows, [\d.]+ s wall, "
            r"partition mining max ([\d.]+) / min ([\d.]+) s, "
            r"(\d+) pulls, wait max ([\d.]+) / min ([\d.]+) s, "
            r"driver dispatch\+collect [\d.]+ / decode [\d.]+ s, "
            r"launch [\d.]+ s", lines[0])
        assert m is not None, lines[0]
        assert lines[0] == str(job.stage)
        assert int(m[1]) == len(spawn_all(comm_gg, 0.85, 8)[1]) >= job.n_root_tasks
        assert int(m[2]) == job.n_subtasks
        assert int(m[3]) == job.n_results
        assert m[4] == m[5]  # one partition
        # one pull for the root rows, one per subtask, one answered "stop"
        assert int(m[6]) == job.n_subtasks + 2
        assert m[7] == m[8]
        rec = job.stage
        assert len(rec.part_wall_s) == 1
        assert rec.part_rows == [rec.rows_in + job.n_subtasks]
        assert rec.part_pulls == [job.n_subtasks + 2]
        assert rec.part_mine_s[0] <= rec.part_wall_s[0] <= rec.dispatch_s


    def test_tracer_hooks_see_every_call(self, comm_gg, monkeypatch):
        """A tracer times a job by wrapping ``engine.spawn_all``,
        ``engine.run_task`` and ``engine.timed_maximal_only``: the task
        loop must reach each one through the engine module's globals, once
        per job, per task run and per job respectively."""
        calls = Counter()
        for name in ("spawn_all", "run_task", "timed_maximal_only"):
            def counted(*args, _name=name, _fn=getattr(engine, name), **kw):
                calls[_name] += 1
                return _fn(*args, **kw)

            monkeypatch.setattr(engine, name, counted)
        job = run_serial(comm_gg, 0.85, 8, strategy="split", tau_split=1)
        assert job.n_subtasks > 0
        assert calls == {"spawn_all": 1, "run_task": job.n_root_tasks + job.n_subtasks,
                         "timed_maximal_only": 1}


class TestDeal:
    @given(st.integers(1, 60), st.integers(1, 8))
    def test_row_i_lands_in_slot_i_mod_n(self, n_rows, n):
        rows = list(range(n_rows))
        dealt = _deal(rows, n)
        assert len(dealt) == n
        for i in rows:
            assert dealt[i % n][i // n] == i
        assert sorted(r for slot in dealt for r in slot) == rows


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
        assert job.n_subtasks > 0
        assert job.mine_time > 0
        assert job.job_time >= job.mine_time * 0  # sanity: fields populated

    def test_task_features_collected(self, comm_gg):
        """Tables 1-2's feature rows: one per root task the engine builds,
        its root in input ids."""
        tf = task_features(comm_gg, 0.85, 8)
        cols = ["num_vertices", "num_edges", "max_degree", "avg_degree",
                "core_number", "task_time_ms"]
        assert set(cols) <= set(tf.columns)
        assert (tf[cols] >= 0).all().all()
        job = run_serial(comm_gg, 0.85, 8, strategy="base")
        assert len(tf) == job.n_root_tasks > 0
        pruned, _ = spawn_all(comm_gg, 0.85, 8)
        assert sorted(tf["root"]) == sorted(
            pruned.labels[t.root] for t in built_roots(comm_gg, 0.85, 8))


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
