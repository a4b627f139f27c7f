"""Tracing for the per-layer run: spans recorded around calls into each layer.

The wrappers live here, not in the program. During each traced job a
:class:`Tracer` replaces, for the driver process only:

* ``engine.spawn_all``            -> span ``global_graph.spawn_all``
* ``engine.run_task`` (serial)    -> span ``tasks.run_task``
* ``engine.timed_maximal_only``   -> span ``postprocess.maximal_only``
* ``SparkSession.createDataFrame`` -> span ``engine.createDataFrame``
* ``DataFrame.toPandas``          -> span ``engine.toPandas``

``run_task`` is only wrapped on the serial path: Spark pickles the worker
closure with its globals, and the workers cannot import this module.
The wrappers are installed for the traced jobs only, so the untraced
jobs that alternate with them run the program as it is. Spans and their
counts stay in memory and are written out at the end of the run. Worker-side numbers come from ``JobResult`` and ``MineStats``.
Counts are taken after the job's span has closed, so they add nothing to
the timed spans.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.gthinker import engine

__all__ = ["LAYER_UNITS", "Span", "Tracer", "layer_metrics"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    job: int
    counts: dict = field(default_factory=dict)


LAYER_UNITS = {  # printed in this order
    "global_graph.spawn_all_s": "s",
    "global_graph.root_tasks": "count",
    "global_graph.pruned_vertices": "count",
    "engine.rounds": "count",
    "engine.subtasks": "count",
    "engine.encode_s": "s",
    "engine.collect_s": "s",
    "engine.decode_s": "s",
    "engine.rows_collected": "count",
    "engine.bytes_collected": "bytes",
    "engine.parallel_efficiency": "ratio",
    "tasks.mine_s": "s",
    "tasks.materialize_s": "s",
    "quickplus.bounds_s": "s",
    "quickplus.critical_s": "s",
    "quickplus.cover_s": "s",
    "quickplus.lookahead_s": "s",
    "quickplus.calls": "count",
    "quickplus.calls_per_s": "1/s",
    "quickplus.lookahead_hit_ratio": "ratio",
    "quickplus.type1_pruned": "count",
    "quickplus.type2_pruned": "count",
    "postprocess.s": "s",
    "postprocess.candidates": "count",
    "postprocess.maximal": "count",
    "postprocess.keep_ratio": "ratio",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "trace.job_self_s": "s",
}


def _count_spawn(args, out):
    pruned, roots = out
    return {"root_tasks": len(roots), "pruned_vertices": sum(1 for a in pruned.adj if a)}


def _count_create(args, out):
    return {"rows": len(args[1])}  # args = (session, pandas frame, ...)


def _count_collect(args, out):
    text = out.select_dtypes(include="object")
    return {"rows": len(out),
            "bytes": int(sum(text[c].str.len().sum() for c in text.columns))}


def _count_postprocess(args, out):
    return {"candidates": len(args[0]), "maximal": len(out[0])}


class Tracer:
    """In-memory spans; one ``job`` span per mining job, with layer spans
    as its children. ``spark`` is the session the jobs run in, or None
    for the serial path."""

    def __init__(self, spark=None) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = -1
        self._deferred: list[tuple[Span, object, tuple, object]] = []
        self._t0 = time.perf_counter()
        self._patches = [
            (engine, "spawn_all", "global_graph.spawn_all", _count_spawn),
            (engine, "timed_maximal_only", "postprocess.maximal_only", _count_postprocess),
        ]
        if spark is None:
            self._patches.append((engine, "run_task", "tasks.run_task", None))
        else:
            frame_cls = next(c for c in type(spark.range(0)).__mro__ if "toPandas" in vars(c))
            self._patches += [
                (type(spark), "createDataFrame", "engine.createDataFrame", _count_create),
                (frame_cls, "toPandas", "engine.toPandas", _count_collect),
            ]

    @contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter() - self._t0, 0.0,
                  self._stack[-1] if self._stack else None, self._job)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter() - self._t0
            self._stack.pop()

    def job(self, fn):
        """Wrap a mining job: the layer wrappers installed, one ``job``
        span, counts resolved after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._job += 1
            try:
                with self._installed(), self.span("job"):
                    return fn(*args, **kwargs)
            finally:
                for sp, count, a, out in self._deferred:
                    sp.counts.update(count(a, out))
                self._deferred.clear()

        return traced

    def _wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if count is not None:
                self._deferred.append((sp, count, args, out))
            return out

        return traced

    @contextmanager
    def _installed(self):
        """Patch the layer entry points; restore them on exit."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in self._patches]
        try:
            for owner, attr, name, count in self._patches:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, count))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))

    def jobs(self) -> list[tuple[int, list[Span]]]:
        """(index of the job span, spans of that job starting with it)."""
        out: list[tuple[int, list[Span]]] = []
        for i, sp in enumerate(self.spans):
            if sp.name == "job":
                out.append((i, [sp]))
            elif out and sp.job == out[-1][1][0].job:
                out[-1][1].append(sp)
        return out


def _dur(sp: Span) -> float:
    return sp.end - sp.start


def _job_sums(job_index: int, spans: list[Span], result, nproc: int) -> dict[str, float]:
    """Additive layer quantities of one job, from its spans and JobResult."""
    job, children = spans[0], spans[1:]
    top = [s for s in children if s.parent == job_index]
    creates = [s for s in children if s.name == "engine.createDataFrame"]
    collects = [s for s in children if s.name == "engine.toPandas"]
    posts = [s for s in children if s.name == "postprocess.maximal_only"]
    spawns = [s for s in children if s.name == "global_graph.spawn_all"]
    core_s = 0.0
    decode_s = 0.0
    for i, (c, t) in enumerate(zip(creates, collects)):
        core_s += (t.end - c.start) * min(nproc, c.counts.get("rows", 1))
        nxt = creates[i + 1].start if i + 1 < len(creates) else (
            posts[0].start if posts else job.end)
        decode_s += nxt - t.end
    st = result.stats
    return {
        "spawn_s": sum(map(_dur, spawns)),
        "root_tasks": sum(s.counts.get("root_tasks", 0) for s in spawns),
        "pruned_vertices": sum(s.counts.get("pruned_vertices", 0) for s in spawns),
        "rounds": result.n_rounds,
        "subtasks": result.n_subtasks,
        "encode_s": sum(map(_dur, creates)),
        "collect_s": sum(map(_dur, collects)),
        "decode_s": decode_s,
        "rows": sum(s.counts.get("rows", 0) for s in collects),
        "bytes": sum(s.counts.get("bytes", 0) for s in collects),
        "core_s": core_s,
        "mine_s": result.mine_time,
        "materialize_s": result.materialize_time,
        "bounds_s": st.t_bounds,
        "critical_s": st.t_critical,
        "cover_s": st.t_cover,
        "lookahead_s": st.t_lookahead,
        "calls": st.n_recursive_calls,
        "hits": st.n_lookahead_hits,
        "type1": st.n_type1_pruned,
        "type2": st.n_type2_pruned,
        "post_s": sum(map(_dur, posts)),
        "candidates": sum(s.counts.get("candidates", 0) for s in posts),
        "maximal": sum(s.counts.get("maximal", 0) for s in posts),
        "self_s": _dur(job) - sum(map(_dur, top)),
    }


def layer_metrics(tracer: Tracer, results: list, nproc: int,
                  untraced_median_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced jobs: additive quantities as means
    per job, ratios from totals over all jobs. ``trace.job_s`` is the
    median traced job, and ``untraced_median_s`` the median of the
    untraced jobs that alternated with them."""
    groups = tracer.jobs()
    sums: dict[str, float] = defaultdict(float)
    n = 0
    for (job_index, spans), result in zip(groups, results):
        if result is None:  # failed job: counted by the loop, not here
            continue
        n += 1
        for k, v in _job_sums(job_index, spans, result, nproc).items():
            sums[k] += v
    mean = {k: v / n for k, v in sums.items()} if n else defaultdict(float)

    def ratio(a: str, b: str) -> float:
        return sums[a] / sums[b] if sums[b] else 0.0

    traced_job_s = statistics.median(_dur(spans[0]) for _, spans in groups)
    return {
        "global_graph.spawn_all_s": mean["spawn_s"],
        "global_graph.root_tasks": mean["root_tasks"],
        "global_graph.pruned_vertices": mean["pruned_vertices"],
        "engine.rounds": mean["rounds"],
        "engine.subtasks": mean["subtasks"],
        "engine.encode_s": mean["encode_s"],
        "engine.collect_s": mean["collect_s"],
        "engine.decode_s": mean["decode_s"],
        "engine.rows_collected": mean["rows"],
        "engine.bytes_collected": mean["bytes"],
        "engine.parallel_efficiency": ratio("mine_s", "core_s"),
        "tasks.mine_s": mean["mine_s"],
        "tasks.materialize_s": mean["materialize_s"],
        "quickplus.bounds_s": mean["bounds_s"],
        "quickplus.critical_s": mean["critical_s"],
        "quickplus.cover_s": mean["cover_s"],
        "quickplus.lookahead_s": mean["lookahead_s"],
        "quickplus.calls": mean["calls"],
        "quickplus.calls_per_s": ratio("calls", "mine_s"),
        "quickplus.lookahead_hit_ratio": ratio("hits", "calls"),
        "quickplus.type1_pruned": mean["type1"],
        "quickplus.type2_pruned": mean["type2"],
        "postprocess.s": mean["post_s"],
        "postprocess.candidates": mean["candidates"],
        "postprocess.maximal": mean["maximal"],
        "postprocess.keep_ratio": ratio("maximal", "candidates"),
        "trace.job_s": traced_job_s,
        "trace.overhead_s": traced_job_s - untraced_median_s,
        "trace.job_self_s": mean["self_s"],
    }
