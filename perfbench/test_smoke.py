"""Smoke test of the benchmark on one tiny stand-in (CX_GSE1730).

    python -m pytest perfbench/test_smoke.py -q -p no:cacheprovider

It lives outside ``tests/`` and ``benchmarks/``, so neither the tier-1 run
nor a plain ``pytest`` collects it.
"""
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import standins  # noqa: E402

NAME = "CX_GSE1730"


def _bench(trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_prints_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        text, result = _bench(trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in declared[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        printed = {line.split()[0]: line.split()[2] for line in text.splitlines()
                   if line.startswith("  ") and len(line.split()) >= 3}
        for name, unit in units.items():
            assert printed.get(name) == unit, name


def test_corrupted_maximal_set_counts_as_failed():
    inp = standins.build_standin(NAME, standins.standin_edges(NAME, 0), seed=3)
    refs = [standins.reference_for(inp, standins.reference_sets(NAME, 0, None))]

    def honest(s):
        return harness.mine(s, None, 1)

    def dropped(s):
        job = honest(s)
        job.maximal = set(sorted(job.maximal, key=sorted)[1:])
        return job

    def relabelled(s):  # same size, one vertex id changed
        job = honest(s)
        first = sorted(job.maximal, key=sorted)[0]
        job.maximal = (job.maximal - {first}) | {first - {min(first)} | {-1}}
        return job

    def raising(s):
        raise RuntimeError("job lost")

    for job, failed in ((honest, 0), (dropped, 1), (relabelled, 1), (raising, 1)):
        loop, = harness.closed_loop([inp], refs, (job,), 0, random.Random(0))
        assert (len(loop.times), loop.failed) == (1, failed), job.__name__


def test_reference_of_another_graph_is_refused(tmp_path, monkeypatch):
    text = (standins.REFERENCE_DIR / "CX_GSE1730.txt").read_text()
    (tmp_path / "CX_GSE1730.txt").write_text(text.replace("key ", "key 0", 1))
    monkeypatch.setattr(standins, "REFERENCE_DIR", tmp_path)
    with pytest.raises(RuntimeError, match="another graph"):
        standins.reference_sets(NAME, 0, None)
