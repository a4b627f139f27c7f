"""What a Spark Python worker pays to import and run the engine.

A reused worker runs ``importlib.invalidate_caches()`` before every task;
the partition body's :func:`_drop_zip_finders` keeps that from re-reading
zip archives. A fresh worker unpickles the task function and the
broadcast graph, which must not pull in pandas or numpy."""
import importlib
import pickle
import subprocess
import sys
import zipfile
import zipimport
from pathlib import Path

import pandas as pd

import repro
from repro.graphs.generators import edges_pdf, planted_community_graph
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import spawn_all
from repro.gthinker.qglobal import _drop_zip_finders


def test_dropping_zip_finders_stops_rereads(tmp_path, monkeypatch):
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("zipmod_a.py", "VALUE = 'a'\n")
        zf.writestr("zipmod_b.py", "VALUE = 'b'\n")
    monkeypatch.syspath_prepend(str(archive))
    for name in ("zipmod_a", "zipmod_b"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    assert importlib.import_module("zipmod_a").VALUE == "a"

    reads = []
    read_directory = zipimport._read_directory

    def counting(path):
        reads.append(path)
        return read_directory(path)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    importlib.invalidate_caches()
    assert str(archive) in reads  # the cost the helper removes is visible

    _drop_zip_finders()
    assert str(archive) not in sys.path_importer_cache  # deleted, not set to None
    reads.clear()
    importlib.invalidate_caches()
    assert reads == []
    mod_b = importlib.import_module("zipmod_b")
    assert mod_b.VALUE == "b"
    assert isinstance(mod_b.__loader__, zipimport.zipimporter)
    assert reads == []  # rebuilt from zipimport's directory cache


def test_fresh_worker_imports_no_pandas_or_numpy():
    edges = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 2, 3]})
    blob = pickle.dumps(GlobalGraph.from_edges(edges))
    child = (
        "import pickle, sys\n"
        "import repro.gthinker.engine\n"
        "gg = pickle.loads(sys.stdin.buffer.read())\n"
        "assert gg.num_edges() == 4\n"
        "print(sorted(m for m in ('pandas', 'numpy') if m in sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", child], input=blob, capture_output=True,
                         check=True, env={"PYTHONPATH": src})
    assert out.stdout.decode().strip() == "[]"


def test_fresh_worker_unpickles_pruned_graph_without_pandas_or_numpy():
    """The payload ``run_spark`` broadcasts: ``spawn_all``'s pruned graph,
    recoded into the mining order. A fresh worker unpickles it and builds
    every root task of the spawn rows from it without importing either."""
    gg = GlobalGraph.from_edges(
        edges_pdf(planted_community_graph(120, [(10, 0.95)], seed=2)))
    pruned, rows = spawn_all(gg, 0.8, 6)
    built = [pruned.spawn_task(v, 0.8, 6) for v, _ in rows]
    blob = pickle.dumps((pruned, rows))
    child = (
        "import pickle, sys\n"
        "import repro.gthinker.engine\n"
        "pruned, rows = pickle.loads(sys.stdin.buffer.read())\n"
        "tasks = [pruned.spawn_task(v, 0.8, 6) for v, _ in rows]\n"
        "print([[pruned.labels[u] for u in t.ids] for t in tasks if t is not None])\n"
        "print(sorted(m for m in ('pandas', 'numpy') if m in sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", child], input=blob, capture_output=True,
                         check=True, env={"PYTHONPATH": src})
    ids, imported = out.stdout.decode().splitlines()
    assert ids == str([[pruned.labels[u] for u in t.ids] for t in built if t is not None]) != "[]"
    assert imported == "[]"
