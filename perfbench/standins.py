"""Seeded benchmark inputs and the reference maximal sets they are checked against.

An input is a stand-in from ``repro.graphs.datasets`` with the registry's
γ, τ_size, τ_split and τ_time. Two seeds shape it:

* ``workload_seed`` picks the graph. 0 keeps the registry seeds; K > 0
  regenerates every stand-in with the same ``repro.graphs.generators``
  shape and seed ``registry seed + 100 K``, so a claim can be re-checked
  on a graph nobody tuned against.
* ``seed`` (the run's ``--seed``) permutes the vertex ids. The graph stays
  isomorphic, so its maximal sets are the reference's under the same
  permutation, while the ids, the tie-breaks of the mining order and the
  task split change with the seed.

The references of the registry stand-ins (``workload_seed`` 0) are
committed in ``references/``, so the code under test never computes the
sets it is checked against. For K > 0 the reference is computed once by
``run_serial`` A_base and cached. Every reference file names a digest of
the edge table, γ and τ_size it was computed for, and a reference whose
digest does not match the stand-in is refused.
"""
from __future__ import annotations

import hashlib
import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from repro.graphs import datasets
from repro.graphs.datasets import DatasetSpec
from repro.graphs.generators import edges_pdf
from repro.graphs.global_graph import GlobalGraph
from repro.gthinker.engine import run_serial

__all__ = [
    "REFERENCE_DIR",
    "Reference",
    "Standin",
    "build_standin",
    "digest",
    "ensure_references",
    "missing_references",
    "reference_for",
    "reference_sets",
    "standin_edges",
    "write_reference",
]

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
_GENERATORS = ("planted_community_graph", "path_clique_graph", "grid_graph")
_SEED_STRIDE = 100


@contextmanager
def _reseeded(workload_seed: int):
    """Make the registry builders call their generators with
    ``seed + 100 * workload_seed``, keeping every other shape argument."""
    if workload_seed == 0:
        yield
        return
    saved = {name: getattr(datasets, name) for name in _GENERATORS}

    def shifted(fn):
        def call(*args, seed, **kwargs):
            return fn(*args, seed=seed + _SEED_STRIDE * workload_seed, **kwargs)

        return call

    try:
        for name, fn in saved.items():
            setattr(datasets, name, shifted(fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(datasets, name, fn)


def standin_edges(name: str, workload_seed: int) -> pd.DataFrame:
    """Canonical src < dst edge table of one stand-in."""
    with _reseeded(workload_seed):
        return edges_pdf(datasets.DATASETS[name].build())


@dataclass(frozen=True)
class Standin:
    """One benchmark input: a relabelled stand-in graph and its parameters."""

    name: str
    spec: DatasetSpec
    graph: GlobalGraph
    perm: np.ndarray  # registry id -> benchmark id


def build_standin(name: str, edges: pd.DataFrame, seed: int,
                  labelling: int = 0) -> Standin:
    """Relabel ``edges`` by the permutation of (seed, name, labelling) and
    build the graph."""
    src = edges["src"].to_numpy()
    dst = edges["dst"].to_numpy()
    n = int(max(src.max(), dst.max())) + 1
    rng = np.random.default_rng([seed, zlib.crc32(name.encode()), labelling])
    perm = rng.permutation(n)
    relabelled = pd.DataFrame({"src": perm[src], "dst": perm[dst]})
    return Standin(name, datasets.DATASETS[name],
                   GlobalGraph.from_edges(relabelled), perm)


def digest(sets) -> tuple[int, str]:
    """(count, sha256 of the sorted sorted-id lists) of a family of sets."""
    canon = sorted(sorted(int(v) for v in s) for s in sets)
    return len(canon), hashlib.sha256(json.dumps(canon).encode()).hexdigest()


@dataclass(frozen=True)
class Reference:
    """Size and digest of the maximal sets a job must return."""

    size: int
    digest: str

    def matches(self, maximal) -> bool:
        return len(maximal) == self.size and digest(maximal)[1] == self.digest


def _key(name: str, edges: pd.DataFrame) -> str:
    """Digest of what a reference depends on: the edges, γ and τ_size."""
    spec = datasets.DATASETS[name]
    h = hashlib.sha256(edges.to_numpy().tobytes())
    h.update(f"{spec.gamma}/{spec.tau_size}".encode())
    return h.hexdigest()[:16]


def _path(name: str, workload_seed: int, cache_dir: Path) -> Path:
    """The committed reference, or the cached one named by its key, so a
    changed stand-in gets a reference of its own."""
    slug = "".join(c if c.isalnum() else "_" for c in name)
    if workload_seed == 0:
        return REFERENCE_DIR / f"{slug}.txt"
    return cache_dir / f"{slug}-{_key(name, standin_edges(name, workload_seed))}.txt"


def write_reference(name: str, workload_seed: int, path: Path) -> None:
    """Compute the maximal sets of a stand-in by ``run_serial`` A_base, in
    registry ids, and write them: a ``key`` line, then one set per line."""
    edges = standin_edges(name, workload_seed)
    spec = datasets.DATASETS[name]
    job = run_serial(GlobalGraph.from_edges(edges), spec.gamma, spec.tau_size,
                     strategy="base")
    lines = [f"key {_key(name, edges)}"]
    lines += [" ".join(map(str, s)) for s in sorted(sorted(s) for s in job.maximal)]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, path)


def ensure_references(names, workload_seed: int, cache_dir: Path) -> None:
    """Compute and cache the references missing for ``workload_seed`` > 0."""
    for name in missing_references(names, workload_seed, cache_dir):
        write_reference(name, workload_seed, _path(name, workload_seed, cache_dir))


def missing_references(names, workload_seed: int, cache_dir: Path) -> list[str]:
    """Stand-ins whose reference must still be computed; never those of
    ``workload_seed`` 0, whose references are committed."""
    if workload_seed == 0:
        return []
    return [n for n in names if not _path(n, workload_seed, cache_dir).exists()]


def reference_sets(name: str, workload_seed: int, cache_dir: Path) -> list[list[int]]:
    """The maximal sets of a stand-in, in registry ids. Raises if the
    reference was computed for another graph or other parameters."""
    path = _path(name, workload_seed, cache_dir)
    key_line, *lines = path.read_text().splitlines()
    want = f"key {_key(name, standin_edges(name, workload_seed))}"
    if key_line != want:
        raise RuntimeError(f"{path.name} holds the reference of another graph "
                           f"({key_line}, stand-in has {want})")
    return [[int(v) for v in line.split()] for line in lines]


def reference_for(standin: Standin, sets: list[list[int]]) -> Reference:
    """The reference sets carried through the stand-in's permutation."""
    return Reference(*digest([standin.perm[s] for s in sets]))
