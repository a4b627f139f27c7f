"""Pin the Quick+ / Quick search tree on the small stand-ins.

``run_serial`` A_base is deterministic, so the number of results and
every ``MineStats.n_*`` counter identify the tree the miner walked: a
change to the pruning kernels that keeps these values visits the same
nodes, prunes the same vertices and emits the same sets. The expected
values were recorded before the per-round degree snapshot replaced the
mask-recounting bound functions.
"""
import dataclasses

import pytest

from repro.gthinker.engine import run_serial
from repro.tables.common import cached_dataset

# (dataset, config) -> (n_results, n_maximal, n_root_tasks,
#   n_emitted, n_recursive_calls, n_subtasks, n_lookahead_hits,
#   n_type1_pruned, n_type2_pruned, n_critical_moves, n_cover_pruned)
EXPECTED = {
    ("CX_GSE1730", "plus"): (14, 3, 14, 14, 79, 0, 2, 2032, 116, 11, 603),
    ("CX_GSE1730", "orig"): (18, 2, 18, 18, 134, 0, 18, 2367, 127, 6, 901),
    ("CX_GSE10158", "plus"): (28, 18, 16, 28, 171, 0, 21, 1807, 647, 42, 1076),
    ("CX_GSE10158", "orig"): (24, 12, 17, 24, 192, 0, 23, 1912, 624, 22, 1180),
    ("Ca-GrQc", "plus"): (106, 44, 96, 106, 285, 0, 97, 3351, 1160, 18, 1632),
    ("Ca-GrQc", "orig"): (104, 43, 101, 104, 297, 0, 98, 4253, 1043, 17, 1719),
    ("Enron", "plus"): (233, 106, 28, 233, 531, 0, 87, 4814, 865, 42, 3013),
    ("Enron", "orig"): (233, 69, 40, 233, 770, 0, 151, 6360, 771, 46, 3966),
    ("Hyves", "plus"): (97, 29, 12, 97, 247, 0, 43, 1590, 221, 21, 1112),
    ("Hyves", "orig"): (64, 25, 18, 64, 274, 0, 41, 1879, 212, 14, 1452),
    ("kmer", "plus"): (40, 40, 40, 40, 40, 0, 40, 0, 0, 0, 120),
    ("kmer", "orig"): (40, 40, 40, 40, 40, 0, 40, 0, 0, 0, 120),
    ("USA Road", "plus"): (1131, 1131, 985, 1131, 1486, 0, 1131, 54, 239, 0, 1394),
    ("USA Road", "orig"): (1131, 1131, 986, 1131, 1484, 0, 1131, 54, 236, 0, 1394),
}
CONFIGS = {"plus": True, "orig": False}  # quick_plus

# Serial A_split at tau_split = 5 under Quick+, same columns, recorded
# while run_serial drained subtasks FIFO. Every subtask is mined to the
# end in any order, so a LIFO drain must give the same counters.
EXPECTED_SPLIT = {
    "CX_GSE1730": (14, 3, 14, 14, 79, 46, 2, 2031, 115, 12, 598),
    "CX_GSE10158": (28, 18, 16, 28, 166, 128, 21, 1831, 663, 42, 1119),
    "Ca-GrQc": (107, 44, 96, 107, 281, 146, 98, 3342, 1164, 24, 1611),
    "Enron": (408, 106, 28, 408, 605, 334, 93, 4969, 814, 44, 3176),
    "Hyves": (95, 29, 12, 95, 248, 149, 37, 1583, 226, 20, 1113),
    "kmer": (40, 40, 40, 40, 40, 0, 40, 0, 0, 0, 120),
    "USA Road": (1131, 1131, 985, 1131, 1485, 3, 1131, 54, 239, 0, 1394),
}


def pinned(job) -> tuple:
    counters = tuple(
        getattr(job.stats, f.name)
        for f in dataclasses.fields(job.stats) if f.name.startswith("n_")
    )
    return (job.n_results, job.n_maximal, job.n_root_tasks) + counters


@pytest.mark.parametrize("dataset,config", sorted(EXPECTED))
def test_counters_pinned(dataset, config):
    gg, spec = cached_dataset(dataset)
    job = run_serial(gg, spec.gamma, spec.tau_size, strategy="base",
                     quick_plus=CONFIGS[config])
    assert pinned(job) == EXPECTED[dataset, config]


@pytest.mark.parametrize("dataset", sorted(EXPECTED_SPLIT))
def test_split_counters_pinned(dataset):
    gg, spec = cached_dataset(dataset)
    job = run_serial(gg, spec.gamma, spec.tau_size, strategy="split", tau_split=5)
    assert pinned(job) == EXPECTED_SPLIT[dataset]
    assert job.n_subtasks == job.stats.n_subtasks
