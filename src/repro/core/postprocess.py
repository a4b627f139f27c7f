"""Postprocessing: remove non-maximal quasi-cliques from the result set.

The set-enumeration search outputs *candidate* quasi-cliques that may be
contained in other results found by sibling tasks (Section 3). The paper
uses a prefix-tree over result vertex sets; at our scale one int bitmask
per vertex does the same job with far less code. Candidates are visited
largest first, and bit ``i`` of ``holders[v]`` is set iff the ``i``-th
kept result contains ``v``. A candidate is contained in a kept result
iff the AND of its vertices' masks is non-zero; duplicates are removed
first, so that result is a strict superset.
"""
from __future__ import annotations

import time
from typing import Iterable

__all__ = ["maximal_only", "timed_maximal_only"]


def maximal_only(results: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    """Filter to sets not strictly contained in any other result."""
    holders: dict[int, int] = {}  # vertex -> mask of kept results holding it
    kept: list[frozenset[int]] = []
    for s in sorted(set(results), key=len, reverse=True):
        common = (1 << len(kept)) - 1
        for v in s:
            common &= holders.get(v, 0)
            if not common:
                break
        if common:
            continue  # dominated: a kept result contains every vertex of s
        bit = 1 << len(kept)
        kept.append(s)
        for v in s:
            holders[v] = holders.get(v, 0) | bit
    return set(kept)


def timed_maximal_only(
    results: Iterable[frozenset[int]],
) -> tuple[set[frozenset[int]], float]:
    """(maximal set, elapsed seconds) — the Table 7 postprocessing time."""
    t0 = time.perf_counter()
    out = maximal_only(results)
    return out, time.perf_counter() - t0
