"""Int-bitmask vertex-set helpers.

Task subgraphs after k-core pruning are small (the paper's Table 3(b):
tens to a few tens of thousands of vertices), so arbitrary-precision
Python ints are a compact and fast set representation: intersection is
``&``, membership is a shift, and cardinality is ``int.bit_count()``.
All of ``core/`` operates on these masks.
"""
from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["mask_of", "bits"]


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with a 1 at every index in ``vertices``."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

