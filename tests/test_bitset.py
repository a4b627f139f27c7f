"""Bitmask set helpers (repro/core/bitset.py)."""
import pytest
from hypothesis import given, strategies as st

from repro.core.bitset import bits, mask_of

sets_st = st.sets(st.integers(0, 200), max_size=40)


def bits_reference(mask):
    """What ``bits`` was before it built a list from its byte table: a
    generator popping the lowest set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TestRoundTrip:
    @given(sets_st)
    def test_mask_of_bits_roundtrip(self, s):
        assert set(bits(mask_of(s))) == s

    @given(sets_st)
    def test_bits_ascending(self, s):
        out = list(bits(mask_of(s)))
        assert out == sorted(out)


class TestBitOps:
    def test_empty_mask(self):
        assert list(bits(0)) == []


class TestAgainstGenerator:
    """Masks up to 600 bits: past the 256 bits the byte table covers."""

    @given(st.integers(0, (1 << 600) - 1))
    def test_any_mask(self, mask):
        out = bits(mask)
        assert isinstance(out, list)
        assert out == list(bits_reference(mask))

    @given(st.sets(st.integers(0, 599), max_size=60))
    def test_sparse_mask(self, s):
        mask = mask_of(s)
        assert bits(mask) == list(bits_reference(mask)) == sorted(s)

    @pytest.mark.parametrize("mask", [
        0, 1, 1 << 7, 1 << 8, 1 << 255, 1 << 256, 1 << 599,
        (1 << 256) - 1, (1 << 600) - 1, (1 << 599) | 1,
    ])
    def test_edge_masks(self, mask):
        out = bits(mask)
        assert isinstance(out, list)
        assert out == list(bits_reference(mask))
