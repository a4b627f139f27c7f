"""Bitmask set helpers (repro/core/bitset.py)."""
from hypothesis import given, strategies as st

from repro.core.bitset import bits, mask_of

sets_st = st.sets(st.integers(0, 200), max_size=40)


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
