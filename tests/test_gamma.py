"""Exact γ-arithmetic (repro/core/gamma.py).

The float-ceiling hazard these guard against: ceil(0.9*10) == 10 in
IEEE-754, which would tighten every degree threshold in the miner.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.gamma import Gamma, make_gamma, make_mining_gamma


class TestCeilMul:
    def test_exact_multiple_not_rounded_up(self):
        # the canonical float trap: 0.9 * 10 must ceil to 9, not 10
        assert make_gamma(0.9).ceil_mul(10) == 9

    def test_another_float_trap(self):
        assert make_gamma(0.89).ceil_mul(100) == 89

    @pytest.mark.parametrize("gamma,x,expect", [
        (0.5, 3, 2), (0.5, 4, 2), (0.6, 3, 2), (1.0, 7, 7), (0.0, 5, 0),
        (0.85, 12, 11), (0.89, 19, 17), (0.9, 17, 16), (0.75, 8, 6),
    ])
    def test_table(self, gamma, x, expect):
        assert make_gamma(gamma).ceil_mul(x) == expect

    @given(st.fractions(min_value=0, max_value=1), st.integers(0, 10**6))
    def test_matches_fraction_ceil(self, frac, x):
        g = Gamma(frac)
        assert g.ceil_mul(x) == math.ceil(frac * x)


class TestFloorDiv:
    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=1),
        st.integers(0, 10**6),
    )
    def test_matches_fraction_floor(self, frac, x):
        g = Gamma(frac)
        assert g.floor_div(x) == math.floor(Fraction(x) / frac)

    def test_zero_gamma_raises(self):
        with pytest.raises(ZeroDivisionError):
            make_gamma(0.0).floor_div(3)


class TestMakeGamma:
    def test_snaps_two_decimal_floats(self):
        g = make_gamma(0.89)
        assert (g.num, g.den) == (89, 100)

    def test_from_string(self):
        g = make_gamma("9/10")
        assert (g.num, g.den) == (9, 10)

    def test_from_fraction_and_identity(self):
        g = make_gamma(Fraction(1, 2))
        assert make_gamma(g) is g

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            make_gamma(bad)

    def test_eq_hash(self):
        assert make_gamma(0.5) == make_gamma("1/2")
        assert hash(make_gamma(0.5)) == hash(make_gamma("1/2"))
        assert make_gamma(0.5) != make_gamma(0.6)


class TestMakeMiningGamma:
    def test_half_accepted(self):
        assert make_mining_gamma("1/2") == make_gamma(0.5)

    @pytest.mark.parametrize("bad", [0.0, 0.49, "4999/10000"])
    def test_below_half_refused(self, bad):
        with pytest.raises(ValueError, match=r"gamma must be >= 0\.5"):
            make_mining_gamma(bad)
