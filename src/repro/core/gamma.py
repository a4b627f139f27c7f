"""Exact rational arithmetic for the γ-degree thresholds.

Every pruning rule in the paper compares an integer degree against
``ceil(γ · x)``. Doing this in floats is a correctness hazard:
``math.ceil(0.9 * 10)`` is 10 in IEEE-754 (0.9*10 == 9.000000000000002),
which would silently tighten the quasi-clique definition and drop valid
results. We therefore represent γ as an exact ``Fraction`` and compute
ceilings/floors with integer arithmetic only.
"""
from __future__ import annotations

from fractions import Fraction

__all__ = ["Gamma", "make_gamma", "make_mining_gamma"]


class Gamma:
    """An exact γ ∈ [0, 1] with integer ceil(γ·x) and floor(x/γ)."""

    __slots__ = ("num", "den", "value")

    def __init__(self, frac: Fraction):
        if not (0 <= frac <= 1):
            raise ValueError(f"gamma must be in [0, 1], got {frac}")
        self.num = frac.numerator
        self.den = frac.denominator
        self.value = float(frac)

    def ceil_mul(self, x: int) -> int:
        """ceil(γ · x) for integer x ≥ 0, exactly."""
        return -((-self.num * x) // self.den)

    def ceil_table(self, size: int) -> list[int]:
        """``[ceil_mul(x) for x in range(size)]``, for loops that read
        ceilings by index instead of calling :meth:`ceil_mul`."""
        num, den = self.num, self.den
        return [-((-num * x) // den) for x in range(size)]

    def floor_div(self, x: int) -> int:
        """floor(x / γ), exactly. Requires γ > 0."""
        if self.num == 0:
            raise ZeroDivisionError("floor_div undefined for gamma = 0")
        return (x * self.den) // self.num

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gamma({self.num}/{self.den})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Gamma)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))


def make_gamma(gamma: float | str | Fraction | Gamma) -> Gamma:
    """Build a :class:`Gamma` from user input.

    Floats are snapped to the nearest rational with denominator ≤ 10000,
    which recovers the intended value for inputs like ``0.89`` (the
    paper's parameters all have two decimal digits).
    """
    if isinstance(gamma, Gamma):
        return gamma
    if isinstance(gamma, Fraction):
        return Gamma(gamma)
    if isinstance(gamma, str):
        return Gamma(Fraction(gamma))
    return Gamma(Fraction(gamma).limit_denominator(10000))


def make_mining_gamma(gamma: float | str | Fraction | Gamma) -> Gamma:
    """:func:`make_gamma`, refusing γ < 0.5 with ``ValueError``: the miner's
    (P1) two-hop shrink and the 2-hop candidate scopes assume that a
    quasi-clique has diameter ≤ 2, which only γ ≥ 0.5 guarantees."""
    gam = make_gamma(gamma)
    if 2 * gam.num < gam.den:
        raise ValueError(f"gamma must be >= 0.5, got {gam.value}")
    return gam
