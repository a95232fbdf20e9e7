"""Deterministic seed derivation and a small reproducible RNG.

Every randomized routine in the toolkit draws from :class:`Rng`, seeded
through :func:`derive_seed`.  Both are built on the splitmix64 avalanche
step with the usual constants

    GAMMA = 0x9E3779B97F4A7C15
    MIX1  = 0xBF58476D1CE4E5B9
    MIX2  = 0x94D049BB133111EB

so that independent implementations can reproduce every draw from the
(master seed, trial index, point index, purpose tag) quadruple alone.
Bounded draws use plain remainder reduction; the bias is irrelevant here
because reproducibility, not perfect uniformity, is the contract.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# Purpose tags for derive_seed.  Fixed small integers, part of the
# reproducibility contract (changing one changes every derived stream).
PURPOSE_INSTANCE_F = 1
PURPOSE_INSTANCE_G = 2
PURPOSE_POINT_OFF = 3
PURPOSE_POINT_ON = 4
PURPOSE_ARC = 5
PURPOSE_LINEAR_CUTS = 6
PURPOSE_MEMBER = 7
PURPOSE_ROOT_SPLIT = 8
PURPOSE_SERIES_CHECK = 9


def mix64(x: int) -> int:
    """One splitmix64 output step applied to ``x`` (mod 2^64)."""
    x = (x + GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * MIX1) & MASK64
    x = ((x ^ (x >> 27)) * MIX2) & MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, trial: int = 0, point: int = 0, purpose: int = 0) -> int:
    """Mix a master seed with task coordinates into a 64-bit task seed.

    The mix is a fixed left fold: each coordinate is absorbed with
    ``state = mix64(state ^ (coordinate * GAMMA mod 2^64))``.
    """
    state = master & MASK64
    for coord in (trial, point, purpose):
        state = mix64(state ^ ((coord * GAMMA) & MASK64))
    return state


class Rng:
    """splitmix64 stream; deterministic for a fixed seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        x = self._state
        x = ((x ^ (x >> 30)) * MIX1) & MASK64
        x = ((x ^ (x >> 27)) * MIX2) & MASK64
        return x ^ (x >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) by remainder reduction."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def int_range(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)
