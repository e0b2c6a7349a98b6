"""Deterministic 64-bit PRNG used by every generator in the toolkit.

The stream is splitmix64: state advances by the 64-bit golden ratio constant
and each output is a finalizing mix of the new state.  Identical seeds give
identical streams on every platform, which is what makes generated instances
reproducible byte for byte.
"""
from __future__ import annotations

from typing import MutableSequence

_MASK = (1 << 64) - 1

# Independent substreams come from seeding with (seed XOR purpose tag); the
# tags are fixed eight-byte ASCII labels.
TAG_STRUCTURE = int.from_bytes(b"STRUCTUR", "big")
TAG_COSTS = int.from_bytes(b"COSTBITS", "big")
TAG_QUERIES = int.from_bytes(b"QUERYSET", "big")


class SplitMix64:
    """splitmix64 stream with rejection-free-on-average bounded sampling."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def bounded(self, n: int) -> int:
        """Uniform integer in [0, n) by multiply-shift with rejection (next_u64 inlined)."""
        if n <= 0:
            raise ValueError(f"bound must be positive, got {n}")
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        m = (z ^ (z >> 31)) * n
        low = m & _MASK
        if low < n:
            threshold = (1 << 64) % n
            while low < threshold:
                m = self.next_u64() * n
                low = m & _MASK
        return m >> 64

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.bounded(hi - lo + 1)

    def shuffle(self, seq: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle drawing one bounded value per swap."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.bounded(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def substream(seed: int, tag: int) -> SplitMix64:
    """The stream for one purpose (structure, costs, queries) under one seed."""
    return SplitMix64((seed ^ tag) & _MASK)
