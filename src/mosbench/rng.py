"""Deterministic 64-bit PRNG used by every generator in the toolkit.

The stream is splitmix64: state advances by the 64-bit golden ratio constant
and each output is a finalizing mix of the new state.  Identical seeds give
identical streams on every platform, which is what makes generated instances
reproducible byte for byte.

`SplitMix64.bounded_run(n, count)` returns exactly
`[r.bounded(n) for _ in range(count)]` and leaves the stream's state where
that loop would.  The states of a run form an arithmetic progression, so it
packs up to `_CHUNK` of them into 128-bit lanes of one Python int and mixes
them with whole-int operations.  `bounded` rejects a draw only when its low
word is below 2**64 mod n, which is below n; a chunk with any low word below
n is redrawn one value at a time by `bounded` from the chunk's start.
"""
from __future__ import annotations

import sys
from functools import cache
from typing import MutableSequence

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Lanes per packed chunk.  Larger chunks mix somewhat faster but hold more
# memory at once: one pass over all 18,048 draws of a 48x48 grid raised the
# peak RSS of a process generating three such grids by 2.5 MiB.
_CHUNK = 2048

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
        """Uniform integer in [0, n) by multiply-shift with rejection."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"bound must be in 1..2**64, got {n}")
        m = self.next_u64() * n
        low = m & _MASK
        if low < n:
            threshold = (1 << 64) % n
            while low < threshold:
                m = self.next_u64() * n
                low = m & _MASK
        return m >> 64

    def bounded_run(self, n: int, count: int) -> list[int]:
        """[self.bounded(n) for _ in range(count)], mixed a chunk at a time."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"bound must be in 1..2**64, got {n}")
        ones, steps, lanes = _lane_constants()
        # A lane's low word plus 2**64 - n carries into the lane's bit 64
        # exactly when the word is at least n.
        bias, carry = ((1 << 64) - n) * ones, ones << 64
        out: list[int] = []
        for done in range(0, count, _CHUNK):
            k = min(_CHUNK, count - done)
            if k < _CHUNK:
                cut = (1 << 128 * k) - 1
                ones, steps, lanes, bias, carry = (
                    c & cut for c in (ones, steps, lanes, bias, carry)
                )
            s = self._state
            # Lane i holds state s + (i+1)*gamma.  The right shifts pull the
            # next lane's bits into the top of each lane, so every product
            # is taken of masked lanes.
            z = (s * ones + steps) & lanes
            z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
            z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
            m = ((z ^ (z >> 31)) & lanes) * n
            if ((m & lanes) + bias) & carry != carry:  # a possible rejection
                out += [self.bounded(n) for _ in range(k)]
                continue
            words = memoryview(m.to_bytes(16 * k, sys.byteorder)).cast("Q")
            if sys.byteorder == "big":
                words = words[::-1]
            out += words[1::2].tolist()
            self._state = (s + k * _GAMMA) & _MASK
        return out

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


@cache
def _lane_constants() -> tuple[int, int, int]:
    """_CHUNK 128-bit lanes: all holding 1, lane i holding (i+1)*gamma, all 2**64 - 1."""
    def packed(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")

    lanes = range(1, _CHUNK + 1)
    return packed(1 for _ in lanes), packed(i * _GAMMA for i in lanes), packed(_MASK for _ in lanes)


def substream(seed: int, tag: int) -> SplitMix64:
    """The stream for one purpose (structure, costs, queries) under one seed."""
    return SplitMix64((seed ^ tag) & _MASK)
