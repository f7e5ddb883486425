"""Self-contained deterministic PRNG (splitmix64).

Library RNGs change their bit streams across versions; everything here is
pinned so that shuffles, splits, and generated corpora are reproducible
byte-for-byte on any platform, forever.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """Finalizer of splitmix64: bijective avalanche mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


class SplitMix64:
    """Tiny, fast, well-mixed generator. Good enough for shuffling and
    sampling; not for cryptography."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i from len-1 down to 1, swap
        items[i] with items[randrange(i + 1)]. The draws are computed as
        one array; in the unlikely case that one of them would be
        rejected, they are drawn one by one instead."""
        n = len(items)
        if n < 2:
            return
        bounds = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for each i
        u = self._next_u64s(n - 1)
        # randrange(b) rejects u >= 2**64 - 2**64 % b, and
        # 2**64 % b == (2**64 - b) % b.
        if np.any(u > np.uint64(MASK64) - (np.uint64(0) - bounds) % bounds):
            targets = [self.randrange(i + 1) for i in range(n - 1, 0, -1)]
        else:
            targets = (u % bounds).tolist()
            self._state = (self._state + (n - 1) * _GAMMA) & MASK64
        for i, j in zip(range(n - 1, 0, -1), targets):
            items[i], items[j] = items[j], items[i]

    def _next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs of next_u64 as a uint64 array, without
        advancing the state."""
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def substream(seed: int, index: int) -> SplitMix64:
    """Independent child stream for (seed, index); used so that items
    generated in parallel do not share state."""
    return SplitMix64(mix64(seed & MASK64) ^ mix64((index + 1) * _GAMMA))
