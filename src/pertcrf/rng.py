"""Self-contained deterministic PRNG (splitmix64).

Library RNGs change their bit streams across versions; everything here is
pinned so that shuffles, splits, and generated corpora are reproducible
byte-for-byte on any platform, forever.

Splitmix64 is counter-based: output j (from 0) of a generator in state s
is mix64(s + (j + 1) * GAMMA), so any output can be computed without the
ones before it. `_outputs` computes a whole array of them with numpy's
wrapping uint64 arithmetic, bit for bit what next_u64 returns one at a
time; `SplitMix64.randoms`, `SplitMix64.shuffle` and `randoms_at` all draw
through it. A uniform is (output >> 11) * 2**-53, exact in float64, so a
bulk draw equals the random() calls it replaces.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 1.0 / (1 << 53)


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed lies in [0, 2**64): a generator keeps
    its seed modulo 2**64, so any other seed would alias one of these."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")


def mix64(z: int) -> int:
    """Finalizer of splitmix64: bijective avalanche mix of a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _mix64s(z: np.ndarray) -> np.ndarray:
    """mix64 of every element of a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _outputs(states, draws) -> np.ndarray:
    """next_u64 output number `draws` (0 is the next one) of generators in
    `states`, broadcast together, as a uint64 array."""
    draws = np.asarray(draws, dtype=np.uint64) + np.uint64(1)
    return _mix64s(np.asarray(states, dtype=np.uint64) + draws * np.uint64(_GAMMA))


def _unit(outputs: np.ndarray) -> np.ndarray:
    return (outputs >> np.uint64(11)) * _UNIT


def randoms_at(states, draws) -> np.ndarray:
    """The uniforms that random() would return as draw number `draws` (0 is
    the next one) of generators in `states` (uint64), broadcast together.
    States from substream_states with draws np.arange(w) give a block of
    the first w draws of many consecutive substreams."""
    return _unit(_outputs(states, draws))


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
        return (self.next_u64() >> 11) * _UNIT

    def randoms(self, n: int) -> np.ndarray:
        """The next n random() values as a float64 array, computed at once;
        leaves the state where n random() calls would."""
        u = _unit(self._next_u64s(n))
        self._state = (self._state + n * _GAMMA) & MASK64
        return u

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
        return _outputs(self._state, np.arange(n))


def substream(seed: int, index: int) -> SplitMix64:
    """Independent child stream for (seed, index); used so that items
    generated in parallel do not share state."""
    return SplitMix64(mix64(seed & MASK64) ^ mix64((index + 1) * _GAMMA))


def substream_states(seed: int, first: int, count: int) -> np.ndarray:
    """The states of substream(seed, i) for first <= i < first + count, as
    a uint64 array (the input of randoms_at)."""
    index = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    return np.uint64(mix64(seed & MASK64)) ^ _mix64s(index * np.uint64(_GAMMA))
