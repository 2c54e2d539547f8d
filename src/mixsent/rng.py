"""Portable deterministic shuffling.

All data-order randomness (corpus splits, per-epoch training shuffles) goes
through splitmix64 + Fisher-Yates so that a given seed produces the same
order on any platform or implementation, independent of numpy's generators.

splitmix64 reference: Steele, Lea & Flood, "Fast splittable pseudorandom
number generators" (the JDK SplittableRandom mixer).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit splitmix generator with a plain integer seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow requires n > 0")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            r = self.next_u64()
            if r <= limit:
                return r % n


def derive_seed(seed: int, *salts: int) -> int:
    """Fold integer salts into a seed; used to give independent streams
    (e.g. one per class label) a documented derivation from the run seed."""
    state = seed & _MASK64
    for salt in salts:
        state = _mix((state + _GAMMA * ((salt & _MASK64) + 1)) & _MASK64)
    return state


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix over a uint64 array; numpy's uint64 arithmetic wraps mod 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def shuffled(items: list, rng: SplitMix64) -> list:
    """Fisher-Yates shuffle (copy); consumes one bounded draw per swap.

    The generator's k-th state is seed + k*gamma, so every draw of the
    shuffle is mixed in one numpy pass.  They are used up to the first draw
    that randbelow would reject; the scalar loop goes on from there, so the
    permutation and the final state are those of one randbelow per swap."""
    out = list(items)
    bounds = np.arange(len(out), 1, -1, dtype=np.uint64)          # i + 1
    steps = np.arange(1, len(bounds) + 1, dtype=np.uint64)
    draws = _mix_array(np.uint64(rng._state) + steps * np.uint64(_GAMMA))
    mask = np.uint64(_MASK64)
    limits = mask - (mask % bounds + np.uint64(1)) % bounds       # randbelow's
    rejected = np.flatnonzero(draws > limits)
    k = int(rejected[0]) if len(rejected) else len(bounds)
    for i, j in zip(range(len(out) - 1, 0, -1), (draws[:k] % bounds[:k]).tolist()):
        out[i], out[j] = out[j], out[i]
    rng._state = (rng._state + k * _GAMMA) & _MASK64
    for i in range(len(out) - 1 - k, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out
