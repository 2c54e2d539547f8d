"""Reference Fisher-Yates shuffle: one scalar `randbelow` per swap.

`mixsent.rng.shuffled` mixes all of a shuffle's draws in one numpy pass and
must give the same permutation and leave the generator in the same state;
the tests compare the two."""

from __future__ import annotations

from mixsent.rng import SplitMix64


def shuffled_reference(items: list, rng: SplitMix64) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out
