from hypothesis import given, settings
from hypothesis import strategies as st

from mixsent.rng import _GAMMA, _MASK64, SplitMix64, shuffled

from rng_reference import shuffled_reference


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix(z: int) -> int:
    """The state whose splitmix64 output is z (the mixer is a bijection)."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    return _unxorshift(z, 30)


def _assert_same_as_reference(seed: int, n: int) -> None:
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    items = [f"item{i}" for i in range(n)]
    assert shuffled(items, fast) == shuffled_reference(items, slow)
    assert fast._state == slow._state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, _MASK64), n=st.integers(0, 2000))
def test_shuffled_matches_scalar_reference(seed, n):
    _assert_same_as_reference(seed, n)


def test_unmix_inverts_the_mixer():
    rng = SplitMix64(0)
    z = rng.next_u64()
    assert _unmix(z) == rng._state


def test_rejected_draw_falls_back_to_scalar_loop():
    # Plant the all-ones output at the third draw, which is bounded by 10:
    # 2^64 is not a multiple of 10, so randbelow rejects it and draws again.
    n, k = 12, 2
    seed = (_unmix(_MASK64) - (k + 1) * _GAMMA) & _MASK64
    probe = SplitMix64(seed)
    assert [probe.next_u64() for _ in range(k + 1)][-1] == _MASK64
    _assert_same_as_reference(seed, n)
    rng = SplitMix64(seed)
    shuffled(list(range(n)), rng)
    assert rng._state == (seed + n * _GAMMA) & _MASK64     # one draw more than swaps
