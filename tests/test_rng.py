"""The deterministic PRNG: reference outputs, bounded sampling, substreams."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosbench.rng import (
    _CHUNK,
    _GAMMA,
    _MASK,
    TAG_COSTS,
    TAG_QUERIES,
    TAG_STRUCTURE,
    SplitMix64,
    substream,
)

# Upper tail of the chi-squared distribution, df=9, alpha=0.001.
CHI2_CRIT_DF9 = 27.878


def test_reference_output_vector():
    # Published splitmix64 outputs for seed 0.
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_seed_masking_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42 + (1 << 64))
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_bounded_range_and_determinism():
    r = SplitMix64(7)
    values = [r.bounded(10) for _ in range(1000)]
    assert all(0 <= v < 10 for v in values)
    r2 = SplitMix64(7)
    assert values == [r2.bounded(10) for _ in range(1000)]


def test_bounded_rejects_nonpositive():
    r = SplitMix64(1)
    with pytest.raises(ValueError):
        r.bounded(0)


@pytest.mark.parametrize("n", [0, -1, 2**64 + 1, 2**70])
def test_bounds_outside_1_to_2_pow_64_are_rejected(n):
    # above 2**64 every low word is below 2**64 mod n: the loop never ended
    r = SplitMix64(1)
    with pytest.raises(ValueError):
        r.bounded(n)
    with pytest.raises(ValueError):
        r.bounded_run(n, 3)
    assert r._state == 1


def test_uniform_int_inclusive_endpoints():
    r = SplitMix64(3)
    values = {r.uniform_int(5, 7) for _ in range(500)}
    assert values == {5, 6, 7}
    with pytest.raises(ValueError):
        r.uniform_int(3, 2)


def test_bounded_uniformity_chi_squared():
    r = SplitMix64(123)
    counts = [0] * 10
    samples = 100_000
    for _ in range(samples):
        counts[r.bounded(10)] += 1
    expected = samples / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_CRIT_DF9


def test_shuffle_is_a_permutation():
    r = SplitMix64(9)
    xs = list(range(40))
    r.shuffle(xs)
    assert sorted(xs) == list(range(40))
    assert xs != list(range(40))


def test_shuffle_deterministic():
    a, b = list(range(20)), list(range(20))
    SplitMix64(77).shuffle(a)
    SplitMix64(77).shuffle(b)
    assert a == b


def test_substreams_diverge_by_purpose():
    seed = 2024
    streams = {
        tag: [substream(seed, tag).next_u64() for _ in range(4)]
        for tag in (TAG_STRUCTURE, TAG_COSTS, TAG_QUERIES)
    }
    outputs = list(streams.values())
    assert outputs[0] != outputs[1] != outputs[2]
    assert outputs[0] != outputs[2]


def test_substream_matches_xor_seed():
    assert substream(5, TAG_COSTS).next_u64() == SplitMix64(5 ^ TAG_COSTS).next_u64()


def _reference_bounded(r: SplitMix64, n: int) -> int:
    """Lemire's multiply-shift over next_u64: reject while the low word is
    below 2**64 mod n."""
    while True:
        m = r.next_u64() * n
        if m & ((1 << 64) - 1) >= (1 << 64) % n:
            return m >> 64


@pytest.mark.parametrize("n", [1, 10, 2**63 + 1, 2**64 - 1])
def test_bounded_matches_reference(n):
    r, ref = SplitMix64(n ^ 0x5EED), SplitMix64(n ^ 0x5EED)
    assert [r.bounded(n) for _ in range(2000)] == [_reference_bounded(ref, n) for _ in range(2000)]
    # both consumed the same number of raw outputs
    assert r.next_u64() == ref.next_u64()


def test_bounded_rejection_path_is_taken():
    # 2**64 mod (2**63 + 1) is 2**63 - 1, so about half the draws are rejected
    r = SplitMix64(8)
    for _ in range(100):
        r.bounded(2**63 + 1)
    raw = SplitMix64(8)
    used = 0
    while raw._state != r._state:
        raw.next_u64()
        used += 1
    assert used > 150


def _sequential(seed: int, n: int, count: int) -> tuple[list[int], int]:
    r = SplitMix64(seed)
    return [r.bounded(n) for _ in range(count)], r._state


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, _MASK),
    n=st.one_of(st.sampled_from([1, 10, 99, 2**63 + 1, 2**64 - 1, 2**64]), st.integers(1, 2**64)),
    count=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7]),
)
def test_bounded_run_equals_sequential_draws(seed, n, count):
    r = SplitMix64(seed)
    assert (r.bounded_run(n, count), r._state) == _sequential(seed, n, count)


def _unmix(z: int) -> int:
    """The state whose splitmix64 output is z: the finalizer run backwards."""

    def unxorshift(z: int, k: int) -> int:
        x = z
        for _ in range(64 // k):
            x = z ^ (x >> k)
        return x

    z = unxorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return unxorshift(z, 30)


def test_bounded_run_redraws_a_chunk_with_a_rejection():
    n = 10
    # 10 * z has low word 2, below 2**64 mod 10 = 6: bounded rejects z
    z = (3 * 2**64 + 2) // 10
    assert (z * n) & _MASK < (1 << 64) % n
    assert SplitMix64((_unmix(z) - _GAMMA) & _MASK).next_u64() == z
    seed = (_unmix(z) - 6 * _GAMMA) & _MASK  # the sixth draw of the run, lane 5, is z
    for count in (6, _CHUNK, _CHUNK + 5):
        r = SplitMix64(seed)
        got = r.bounded_run(n, count)
        assert (got, r._state) == _sequential(seed, n, count)
        # the rejection consumed one extra raw output
        assert r._state == (seed + (count + 1) * _GAMMA) & _MASK
