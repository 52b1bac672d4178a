import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurdet import SplitMix64, random_skew_matrix, random_tensor, random_vector

from oracles import ReferenceSplitMix64, derived_seed

seeds = st.integers(-(2**70), 2**70)
# sizes of the range [lo, hi]: small ones, ones just above 2**63 (about half
# of the raw outputs rejected), and the full 64-bit range
widths = st.one_of(
    st.integers(1, 40), st.integers(2**63 + 1, 2**63 + 2**20), st.integers(1, 2**64)
)


def test_reference_output():
    # First output of SplitMix64 from state 0, as in the published generator.
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
    assert ReferenceSplitMix64(0).raw() == 0xE220A8397B1DCDAF


@settings(max_examples=50)
@given(st.integers(-(2**70), 2**70), st.integers(1, 40))
def test_one_stream_gives_the_derived_seeds(seed, count):
    # the library's batched stream against the reference jumping to each state
    stream = SplitMix64(seed)
    assert stream.next_ints(0, 2**64 - 1, count) == [derived_seed(seed, k) for k in range(count)]
    assert stream.next_u64() == derived_seed(seed, count)


def test_a_far_derived_seed_is_one_jump():
    # the value is the 2,000,001st raw output, taken once by stepping the stream
    start = time.perf_counter()
    assert derived_seed(5, 2_000_000) == 0x48ED3E2936B115A1
    assert time.perf_counter() - start < 0.5  # stepping there is 2,000,001 loop turns
    # the library's batched stream, stepped there 4,096 outputs at a time, agrees
    stream = SplitMix64(5)
    for _ in range(2_000_000 // 4096):
        stream.next_ints(0, 2**64 - 1, 4096)
    assert stream.next_ints(0, 2**64 - 1, 2_000_001 % 4096)[-1] == 0x48ED3E2936B115A1


@settings(max_examples=100)
@given(seeds, st.integers(-(2**70), 2**70), widths, st.integers(0, 30))
@example(1, 0, 2**63 + 1, 30)
@example(5, -9, 19, 0)
@example(5, 0, 2**64, 3)
@example(3, -9, 19, 243)  # one random_tensor(5, 3, s) batch
@example(11, 0, 2**63 + 1, 4096)  # MAX_DENSE_SIZE, with about half of the steps rejected
def test_batched_draws_follow_the_specification(seed, lo, width, count):
    stream, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    hi = lo + width - 1
    assert stream.next_ints(lo, hi, count) == [reference.draw(lo, hi) for _ in range(count)]
    # the batch leaves the state where the single draws leave it
    assert stream.next_u64() == reference.raw()
    assert stream.next_ints(lo, hi, 1) == [reference.draw(lo, hi)]
    assert stream.next_ints(0, width - 1, 1) == [reference.draw(0, width - 1)]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15, -5])
def test_a_seeded_tensor_is_its_243_draws(seed):
    reference = ReferenceSplitMix64(seed)
    assert random_tensor(5, 3, seed).nums == tuple(reference.draw(-9, 9) for _ in range(243))


@pytest.mark.parametrize("lo, hi", [(0, -1), (5, 3), (0, 2**64), (-(2**70), 2**70)])
def test_bad_ranges_are_refused_before_any_draw(lo, hi):
    # next_ints(0, 2**64, ...) asks for 2**64 + 1 values; the rejection limit
    # would be 0 and the draw would never return
    stream = SplitMix64(11)
    with pytest.raises(ValueError):
        stream.next_ints(lo, hi, 4)
    with pytest.raises(ValueError):
        stream.next_ints(lo, hi, 1)
    assert stream.next_u64() == ReferenceSplitMix64(11).raw()


def test_bounds_past_two_to_the_64_are_refused():
    with pytest.raises(ValueError):
        SplitMix64(1).next_ints(0, 2**64, 1)
    for bound in (0, (1 << 64) + 1, 2**70):
        with pytest.raises(ValueError):
            SplitMix64(1).next_ints(0, bound - 1, 1)


def test_full_range_bound_is_the_raw_output():
    stream = SplitMix64(7)
    draws = [stream.next_ints(0, (1 << 64) - 1, 1)[0] for _ in range(3)]
    assert draws == [derived_seed(7, k) for k in range(3)]


@settings(max_examples=50)
@given(st.integers(0, 2**64 - 1), st.integers(1, 6))
def test_seeded_vectors_and_skew_matrices_are_the_drawn_ints(seed, size):
    reference = ReferenceSplitMix64(seed)
    vector = random_vector(size, seed)
    assert vector == tuple(reference.draw(-9, 9) for _ in range(size))
    assert all(type(v) is int for v in vector)
    reference = ReferenceSplitMix64(seed)
    upper = iter([reference.draw(-9, 9) for _ in range(size * (size - 1) // 2)])
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = next(upper)
            rows[j][i] = -rows[i][j]
    matrix = random_skew_matrix(size, seed)
    assert matrix == rows
    assert all(type(v) is int for row in matrix for v in row)
