import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurdet import SplitMix64, derived_seed

from oracles import ReferenceSplitMix64

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
    stream = SplitMix64(seed)
    assert [stream.next_u64() for _ in range(count)] == [
        derived_seed(seed, k) for k in range(count)
    ]


@settings(max_examples=100)
@given(seeds, st.integers(-(2**70), 2**70), widths, st.integers(0, 30))
@example(1, 0, 2**63 + 1, 30)
@example(5, -9, 19, 0)
@example(5, 0, 2**64, 3)
def test_batched_draws_follow_the_specification(seed, lo, width, count):
    stream, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    hi = lo + width - 1
    assert stream.next_ints(lo, hi, count) == [reference.draw(lo, hi) for _ in range(count)]
    # the batch leaves the state where the single draws leave it
    assert stream.next_u64() == reference.raw()
    assert stream.next_int(lo, hi) == reference.draw(lo, hi)
    assert stream.next_below(width) == reference.draw(0, width - 1)


@pytest.mark.parametrize("lo, hi", [(0, -1), (5, 3), (0, 2**64), (-(2**70), 2**70)])
def test_bad_ranges_are_refused_before_any_draw(lo, hi):
    # next_ints(0, 2**64, ...) asks for 2**64 + 1 values; the rejection limit
    # would be 0 and the draw would never return
    stream = SplitMix64(11)
    with pytest.raises(ValueError):
        stream.next_ints(lo, hi, 4)
    with pytest.raises(ValueError):
        stream.next_int(lo, hi)
    assert stream.next_u64() == ReferenceSplitMix64(11).raw()


def test_bounds_past_two_to_the_64_are_refused():
    with pytest.raises(ValueError):
        SplitMix64(1).next_int(0, 2**64)
    for bound in (0, (1 << 64) + 1, 2**70):
        with pytest.raises(ValueError):
            SplitMix64(1).next_below(bound)


def test_full_range_bound_is_the_raw_output():
    stream = SplitMix64(7)
    assert [stream.next_below(1 << 64) for _ in range(3)] == [derived_seed(7, k) for k in range(3)]
