import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurdet import SplitMix64, derived_seed


def test_reference_output():
    # First output of SplitMix64 from state 0, as in the published generator.
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


@settings(max_examples=50)
@given(st.integers(-(2**70), 2**70), st.integers(1, 40))
def test_one_stream_gives_the_derived_seeds(seed, count):
    stream = SplitMix64(seed)
    assert [stream.next_u64() for _ in range(count)] == [
        derived_seed(seed, k) for k in range(count)
    ]


def test_bounds_past_two_to_the_64_are_refused():
    # next_int(0, 2**64) asks for 2**64 + 1 values; the rejection limit would
    # be 0 and the draw would never return
    with pytest.raises(ValueError):
        SplitMix64(1).next_int(0, 2**64)
    for bound in (0, (1 << 64) + 1, 2**70):
        with pytest.raises(ValueError):
            SplitMix64(1).next_below(bound)


def test_full_range_bound_is_the_raw_output():
    stream = SplitMix64(7)
    assert [stream.next_below(1 << 64) for _ in range(3)] == [derived_seed(7, k) for k in range(3)]
