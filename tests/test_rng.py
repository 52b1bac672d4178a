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
