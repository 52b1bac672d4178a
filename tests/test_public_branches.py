"""One row per branch of the public API that no other test reaches: each malformed input
raises its documented error, and the scalar paths give what their documentation says."""

from fractions import Fraction

import pytest

from schurdet import (
    AlgebraElement,
    InvalidWitnessError,
    KernelWitness,
    Permutation,
    Tensor,
    as_fraction,
    derived_seed,
    evaluate,
    pfaffian,
    random_skew_matrix,
    rank_one,
    slot_slice,
)

T = Tensor(2, 2, [1, 2, 3, 4])
E = AlgebraElement(2, {Permutation((1, 2)): Fraction(1, 2), Permutation((2, 1)): -1})

# name -> (call, the error it raises or the value it returns)
ROWS = {
    "KernelWitness, no vectors": (lambda: KernelWitness([]), InvalidWitnessError),
    "AlgebraElement, a term of another degree": (
        lambda: AlgebraElement(3, {Permutation((2, 1)): 1}),
        ValueError,
    ),
    "as_fraction, an int": (lambda: as_fraction(5), Fraction(5)),
    "derived_seed, negative index": (lambda: derived_seed(1, -1), ValueError),
    "random_skew_matrix, negative size": (lambda: random_skew_matrix(-1, 0), ValueError),
    "pfaffian, ragged rows": (lambda: pfaffian([[0, 1], [-1]]), ValueError),
    "Tensor.entry, index tuple of another length": (lambda: T.entry((0,)), ValueError),
    "Tensor.from_json_obj, entries not a list": (
        lambda: Tensor.from_json_obj({"order": 1, "dim": 2, "entries": "1 2"}),
        ValueError,
    ),
    "rank_one, no factors": (lambda: rank_one([]), ValueError),
    "evaluate, one vector short": (lambda: evaluate(T, [(1, 0)]), ValueError),
    "slot_slice, one vector short": (lambda: slot_slice(T, [None], 1), ValueError),
    "AlgebraElement times a scalar, on either side": (
        lambda: (E * 3, 3 * E),
        (E.scale(3), E.scale(3)),
    ),
}


@pytest.mark.parametrize("name", ROWS)
def test_each_public_branch(name):
    call, expected = ROWS[name]
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            call()
    else:
        result = call()
        assert result == expected and type(result) is type(expected)
