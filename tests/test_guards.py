"""One row per public entry point that builds a value: an adversarial input that each
refuses with SizeGuardError in under half a second, before any large integer is formed.

Every denominator here is a power of 3 or 5 of hundreds of thousands of bits, each within
the budget of `MAX_DENOMINATOR_BITS` alone; the rows combine them past it.  The command
line turns the refusal into exit code 2 and one `error:` line.
"""

import json
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from schurdet import (
    AlgebraElement,
    KernelWitness,
    Partition,
    SizeGuardError,
    Tensor,
    algebra_action,
    all_permutations,
    det_exact,
    evaluate,
    isotypic_projector,
    pfaffian,
    random_tensor,
    rank_one,
    slot_slice,
)
from schurdet.cli import main
from schurdet.tensor_space import contract_first

TINY = Fraction(1, 3 ** (2**19))  # 830,977 bits: five values fit the budget, six do not
THIRD, FIFTH = Fraction(1, 3 ** (2**18)), Fraction(1, 5 ** (2**18))  # 415,491 and 608,683 bits
T5 = random_tensor(5, 3, 1)  # 243 integer entries
Z3 = isotypic_projector(Partition([3]))[0]  # 6 terms over 6
# 27 entries of 152,170 bits, and three terms of 830,979: each within the budget
T3 = Tensor(3, 3, [Fraction(1, 5 ** (2**16))] + [0] * 26)
Z21 = isotypic_projector(Partition([2, 1]))[0].scale(TINY)


def hyperdet_input() -> int:
    """`hyperdet --input` on a 3 x 10**6 x ... tensor document: its dense size is refused."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        path.write_text(json.dumps({"order": 3, "dim": 10**6, "entries": []}))
        return main(["hyperdet", "--input", str(path)])


GUARDS = {
    "Tensor": lambda: Tensor(2, 3, [TINY] * 9),
    "Tensor.scale": lambda: T5.scale(TINY),
    "Tensor.__add__": lambda: Tensor(2, 2, [TINY] * 4) + Tensor(2, 2, [FIFTH] * 4),
    "rank_one": lambda: rank_one([(TINY, 1)] * 3),
    "AlgebraElement": lambda: AlgebraElement(3, dict.fromkeys(all_permutations(3), TINY)),
    "AlgebraElement.scale": lambda: Z3.scale(TINY),
    "AlgebraElement.__add__": lambda: Z3.scale(THIRD) + Z3.scale(FIFTH),
    "AlgebraElement.__mul__": lambda: Z3.scale(THIRD) * Z3.scale(FIFTH),
    "det_exact": lambda: det_exact([[TINY if i == j else 0 for j in range(3)] for i in range(3)]),
    "pfaffian": lambda: pfaffian([[0, TINY, 0, 0], [-TINY, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]),
    "KernelWitness": lambda: KernelWitness([(TINY,) * 6]),
    "contract_first": lambda: contract_first(T5, (TINY, 0, 1)),
    "slot_slice": lambda: slot_slice(T5, [(TINY, 0, 1)] * 5, 1),
    "evaluate": lambda: evaluate(T5, [(TINY, 0, 1)] * 5),
    "algebra_action": lambda: algebra_action(Z21, T3),
    "hyperdet --input": hyperdet_input,
}


@pytest.mark.parametrize("name", GUARDS)
def test_each_entry_point_refuses_at_once(name, capsys):
    start = time.perf_counter()
    if name == "hyperdet --input":
        assert GUARDS[name]() == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        with pytest.raises(SizeGuardError):
            GUARDS[name]()
    assert time.perf_counter() - start < 0.5


def test_each_part_alone_is_within_the_budget():
    # the rows refuse a combination, not a value that an intake refuses on its own
    for parts in ([TINY] * 4, [FIFTH] * 4, [TINY] * 5):
        assert Tensor(1, len(parts), parts).den == parts[0].denominator
    assert Z3.scale(THIRD).den == 6 * THIRD.denominator
    assert Z3.scale(FIFTH).den == 6 * FIFTH.denominator
    assert algebra_action(Z3, T3).den == T3.den  # 27 entries of 152,173 bits
    vector = (Fraction(1, 3**30000), 0, 1)  # 47,549 bits, 81 entries
    assert contract_first(T5, vector).den == 3**30000
