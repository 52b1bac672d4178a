"""The three workloads: seeded inputs, one operation, and its independent check.

Each workload turns the benchmark seed into an endless sequence of cycles.  A
cycle holds every kind of operation the workload mixes, in equal measure, so
statistics over whole cycles do not depend on where a run happened to stop.
Library objects are built here, before timing; `run` only calls the library.
"""

from __future__ import annotations

import oracle
from oracle import Stream
from tracing import ALGEBRA, CROSS, SWEEP


class Sweep:
    """One op: a one-trial degeneracy_sweep(lam, 3, 1, seed_k), cycling over lam |- 5.

    The paper's headline check at the largest sweep size.  (3,2), (3,1,1) and
    (2,2,1) pass with a witness; (5) and (4,1) fail as negative controls;
    (2,1,1,1) and (1^5) pass because their component is zero at n = 3.
    """

    name = SWEEP
    trace_ops = 14  # two cycles
    # A cycle's slowest op, (3,2), is its top seventh; p90 falls inside it.
    tail_percentile = 90.0

    def __init__(self, lib):
        self.lib = lib
        self.lams = [lib.Partition(parts) for parts in oracle.partitions(5)]
        self.space = oracle.TensorSpace(5, 3)

    def warm_up(self) -> None:
        zero = self.lib.Tensor.zero(5, 3)
        for lam in self.lams:
            self.lib.partitions.critical_set(lam)
            self.lib.tensor_space.project_isotypic(lam, zero)

    def cycles(self, seed: int):
        stream = Stream(seed)
        while True:
            yield [(lam, stream.u64()) for lam in self.lams]

    def run(self, op):
        lam, seed = op
        return self.lib.degeneracy.degeneracy_sweep(lam, 3, 1, seed)

    def answer(self, op, result):
        return result.to_json_obj()

    def check(self, op, answer) -> bool:
        lam, seed = op
        return answer == oracle.expected_sweep_report(self.space, lam.parts, seed)

    def verdict(self, op, answer):
        return str(op[0]), answer["verdict"]


NULL_PATTERN = ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def _nonzero_pair(stream: Stream) -> list[int]:
    while True:
        pair = [stream.between(-9, 9), stream.between(-9, 9)]
        if any(pair):
            return pair


class Crosscheck:
    """One op: a 2x2x2 tensor through hyperdet_222 and degeneracy_crosscheck_222,
    plus Pfaffian and det_exact of a skew matrix of size 2, 4, 6 or 8.

    Tensors rotate through generic ones (nonzero invariant, full 216-triple
    probe search), rank-one ones (invariant 0, rarely a grid witness) and
    slot-permuted, basis-flipped, rescaled null patterns whose witness lies on
    the grid.  No projection runs; the kernel-slice path does the work.
    """

    name = CROSS
    trace_ops = 48  # four cycles
    # The two slowest of a cycle's 12 ops (full probe search and Pfaffian of
    # size 8) are its top sixth; p95 falls inside them, where p99 would be set
    # by the few ops that a stall happened to hit.
    tail_percentile = 95.0
    kinds = ("generic", "rank-one", "null")
    sizes = (2, 4, 6, 8)

    def __init__(self, lib):
        self.lib = lib

    def warm_up(self) -> None:
        for op in next(self.cycles(0)):
            self.run(op)

    def _tensor(self, kind: str, stream: Stream) -> list[int]:
        if kind == "generic":
            while True:
                entries = [stream.between(-9, 9) for _ in range(8)]
                if oracle.cayley_hyperdet(entries):
                    return entries
        if kind == "rank-one":
            u, v, w = (_nonzero_pair(stream) for _ in range(3))
            return [u[i] * v[j] * w[k] for i in range(2) for j in range(2) for k in range(2)]
        order = [0, 1, 2]
        for i in range(2, 0, -1):
            j = stream.below(i + 1)
            order[i], order[j] = order[j], order[i]
        flips = [stream.below(2) for _ in range(3)]
        scale = stream.between(1, 9) * (1 - 2 * stream.below(2))
        entries = [0] * 8
        for idx in NULL_PATTERN:
            moved = [idx[order[k]] ^ flips[k] for k in range(3)]
            entries[4 * moved[0] + 2 * moved[1] + moved[2]] = scale
        return entries

    def cycles(self, seed: int):
        stream = Stream(seed)
        count = len(self.kinds) * len(self.sizes)
        while True:
            ops = []
            for i in range(count):
                kind, size = self.kinds[i % 3], self.sizes[i % 4]
                entries = self._tensor(kind, stream)
                upper = [stream.between(-9, 9) for _ in range(size * (size - 1) // 2)]
                rows = [[0] * size for _ in range(size)]
                it = iter(upper)
                for r in range(size):
                    for c in range(r + 1, size):
                        rows[r][c] = next(it)
                        rows[c][r] = -rows[r][c]
                ops.append((kind, entries, self.lib.Tensor(3, 2, entries), rows))
            yield ops

    def run(self, op):
        _, _, tensor, matrix = op
        hd = self.lib.hyperdet
        value = hd.hyperdet_222(tensor)
        verdict, witness = hd.degeneracy_crosscheck_222(tensor)
        return value, verdict, witness, hd.pfaffian(matrix), self.lib.linalg.det_exact(matrix)

    def answer(self, op, result):
        value, verdict, witness, pf, det = result
        if witness is not None:
            witness = tuple(tuple(v) for v in witness.vectors)
        return value, verdict, witness, pf, det

    def check(self, op, answer) -> bool:
        kind, entries, _, matrix = op
        value, verdict, witness, pf, det = answer
        expected_value = oracle.cayley_hyperdet(entries)
        expected_witness = oracle.first_grid_witness(entries)
        expected_pf = oracle.pfaffian(matrix)
        if kind != "generic" and expected_value != 0:
            raise AssertionError(f"{kind} tensor with nonzero invariant: {entries}")
        if kind == "null" and expected_witness is None:
            raise AssertionError(f"null pattern without a grid witness: {entries}")
        return (
            value == expected_value
            and verdict == "consistent"
            and witness == expected_witness
            and pf == expected_pf
            and det == expected_pf**2
        )

    def verdict(self, op, answer):
        value, verdict, _, pf, det = answer
        return op[0], (verdict, value == 0, pf**2 == det)


class Algebra:
    """One op: positive_element(pi) * isotypic_projector(lam)[0], or isotypic_rank(lam, n).

    A cycle is every lam |- 5 against every set partition pi of {1..5} (364
    products, zero exactly when shape(pi) is not dominated by lam) and every
    lam |- 5 at n = 2, 3 (14 ranks, f^lam * s_lam(1^n)), shuffled by the seed.
    The group-algebra certificate route: multiply and rank_exact dominate.
    """

    name = ALGEBRA
    trace_ops = 378  # one cycle
    # The top 1% of a cycle is 3.8 of its 7 ranks at n = 3; p99 falls inside
    # the fourth slowest, (2,2,1), next to (3,1,1) of almost equal cost, and
    # away from the jumps between ranks of very different cost.
    tail_percentile = 99.0

    def __init__(self, lib):
        self.lib = lib
        self.ops = []
        for parts in oracle.partitions(5):
            lam = lib.Partition(parts)
            for blocks in oracle.set_partitions([1, 2, 3, 4, 5]):
                shape = tuple(sorted(map(len, blocks), reverse=True))
                self.ops.append(("product", lam, lib.SetPartition(blocks), shape))
            for n in (2, 3):
                self.ops.append(("rank", lam, n, None))

    def warm_up(self) -> None:
        for parts in oracle.partitions(5):
            self.lib.perm_algebra.isotypic_projector(self.lib.Partition(parts))
        single_row = self.lib.Partition([5])
        for n in (2, 3):
            self.lib.tensor_space.project_isotypic(single_row, self.lib.Tensor.zero(5, n))

    def cycles(self, seed: int):
        stream = Stream(seed)
        while True:
            ops = list(self.ops)
            for i in range(len(ops) - 1, 0, -1):
                j = stream.below(i + 1)
                ops[i], ops[j] = ops[j], ops[i]
            yield ops

    def run(self, op):
        kind, lam, arg, _ = op
        if kind == "rank":
            return self.lib.tensor_space.isotypic_rank(lam, arg)
        pa = self.lib.perm_algebra
        return (pa.positive_element(arg) * pa.isotypic_projector(lam)[0]).is_zero

    def answer(self, op, result):
        return result

    def check(self, op, answer) -> bool:
        kind, lam, arg, shape = op
        if kind == "rank":
            return answer == oracle.isotypic_dimension(lam.parts, arg)
        return answer is (not oracle.dominated(shape, lam.parts))

    def verdict(self, op, answer):
        kind, lam, arg, _ = op
        return (kind, str(lam), str(arg)), answer


WORKLOADS = {w.name: w for w in (Sweep, Crosscheck, Algebra)}
