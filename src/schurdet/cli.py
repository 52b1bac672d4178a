"""Command line interface.

Subcommands:

  critical-set PARTITION      print the critical set of a partition
  verify SUITE                run one verification suite (t2, main, lemma1,
                              pfaffian, hyperdet222)
  hyperdet --input PATH       evaluate the 2x2x2 invariant (or, with
                              --pfaffian / --det, a matrix invariant)
  report                      run every suite and emit one document

Exit codes: 0 when every executed check passed, 1 when some mathematical
check failed, 2 on usage or input-format errors.  JSON output is
deterministic for a fixed configuration; wall-clock timings live in their
own field so the rest of a report can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .degeneracy import (
    MAX_EIGENCHECK,
    MAX_SWEEP_DIM,
    MAX_SWEEP_ORDER,
    critical_equations_hold,
    degeneracy_sweep,
    slot_system_det,
    slot_system_eigencheck,
)
from .errors import InternalConsistencyError, SizeGuardError
from .hyperdet import (
    degeneracy_crosscheck_222,
    hyperdet_222,
    pfaffian,
    random_skew_matrix,
)
from .linalg import det_exact
from .partitions import Partition, all_partitions, critical_set, is_exceptional
from .perm_algebra import all_permutations
from .rational import as_fraction
from .rng import SplitMix64
from .tensor_space import (
    Tensor,
    permute_factors,
    project_isotypic,
    random_tensor,
    random_vector,
    rank_one,
)

DEFAULT_TRIALS = {"t2": 5, "main": 20, "pfaffian": 20, "hyperdet222": 50}
PFAFFIAN_SIZES = (2, 4, 6)


class UsageError(Exception):
    """Bad flags or malformed input; mapped to exit code 2."""


@dataclass(frozen=True)
class SuiteConfig:
    order: int
    dim: int
    trials: Optional[int]
    seed: int
    max_mu: int

    def __post_init__(self):
        if not 2 <= self.order <= MAX_SWEEP_ORDER:
            raise UsageError(f"--p must be in 2..{MAX_SWEEP_ORDER}")
        if not 1 <= self.dim <= MAX_SWEEP_DIM:
            raise UsageError(f"--n must be in 1..{MAX_SWEEP_DIM}")
        if self.trials is not None and self.trials < 1:
            raise UsageError("--trials must be at least 1")
        if not 1 <= self.max_mu <= MAX_EIGENCHECK:
            raise UsageError(f"--max-mu must be in 1..{MAX_EIGENCHECK}")

    def trials_for(self, suite: str) -> int:
        return self.trials if self.trials is not None else DEFAULT_TRIALS[suite]

    def to_json_obj(self) -> dict:
        return {
            "p": self.order,
            "n": self.dim,
            "trials": self.trials,
            "seed": self.seed,
            "max_mu": self.max_mu,
        }


def _parse_partition(text: str) -> Partition:
    cleaned = text.strip().strip("()")
    if not cleaned:
        raise UsageError("empty partition")
    try:
        parts = [int(tok) for tok in cleaned.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse partition {text!r}") from exc
    try:
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _sorted_partitions(items) -> list[Partition]:
    return sorted(items, key=lambda q: q.parts, reverse=True)


# --- suite runners ---------------------------------------------------------
# Each returns a JSON-ready dict: {"checks": [{"name", "pass", ...}], "verdict"}.


def run_lemma1(config: SuiteConfig) -> dict:
    checks = []
    for mu1 in range(1, config.max_mu + 1):
        det = slot_system_det(mu1)
        det_ok = det == Fraction((-1) ** mu1 * mu1)
        eig_ok = slot_system_eigencheck(mu1)
        checks.append(
            {
                "name": f"mu1={mu1}",
                "pass": det_ok and eig_ok,
                "det": str(det),
            }
        )
    return _finish(checks)


def run_t2(config: SuiteConfig) -> dict:
    trials = config.trials_for("t2")
    checks = []
    seeds = SplitMix64(config.seed)
    for lam in all_partitions(config.order):
        ok = True
        for _ in range(trials):
            tensor = random_tensor(config.order, config.dim, seeds.next_u64())
            projected = project_isotypic(lam, tensor)
            if not critical_equations_hold(lam, projected):
                ok = False
        checks.append(
            {
                "name": str(lam),
                "pass": ok,
                "critical": [q.to_json_obj() for q in _sorted_partitions(critical_set(lam))],
            }
        )
    return _finish(checks)


def run_main(config: SuiteConfig) -> dict:
    trials = config.trials_for("main")
    shapes = [
        lam
        for lam in all_partitions(config.order)
        if not is_exceptional(lam) and lam.rows <= config.dim
    ]
    checks = []
    notes = []
    seeds = SplitMix64(config.seed)
    for lam in shapes:
        report = degeneracy_sweep(lam, config.dim, trials, seeds.next_u64())
        checks.append(
            {
                "name": str(lam),
                "pass": report.verdict == "pass",
                "witnesses_found": report.witnesses_found,
                "failures": [f.to_json_obj() for f in report.failures],
            }
        )
    if not shapes:
        notes.append(
            f"order {config.order}, dim {config.dim}: every shape that meets the "
            "dimension bound is exceptional; nothing to sweep"
        )
    result = _finish(checks)
    if notes:
        result["notes"] = notes
    return result


def run_pfaffian(config: SuiteConfig) -> dict:
    trials = config.trials_for("pfaffian")
    checks = []
    seeds = SplitMix64(config.seed)
    for size in PFAFFIAN_SIZES:
        ok = True
        for _ in range(trials):
            matrix = random_skew_matrix(size, seeds.next_u64())
            if pfaffian(matrix) ** 2 != det_exact(matrix):
                ok = False
        checks.append({"name": f"size={size}", "pass": ok})
    return _finish(checks)


def run_hyperdet222(config: SuiteConfig) -> dict:
    trials = config.trials_for("hyperdet222")
    checks = []

    diagonal = Tensor.from_map(3, 2, {(0, 0, 0): 1, (1, 1, 1): 1})
    checks.append({"name": "diagonal", "pass": hyperdet_222(diagonal) == 1})

    null_pattern = Tensor.from_map(3, 2, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})
    verdict, found = degeneracy_crosscheck_222(null_pattern)
    checks.append(
        {
            "name": "null-pattern",
            "pass": hyperdet_222(null_pattern) == 0
            and verdict == "consistent"
            and found is not None,
        }
    )

    ok = True
    seeds = SplitMix64(config.seed)
    for _ in range(trials):
        factor_seeds = SplitMix64(seeds.next_u64())
        vectors = [random_vector(2, factor_seeds.next_u64(), nonzero=True) for _ in range(3)]
        if hyperdet_222(rank_one(vectors)) != 0:
            ok = False
    checks.append({"name": "rank-one", "pass": ok})

    invariant_ok = True
    homogeneity_ok = True
    for _ in range(trials):
        tensor = random_tensor(3, 2, seeds.next_u64())
        value = hyperdet_222(tensor)
        for perm in all_permutations(3):
            if hyperdet_222(permute_factors(perm, tensor)) != value:
                invariant_ok = False
        if hyperdet_222(tensor.scale(3)) != 81 * value:
            homogeneity_ok = False
    checks.append({"name": "slot-invariance", "pass": invariant_ok})
    checks.append({"name": "homogeneity", "pass": homogeneity_ok})
    return _finish(checks)


def _finish(checks: list[dict]) -> dict:
    verdict = "pass" if all(c["pass"] for c in checks) else "fail"
    return {"checks": checks, "verdict": verdict}


SUITES = {
    "lemma1": run_lemma1,
    "t2": run_t2,
    "main": run_main,
    "pfaffian": run_pfaffian,
    "hyperdet222": run_hyperdet222,
}


# --- subcommand handlers ---------------------------------------------------


def _config_from_args(args) -> SuiteConfig:
    return SuiteConfig(
        order=args.p, dim=args.n, trials=args.trials, seed=args.seed, max_mu=args.max_mu
    )


def cmd_critical_set(args) -> int:
    lam = _parse_partition(args.partition)
    critical = _sorted_partitions(critical_set(lam))
    if args.output == "json":
        doc = {
            "lambda": lam.to_json_obj(),
            "critical": [q.to_json_obj() for q in critical],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif critical:
        for q in critical:
            print(q)
    else:
        print("(empty)")
    return 0


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    result = SUITES[args.suite](config)
    doc = {"suite": args.suite, "config": config.to_json_obj(), **result}
    if args.output == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for check in result["checks"]:
            print(f"[{'pass' if check['pass'] else 'FAIL'}] {args.suite} {check['name']}")
        for note in result.get("notes", []):
            print(f"note: {note}")
        print(f"verdict: {result['verdict']}")
    return 0 if result["verdict"] == "pass" else 1


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bad UTF-8, integers past the digit limit, deep nesting
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _parse_matrix(obj) -> list[list[Fraction]]:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise UsageError("matrix document must be a list of rows")
    try:
        return [[as_fraction(v) for v in row] for row in obj]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad matrix entry: {exc}") from exc


def cmd_hyperdet(args) -> int:
    obj = _load_json(args.input)
    try:
        if args.pfaffian:
            name, value = "pfaffian", pfaffian(_parse_matrix(obj))
        elif args.det:
            name, value = "det", det_exact(_parse_matrix(obj))
        else:
            name, value = "hyperdet222", hyperdet_222(Tensor.from_json_obj(obj))
    except (TypeError, ValueError, SizeGuardError) as exc:
        raise UsageError(str(exc)) from exc
    if args.output == "json":
        print(json.dumps({"invariant": name, "value": str(value)}, indent=2, sort_keys=True))
    else:
        print(value)
    return 0


def cmd_report(args) -> int:
    config = _config_from_args(args)
    suites = {}
    timings = {}
    notes = []
    for name, run in SUITES.items():
        start = time.perf_counter()
        result = run(config)
        timings[name] = round(time.perf_counter() - start, 6)
        notes.extend(result.pop("notes", []))
        suites[name] = result
    if config.order == 2:
        notes.append("order 2 has only the two exceptional shapes")
    verdict = "pass" if all(s["verdict"] == "pass" for s in suites.values()) else "fail"
    doc = {
        "config": config.to_json_obj(),
        "suites": suites,
        "notes": sorted(notes),
        "verdict": verdict,
        "timings": timings,
    }
    if args.output == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for name, result in suites.items():
            print(f"suite {name}: {result['verdict']}")
        for note in doc["notes"]:
            print(f"note: {note}")
        print(f"verdict: {verdict}")
    return 0 if verdict == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurdet",
        description="Exact checks for isotypic tensor degeneracy and small hyperdeterminants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_config: bool) -> None:
        p.add_argument("--output", choices=("text", "json"), default="text")
        if with_config:
            p.add_argument("--p", type=int, default=4, help="tensor order (2..5)")
            p.add_argument("--n", type=int, default=3, help="vector space dimension (1..3)")
            p.add_argument("--trials", type=int, default=None, help="seeded trials per check")
            p.add_argument("--seed", type=int, default=1, help="master seed")
            p.add_argument("--max-mu", type=int, default=10, dest="max_mu",
                           help="largest slot-system size parameter (1..16)")

    p_crit = sub.add_parser("critical-set", help="critical set of a partition")
    p_crit.add_argument("partition", help="comma-separated parts, e.g. 4,1")
    add_common(p_crit, with_config=False)
    p_crit.set_defaults(func=cmd_critical_set)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    add_common(p_verify, with_config=True)
    p_verify.set_defaults(func=cmd_verify)

    p_hyp = sub.add_parser("hyperdet", help="evaluate an invariant from a JSON file")
    p_hyp.add_argument("--input", required=True, help="path to a tensor or matrix JSON file")
    mode = p_hyp.add_mutually_exclusive_group()
    mode.add_argument("--pfaffian", action="store_true", help="input is a skew matrix")
    mode.add_argument("--det", action="store_true", help="input is a square matrix")
    add_common(p_hyp, with_config=False)
    p_hyp.set_defaults(func=cmd_hyperdet)

    p_report = sub.add_parser("report", help="run every suite, emit one document")
    add_common(p_report, with_config=True)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except (UsageError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
