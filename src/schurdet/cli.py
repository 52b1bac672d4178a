"""Command line interface.

Subcommands:

  critical-set PARTITION      print the critical set of a partition
  verify SUITE                run one verification suite (see verify --help)
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
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .degeneracy import (
    MAX_EIGENCHECK,
    critical_equation_failures,
    degeneracy_sweep,
    slot_system_eigencheck,
    slot_system_matrix,
)
from .errors import InternalConsistencyError, SizeGuardError
from .hyperdet import (
    degeneracy_crosscheck_222,
    hyperdet_222,
    pfaffian,
    random_skew_matrix,
)
from .linalg import MAX_DET_SIZE, det_exact
from .partitions import Partition, all_partitions, critical_set, is_exceptional
from .perm_algebra import MAX_PROJECTOR_DEGREE, AlgebraElement, all_permutations
from .rng import SplitMix64
from .tensor_space import (
    MAX_DENSE_SIZE,
    Tensor,
    algebra_action,
    project_isotypic,
    random_tensor,
    random_vector,
    rank_one,
)

MAX_TRIALS = 1000  # twenty times the largest default
PFAFFIAN_SIZES = (2, 4, 6)
# the largest accepted document: 65 x 65 entries, each at most a sign, 4,300
# digits (the JSON integer limit), a comma and a two-space-indented line
MAX_INPUT_BYTES = MAX_DET_SIZE**2 * 4_310


class UsageError(Exception):
    """Bad flags or malformed input; mapped to exit code 2."""


@dataclass(frozen=True)
class SuiteConfig:
    p: int
    n: int
    trials: Optional[int]
    seed: int
    max_mu: int

    def __post_init__(self):
        # p first: n ** p is formed only once p is known to be small
        if not 2 <= self.p <= MAX_PROJECTOR_DEGREE:
            raise UsageError(f"--p must be in 2..{MAX_PROJECTOR_DEGREE}")
        if not (self.n >= 1 and self.n**self.p <= MAX_DENSE_SIZE):
            raise UsageError(f"--n must be at least 1 with n**p <= {MAX_DENSE_SIZE}")
        if self.trials is not None and not 1 <= self.trials <= MAX_TRIALS:
            raise UsageError(f"--trials must be in 1..{MAX_TRIALS}")
        if not 1 <= self.max_mu <= MAX_EIGENCHECK:
            raise UsageError(f"--max-mu must be in 1..{MAX_EIGENCHECK}")

    def to_json_obj(self) -> dict:
        return asdict(self)


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
# run(config, trials) returns a JSON-ready dict: {"checks": [{"name", "pass", ...}], "verdict"}.


def run_lemma1(config: SuiteConfig, trials: Optional[int]) -> dict:
    checks = []
    for mu1 in range(1, config.max_mu + 1):
        det = det_exact(slot_system_matrix(mu1))
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


def run_t2(config: SuiteConfig, trials: int) -> dict:
    checks = []
    seeds = SplitMix64(config.seed)
    for lam in all_partitions(config.p):
        ok = True
        for _ in range(trials):
            tensor = random_tensor(config.p, config.n, seeds.next_u64())
            projected = project_isotypic(lam, tensor)
            if critical_equation_failures(lam, projected):
                ok = False
        checks.append(
            {
                "name": str(lam),
                "pass": ok,
                "critical": [q.to_json_obj() for q in _sorted_partitions(critical_set(lam))],
            }
        )
    return _finish(checks)


def run_main(config: SuiteConfig, trials: int) -> dict:
    shapes = [
        lam
        for lam in all_partitions(config.p)
        if not is_exceptional(lam) and lam.rows <= config.n
    ]
    checks = []
    seeds = SplitMix64(config.seed)
    for lam in shapes:
        report = degeneracy_sweep(lam, config.n, trials, seeds.next_u64())
        checks.append(
            {
                "name": str(lam),
                "pass": report.verdict == "pass",
                "witnesses_found": report.witnesses_found,
                "failures": [f.to_json_obj() for f in report.failures],
            }
        )
    result = _finish(checks)
    if not shapes:
        result["notes"] = [
            f"order {config.p}, dim {config.n}: every shape that meets the "
            "dimension bound is exceptional; nothing to sweep"
        ]
    return result


def run_pfaffian(config: SuiteConfig, trials: int) -> dict:
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


def run_hyperdet222(config: SuiteConfig, trials: int) -> dict:
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
    slot_actions = [AlgebraElement(3, {perm: 1}) for perm in all_permutations(3)]
    for _ in range(trials):
        tensor = random_tensor(3, 2, seeds.next_u64())
        value = hyperdet_222(tensor)
        for action in slot_actions:
            if hyperdet_222(algebra_action(action, tensor)) != value:
                invariant_ok = False
        if hyperdet_222(tensor.scale(3)) != 81 * value:
            homogeneity_ok = False
    checks.append({"name": "slot-invariance", "pass": invariant_ok})
    checks.append({"name": "homogeneity", "pass": homogeneity_ok})
    return _finish(checks)


def _finish(checks: list[dict]) -> dict:
    verdict = "pass" if all(c["pass"] for c in checks) else "fail"
    return {"checks": checks, "verdict": verdict}


# one record per suite, in report's order: its runner and its default trials
SUITES = {
    "lemma1": (run_lemma1, None),  # draws nothing
    "t2": (run_t2, 5),
    "main": (run_main, 20),
    "pfaffian": (run_pfaffian, 20),
    "hyperdet222": (run_hyperdet222, 50),
}


def run_suite(name: str, config: SuiteConfig) -> dict:
    """The suite's result, over --trials when given, else over its default."""
    run, trials = SUITES[name]
    return run(config, trials if config.trials is None else config.trials)


# --- subcommand handlers ---------------------------------------------------


def _emit(args, doc: dict, lines: list[str]) -> None:
    """Print doc as indented, key-sorted JSON under --output json, else the text lines."""
    print(json.dumps(doc, indent=2, sort_keys=True) if args.output == "json" else "\n".join(lines))


def cmd_critical_set(args) -> int:
    lam = _parse_partition(args.partition)
    critical = _sorted_partitions(critical_set(lam))
    doc = {"lambda": lam.to_json_obj(), "critical": [q.to_json_obj() for q in critical]}
    _emit(args, doc, [str(q) for q in critical] or ["(empty)"])
    return 0


def cmd_verify(args) -> int:
    config = SuiteConfig(args.p, args.n, args.trials, args.seed, args.max_mu)
    result = run_suite(args.suite, config)
    doc = {"suite": args.suite, "config": config.to_json_obj(), **result}
    lines = [f"[{'pass' if c['pass'] else 'FAIL'}] {args.suite} {c['name']}"
             for c in result["checks"]]
    lines += [f"note: {note}" for note in result.get("notes", [])]
    _emit(args, doc, lines + [f"verdict: {result['verdict']}"])
    return 0 if result["verdict"] == "pass" else 1


def _load_json(path: str):
    """The document at path, read to one byte past MAX_INPUT_BYTES at most."""
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if len(data) > MAX_INPUT_BYTES:
        raise UsageError(f"{path} is longer than {MAX_INPUT_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # json's only plain ValueError: an integer past the limit
        raise _digit_limit(f"{path} holds") from exc


def _digit_limit(subject: str) -> UsageError:
    limit = sys.get_int_max_str_digits()
    return UsageError(f"{subject} an integer of more than {limit} digits; use smaller entries")


def _parse_matrix(obj) -> list[list]:
    """The rows as given; det_exact and pfaffian check the shape, then read the entries."""
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise UsageError("matrix document must be a list of rows")
    return obj


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
    try:
        text = str(value)
    except ValueError as exc:  # str's only ValueError: an integer past the digit limit
        raise _digit_limit(f"the {name} value has") from exc
    _emit(args, {"invariant": name, "value": text}, [text])
    return 0


def cmd_report(args) -> int:
    config = SuiteConfig(args.p, args.n, args.trials, args.seed, args.max_mu)
    suites = {}
    timings = {}
    notes = []
    for name in SUITES:
        start = time.perf_counter()
        result = run_suite(name, config)
        timings[name] = round(time.perf_counter() - start, 6)
        notes.extend(result.pop("notes", []))
        suites[name] = result
    if config.p == 2:
        notes.append("order 2 has only the two exceptional shapes")
    verdict = "pass" if all(s["verdict"] == "pass" for s in suites.values()) else "fail"
    doc = {
        "config": config.to_json_obj(),
        "suites": suites,
        "notes": sorted(notes),
        "verdict": verdict,
        "timings": timings,
    }
    lines = [f"suite {name}: {result['verdict']}" for name, result in suites.items()]
    lines += [f"note: {note}" for note in doc["notes"]]
    _emit(args, doc, lines + [f"verdict: {verdict}"])
    return 0 if verdict == "pass" else 1


class _Parser(argparse.ArgumentParser):
    """Flag errors raise UsageError, so they print one line; subparsers inherit it."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurdet",
        description="Exact checks for isotypic tensor degeneracy and small hyperdeterminants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_config: bool) -> None:
        p.add_argument("--output", choices=("text", "json"), default="text")
        if with_config:
            p.add_argument("--p", type=int, default=4,
                           help=f"tensor order (2..{MAX_PROJECTOR_DEGREE})")
            p.add_argument("--n", type=int, default=3,
                           help=f"vector space dimension (n >= 1, n**p <= {MAX_DENSE_SIZE})")
            defaults = ", ".join(f"{name} {t}" for name, (_, t) in SUITES.items() if t)
            p.add_argument("--trials", type=int, default=None,
                           help=f"seeded trials per check (1..{MAX_TRIALS}; default {defaults})")
            p.add_argument("--seed", type=int, default=1, help="master seed")
            p.add_argument("--max-mu", type=int, default=10, dest="max_mu",
                           help=f"largest slot-system size parameter (1..{MAX_EIGENCHECK})")

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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help; flag errors raise UsageError instead
        return exc.code
    except (UsageError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
