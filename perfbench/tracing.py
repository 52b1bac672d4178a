"""Per-layer spans and work counters, recorded from outside the library.

Each public function at a module boundary is wrapped by rebinding every
schurdet module attribute that holds it, so calls made through any importing
module go through the wrapper.  Nothing in the library is edited, and
`uninstall` puts the original objects back.  Spans stay in memory as
(name, start, end, parent, op) tuples until the run writes them out.

Work counters are computed from call arguments and results only, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Callable, Optional

from oracle import PROBES, critical_shapes, set_partitions

SWEEP, CROSS, ALGEBRA = "sweep-p5n3", "crosscheck-222", "algebra-p5"


def _algebra_action(state, args, result):
    element, tensor = args
    support = element.support_size
    return {"table_apps": support, "mult_adds": support * len(tensor.entries)}


@lru_cache(maxsize=None)
def _critical_scan(lam: tuple[int, ...], order: int) -> tuple[int, int]:
    """(set partitions enumerated, residuals computed) by critical_equation_failures."""
    shapes = critical_shapes(lam)
    if not shapes:
        return 0, 0
    blocks = set_partitions(list(range(1, order + 1)))
    useful = sum(1 for pi in blocks if tuple(sorted(map(len, pi), reverse=True)) in shapes)
    return len(blocks), useful


def _critical_equation_failures(state, args, result):
    lam, tensor = args
    scanned, useful = _critical_scan(lam.parts, tensor.order)
    return {"partitions_scanned": scanned, "residuals_computed": useful}


def _positive_element(state, args, result):
    seen = state.setdefault("seen", set())
    key = args[0].blocks
    repeat = key in seen
    seen.add(key)
    return {"repeats": int(repeat)}


def _kernel_failure(state, args, result):
    return {
        "slices": args[0].order if result is None else result[0],
        "early_exits": int(result is not None),
    }


def _slot_slice(state, args, result):
    return {"entries_copied": len(args[0].entries)}


def _crosscheck(state, args, result):
    witness = result[1]
    if len(args) > 1 and args[1] is not None:
        probes = 0
    elif witness is None:
        probes = len(PROBES) ** 3
    else:
        a, b, c = (PROBES.index(tuple(int(v) for v in vec)) for vec in witness.vectors)
        probes = (a * len(PROBES) + b) * len(PROBES) + c + 1
    return {"probes": probes, "witnesses": int(witness is not None)}


def _multiply(state, args, result):
    left, right = args
    return {"term_pairs": left.support_size * right.support_size}


def _rank_exact(state, args, result):
    rows = args[0]
    return {"entries": len(rows) * (len(rows[0]) if rows else 0)}


@dataclass(frozen=True)
class Layer:
    functions: tuple[str, ...]  # "module.name" of each wrapped function
    runs_on: frozenset  # workloads on which it must intercept at least one call
    counter: Optional[Callable] = None  # (state, args, result) -> {count: increment}
    counts: tuple[str, ...] = ()  # counts reported as metrics
    ratios: dict = field(default_factory=dict)  # metric -> (numerator, denominator)


_CACHE_COUNTS = ("cache_hits", "cache_misses")

LAYERS = {
    "partitions.critical_set": Layer(
        ("partitions.critical_set",), frozenset({SWEEP}), counts=_CACHE_COUNTS
    ),
    "perm_algebra.multiply": Layer(
        ("perm_algebra.multiply",), frozenset({ALGEBRA}), _multiply, ("term_pairs",)
    ),
    "perm_algebra.positive_element": Layer(
        ("perm_algebra.positive_element",),
        frozenset({SWEEP, ALGEBRA}),
        _positive_element,
        ratios={"repeat_share": ("repeats", "calls")},
    ),
    "perm_algebra.isotypic_projector": Layer(
        ("perm_algebra.isotypic_projector",), frozenset({SWEEP, ALGEBRA}), counts=_CACHE_COUNTS
    ),
    "tensor_space.algebra_action": Layer(
        ("tensor_space.algebra_action",),
        frozenset({SWEEP}),
        _algebra_action,
        ("table_apps", "mult_adds"),
    ),
    "tensor_space.project_isotypic": Layer(
        ("tensor_space.project_isotypic",), frozenset({SWEEP})
    ),
    "tensor_space.slot_slice": Layer(
        ("tensor_space.slot_slice",), frozenset({SWEEP, CROSS}), _slot_slice, ("entries_copied",)
    ),
    "tensor_space.contract_first": Layer(
        ("tensor_space.contract_first",), frozenset({SWEEP, CROSS})
    ),
    "tensor_space.evaluate": Layer(("tensor_space.evaluate",), frozenset({SWEEP})),
    "tensor_space.isotypic_rank": Layer(("tensor_space.isotypic_rank",), frozenset({ALGEBRA})),
    "degeneracy.critical_equation_failures": Layer(
        ("degeneracy.critical_equation_failures",),
        frozenset({SWEEP}),
        _critical_equation_failures,
        ("partitions_scanned", "residuals_computed"),
        {"useful_ratio": ("residuals_computed", "partitions_scanned")},
    ),
    "degeneracy.kernel_failure": Layer(
        ("degeneracy.kernel_failure",),
        frozenset({SWEEP, CROSS}),
        _kernel_failure,
        ("slices", "early_exits"),
    ),
    "degeneracy.substitution_values": Layer(
        ("degeneracy.substitution_values",), frozenset({SWEEP})
    ),
    "hyperdet.degeneracy_crosscheck_222": Layer(
        ("hyperdet.degeneracy_crosscheck_222",),
        frozenset({CROSS}),
        _crosscheck,
        ("probes",),
        {"witness_share": ("witnesses", "calls")},
    ),
    "hyperdet.hyperdet_222": Layer(("hyperdet.hyperdet_222",), frozenset({CROSS})),
    "hyperdet.pfaffian": Layer(("hyperdet.pfaffian",), frozenset({CROSS})),
    "linalg.rank_exact": Layer(
        ("linalg.rank_exact",), frozenset({ALGEBRA}), _rank_exact, ("entries",)
    ),
    "linalg.det_exact": Layer(("linalg.det_exact",), frozenset({CROSS})),
    "rng.inputs": Layer(
        (
            "tensor_space.random_tensor",
            "tensor_space.random_vector",
            "hyperdet.random_skew_matrix",
        ),
        frozenset({SWEEP}),
    ),
}

ROOT = "op"  # span around one whole operation; its self time is in no layer

# Warm-up figures reported under "setup.": the projector build and what it costs.
SETUP_METRICS = (
    "perm_algebra.isotypic_projector.self_s",
    "perm_algebra.isotypic_projector.cache_misses",
    "perm_algebra.multiply.self_s",
    "perm_algebra.multiply.term_pairs",
    "tensor_space.algebra_action.self_s",
)


def per_layer_metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric a traced run reports."""
    units = {}
    for name in list(LAYERS) + [ROOT]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.errors"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
        layer = LAYERS.get(name)
        if layer:
            units.update({f"{name}.{c}": "count" for c in layer.counts})
            units.update({f"{name}.{r}": "ratio" for r in layer.ratios})
    for name in ("trace.untraced_pass_s", "trace.traced_pass_s", "trace.overhead_s", "setup.wall_s"):
        units[name] = "s"
    units.update({f"setup.{name}": units[name] for name in SETUP_METRICS})
    return units


class Tracer:
    """Wraps the library's layer functions and records spans while installed."""

    def __init__(self):
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._undo: list[tuple[object, str, object]] = []
        for name, layer in LAYERS.items():
            for path in layer.functions:
                module, attr = path.split(".")
                original = getattr(sys.modules[f"schurdet.{module}"], attr)
                self._wrappers[id(original)] = self._wrap(name, original, layer.counter)
        self.begin()

    def begin(self) -> None:
        """Start a fresh pass: drop spans, counts and per-layer state."""
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, dict[str, int]] = {}
        self.state: dict[str, dict] = {}

    def _wrap(self, name, fn, counter):
        cache_info = getattr(fn, "cache_info", None)
        tracer = self

        def wrapper(*args, **kwargs):
            counts = tracer.counts.setdefault(name, {"calls": 0, "errors": 0})
            counts["calls"] += 1
            before = cache_info() if cache_info else None
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts["errors"] += 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
            if before is not None:
                after = cache_info()
                counts["cache_hits"] = counts.get("cache_hits", 0) + after.hits - before.hits
                counts["cache_misses"] = (
                    counts.get("cache_misses", 0) + after.misses - before.misses
                )
            if counter is not None:
                state = tracer.state.setdefault(name, {})
                for key, value in counter(state, args + tuple(kwargs.values()), result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every schurdet module attribute, under any name, that holds a wrapped function."""
        for module_name, module in sorted(sys.modules.items()):
            if module_name != "schurdet" and not module_name.startswith("schurdet."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def root(self, op) -> _Root:
        return _Root(self, op)

    def layer_stats(self) -> dict[str, float]:
        """Per-layer metrics of the current pass, named as in per_layer_metric_units."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for (name, start, end, parent, _), children in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - children
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:  # outermost span of its layer: count its whole interval once
                total_s[name] = total_s.get(name, 0.0) + (end - start)
        out = {}
        for name in list(LAYERS) + [ROOT]:
            counts = self.counts.get(name, {})
            out[f"{name}.calls"] = counts.get("calls", 0)
            out[f"{name}.errors"] = counts.get("errors", 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.total_s"] = total_s.get(name, 0.0)
            layer = LAYERS.get(name)
            if layer:
                for c in layer.counts:
                    out[f"{name}.{c}"] = counts.get(c, 0)
                for r, (num, den) in layer.ratios.items():
                    d = counts.get(den, 0)
                    out[f"{name}.{r}"] = counts.get(num, 0) / d if d else 0.0
        return out

    def work_counts(self) -> dict:
        """Everything in the pass that must repeat exactly: counts, not times."""
        return {name: dict(sorted(c.items())) for name, c in sorted(self.counts.items())}


class _Root:
    def __init__(self, tracer: Tracer, op):
        self.tracer, self.op = tracer, op

    def __enter__(self):
        t = self.tracer
        t.op = self.op
        self.idx = len(t.spans)
        t.spans.append(None)
        t.stack.append(self.idx)
        t.counts.setdefault(ROOT, {"calls": 0, "errors": 0})["calls"] += 1
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        t = self.tracer
        t.stack.pop()
        t.spans[self.idx] = (ROOT, self.start, end, -1, self.op)
        if exc_type is not None:
            t.counts[ROOT]["errors"] += 1
        return False
