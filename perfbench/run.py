"""schurdet benchmark: closed-loop workloads with exact answer checks.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-p5n3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep-p5n3 --seed 1 --seconds 30 --trace 1

One process and one thread issue the operations back to back.  With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it wraps
the library's layer functions and prints per-layer self time and work
counts.  Every answer is checked against an independent route (oracle.py).
The last line of standard output is the result object; the line before it,
and a file under perfbench/out/, carry the run's environment and details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, SpeedTrack

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = (3, 25)  # at least, at most
SETUP_PROBE_BUDGET_S = 4.0  # keep probing while under this, up to the maximum
SETUP_REFERENCE_RUNS = 15  # reference-task runs before and after each probe
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10


def load_library():
    """Import schurdet from the checkout's sources."""
    sys.path.insert(0, str(SRC))
    import schurdet

    return schurdet


def setup_probe(workload_name: str) -> tuple[float, float]:
    """(wall, adjusted) seconds from before `import schurdet` to the end of
    warm-up, in this fresh process; the reference task runs just before and after."""
    from workloads import WORKLOADS

    speed = SpeedTrack()
    for _ in range(SETUP_REFERENCE_RUNS):
        speed.sample()
    start = perf_counter()
    lib = load_library()
    WORKLOADS[workload_name](lib).warm_up()
    wall = perf_counter() - start
    for _ in range(SETUP_REFERENCE_RUNS):
        speed.sample()
    return wall, wall * NOMINAL_S / statistics.median(speed.durations)


def measure_setup(workload_name: str) -> list[tuple[float, float]]:
    samples = []
    least, most = SETUP_PROBES
    started = perf_counter()
    while len(samples) < least or (
        len(samples) < most and perf_counter() - started < SETUP_PROBE_BUDGET_S
    ):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload_name],
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        samples.append(tuple(json.loads(done.stdout.splitlines()[-1])))
    return samples


def run_ops(workload, ops, tracer=None, speed=None):
    """Run ops back to back; return (start times, seconds per op, results or exceptions).

    With `speed`, the reference task runs between ops, outside their timing.
    """
    starts, latencies, results = [], [], []
    for k, op in enumerate(ops):
        if speed is not None:
            speed.maybe_sample()
        start = perf_counter()
        try:
            if tracer is None:
                result = workload.run(op)
            else:
                with tracer.root(k):
                    result = workload.run(op)
        except Exception as exc:  # a raised op counts as failed, the run goes on
            result = exc
        starts.append(start)
        latencies.append(perf_counter() - start)
        results.append(result)
    return starts, latencies, results


def quiesce_gc() -> None:
    """Collect, then keep everything alive now out of the collections ops trigger."""
    gc.collect()
    gc.freeze()


def answers_of(workload, ops, results):
    return [
        r if isinstance(r, Exception) else workload.answer(op, r) for op, r in zip(ops, results)
    ]


def count_failed(workload, ops, answers) -> int:
    return sum(
        1 for op, a in zip(ops, answers) if isinstance(a, Exception) or not workload.check(op, a)
    )


def tail(latencies: list[float], percentile: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the workload's tail percentile.

    Falls back to the highest ladder percentile with MIN_BEYOND_TAIL samples
    beyond it when the run is too short for the workload's own.
    """
    n = len(latencies)
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    for q in (percentile,) + tuple(q for q in TAIL_LADDER if q < percentile):
        beyond = int(n * (100.0 - q) / 100.0 + 1e-9)
        if beyond >= MIN_BEYOND_TAIL:
            return q, cuts[round(q * 10) - 1], beyond
    return 50.0, statistics.median(latencies), n // 2


def untraced(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    """Whole cycles until the next one would pass `seconds`; end-to-end metrics.

    Times are adjusted to reference speed (speed.py); the wall-clock figures
    go into the details.
    """
    cycles = workload.cycles(seed)
    # Only timings outlive a cycle, in compact arrays, so that memory does not
    # grow with the number of ops a run gets through.
    starts, latencies, sizes = array("d"), array("d"), []
    failed = 0
    speed = SpeedTrack()
    started = perf_counter()
    last = 0.0
    while not sizes or perf_counter() - started + last <= seconds:
        cycle = next(cycles)
        quiesce_gc()
        t0 = perf_counter()
        st, lat, res = run_ops(workload, cycle, speed=speed)
        last = perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed += count_failed(workload, cycle, answers_of(workload, cycle, res))
        sizes.append(len(cycle))
        starts.extend(st)
        latencies.extend(lat)
        del cycle, res
    speed.sample()
    wall = perf_counter() - started
    attempted = sum(sizes)

    adjusted = [lat * speed.factor(t + lat / 2) for t, lat in zip(starts, latencies)]
    figures = {}
    for label, values in (("adjusted", adjusted), ("wall", latencies)):
        rates, k = [], 0
        for size in sizes:
            rates.append(size / sum(values[k : k + size]))
            k += size
        q, tail_s, beyond = tail(values, workload.tail_percentile)
        figures[label] = {
            "ops_per_s": statistics.median(rates),
            "op_ms.p50": statistics.median(values) * 1e3,
            "op_ms.tail": tail_s * 1e3,
        }
    metrics = dict(figures["adjusted"])
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["pass_share"] = 1.0 - failed / attempted
    details = {
        "ops": attempted,
        "cycles": len(sizes),
        "wall_s": wall,
        "tail_percentile": q,
        "tail_samples_beyond": beyond,
        "latency_samples": len(latencies),
        "fail_share": failed / attempted,
        "wall_clock": figures["wall"],
        "reference_task_s": {
            "nominal": NOMINAL_S,
            "median": statistics.median(speed.durations),
            "min": min(speed.durations),
            "max": max(speed.durations),
            "runs": len(speed.durations),
        },
    }
    return metrics, details, attempted, failed


def first_ops(workload, seed: int) -> list:
    cycles = workload.cycles(seed)
    ops = []
    while len(ops) < workload.trace_ops:
        ops += next(cycles)
    return ops[: workload.trace_ops]


def traced(workload, seed: int, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    """Per-layer metrics from repeated traced passes over a fixed op list.

    Pass 0 checks interception and fixes the reference answers and counts.
    Each repeat then runs the list untraced and traced: answers and counts
    must equal pass 0's, self times are medians over repeats, and overhead
    is the median of traced minus untraced wall time per repeat.  A pass over a second seed's list
    must give the same verdict pattern.
    """
    from tracing import LAYERS, SETUP_METRICS, Tracer

    problems = []
    tracer = Tracer()
    tracer.install()
    started = perf_counter()
    with tracer.root("setup"):
        workload.warm_up()
    setup_stats = tracer.layer_stats()
    setup_spans = tracer.spans

    ops = first_ops(workload, seed)
    tracer.begin()
    _, _, results = run_ops(workload, ops, tracer)
    reference = answers_of(workload, ops, results)
    counts = tracer.work_counts()
    missing = [
        name
        for name, layer in LAYERS.items()
        if workload.name in layer.runs_on and counts.get(name, {}).get("calls", 0) == 0
    ]
    if missing:
        problems.append(f"no call intercepted on {workload.name}: {', '.join(missing)}")
    failed = count_failed(workload, ops, reference)
    attempted = len(ops)

    repeats, untraced_s, traced_s = [], [], []
    spans = None
    while len(repeats) < 2 or perf_counter() - started < seconds:
        tracer.uninstall()
        quiesce_gc()
        _, lat, results = run_ops(workload, ops)
        untraced_s.append(sum(lat))
        plain = answers_of(workload, ops, results)
        tracer.install()
        tracer.begin()
        quiesce_gc()
        _, lat, results = run_ops(workload, ops, tracer)
        traced_s.append(sum(lat))
        if spans is None:
            spans = tracer.spans
        attempted += 2 * len(ops)
        if plain != reference or answers_of(workload, ops, results) != reference:
            problems.append("answers differ between passes over the same ops")
        if tracer.work_counts() != counts:
            problems.append("work counts differ between passes over the same ops")
        repeats.append(tracer.layer_stats())

    other = first_ops(workload, seed + 1)
    tracer.begin()
    _, _, results = run_ops(workload, other, tracer)
    tracer.uninstall()
    other_answers = answers_of(workload, other, results)
    failed += count_failed(workload, other, other_answers)
    attempted += len(other)
    if verdicts(workload, ops, reference) != verdicts(workload, other, other_answers):
        problems.append(f"seeds {seed} and {seed + 1} give different verdict patterns")

    metrics = {}
    for name, value in repeats[0].items():
        if name.endswith((".self_s", ".total_s")):
            value = statistics.median(r[name] for r in repeats)
        metrics[name] = value
    metrics["trace.untraced_pass_s"] = statistics.median(untraced_s)
    metrics["trace.traced_pass_s"] = statistics.median(traced_s)
    # Each traced pass runs right after its untraced twin; pairing them keeps
    # the host's slow and fast stretches out of the difference.
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_s, untraced_s))
    for name in SETUP_METRICS:
        metrics[f"setup.{name}"] = setup_stats[name]
    metrics["setup.wall_s"] = setup_spans[0][2] - setup_spans[0][1]

    write_spans(workload.name, seed, setup_spans + (spans or []), started)
    details = {"trace_ops": len(ops), "repeats": len(repeats), "problems": problems}
    return metrics, details, attempted, failed, problems


def verdicts(workload, ops, answers) -> dict:
    pattern: dict = {}
    for op, answer in zip(ops, answers):
        if isinstance(answer, Exception):
            continue
        key, verdict = workload.verdict(op, answer)
        pattern.setdefault(key, set()).add(verdict)
    return pattern


def write_spans(workload_name: str, seed: int, spans: list, t0: float) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload_name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [[n, s - t0, e - t0, p, o] for n, s, e, p, o in spans],
            },
            fh,
        )


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "schurdet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "schurdet" / "__init__.py").is_file():
        print(f"perfbench: no schurdet sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0

    units = declared_metrics(bool(args.trace))
    if args.trace:
        lib = load_library()
        workload = WORKLOADS[args.workload](lib)
        metrics, details, attempted, failed, problems = traced(workload, args.seed, args.seconds)
    else:
        setup = measure_setup(args.workload)
        lib = load_library()
        workload = WORKLOADS[args.workload](lib)
        workload.warm_up()
        metrics, details, attempted, failed = untraced(workload, args.seed, args.seconds)
        metrics["setup_s"] = statistics.median(adjusted for _, adjusted in setup)
        details["wall_clock"]["setup_s"] = statistics.median(wall for wall, _ in setup)
        details["setup_samples_s"] = setup
        problems = []

    if set(metrics) != set(units):
        print(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "details": details,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "environment", "details")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
