"""Benchmark for the rivershare package: four workloads, one closed loop each.

    python3 perfbench/run.py --workload axiom-suite --seed 1 --seconds 25 --trace 0

`--workload` takes one name, a comma-separated subset, or `all`; a subset
runs each workload in its own process, one after the other.  One run:

1. imports the package from `<checkout>/src` (and stops with exit code 2,
   printing no result, when there is none);
2. sets up three times (inputs from `--seed`, then one warm-up pass that
   also records each input's reference output) and keeps the last set-up;
3. checks every reference output;
4. with `--trace 0`, runs the closed loop for `--seconds`, one op in flight,
   and reports the end-to-end metrics; with `--trace 1`, runs the loop
   untraced and traced for half the time each, runs the per-layer probe
   under the span recorder, reports the per-layer metrics and writes the
   spans to perfbench/out/.

Times are reported in reference time, which cancels the machine's speed
drift (see speed.py).  An op whose output equals its input's checked
reference output counts as correct; any other output is checked on its
own.  The last line of standard output is one JSON object; the exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import subprocess
import sys
import time
from array import array

from common import (
    OUT,
    ROOT,
    MissingSource,
    environment,
    median,
    nearest_rank,
    peak_rss_mb,
    use_checkout_source,
    write_json,
)
from speed import PYTHON, Speedometer, reference_time

SETUP_REPS = 3
SETUP_CALIBRATION_NS = 50_000_000  # kernel time before and after each timed set-up step
SPAN_LIMIT = 300_000
MAX_LATENCY_NS = 2**32 - 1  # latencies are stored as unsigned 32-bit ns


class LoopResult:
    def __init__(self, first, count, failed, problems, speed):
        self.first = first
        self.count = count
        self.failed = failed
        self.problems = problems
        self.speed = speed
        self.wall_s = (speed.at[-1] - speed.at[0] - sum(speed.took[:-1])) / 1e9
        self.scaled = None
        self.elapsed_s = None

    def to_reference_time(self, latencies) -> None:
        """Scale latencies and op time to reference time (see speed.py)."""
        self.scaled, elapsed = reference_time(self.speed, latencies, self.count, self.first)
        self.elapsed_s = elapsed / 1e9

    @property
    def throughput(self) -> float:
        return self.count / self.elapsed_s


def timed_loop(entries, refs, ref_problems, seconds, latencies, workload, first=0) -> LoopResult:
    """Run entries round-robin for `seconds`, one at a time; store latencies.

    The workload's speed kernel runs between ops every `kernel.every_ns`.
    """
    clock = time.perf_counter_ns
    capacity = len(latencies)
    size = len(entries)
    speed = Speedometer(workload.kernel)
    failed = 0
    problems = []
    i = first
    t = clock()
    deadline = t + int(seconds * 1e9)
    next_sample = t
    while t < deadline and i < capacity:
        if t >= next_sample:
            speed.sample(i)
            next_sample = t + workload.kernel.every_ns
            t = clock()
        k = i % size
        try:
            output = entries[k].run()
        except Exception as exc:  # a failing op is counted, not fatal
            output = exc
        done = clock()
        latencies[i] = min(done - t, MAX_LATENCY_NS)
        problem = ref_problems[k] if output == refs[k] else problem_with(entries[k], output)
        if problem is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(problem)
        i += 1
        t = clock()
    speed.sample(i)
    return LoopResult(first, i - first, failed, problems, speed)


def run_once(entry):
    try:
        return entry.run()
    except Exception as exc:  # a failing op is counted, not fatal
        return exc


def problem_with(entry, output) -> str | None:
    """None when `output` passes the entry's check, else the reason."""
    if isinstance(output, Exception):
        return f"{entry.label}: {type(output).__name__}: {output}"
    try:
        return entry.check(output)
    except Exception as exc:  # a check that cannot run is a failed check
        return f"{entry.label}: check raised {type(exc).__name__}: {exc}"


def _timed_in_reference_s(fn, kernel):
    """Run fn(); return its result and its time in reference seconds."""
    speed = Speedometer(kernel)
    repeats = max(3, SETUP_CALIBRATION_NS // kernel.reference_ns)
    speed.sample(repeats=repeats)
    start = time.perf_counter_ns()
    result = fn()
    took = time.perf_counter_ns() - start
    speed.sample(repeats=repeats)
    return result, took / speed.factor() / 1e9


def set_up(workload, seed, scratch):
    """Set up SETUP_REPS times; return the median time and the last set-up."""
    times = []
    for _ in range(SETUP_REPS):
        def once():
            entries = workload.setup(seed, scratch)
            return entries, [run_once(entry) for entry in entries]

        (entries, refs), took = _timed_in_reference_s(once, workload.kernel)
        times.append(took)
    return median(times), entries, refs


def _import_package():
    import rivershare.cli  # noqa: F401  (pulls in every layer)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace) -> tuple[dict, int]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    print("# env " + json.dumps(environment(), sort_keys=True))
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        import_s = 0.0
        if workload.in_process or trace:
            _, import_s = _timed_in_reference_s(_import_package, PYTHON)
        setup_s, entries, refs = set_up(workload, seed, scratch)
        ref_problems = [problem_with(entry, ref) for entry, ref in zip(entries, refs)]
        latencies = array("I", bytes(4 * workload.capacity))
        if trace:
            return _traced(name, seed, seconds, scratch, workload, entries, refs, ref_problems, latencies)
        loop = timed_loop(entries, refs, ref_problems, seconds, latencies, workload)
        # read before the latencies are scaled and sorted, which takes memory
        rss = peak_rss_mb(children=not workload.in_process)
        loop.to_reference_time(latencies)
        return _report(name, workload, import_s + setup_s, rss, loop, entries, latencies)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _report(name, workload, setup_s, rss, loop, entries, latencies):
    count = loop.count
    ordered = sorted(loop.scaled)
    tail = nearest_rank(ordered, workload.tail_pct)
    beyond = count - bisect.bisect_right(ordered, tail)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "throughput_ops_s": _metric(loop.throughput, "1/s"),
        "latency_p50_ms": _metric(median(ordered) / 1e6, "ms"),
        "latency_tail_ms": _metric(tail / 1e6, "ms"),
        "success_rate": _metric(1.0 - loop.failed / count, "fraction"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    for key, metric in metrics.items():
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']}")
    print(f"{name} error_rate {loop.failed / count:.6g} fraction ({loop.failed} of {count} ops failed)")
    print(f"{name} latency_tail_ms is p{workload.tail_pct:g}: {beyond} of {count} samples beyond it")
    if not workload.in_process:
        print(f"{name} peak_rss_mb is the largest child process")
    wall = sorted(latencies[:count])
    print(f"{name} times are reference times; machine slowdown factor {loop.speed.factor():.4g}; "
          f"wall clock: {count / loop.wall_s:.6g} ops/s, p50 {median(wall) / 1e6:.6g} ms, "
          f"p{workload.tail_pct:g} {nearest_rank(wall, workload.tail_pct) / 1e6:.6g} ms")
    by_label: dict[str, list[float]] = {}
    for i in range(count):
        by_label.setdefault(entries[i % len(entries)].label, []).append(loop.scaled[i])
    for label, values in sorted(by_label.items()):
        print(f"{name} op {label}: {len(values)} ops, p50 {median(values) / 1e6:.6g} ms")
    for problem in loop.problems:
        print(f"{name} FAILED {problem}")
    result = {"correct": loop.failed == 0, "attempted": count, "failed": loop.failed, "metrics": metrics}
    return result, 0 if loop.failed == 0 else 1


def _traced(name, seed, seconds, scratch, workload, entries, refs, ref_problems, latencies):
    from layers import probe
    from spans import SpanRecorder

    plain = timed_loop(entries, refs, ref_problems, seconds / 2, latencies, workload)
    recorder = SpanRecorder(limit=SPAN_LIMIT)
    with recorder.installed():
        layer_metrics = probe(recorder, seed, scratch)
        traced = timed_loop(entries, refs, ref_problems, seconds / 2, latencies, workload,
                            first=plain.first + plain.count)
    plain.to_reference_time(latencies)
    traced.to_reference_time(latencies)
    layer_metrics["trace.throughput_ratio"] = traced.throughput / plain.throughput
    units = _per_layer_units()
    if set(units) != set(layer_metrics):
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(layer_metrics))}")
    metrics = {key: _metric(value, units[key]) for key, value in sorted(layer_metrics.items())}
    summary = recorder.summary()
    for key, metric in metrics.items():
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']}")
    print(f"{name} self time by span (calls, total ms, self ms):")
    for span_name, row in sorted(summary.items(), key=lambda item: -item[1]["self_ms"]):
        print(f"  {span_name} {row['calls']} {row['total_ms']:.3f} {row['self_ms']:.3f}")
    path = OUT / f"trace-{name}-seed{seed}.json"
    write_json(path, {
        "workload": name, "seed": seed, "environment": environment(),
        "metrics": layer_metrics, "self_time": summary, "spans": recorder.to_dict(),
    })
    print(f"{name} spans: {len(recorder)} kept, {recorder.dropped} dropped, written to {path}")
    attempted = plain.count + traced.count
    failed = plain.failed + traced.failed
    for problem in plain.problems + traced.problems:
        print(f"{name} FAILED {problem}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, 0 if failed == 0 else 1


def _per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def run_subset(names, args) -> int:
    """Run each workload in a fresh process; relay its output."""
    results = {}
    code = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name} did not finish (exit code {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        code = max(code, proc.returncode)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }))
    return code


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, a comma-separated list, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        use_checkout_source()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) > 1:
        return run_subset(names, args)
    result, code = run_workload(names[0], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
