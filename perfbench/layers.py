"""The traced run's per-layer probe: a fixed amount of work per layer.

Every call into the package is made here, from outside, while a
`SpanRecorder` is installed.  Each group of calls sits under a span of the
benchmark's own, and the layer metrics are read from the spans: a call's
duration is its span's, and counts are numbers of spans.  Durations include
the recorder's cost for the spans nested inside them; `trace.throughput_ratio`
in the run's output shows how large that cost is.

Which end-to-end metric each layer metric should move is listed in
perfbench/README.md.
"""

from __future__ import annotations

import io
import random
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import workloads as wl
from common import child_env, mean, median

# calls per rule kind at each size; enough for a steady median
CORE_REPS = {4: 300, 10: 300, 100: 60, 1000: 12}
PROBE_TRIALS = 100
PROBE_REPS = 3
CLI_REPS = 5


def probe(rec, seed: int, scratch) -> dict[str, float]:
    metrics: dict[str, float] = {}
    metrics.update(_core(rec, seed))
    metrics.update(_axioms(rec, seed))
    metrics.update(_analysis_and_data_io(rec, seed))
    metrics.update(_cli(rec, seed, scratch))
    return metrics


def _us(durations_ns, stat=median) -> float:
    return stat(durations_ns) / 1e3


def _ms(durations_ns, stat=median) -> float:
    return stat(durations_ns) / 1e6


def _core(rec, seed):
    from rivershare import core

    rng = random.Random(f"probe-core|{seed}")
    out = {}
    for n, reps in CORE_REPS.items():
        profiles = [wl.profile_values(rng, n) for _ in range(8)]
        built, validated, allocated = [], [], []
        for kind in wl.RULE_KINDS:
            rule, _ = wl.make_rule(core, kind, n, rng)
            with rec.span(f"core.{kind}.n{n}") as group:
                for r in range(reps):
                    e = core.InflowProfile(profiles[r % len(profiles)])
                    x = rule.apply(e)
                    core.validate_allocation(e, x)
                    core.Allocation(x.amounts)
            out[f"core.apply_us.{kind}.n{n}"] = _us(rec.children(group, "RuleSpec.apply"))
            built += rec.children(group, "InflowProfile")
            validated += rec.children(group, "validate_allocation")
            allocated += rec.children(group, "Allocation")
        out[f"core.profile_build_us.n{n}"] = _us(built)
        out[f"core.validate_us.n{n}"] = _us(validated)
        out[f"core.allocation_build_us.n{n}"] = _us(allocated)
    return out


def _axioms(rec, seed):
    from rivershare import axioms as ax, core

    A, R = ax.Axiom, core.RuleSpec
    # one rule per axiom: the clean pairs of the acceptance matrix, and
    # violating pairs for the two shapes no clean rule exercises
    rules = {
        A.SCALE_INVARIANCE: R.shapley(),
        A.UPSTREAM_INVARIANCE: R.compromise(0.3),
        A.DOWNSTREAM_IMPARTIALITY: R.partial_compromise(0.3),
        A.ORDER_PRESERVATION: R.no_transfer(),
        A.PROGRESSIVITY: R.compromise(0.5),
        A.REGRESSIVITY: R.egalitarian_full_transfer(),
        A.BALANCE: R.shapley(),
        A.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS: R.compromise(0.3),
        A.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW: R.partial_compromise(0.3),
    }
    rng = random.Random(f"probe-axioms|{seed}")
    per_axiom = {axiom: [] for axiom in rules}
    trials = 0
    with rec.span("axioms.suites") as suites:
        for _ in range(PROBE_REPS):
            for axiom, rule in rules.items():
                with rec.span("axioms.suite") as group:
                    ax.run_axiom_suite(rule, (axiom,), PROBE_TRIALS, rng.randrange(2**31))
                per_axiom[axiom] += rec.children(group, "run_axiom_suite")
                trials += PROBE_TRIALS
    _, _, directed = wl.axiom_pairs(core, ax)
    with rec.span("axioms.finds") as finds:
        for _ in range(PROBE_REPS):
            for rule, axiom in directed:
                ax.find_counterexample(rule, axiom, seed=rng.randrange(2**31))
    suite_ns = sum(rec.within(suites, "run_axiom_suite"))
    applies = rec.within(suites, "RuleSpec.apply")
    out = {
        "core.apply_calls": float(len(applies) + len(rec.within(finds, "RuleSpec.apply"))),
        "axioms.apply_calls_per_trial": len(applies) / trials,
        "axioms.self_frac": 1.0 - sum(applies) / suite_ns,
        "axioms.find_counterexample_ms": _ms(rec.within(finds, "find_counterexample"), mean),
        "axioms.instances_per_s": trials / (suite_ns / 1e9),
    }
    for axiom, durations in per_axiom.items():
        out[f"axioms.suite_ms.{axiom.value}"] = _ms(durations)
    return out


def _analysis_and_data_io(rec, seed):
    from rivershare import analysis, data_io

    rng = random.Random(f"probe-fit|{seed}")
    basins = [wl.random_basin(rng, n, f"p{n}x{k}") for n in wl.FIT_SIZES for k in range(2)]
    out = {}
    for fmt in ("csv", "json"):
        texts = [wl.serialize(fmt, *basin) for basin in basins]
        with rec.span(f"data_io.{fmt}") as group:
            for _ in range(PROBE_REPS):
                for text in texts:
                    data_io.dump_dataset(data_io.load_dataset(text, fmt), fmt)
        out[f"data_io.load_{fmt}_us"] = _us(rec.children(group, "load_dataset"), mean)
        out[f"data_io.dump_{fmt}_us"] = _us(rec.children(group, "dump_dataset"), mean)
    datasets = [data_io.load_dataset(wl.serialize("csv", *basin), "csv") for basin in basins]
    observed = []
    with rec.span("analysis.fit") as group:
        for _ in range(PROBE_REPS):
            for dataset in datasets:
                with rec.span("data_io.normalize"):
                    z = dataset.normalized_withdrawals()
                observed.append(z)
                for family in analysis.Family:
                    analysis.fit_family(dataset.inflows, z, family)
                    analysis.integrate_distance(dataset.inflows, z, family)
                    analysis.legitimacy_bounds(dataset.inflows, z, family, names=dataset.names)
    out["data_io.normalize_us"] = _us(rec.children(group, "data_io.normalize"), mean)
    for name in ("fit_family", "integrate_distance", "legitimacy_bounds"):
        out[f"analysis.{name}_us"] = _us(rec.children(group, name), mean)
    with rec.span("analysis.curves") as group:
        for dataset, z in zip(datasets, observed):
            with rec.span("analysis.curve"):
                for k in range(wl.CURVE_POINTS):
                    analysis.distance_at(dataset.inflows, z, analysis.Family.COMPROMISE,
                                         k / (wl.CURVE_POINTS - 1))
    out["analysis.curve_ms"] = _ms(rec.children(group, "analysis.curve"), mean)
    out["analysis.distance_at_us"] = _us(rec.within(group, "distance_at"), mean)
    with rec.span("analysis.nile") as group:
        for _ in range(CLI_REPS):
            analysis.nile_case_study()
    out["analysis.nile_case_study_ms"] = _ms(rec.children(group, "nile_case_study"))
    return out


def _wall_ms(code: str, scratch) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=scratch, env=child_env(),
                   stdin=subprocess.DEVNULL, capture_output=True, check=True)
    return (time.perf_counter() - start) * 1e3


def run_main_in_process(cli, argv):
    """`cli.main(argv)` with its output captured, as (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except Exception:  # the interpreter would print this and exit 1
            traceback.print_exc()
            code = 1
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def _cli(rec, seed, scratch):
    from rivershare import cli

    interpreter = [_wall_ms("pass", scratch) for _ in range(CLI_REPS)]
    numpy = [_wall_ms("import numpy", scratch) for _ in range(CLI_REPS)]
    package = [_wall_ms("import rivershare.cli", scratch) for _ in range(CLI_REPS)]
    out = {
        "cli.interpreter_ms": median(interpreter),
        "cli.numpy_import_ms": median(numpy) - median(interpreter),
        "cli.import_ms": median(package) - median(interpreter),
    }
    invocations = wl.cli_invocations(seed, scratch)
    for kind in ("allocate", "axioms", "fit", "case-study", "error"):
        with rec.span(f"cli.{kind}") as group:
            for _ in range(CLI_REPS):
                for invocation in invocations:
                    if invocation.kind == kind:
                        run_main_in_process(cli, invocation.argv)
        out[f"cli.main_ms.{kind}"] = _ms(rec.children(group, "cli.main"))
    first_stdout: dict = {}
    out["cli.exit_mismatch"] = float(sum(
        wl.invocation_problem(inv, run_main_in_process(cli, inv.argv), first_stdout) is not None
        for inv in invocations + wl.cli_defects(seed)
    ))
    return out
