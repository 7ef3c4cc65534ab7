"""The four workloads: seeded inputs, the operation each one times, and checks.

A workload's `setup(seed, scratch)` returns a list of `Entry` values.  Every
input is generated there, before timing starts; an entry's `run()` hands the
program only those inputs, and its `check(output)` returns None when the
output is right or a one-line reason when it is not.  The checks rest on
facts the measured code does not compute for itself: the transfer
simulation with share vectors built here, the scalar axiom predicates,
serializations written here, and the CLI's documented exit-code contract.

Functions of the package are looked up on their module at call time, so the
span recorder's patches see every call the benchmark makes.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from common import child_env
from speed import PROCESS, PYTHON, Kernel


@dataclass(frozen=True)
class Entry:
    label: str  # groups entries of one kind in the per-kind report
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


# ---------------------------------------------------------------------------
# axiom-suite: the acceptance gate's criterion-7 matrix, one suite call per op

SUITE_TRIALS = 100
WEIGHTS = (0.0, 0.3, 0.7, 1.0)


def axiom_pairs(core, ax):
    A, R = ax.Axiom, core.RuleSpec
    structural = (A.SCALE_INVARIANCE, A.UPSTREAM_INVARIANCE, A.DOWNSTREAM_IMPARTIALITY)
    clean = [(R.shapley(), a) for a in structural + (A.BALANCE,)]
    clean += [(R.compromise(w), a) for w in WEIGHTS
              for a in structural + (A.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS,)]
    clean += [(R.partial_compromise(w), a) for w in WEIGHTS
              for a in structural + (A.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW,)]
    clean.append((R.no_transfer(), A.ORDER_PRESERVATION))
    # each violates its axiom on more than half of the random instances, so
    # a 100-trial suite always builds a counterexample
    violating = [
        (R.compromise(0.5), A.ORDER_PRESERVATION),
        (R.compromise(0.5), A.PROGRESSIVITY),
        (R.egalitarian_full_transfer(), A.REGRESSIVITY),
        (R.shapley(), A.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW),
    ]
    directed = [
        (R.shapley(), A.ORDER_PRESERVATION),
        (R.compromise(0.5), A.BALANCE),
        (R.egalitarian_full_transfer(), A.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW),
        (R.shapley(), A.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS),
    ]
    return clean, violating, directed


def _rejected_by_predicate(ax, rule, counterexample) -> bool:
    """Does the scalar check_* predicate agree that the instance violates?"""
    A = ax.Axiom
    axiom = counterexample.axiom
    given = dict(counterexample.inputs)
    e = given["e"]
    if axiom is A.SCALE_INVARIANCE:
        holds = ax.check_scale_invariance(rule, e, given["gamma"])
    elif axiom is A.UPSTREAM_INVARIANCE:
        holds = ax.check_upstream_invariance(rule, e, given["position"], given["delta"])
    elif axiom is A.DOWNSTREAM_IMPARTIALITY:
        holds = ax.check_downstream_impartiality(rule, e, given["position"], given["delta"])
    elif axiom is A.ORDER_PRESERVATION:
        holds = ax.check_order_preservation(rule, e)
    elif axiom in (A.PROGRESSIVITY, A.REGRESSIVITY, A.BALANCE):
        holds = ax.check_source_shape(rule, given["position"], axiom, agent_count=len(e))
    elif axiom is A.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS:
        holds = ax.check_equal_treatment_source(rule, e, given["other"])
    else:
        holds = ax.check_equal_treatment_upstream_total(rule, e, given["other"], given["position"])
    return not holds


def _counterexample_problem(ax, rule, axiom, counterexample):
    if counterexample is None:
        return f"no counterexample for {rule.label()} against {axiom.value}"
    if counterexample.axiom is not axiom or counterexample.rule != rule.label():
        return f"counterexample is for {counterexample.rule} / {counterexample.axiom.value}"
    if not _rejected_by_predicate(ax, rule, counterexample):
        return f"the scalar predicate accepts the {axiom.value} counterexample for {rule.label()}"
    return None


def axiom_suite(seed: int, scratch) -> list[Entry]:
    from rivershare import axioms as ax, core

    rng = random.Random(f"axiom-suite|{seed}")
    clean, violating, directed = axiom_pairs(core, ax)
    entries = []

    def suite_entry(rule, axiom, expect_violation):
        suite_seed = rng.randrange(2**31)

        def run():
            return ax.run_axiom_suite(rule, (axiom,), SUITE_TRIALS, suite_seed)

        def check(reports):
            if len(reports) != 1 or reports[0].axiom is not axiom:
                return f"{rule.label()}: expected one {axiom.value} report"
            report = reports[0]
            if report.trials != SUITE_TRIALS:
                return f"{rule.label()} / {axiom.value}: {report.trials} trials reported"
            if not expect_violation:
                if report.violations:
                    return f"{rule.label()} violated {axiom.value} {report.violations} times"
                return None
            if report.violations == 0:
                return f"{rule.label()} never violated {axiom.value}"
            return _counterexample_problem(ax, rule, axiom, report.first_counterexample)

        return Entry(f"suite:{axiom.value}", run, check)

    for rule, axiom in clean:
        entries.append(suite_entry(rule, axiom, False))
    for rule, axiom in violating:
        entries.append(suite_entry(rule, axiom, True))
    for rule, axiom in directed:
        search_seed = rng.randrange(2**31)
        entries.append(Entry(
            "find_counterexample",
            lambda rule=rule, axiom=axiom, s=search_seed: ax.find_counterexample(rule, axiom, seed=s),
            lambda found, rule=rule, axiom=axiom: _counterexample_problem(ax, rule, axiom, found),
        ))
    rng.shuffle(entries)
    return entries


# ---------------------------------------------------------------------------
# allocate-sweep: profile construction plus one rule application per op

RULE_KINDS = ("nt", "eft", "ept", "shapley", "compromise", "partial", "alpha")
# (n, ops per block): the op count per size falls as 1/n
SWEEP_SIZES = ((4, 250), (10, 100), (100, 10), (1000, 1))
SWEEP_BLOCKS = 14  # two n=1000 profiles per rule kind


def profile_values(rng: random.Random, n: int) -> tuple[float, ...]:
    """Criterion 9's generator: magnitude 1e-6..1e6, a quarter zero inflows."""
    magnitude = 10.0 ** rng.uniform(-6, 6)
    return tuple(0.0 if rng.random() < 0.25 else rng.uniform(0.0, magnitude) for _ in range(n))


def make_rule(core, kind: str, n: int, rng: random.Random):
    """A RuleSpec of `kind` for n agents, and its retention shares, built here."""
    R = core.RuleSpec
    if kind == "nt":
        return R.no_transfer(), (1.0,) * (n - 1)
    if kind == "eft":
        return R.egalitarian_full_transfer(), (0.0,) * (n - 1)
    if kind == "ept":
        return R.egalitarian_partial_transfer(), tuple(k / (n - 1) for k in range(n - 1))
    if kind == "shapley":
        return R.shapley(), tuple(1.0 / (n - k) for k in range(n - 1))
    if kind == "compromise":
        w = rng.random()
        return R.compromise(w), (w,) * (n - 1)
    if kind == "partial":
        w = rng.random()
        return R.partial_compromise(w), tuple(
            1.0 - (1.0 - w) * (n - 1 - k) / (n - 1) for k in range(n - 1)
        )
    shares = tuple(rng.random() for _ in range(n - 1))
    return R.retention_rule(shares), shares


def allocate_sweep(seed: int, scratch) -> list[Entry]:
    from rivershare import axioms, core

    rng = random.Random(f"allocate-sweep|{seed}")
    entries = []
    for n, per_block in SWEEP_SIZES:
        for k in range(per_block * SWEEP_BLOCKS):
            values = profile_values(rng, n)
            rule, shares = make_rule(core, RULE_KINDS[k % len(RULE_KINDS)], n, rng)

            def check(x, values=values, shares=shares, label=rule.label()):
                if len(x) != len(values):
                    return f"{label}: {len(x)} amounts for {len(values)} agents"
                verdict = core.validate_allocation(values, x)
                if not verdict:
                    return f"{label}: {verdict.reason}"
                expected = axioms.oracle_transfer_simulation(values, shares)
                tol = 1e-9 * math.fsum(values)
                for i, (got, want) in enumerate(zip(x, expected)):
                    if abs(got - want) > tol:
                        return f"{label} n={len(values)} position {i}: {got} vs simulation {want}"
                return None

            entries.append(Entry(
                f"n{n}",
                lambda values=values, rule=rule: rule.apply(core.InflowProfile(values)),
                check,
            ))
    rng.shuffle(entries)
    return entries


# ---------------------------------------------------------------------------
# fit-basins: read a basin, fit and score both families, write it back

# basins per size; half are CSV, half JSON, and one in ten draws the curve.
# Ten-agent basins are the largest group so the median op sits inside their
# cluster of latencies, not on the edge between two sizes.
FIT_SIZES = {5: 12, 10: 20, 30: 8, 100: 8}
CURVE_POINTS = 101


def random_basin(rng: random.Random, n: int, tag: str):
    names = tuple(f"{tag}-{i}" for i in range(n))
    inflows = tuple(0.0 if rng.random() < 0.1 else rng.uniform(0.0, 100.0) for _ in range(n))
    withdrawals = tuple(rng.uniform(0.01, 100.0) for _ in range(n))
    return names, inflows, withdrawals


def serialize(fmt: str, names, inflows, withdrawals) -> str:
    """The dataset formats of data_io, written without using data_io."""
    if fmt == "csv":
        rows = [f"{a},{e!r},{w!r}" for a, e, w in zip(names, inflows, withdrawals)]
        return "agent,inflow,withdrawal\n" + "\n".join(rows) + "\n"
    agents = [{"name": a, "inflow": e, "withdrawal": w}
              for a, e, w in zip(names, inflows, withdrawals)]
    return json.dumps({"agents": agents})


def _fit_entry(analysis, data_io, label, fmt, names, inflows, withdrawals, curve):
    text = serialize(fmt, names, inflows, withdrawals)

    def run():
        dataset = data_io.load_dataset(text, fmt)
        e = dataset.inflows
        z = dataset.normalized_withdrawals()
        families = []
        for family in analysis.Family:
            families.append((
                analysis.fit_family(e, z, family),
                analysis.integrate_distance(e, z, family),
                analysis.legitimacy_bounds(e, z, family, names=dataset.names),
            ))
        profile = None
        if curve:
            profile = tuple(
                analysis.distance_at(e, z, analysis.Family.COMPROMISE, k / (CURVE_POINTS - 1))
                for k in range(CURVE_POINTS)
            )
        return dataset, z, tuple(families), profile, data_io.dump_dataset(dataset, fmt)

    def check(output):
        dataset, z, families, profile, dumped = output
        if (dataset.names, tuple(dataset.inflows), dataset.withdrawals) != (names, inflows, withdrawals):
            return f"{label}: loading changed the basin"
        if data_io.load_dataset(dumped, fmt) != dataset:
            return f"{label}: the {fmt} dump does not load back to the same basin"
        total = math.fsum(inflows)
        tol = max(1e-9 * total, 1e-12)
        if abs(math.fsum(z) - total) > tol:
            return f"{label}: normalized withdrawals sum to {math.fsum(z)}, inflow total {total}"
        for family, (fit, integral, legitimacy) in zip(analysis.Family, families):
            t = fit.parameter_star
            if not 0.0 <= t <= 1.0:
                return f"{label} {family.value}: parameter {t} outside [0, 1]"
            at_t = analysis.distance_at(dataset.inflows, z, family, t)
            if abs(fit.residual_distance - at_t) > 1e-12 * max(1.0, at_t):
                return f"{label} {family.value}: residual {fit.residual_distance} but distance {at_t}"
            if integral < fit.residual_distance - tol:
                return f"{label} {family.value}: integral {integral} below the minimum {fit.residual_distance}"
            if len(legitimacy.entries) != len(names):
                return f"{label} {family.value}: {len(legitimacy.entries)} legitimacy entries"
        if curve:
            residual = families[0][0].residual_distance
            if len(profile) != CURVE_POINTS or min(profile) < residual - tol:
                return f"{label}: the distance curve dips below the fitted minimum"
        return None

    return Entry(f"{label} {fmt}" + (" +curve" if curve else ""), run, check)


def fit_basins(seed: int, scratch) -> list[Entry]:
    from rivershare import analysis, data_io

    rng = random.Random(f"fit-basins|{seed}")
    entries = []
    for n, count in FIT_SIZES.items():
        for k in range(count):
            names, inflows, withdrawals = random_basin(rng, n, f"b{n}x{k}")
            fmt = ("csv", "json")[k % 2]
            entries.append(_fit_entry(analysis, data_io, f"n{n}", fmt, names, inflows, withdrawals, k % 10 == 0))
    nile = data_io.builtin_nile()
    for fmt in ("csv", "json"):
        entries.append(_fit_entry(analysis, data_io, "nile", fmt, nile.names,
                                  tuple(nile.inflows), nile.withdrawals, False))
    for _ in range(2):
        entries.append(Entry(
            "nile_case_study",
            lambda: analysis.nile_case_study(),
            lambda result: None if result.all_ok else
            "nile case study: " + ", ".join(check.name for check in result.failures),
        ))
    rng.shuffle(entries)
    return entries


# ---------------------------------------------------------------------------
# cli-cold: one `python -m rivershare.cli` process per op


@dataclass(frozen=True)
class Invocation:
    kind: str  # allocate, axioms, fit, case-study or error
    argv: tuple[str, ...]
    exit_codes: tuple[int, ...]  # accepted exit codes
    json_out: bool = False  # --json output must repeat byte for byte
    curve: str | None = None  # path the command must write a curve to


def cli_invocations(seed: int, scratch) -> list[Invocation]:
    """The invocations cli-cold cycles through; every one is handled correctly."""
    rng = random.Random(f"cli-cold|{seed}")
    inflows = ",".join(repr(round(rng.uniform(0.0, 100.0), 3)) for _ in range(rng.randint(3, 8)))
    rule = rng.choice(("nt", "eft", "ept", "shapley"))
    weight = round(rng.random(), 3)
    suite_seed = str(rng.randrange(10**6))
    family = rng.choice(("compromise", "partial"))
    curve = str(scratch / "curve.csv")
    return [
        Invocation("allocate", ("allocate", "--inflows", inflows, "--rule", rule, "--json"), (0,), True),
        Invocation("allocate", ("allocate", "--dataset", "nile", "--rule", f"compromise:{weight}", "--json"),
                   (0,), True),
        Invocation("axioms", ("axioms", "--rule", "shapley", "--axioms",
                              "scale-invariance,upstream-invariance,downstream-impartiality,balance",
                              "--trials", "25", "--seed", suite_seed, "--json"), (0,), True),
        Invocation("axioms", ("axioms", "--rule", "compromise:0.5", "--axioms", "progressivity",
                              "--trials", "25", "--seed", suite_seed), (2,)),
        Invocation("fit", ("fit", "--dataset", "nile", "--family", family, "--curve", curve),
                   (0,), curve=curve),
        Invocation("case-study", ("case-study",), (0,)),
        Invocation("error", ("allocate", "--inflows", f"1,-{rng.uniform(0.1, 9):.3f},2", "--rule", "nt"), (1,)),
        Invocation("error", ("allocate", "--inflows", inflows, "--rule", "bogus"), (1,)),
        Invocation("error", ("allocate", "--inflows", inflows, "--rule",
                             f"compromise:{1.0 + rng.uniform(0.1, 9):.3f}"), (1,)),
        Invocation("error", ("fit", "--dataset", str(scratch / f"missing-{seed}.csv"),
                             "--family", "compromise"), (1,)),
    ]


def cli_defects(seed: int) -> list[Invocation]:
    """Inputs the CLI mishandles at the time this benchmark was written.

    They are counted by the traced run's `cli.exit_mismatch`, not timed by
    cli-cold, whose ops must all succeed.  Flag values that ask for
    unbounded memory or time (`fit --nodes 100000000`,
    `axioms --max-agents 100000`) are left out because they cannot be run
    safely, not to hide them.
    """
    rng = random.Random(f"cli-defects|{seed}")
    return [
        Invocation("error", ("allocate", "--inflows", "1e308,1e308", "--rule", "shapley"), (1,)),
        Invocation("error", ("allocate", "--inflows", f"{rng.uniform(1, 9):.3f},2", "--rule", "shapley",
                             "--tolerance", "-1"), (1, 2)),
    ]


def invocation_problem(invocation: Invocation, output, first_stdout: dict) -> str | None:
    """Check one run of `invocation` against the CLI's exit-code contract."""
    code, stdout, stderr = output
    what = " ".join(invocation.argv)
    if code not in invocation.exit_codes:
        return f"`{what}` exited {code}, expected {invocation.exit_codes}"
    lines = stderr.decode(errors="replace").splitlines()
    if code == 1:
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return f"`{what}` wrote {len(lines)} stderr lines, expected one `error:` line"
        return None
    if lines:
        return f"`{what}` wrote to stderr: {lines[-1]}"
    if invocation.json_out:
        try:
            json.loads(stdout)
        except ValueError:
            return f"`{what}` printed invalid JSON"
        first = first_stdout.setdefault(invocation.argv, stdout)
        if stdout != first:
            return f"`{what}` --json output differs between runs"
    if invocation.curve is not None:
        with open(invocation.curve, encoding="utf-8") as handle:
            rows = handle.read().splitlines()
        if len(rows) != 102 or rows[0] != "parameter,distance":
            return f"`{what}` wrote a {len(rows)}-line curve"
    return None


def run_cli(argv, scratch):
    proc = subprocess.run(
        [sys.executable, "-m", "rivershare.cli", *argv],
        cwd=scratch, env=child_env(), stdin=subprocess.DEVNULL, capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_cold(seed: int, scratch) -> list[Entry]:
    first_stdout: dict = {}
    return [
        Entry(
            inv.kind,
            lambda inv=inv: run_cli(inv.argv, scratch),
            lambda output, inv=inv: invocation_problem(inv, output, first_stdout),
        )
        for inv in cli_invocations(seed, scratch)
    ]


@dataclass(frozen=True)
class Workload:
    setup: Callable
    tail_pct: float  # see README: the highest steady decade percentile
    capacity: int  # latency slots, allocated up front so memory does not follow speed
    in_process: bool  # False: the ops run in child processes

    @property
    def kernel(self) -> Kernel:
        """What tracks the machine's speed for these ops (see speed.py)."""
        return PYTHON if self.in_process else PROCESS


WORKLOADS = {
    "axiom-suite": Workload(axiom_suite, 90.0, 200_000, True),
    "allocate-sweep": Workload(allocate_sweep, 99.9, 4_000_000, True),
    "fit-basins": Workload(fit_basins, 99.0, 500_000, True),
    "cli-cold": Workload(cli_cold, 75.0, 20_000, False),
}
