"""Acceptance gate: one test per shipped claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test prints exactly one of them.  Tolerances here are the
contract, not implementation details, so they are asserted literally.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

from rivershare.analysis import (
    NILE_REFERENCE_TABLE,
    Family,
    integrate_distance,
    nile_case_study,
)
from rivershare.axioms import Axiom, find_counterexample, oracle_transfer_simulation, run_axiom_suite
from rivershare.core import (
    InflowProfile,
    RetentionShares,
    RuleSpec,
    compromise,
    egalitarian_full_transfer,
    egalitarian_partial_transfer,
    no_transfer,
    partial_compromise,
    retention_rule,
    shapley,
    validate_allocation,
)

from oracles import named_shares

EXAMPLE_RIVER = InflowProfile((50.0, 30.0, 10.0, 10.0))

STRUCTURAL = (
    Axiom.SCALE_INVARIANCE,
    Axiom.UPSTREAM_INVARIANCE,
    Axiom.DOWNSTREAM_IMPARTIALITY,
)


def criterion(number: int, summary: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                print(f"\nACCEPTANCE criterion {number}: FAIL - {summary}", flush=True)
                raise
            line = f"\nACCEPTANCE criterion {number}: PASS - {summary}"
            if detail:
                line += f" ({detail})"
            print(line, flush=True)
        return run
    return wrap


def _assert_close(got, want, tol, label):
    for k, (g, w) in enumerate(zip(got, want)):
        assert abs(g - float(w)) <= tol, f"{label}[{k}]: {g} vs {w} (tol {tol})"
    assert len(tuple(got)) == len(tuple(want)), label


def _best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@criterion(1, "four-agent example: Shapley, EFT, compromise family, under 1 ms")
def test_criterion_01_example_river():
    e = EXAMPLE_RIVER
    _assert_close(shapley(e), (Fraction(25, 2), Fraction(45, 2), Fraction(55, 2), Fraction(75, 2)),
                  1e-12, "shapley")
    eft_expected = (Fraction(0), Fraction(50, 3), Fraction(95, 3), Fraction(155, 3))
    _assert_close(egalitarian_full_transfer(e), eft_expected, 1e-12, "eft")
    _assert_close(no_transfer(e), (50, 30, 10, 10), 0.0, "nt")
    for lam in (0.0, 0.25, 0.5, 1.0):
        frac = Fraction(lam)
        symbolic = tuple(
            frac * Fraction(int(e[i])) + (1 - frac) * eft_expected[i] for i in range(4)
        )
        _assert_close(compromise(e, lam), symbolic, 1e-12, f"compromise:{lam}")
    elapsed = _best_time(
        lambda: (shapley(e), egalitarian_full_transfer(e), no_transfer(e), compromise(e, 0.5)),
        repeats=200,
    )
    assert elapsed < 1e-3, f"example computation took {elapsed * 1e3:.3f} ms"
    return f"best runtime {elapsed * 1e6:.0f} µs"


@criterion(2, "four-agent example: EPT row and its mixtures to 1e-12")
def test_criterion_02_partial_transfer_example():
    e = EXAMPLE_RIVER
    ept_expected = (Fraction(0), Fraction(80, 3), Fraction(100, 3), Fraction(40))
    _assert_close(egalitarian_partial_transfer(e), ept_expected, 1e-12, "ept")
    for delta in (0.0, 0.5, 1.0):
        frac = Fraction(delta)
        symbolic = tuple(
            frac * Fraction(int(e[i])) + (1 - frac) * ept_expected[i] for i in range(4)
        )
        _assert_close(partial_compromise(e, delta), symbolic, 1e-12, f"partial:{delta}")
    return "EPT = (0, 80/3, 100/3, 40)"


@criterion(3, "Nile summary table, seven columns within 0.01 per entry")
def test_criterion_03_nile_table():
    result = nile_case_study()
    computed = dict(result.table)
    worst = 0.0
    for label, reference in NILE_REFERENCE_TABLE:
        column = computed[label]
        _assert_close(column, reference, 0.01, f"table:{label}")
        worst = max(worst, max(abs(g - w) for g, w in zip(column, reference)))
    return f"worst entry gap {worst:.4f}"


@criterion(4, "family fits: parameter 0.068±0.001, partial clipped to 0, fitted allocation ±0.1")
def test_criterion_04_fits():
    result = nile_case_study()
    lam = result.compromise_fit.parameter_star
    assert abs(lam - 0.068) <= 0.001, lam
    assert result.partial_fit.parameter_star == 0.0
    assert result.partial_fit.clipped
    _assert_close(
        result.compromise_fit.fitted_allocation, (1.1, 5.0, 10.2, 21.6, 78.0), 0.1, "fitted"
    )
    return f"parameter {lam:.6f}, partial unconstrained {result.partial_fit.unconstrained_parameter:.3f}"


@criterion(5, "distance integrals 46.52 and 78.27 ±0.01, exact vs 128-node quadrature ≤1e-8, under 10 ms")
def test_criterion_05_integrals():
    result = nile_case_study()
    assert abs(result.compromise_integral - 46.52) <= 0.01, result.compromise_integral
    assert abs(result.partial_integral - 78.27) <= 0.01, result.partial_integral
    assert abs(result.compromise_integral_fine - result.compromise_integral) <= 1e-8
    assert abs(result.partial_integral_fine - result.partial_integral) <= 1e-8
    e = InflowProfile(result.inflows)
    z = result.observed
    integrate_distance(e, z, Family.COMPROMISE)  # warm the segment memo
    elapsed = _best_time(
        lambda: (
            integrate_distance(e, z, Family.COMPROMISE),
            integrate_distance(e, z, Family.PARTIAL_COMPROMISE),
        ),
        repeats=50,
    )
    assert elapsed < 10e-3, f"integrals took {elapsed * 1e3:.3f} ms"
    return (
        f"{result.compromise_integral:.4f} and {result.partial_integral:.4f}, "
        f"best runtime {elapsed * 1e6:.0f} µs"
    )


@criterion(6, "legitimacy classification of the five basin countries, both families")
def test_criterion_06_legitimacy():
    result = nile_case_study()
    compromise_verdicts = {
        entry.agent: entry.classification.value
        for entry in result.compromise_legitimacy.entries
    }
    assert compromise_verdicts == {
        "Tanzania": "legitimate",
        "Uganda": "below-lower",
        "South Sudan": "below-lower",
        "Sudan": "legitimate",
        "Egypt": "legitimate",
    }
    partial_verdicts = {
        entry.agent: entry.classification.value
        for entry in result.partial_legitimacy.entries
    }
    assert partial_verdicts == {
        "Tanzania": "legitimate",
        "Uganda": "below-lower",
        "South Sudan": "below-lower",
        "Sudan": "below-lower",
        "Egypt": "above-upper",
    }
    return "verbatim match"


@criterion(7, "randomized axiom suites at 10^4 trials plus directed counterexamples, under 30 s")
def test_criterion_07_axiom_suites():
    start = time.perf_counter()
    trials = 10_000
    weights = (0.0, 0.3, 0.7, 1.0)

    def clean(rule, axioms):
        for report in run_axiom_suite(rule, axioms=axioms, trials=trials, seed=42):
            assert report.violations == 0, (
                f"{report.rule} violated {report.axiom.value}: {report.first_counterexample}"
            )

    clean(RuleSpec.shapley(), STRUCTURAL + (Axiom.BALANCE,))
    for w in weights:
        clean(RuleSpec.compromise(w), STRUCTURAL + (Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS,))
    for w in weights:
        clean(RuleSpec.partial_compromise(w), STRUCTURAL + (Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW,))
    clean(RuleSpec.no_transfer(), (Axiom.ORDER_PRESERVATION,))

    directed = [
        (RuleSpec.shapley(), Axiom.ORDER_PRESERVATION),
        (RuleSpec.compromise(0.5), Axiom.BALANCE),
        (RuleSpec.egalitarian_full_transfer(), Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW),
        (RuleSpec.shapley(), Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS),
    ]
    for rule, axiom in directed:
        found = find_counterexample(rule, axiom, seed=42)
        assert found is not None, f"no counterexample for {rule.label()} vs {axiom.value}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"axiom suites took {elapsed:.1f} s"
    return f"37 suites x {trials} trials + 4 directed finds in {elapsed:.1f} s"


@criterion(8, "retention rule vs transfer simulation on 10^3 instances, 1e-9 relative")
def test_criterion_08_retention_oracle():
    rng = random.Random(8)
    count = 0
    for trial in range(1000):
        n = rng.randint(2, 10)
        e = InflowProfile(tuple(rng.uniform(0.0, 1000.0) for _ in range(n)))
        style = trial % 4
        if style == 0:
            shares = RetentionShares(named_shares("shapley", n))
        elif style == 1:
            shares = RetentionShares(named_shares("compromise", n, rng.random()))
        elif style == 2:
            shares = RetentionShares(named_shares("partial", n, rng.random()))
        else:
            shares = RetentionShares(tuple(rng.random() for _ in range(n - 1)))
        direct = retention_rule(e, shares)
        simulated = oracle_transfer_simulation(e, shares)
        for a, b in zip(direct, simulated):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), (e, shares)
        count += 1
    assert count == 1000
    return "1000 instances, all three share maps included"


@criterion(9, "every rule validates on 10^4 random profiles, zero failures")
def test_criterion_09_validation_sweep():
    rng = random.Random(9)
    failures = 0
    checked = 0
    for _ in range(10_000):
        n = rng.randint(2, 10)
        magnitude = 10.0 ** rng.uniform(-6, 6)
        values = [
            0.0 if rng.random() < 0.25 else rng.uniform(0.0, magnitude) for _ in range(n)
        ]
        e = InflowProfile(tuple(values))
        rules = [
            RuleSpec.no_transfer(),
            RuleSpec.egalitarian_full_transfer(),
            RuleSpec.egalitarian_partial_transfer(),
            RuleSpec.shapley(),
            RuleSpec.compromise(rng.random()),
            RuleSpec.partial_compromise(rng.random()),
            RuleSpec.retention_rule(RetentionShares(tuple(rng.random() for _ in range(n - 1)))),
        ]
        for rule in rules:
            allocation = rule.apply(e)
            verdict = validate_allocation(e, allocation)
            if not verdict.ok:
                failures += 1
            checked += 1
    assert failures == 0, f"{failures} of {checked} validations failed"
    return f"{checked} rule applications validated"
