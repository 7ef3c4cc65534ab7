"""Tests for family fitting, distance quadrature, legitimacy, case study.

The fit is checked against a dense grid search and the quadrature against
an adaptive Simpson refinement, both written directly from the definitions
rather than through the library's closed forms.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from rivershare import analysis
from rivershare.analysis import (
    NILE_REFERENCE_TABLE,
    CaseStudyResult,
    Family,
    FitResult,
    Legitimacy,
    as_family,
    distance_at,
    family_member,
    fit_family,
    integrate_distance,
    legitimacy_bounds,
    nile_case_study,
    shares_of_total,
)
from rivershare.core import (
    DimensionError,
    InflowProfile,
    ObservedAllocation,
    ParameterError,
    egalitarian_full_transfer,
    egalitarian_partial_transfer,
    no_transfer,
)
from rivershare.data_io import builtin_nile

NILE = builtin_nile()
NILE_Z = ObservedAllocation((5.4, 0.7, 0.7, 28.1, 81.0))


# ---------------------------------------------------------------------------
# oracles


def grid_best_parameter(e, z, family, points=100_001):
    """Dense grid search over the family's parameter, straight numpy."""
    a = np.asarray(no_transfer(e), dtype=float)
    if family is Family.COMPROMISE:
        b = np.asarray(egalitarian_full_transfer(e), dtype=float)
    else:
        b = np.asarray(egalitarian_partial_transfer(e), dtype=float)
    zz = np.asarray(tuple(z), dtype=float)
    t = np.linspace(0.0, 1.0, points)
    diff = (b - zz)[None, :] + np.outer(t, a - b)
    norms = np.sqrt((diff * diff).sum(axis=1))
    k = int(norms.argmin())
    return float(t[k]), float(norms[k])


def simpson_integral(e, z, family, target=1e-10):
    """Adaptive composite Simpson on the distance profile, refined until
    two successive halvings agree to `target`."""

    def profile(t):
        return distance_at(e, z, family, t)

    panels = 8
    previous = None
    for _ in range(20):
        h = 1.0 / (2 * panels)
        total = profile(0.0) + profile(1.0)
        for k in range(1, 2 * panels):
            total += (4.0 if k % 2 else 2.0) * profile(k * h)
        estimate = total * h / 3.0
        if previous is not None and abs(estimate - previous) < target:
            return estimate
        previous = estimate
        panels *= 2
    return previous


def random_case(rng):
    n = rng.randint(2, 7)
    e = InflowProfile(tuple(rng.uniform(0.0, 50.0) for _ in range(n)))
    if e.total == 0.0:
        e = InflowProfile((1.0,) * n)
    family = rng.choice(list(Family))
    return e, family


def random_observation(rng, e, family):
    a = no_transfer(e)
    b = family_member(e, family, 0.0)
    t = rng.uniform(-0.6, 1.6)
    noisy = [bi + t * (ai - bi) + rng.gauss(0.0, 0.15 * (1.0 + e.total / len(e))) for ai, bi in zip(a, b)]
    return ObservedAllocation(tuple(max(0.0, v) for v in noisy))


# ---------------------------------------------------------------------------
# fitting


def test_fit_matches_grid_search_on_random_instances():
    rng = random.Random(2024)
    for _ in range(120):
        e, family = random_case(rng)
        z = random_observation(rng, e, family)
        fit = fit_family(e, z, family)
        t_grid, d_grid = grid_best_parameter(e, z, family)
        assert fit.residual_distance <= d_grid + 1e-9
        if fit.clipped:
            assert fit.parameter_star in (0.0, 1.0)
            assert abs(t_grid - fit.parameter_star) <= 1e-5
        else:
            assert abs(fit.parameter_star - t_grid) <= 1e-5


def test_fit_recovers_exact_member():
    rng = random.Random(7)
    for _ in range(60):
        e, family = random_case(rng)
        t0 = rng.random()
        z = ObservedAllocation(tuple(family_member(e, family, t0)))
        fit = fit_family(e, z, family)
        assert abs(fit.parameter_star - t0) <= 1e-9
        assert fit.residual_distance <= 1e-9 * (1.0 + e.total)
        assert not fit.degenerate


def test_fit_endpoints():
    e = InflowProfile((50.0, 30.0, 10.0, 10.0))
    for family in Family:
        at_zero = fit_family(e, ObservedAllocation(tuple(family_member(e, family, 0.0))), family)
        assert at_zero.parameter_star == pytest.approx(0.0, abs=1e-12)
        assert not at_zero.clipped
        at_one = fit_family(e, ObservedAllocation(tuple(no_transfer(e))), family)
        assert at_one.parameter_star == pytest.approx(1.0, abs=1e-12)
        assert at_one.residual_distance <= 1e-9


def test_fit_clips_above_one():
    # observation beyond the no-transfer endpoint projects past t = 1
    e = InflowProfile((2.0, 2.0, 2.0))
    a = np.asarray(no_transfer(e), float)
    b = np.asarray(egalitarian_full_transfer(e), float)
    z = ObservedAllocation(tuple(b + 1.5 * (a - b)))
    fit = fit_family(e, z, Family.COMPROMISE)
    assert fit.clipped
    assert fit.parameter_star == 1.0
    assert fit.unconstrained_parameter == pytest.approx(1.5, abs=1e-9)


def test_fit_clips_below_zero_on_nile_partial():
    fit = fit_family(NILE.inflows, NILE_Z, Family.PARTIAL_COMPROMISE)
    assert fit.clipped
    assert fit.parameter_star == 0.0
    assert fit.unconstrained_parameter < 0.0


def test_fit_degenerate_when_endpoints_coincide():
    e = InflowProfile((0.0, 0.0, 0.0))
    for family in Family:
        fit = fit_family(e, ObservedAllocation((0.0, 0.0, 0.0)), family)
        assert fit.degenerate
        assert fit.parameter_star == 0.0
        assert fit.unconstrained_parameter is None
        assert fit.residual_distance == 0.0


def test_fit_dimension_mismatch():
    with pytest.raises(DimensionError):
        fit_family((1.0, 2.0), (1.0, 1.0, 1.0), Family.COMPROMISE)


def test_as_family_coercion():
    assert as_family("compromise") is Family.COMPROMISE
    assert as_family("partial") is Family.PARTIAL_COMPROMISE
    assert as_family(Family.COMPROMISE) is Family.COMPROMISE
    with pytest.raises(ParameterError):
        as_family("shapley")


def test_family_member_endpoints():
    e = InflowProfile((3.0, 2.0, 1.0, 1.0))
    assert tuple(family_member(e, "compromise", 1.0)) == tuple(no_transfer(e))
    assert tuple(family_member(e, "compromise", 0.0)) == tuple(egalitarian_full_transfer(e))
    assert tuple(family_member(e, "partial", 0.0)) == tuple(egalitarian_partial_transfer(e))
    with pytest.raises(ParameterError):
        family_member(e, "partial", 1.5)


# ---------------------------------------------------------------------------
# distance profile and quadrature


def test_distance_at_known_value():
    # distance from the observed Nile column to no-transfer, at one decimal
    gap = distance_at(NILE.inflows, NILE_Z, Family.PARTIAL_COMPROMISE, 1.0)
    assert gap == pytest.approx(92.74, abs=0.01)
    same = distance_at(NILE.inflows, NILE_Z, Family.COMPROMISE, 1.0)
    assert same == pytest.approx(gap, abs=1e-12)


def test_distance_at_rejects_out_of_range():
    with pytest.raises(ParameterError):
        distance_at(NILE.inflows, NILE_Z, Family.COMPROMISE, -0.01)
    with pytest.raises(ParameterError):
        distance_at(NILE.inflows, NILE_Z, Family.COMPROMISE, 1.01)


def test_distance_profile_is_convex():
    rng = random.Random(99)
    for _ in range(40):
        e, family = random_case(rng)
        z = random_observation(rng, e, family)
        t1, t2 = sorted((rng.random(), rng.random()))
        mid = distance_at(e, z, family, 0.5 * (t1 + t2))
        ends = 0.5 * (distance_at(e, z, family, t1) + distance_at(e, z, family, t2))
        assert mid <= ends + 1e-9 * (1.0 + e.total)


def test_integral_matches_adaptive_simpson():
    # observations close to the family segment make the distance profile
    # sharply curved near its minimum; 64 nodes leave a ~1e-6 relative
    # residue there, and 256 resolve it completely
    rng = random.Random(4242)
    cases = [(NILE.inflows, NILE_Z, family) for family in Family]
    for _ in range(25):
        e, family = random_case(rng)
        cases.append((e, random_observation(rng, e, family), family))
    for e, z, family in cases:
        oracle = simpson_integral(e, z, family)
        scale = max(1.0, oracle)
        assert integrate_distance(e, z, family) == pytest.approx(oracle, abs=1e-5 * scale)
        assert integrate_distance(e, z, family, nodes=256) == pytest.approx(oracle, abs=1e-9 * scale)


def test_integral_on_nile_matches_simpson_tightly():
    for family in Family:
        oracle = simpson_integral(NILE.inflows, NILE_Z, family)
        assert integrate_distance(NILE.inflows, NILE_Z, family) == pytest.approx(oracle, abs=1e-8)


def test_integral_of_linear_profile_is_exact():
    # with z at the full-transfer endpoint the profile is t |A - B|,
    # integrating to half the endpoint gap
    rng = random.Random(11)
    for _ in range(20):
        e, family = random_case(rng)
        b = family_member(e, family, 0.0)
        z = ObservedAllocation(tuple(b))
        gap = distance_at(e, z, family, 1.0)
        assert integrate_distance(e, z, family) == pytest.approx(gap / 2.0, rel=1e-12, abs=1e-12)


def test_integral_node_count_consistency():
    for family in Family:
        coarse = integrate_distance(NILE.inflows, NILE_Z, family, nodes=64)
        fine = integrate_distance(NILE.inflows, NILE_Z, family, nodes=128)
        assert abs(coarse - fine) <= 1e-8


def test_integral_rejects_bad_nodes(forbid_node_rule):
    # every count is checked before any node rule is built
    for nodes in (0, 2.5, analysis._MAX_NODES + 1, 100_000_000):
        with pytest.raises(ParameterError):
            integrate_distance(NILE.inflows, NILE_Z, Family.COMPROMISE, nodes=nodes)


def test_integral_accepts_the_largest_node_count(monkeypatch):
    # served by a small real rule, so no 1024-node rule is built
    small_rule = analysis._unit_interval_nodes(8)
    requested = []
    monkeypatch.setattr(
        analysis, "_unit_interval_nodes", lambda count: requested.append(count) or small_rule
    )
    integrate_distance(NILE.inflows, NILE_Z, Family.COMPROMISE, nodes=analysis._MAX_NODES)
    assert requested == [analysis._MAX_NODES]


# ---------------------------------------------------------------------------
# legitimacy


def test_nile_legitimacy_classifications():
    compromise_report = legitimacy_bounds(NILE.inflows, NILE_Z, Family.COMPROMISE, names=NILE.names)
    assert [c.value for c in compromise_report.classifications] == [
        "legitimate", "below-lower", "below-lower", "legitimate", "legitimate",
    ]
    partial_report = legitimacy_bounds(NILE.inflows, NILE_Z, Family.PARTIAL_COMPROMISE, names=NILE.names)
    assert [c.value for c in partial_report.classifications] == [
        "legitimate", "below-lower", "below-lower", "below-lower", "above-upper",
    ]
    assert compromise_report.entries[0].agent == "Tanzania"
    assert partial_report.entries[-1].agent == "Egypt"
    assert not compromise_report.all_legitimate


def test_legitimacy_interval_endpoints_are_rule_values():
    report = legitimacy_bounds(NILE.inflows, NILE_Z, Family.COMPROMISE)
    nt = no_transfer(NILE.inflows)
    eft = egalitarian_full_transfer(NILE.inflows)
    for i, entry in enumerate(report.entries):
        assert entry.lower == pytest.approx(min(nt[i], eft[i]))
        assert entry.upper == pytest.approx(max(nt[i], eft[i]))
        assert entry.position == i
        assert entry.agent == f"agent {i}"


def test_family_members_are_always_legitimate():
    rng = random.Random(55)
    for _ in range(40):
        e, family = random_case(rng)
        z = ObservedAllocation(tuple(family_member(e, family, rng.random())))
        report = legitimacy_bounds(e, z, family)
        assert report.all_legitimate


def test_legitimacy_invariant_under_rescaling():
    rng = random.Random(77)
    for _ in range(40):
        e, family = random_case(rng)
        z = random_observation(rng, e, family)
        gamma = rng.uniform(0.01, 250.0)
        base = legitimacy_bounds(e, z, family).classifications
        scaled = legitimacy_bounds(
            e.scaled(gamma), ObservedAllocation(tuple(gamma * v for v in z)), family
        ).classifications
        assert base == scaled


def test_legitimacy_boundary_tolerance():
    e = InflowProfile((1.0, 1.0))
    # intervals: agent 0 gets [0, 1], agent 1 gets [1, 2]
    hairline = ObservedAllocation((1.0 + 1e-13, 1.0 - 1e-13))
    report = legitimacy_bounds(e, hairline, Family.COMPROMISE)
    assert report.all_legitimate
    clearly_out = ObservedAllocation((1.1, 0.9))
    report = legitimacy_bounds(e, clearly_out, Family.COMPROMISE)
    assert report.classifications == (Legitimacy.ABOVE_UPPER, Legitimacy.BELOW_LOWER)


def test_legitimacy_name_length_mismatch():
    with pytest.raises(DimensionError):
        legitimacy_bounds(NILE.inflows, NILE_Z, Family.COMPROMISE, names=("a", "b"))


# ---------------------------------------------------------------------------
# shares


def test_shares_of_total():
    shares = shares_of_total(NILE.inflows)
    assert math.fsum(shares) == pytest.approx(1.0, abs=1e-12)
    assert shares[0] == pytest.approx(0.145, abs=0.001)
    observed = shares_of_total(NILE_Z)
    assert observed[-1] == pytest.approx(0.70, abs=0.005)
    assert shares_of_total((2.0, 2.0, 2.0, 2.0)) == (0.25, 0.25, 0.25, 0.25)


def test_shares_reject_bad_totals():
    with pytest.raises(ParameterError):
        shares_of_total((0.0, 0.0))
    with pytest.raises(ParameterError):
        shares_of_total((1.0, float("nan")))


# ---------------------------------------------------------------------------
# case study


def test_case_study_reference_checks_all_pass():
    result = nile_case_study()
    assert isinstance(result, CaseStudyResult)
    assert result.all_ok, [c.name for c in result.failures]
    assert result.failures == ()


def test_case_study_observed_column_is_reference():
    result = nile_case_study()
    assert result.observed == NILE_REFERENCE_TABLE[0][1]
    assert result.table[0] == ("observed", result.observed)
    assert [label for label, _ in result.table] == [label for label, _ in NILE_REFERENCE_TABLE]


def test_case_study_statistics():
    result = nile_case_study()
    assert result.compromise_fit.parameter_star == pytest.approx(0.068, abs=0.001)
    assert result.partial_fit.parameter_star == 0.0
    assert result.partial_fit.clipped
    assert result.compromise_integral == pytest.approx(46.52, abs=0.01)
    assert result.partial_integral == pytest.approx(78.27, abs=0.01)
    fitted = tuple(result.compromise_fit.fitted_allocation)
    for got, want in zip(fitted, (1.1, 5.0, 10.2, 21.6, 78.0)):
        assert abs(got - want) <= 0.1


def test_case_study_check_names_are_complete():
    result = nile_case_study()
    names = {c.name for c in result.checks}
    assert {f"table:{label}" for label, _ in NILE_REFERENCE_TABLE} <= names
    assert {
        "fit:compromise:parameter", "fit:compromise:allocation",
        "fit:partial:parameter", "fit:partial:clipped",
        "integral:compromise", "integral:partial",
        "quadrature:compromise", "quadrature:partial",
        "legitimacy:compromise", "legitimacy:partial",
        "share:observed:Egypt", "share:inflow:Tanzania",
    } <= names
    assert len(names) == len(result.checks)


def test_case_study_full_precision_variant():
    # skipping the rounding step moves the integrals (and the observed
    # table column) off the reference values while the structural
    # findings survive
    result = nile_case_study(reporting_decimals=None)
    assert result.observed == result.observed_exact
    assert not result.all_ok
    failed = {c.name for c in result.failures}
    assert "integral:compromise" in failed
    assert "integral:partial" in failed
    for check in result.checks:
        if check.name.startswith(("legitimacy:", "fit:compromise:parameter", "share:")):
            assert check.ok, check.name
    assert result.compromise_fit.parameter_star == pytest.approx(0.068, abs=0.001)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        # the cross-check integrates with 2 * nodes, so half the integral's bound
        ({"nodes": analysis._MAX_NODES // 2 + 1}, "nodes must be at most"),
        ({"nodes": 100_000_000}, "nodes must be at most"),
        ({"reporting_decimals": -3}, "reporting_decimals"),
        ({"reporting_decimals": 1.5}, "reporting_decimals"),
        ({"reporting_decimals": "1"}, "reporting_decimals"),
    ],
)
def test_case_study_rejects_bad_parameters_up_front(forbid_node_rule, kwargs, fragment):
    with pytest.raises(ParameterError, match=fragment):
        nile_case_study(**kwargs)


def test_case_study_is_deterministic_and_serializable():
    first = nile_case_study()
    second = nile_case_study()
    assert first == second
    payload = json.dumps(first.to_dict(), sort_keys=True)
    assert payload == json.dumps(second.to_dict(), sort_keys=True)
    decoded = json.loads(payload)
    assert decoded["all_ok"] is True
    assert decoded["fits"]["compromise"]["parameter"] == first.compromise_fit.parameter_star
