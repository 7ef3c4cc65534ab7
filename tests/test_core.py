"""Core rule tests.

The oracles in `oracles.py` recompute every rule in exact rational
arithmetic by literally distributing each inflow to its recipients, which
is a different shape of computation than the library's running-prefix
implementations.  Fixture values are checked against those oracles, never
the other way around.
"""

from __future__ import annotations

import array
import ast
import math
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivershare import core
from rivershare import (
    Allocation,
    AllocationError,
    DimensionError,
    InflowProfile,
    ObservedAllocation,
    ParameterError,
    RetentionShares,
    RiverShareError,
    RuleKind,
    RuleSpec,
    compromise,
    egalitarian_full_transfer,
    egalitarian_partial_transfer,
    no_transfer,
    partial_compromise,
    retention_rule,
    shapley,
    source,
    tolerance_for,
    validate_allocation,
)
from rivershare.analysis import Family, distance_at, family_member, legitimacy_bounds, shares_of_total
from rivershare import axioms, data_io
from rivershare.axioms import (
    Axiom,
    check_downstream_impartiality,
    check_equal_treatment_source,
    check_equal_treatment_upstream_total,
    check_order_preservation,
    check_scale_invariance,
    check_source_shape,
    check_upstream_invariance,
)
from rivershare.data_io import BasinDataset, normalize_withdrawals

from oracles import (
    named_shares,
    oracle_eft,
    oracle_ept,
    oracle_mix,
    oracle_nt,
    oracle_retention,
    oracle_shapley,
)

# ---------------------------------------------------------------------------
# the exact oracles, in `oracles.py`


def test_the_oracles_import_nothing_from_the_package():
    # an oracle that shared the package's code would check that code against itself
    path = Path(__file__).with_name("oracles.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert "fractions" in imported
    # neither the package nor, through a relative import, anything beside it
    assert not [name for name in imported if name.split(".")[0] in ("rivershare", "")]


def assert_close(actual, expected, tol):
    actual = list(actual)
    expected = [float(v) for v in expected]
    assert len(actual) == len(expected)
    for k, (a, b) in enumerate(zip(actual, expected)):
        assert abs(a - b) <= tol, f"position {k}: {a} vs {b}"


# ---------------------------------------------------------------------------
# fixtures: the four-agent profile used throughout the documentation


RIVER4 = (50.0, 30.0, 10.0, 10.0)


class TestRiver4Fixture:
    def test_no_transfer_is_identity(self):
        assert_close(no_transfer(RIVER4), oracle_nt(RIVER4), 0.0)
        assert list(no_transfer(RIVER4)) == [50.0, 30.0, 10.0, 10.0]

    def test_shapley_values(self):
        expected = oracle_shapley(RIVER4)
        assert expected == [Fraction(25, 2), Fraction(45, 2), Fraction(55, 2), Fraction(75, 2)]
        assert_close(shapley(RIVER4), expected, 1e-12)

    def test_full_transfer_values(self):
        expected = oracle_eft(RIVER4)
        assert expected == [0, Fraction(50, 3), Fraction(95, 3), Fraction(155, 3)]
        assert_close(egalitarian_full_transfer(RIVER4), expected, 1e-12)

    def test_partial_transfer_values(self):
        expected = oracle_ept(RIVER4)
        assert expected == [0, Fraction(80, 3), Fraction(100, 3), Fraction(40)]
        assert_close(egalitarian_partial_transfer(RIVER4), expected, 1e-12)

    @pytest.mark.parametrize("weight", [0.0, 0.25, 0.5, 1.0])
    def test_compromise_matches_symbolic_row(self, weight):
        w = Fraction(weight)
        # closed form of the mix for this profile, worked out by hand
        symbolic = [
            50 * w,
            Fraction(50, 3) + Fraction(40, 3) * w,
            Fraction(95, 3) - Fraction(65, 3) * w,
            Fraction(155, 3) - Fraction(125, 3) * w,
        ]
        assert symbolic == oracle_mix(w, oracle_nt(RIVER4), oracle_eft(RIVER4))
        assert_close(compromise(RIVER4, weight), symbolic, 1e-12)

    @pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
    def test_partial_compromise_matches_symbolic_row(self, weight):
        w = Fraction(weight)
        symbolic = [
            50 * w,
            Fraction(80, 3) + Fraction(10, 3) * w,
            Fraction(100, 3) - Fraction(70, 3) * w,
            40 - 30 * w,
        ]
        assert symbolic == oracle_mix(w, oracle_nt(RIVER4), oracle_ept(RIVER4))
        assert_close(partial_compromise(RIVER4, weight), symbolic, 1e-12)


class TestSmallFixtures:
    def test_partial_transfer_four_agents_decreasing(self):
        expected = oracle_ept((3, 2, 1, 1))
        assert expected == [0, Fraction(5, 3), Fraction(7, 3), 3]
        assert_close(egalitarian_partial_transfer((3, 2, 1, 1)), expected, 1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_partial_compromise_in_transfer_share_form(self, beta):
        # parameterize by the transferred share instead of the kept share:
        # with weight = 1 - beta the mix walks from identity to full partial
        # transfer as beta goes 0 -> 1
        b = Fraction(beta)
        symbolic = [3 - 3 * b, 2 - b / 3, 1 + 4 * b / 3, 1 + 2 * b]
        assert_close(partial_compromise((3, 2, 1, 1), 1.0 - beta), symbolic, 1e-12)

    def test_full_transfer_only_terminal_inflow(self):
        assert list(egalitarian_full_transfer((0, 0, 7))) == [0.0, 0.0, 7.0]

    def test_zero_profile_all_rules(self):
        zero = (0.0, 0.0, 0.0)
        for rule in _all_rules(3):
            assert list(rule.apply(zero)) == [0.0, 0.0, 0.0]


def _all_rules(n, weights=(0.0, 0.3, 0.7, 1.0)):
    rules = [
        RuleSpec.no_transfer(),
        RuleSpec.egalitarian_full_transfer(),
        RuleSpec.egalitarian_partial_transfer(),
        RuleSpec.shapley(),
    ]
    for w in weights:
        rules.append(RuleSpec.compromise(w))
        rules.append(RuleSpec.partial_compromise(w))
    rules.append(RuleSpec.retention_rule(named_shares("shapley", n)))
    rules.append(RuleSpec.retention_rule(named_shares("partial", n, 0.4)))
    return rules


# ---------------------------------------------------------------------------
# oracle comparison on random rational profiles


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=9),
    st.integers(min_value=0, max_value=100),
)
@settings(deadline=None)
def test_rules_match_exact_oracles(raw, percent):
    e = tuple(float(v) for v in raw)
    tol = tolerance_for(sum(e))
    weight = percent / 100
    assert_close(no_transfer(e), oracle_nt(raw), tol)
    assert_close(egalitarian_full_transfer(e), oracle_eft(raw), tol)
    assert_close(shapley(e), oracle_shapley(raw), tol)
    assert_close(egalitarian_partial_transfer(e), oracle_ept(raw), tol)
    assert_close(
        compromise(e, weight),
        oracle_mix(Fraction(percent, 100), oracle_nt(raw), oracle_eft(raw)),
        tol,
    )
    assert_close(
        partial_compromise(e, weight),
        oracle_mix(Fraction(percent, 100), oracle_nt(raw), oracle_ept(raw)),
        tol,
    )


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=9),
    st.data(),
)
@settings(deadline=None)
def test_retention_rule_matches_exact_oracle(raw, data):
    e = tuple(float(v) for v in raw)
    n = len(e)
    alphas_pct = data.draw(
        st.lists(st.integers(min_value=0, max_value=100), min_size=n - 1, max_size=n - 1)
    )
    alphas = [p / 100 for p in alphas_pct]
    expected = oracle_retention(raw, [Fraction(p, 100) for p in alphas_pct])
    assert_close(retention_rule(e, alphas), expected, tolerance_for(sum(e)))


# ---------------------------------------------------------------------------
# structural properties


profiles = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=2, max_size=12
)


@given(profiles)
@settings(deadline=None)
def test_every_rule_output_validates(values):
    e = tuple(values)
    for rule in _all_rules(len(e)):
        verdict = validate_allocation(e, rule.apply(e))
        assert verdict, verdict.reason


@given(profiles, st.floats(min_value=1e-3, max_value=1e3))
@settings(deadline=None)
def test_homogeneity(values, gamma):
    e = InflowProfile(tuple(values))
    tol = tolerance_for(e.total * max(gamma, 1.0))
    for rule in _all_rules(len(e), weights=(0.3,)):
        scaled = rule.apply(e.scaled(gamma))
        direct = [gamma * v for v in rule.apply(e)]
        assert_close(scaled, direct, tol)


@given(profiles, st.data())
@settings(deadline=None)
def test_linearity(values, data):
    other = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=len(values),
            max_size=len(values),
        )
    )
    e1 = tuple(values)
    e2 = tuple(other)
    total = sum(e1) + sum(e2)
    combined = tuple(a + b for a, b in zip(e1, e2))
    for rule in _all_rules(len(e1), weights=(0.7,)):
        lhs = rule.apply(combined)
        rhs = [a + b for a, b in zip(rule.apply(e1), rule.apply(e2))]
        assert_close(lhs, rhs, tolerance_for(total))


@given(profiles)
@settings(deadline=None)
def test_endpoint_identities(values):
    e = tuple(values)
    tol = tolerance_for(sum(e))
    assert_close(compromise(e, 1.0), no_transfer(e), tol)
    assert_close(partial_compromise(e, 1.0), no_transfer(e), tol)
    assert_close(compromise(e, 0.0), egalitarian_full_transfer(e), tol)
    assert_close(partial_compromise(e, 0.0), egalitarian_partial_transfer(e), tol)


@given(profiles, st.floats(min_value=0.0, max_value=1.0))
@settings(deadline=None)
def test_embedding_identities(values, weight):
    e = tuple(values)
    n = len(e)
    tol = tolerance_for(sum(e))
    # each named rule against the retention rule of the shares its definition states
    for kind, named in [
        ("nt", no_transfer(e)),
        ("eft", egalitarian_full_transfer(e)),
        ("ept", egalitarian_partial_transfer(e)),
        ("shapley", shapley(e)),
        ("compromise", compromise(e, weight)),
        ("partial", partial_compromise(e, weight)),
    ]:
        assert_close(retention_rule(e, named_shares(kind, n, weight)), named, tol)


@given(profiles, st.floats(min_value=0.0, max_value=1.0), st.data())
@settings(deadline=None)
def test_every_rule_is_the_retention_rule_of_its_shares(values, weight, data):
    e = tuple(values)
    n = len(e)
    alphas = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n - 1, max_size=n - 1)
    )
    specs = [
        RuleSpec.no_transfer(),
        RuleSpec.egalitarian_full_transfer(),
        RuleSpec.egalitarian_partial_transfer(),
        RuleSpec.shapley(),
        RuleSpec.compromise(weight),
        RuleSpec.partial_compromise(weight),
        RuleSpec.retention_rule(alphas),
    ]
    assert {spec.kind for spec in specs} == set(RuleKind)
    for spec in specs:
        assert spec.apply(e).amounts == retention_rule(e, spec.shares(n)).amounts, spec.label()


@given(profiles)
@settings(deadline=None)
def test_family_endpoints_are_exact(values):
    e = tuple(values)
    assert compromise(e, 0.0) == egalitarian_full_transfer(e)
    assert partial_compromise(e, 0.0) == egalitarian_partial_transfer(e)
    assert compromise(e, 1.0) == no_transfer(e)


def test_shapley_single_source_balance():
    # with a single positive inflow before the mouth, the owner's assignment
    # equals the mean of all downstream assignments
    for n in range(2, 8):
        for i in range(n - 1):
            e = [0.0] * n
            e[i] = 1.0
            x = shapley(e)
            downstream = [x[k] for k in range(i + 1, n)]
            assert abs(x[i] - sum(downstream) / len(downstream)) <= 1e-12


# ---------------------------------------------------------------------------
# source and validation


def test_source_positions():
    assert source((0, 0, 5, 1)) == 2
    assert source((2, 0, 0, 0)) == 0
    assert source((0, 0, 0, 9)) is None  # only the terminal agent has inflow
    assert source((0.0, 0.0)) is None


def test_validate_allocation_accepts_feasible_division():
    verdict = validate_allocation((50, 30, 10, 10), (0, 50 / 3, 95 / 3, 155 / 3))
    assert verdict and verdict.reason is None
    assert validate_allocation((1, 0), (0.5, 0.5))


def test_validate_allocation_rejects_upstream_flow():
    verdict = validate_allocation((0, 1), (0.5, 0.5))
    assert not verdict
    assert "position 0" in verdict.reason and "feasibility" in verdict.reason


def test_validate_allocation_rejects_wasteful_division():
    verdict = validate_allocation((1, 1), (0.5, 0.5))
    assert not verdict
    assert "non-wastefulness" in verdict.reason


def test_validate_allocation_rejects_negative_amounts():
    verdict = validate_allocation((1, 1), (-0.5, 2.5))
    assert not verdict
    assert "negative" in verdict.reason


def test_validate_allocation_tolerates_float_wobble():
    assert validate_allocation((1, 1), (1 + 1e-13, 1 - 1e-13))
    assert validate_allocation((1, 1), (-1e-13, 2 + 1e-13))


def test_validate_allocation_length_mismatch():
    with pytest.raises(DimensionError):
        validate_allocation((1, 1), (1, 0, 0))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: validate_allocation((1, 2), (1e308, 1e308)), "total amount"),
        (lambda: Allocation((1e308, 1e308)), "total amount"),
        (lambda: ObservedAllocation((1e308, 1e308)), "total observed amount"),
        # fsum overflows on the way to 1e308, so `total` could not be read
        (lambda: Allocation((1e308, 1e308, -1e308)), "total amount"),
    ],
)
def test_finite_entries_whose_total_overflows_are_one_error(build, message):
    with pytest.raises(RiverShareError) as caught:
        build()
    assert str(caught.value) == f"{message} is too large to represent as a float"
    assert type(caught.value) is RiverShareError


def test_a_bad_entry_is_named_before_an_overflowing_total():
    with pytest.raises(RiverShareError, match=r"^amount at position 2 must be finite, got nan$"):
        Allocation((1e308, 1e308, math.nan))


def validate_by_loop(e, amounts, tol=None):
    """The position-by-position check `validate_allocation` used to run.

    Kept as the reference for the single checker that now serves both
    `validate_allocation` and rule output.
    """
    e = InflowProfile(tuple(e))
    if tol is None:
        tol = tolerance_for(e.total)
    for k, v in enumerate(amounts):
        if v < -tol:
            return False, f"negative amount {v} at position {k}"
    allocated = math.fsum(amounts)
    inflow = e.total
    if abs(allocated - inflow) > tol:
        return (
            False,
            f"non-wastefulness: allocated total {allocated} differs from inflow total {inflow}",
        )
    inflows = e.inflows
    prefix_x = 0.0
    prefix_e = 0.0
    for k in range(len(inflows) - 1):
        prefix_x += amounts[k]
        prefix_e += inflows[k]
        if prefix_x > prefix_e + tol:
            return (
                False,
                f"cumulative feasibility at position {k}: "
                f"first {k + 1} agents get {prefix_x} but only {prefix_e} has entered",
            )
    return True, None


@st.composite
def checked_allocations(draw):
    """A profile, an allocation near or across the constraint boundaries, a tolerance.

    Inflows span magnitudes 1e-6 to 1e6 with a quarter of them zero.  The
    allocation starts as a retention-rule output, then one entry is nudged
    by a multiple of the tolerance, made negative, or moved upstream.
    """
    n = draw(st.integers(min_value=2, max_value=100))
    magnitude = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    e = InflowProfile(
        tuple(0.0 if rng.random() < 0.25 else rng.uniform(0.0, magnitude) for _ in range(n))
    )
    shares = [rng.random() for _ in range(n - 1)]
    x = list(retention_rule(e, shares))
    tol = draw(st.sampled_from([None, 0.0, tolerance_for(e.total), 1e-3 * magnitude]))
    step = tol or tolerance_for(e.total)
    k = draw(st.integers(min_value=0, max_value=n - 1))
    m = draw(st.integers(min_value=0, max_value=n - 1))
    factor = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
    how = draw(st.sampled_from(["nudge", "negative", "upstream", "none"]))
    if how == "nudge":
        x[k] += factor * step
    elif how == "negative":
        moved = x[k] + abs(factor) * step
        x[k] -= moved
        x[m] += moved
    elif how == "upstream":
        upstream, downstream = min(k, m), max(k, m)
        moved = draw(st.sampled_from([abs(factor) * step, x[downstream] / 2, x[downstream]]))
        x[upstream] += moved
        x[downstream] -= moved
    return e, tuple(x), tol


@given(checked_allocations())
@settings(deadline=None, max_examples=300)
def test_validation_agrees_with_the_position_loop(case):
    e, amounts, tol = case
    verdict = validate_allocation(e, amounts, tol)
    assert (verdict.ok, verdict.reason) == validate_by_loop(e, amounts, tol)


_BAD_RULE_OUTPUTS = [
    ([1.0, math.nan, 5.0], RiverShareError, "amount at position 1 must be finite, got nan"),
    ([1.0, 2.0, math.inf], RiverShareError, "amount at position 2 must be finite, got inf"),
    ([-1.0, math.nan, 7.0], RiverShareError, "amount at position 1 must be finite, got nan"),
    (
        [-1.0, 4.0, 3.0],
        AllocationError,
        "rule produced an invalid allocation: negative amount -1.0 at position 0",
    ),
    (
        [1.0, 2.0, 2.0],
        AllocationError,
        "rule produced an invalid allocation: "
        "non-wastefulness: allocated total 5.0 differs from inflow total 6.0",
    ),
    (
        [2.0, 1.0, 3.0],
        AllocationError,
        "rule produced an invalid allocation: "
        "cumulative feasibility at position 0: first 1 agents get 2.0 but only 1.0 has entered",
    ),
]


@pytest.mark.parametrize("raw,error,message", _BAD_RULE_OUTPUTS)
def test_invalid_rule_output_is_rejected_with_its_reason(monkeypatch, raw, error, message):
    # the kernel hands every output it does not accept to `_finalize`
    monkeypatch.setattr(core, "_retention_kernel", lambda e, shares: core._finalize(e, list(raw)))
    with pytest.raises(error) as caught:
        shapley((1.0, 2.0, 3.0))
    assert str(caught.value) == message
    assert type(caught.value) is error


def test_rule_output_wobble_is_clamped(monkeypatch):
    monkeypatch.setattr(
        core, "_retention_kernel", lambda e, shares: core._finalize(e, [-1e-20, 3.0, 3.0])
    )
    x = shapley((1.0, 2.0, 3.0))
    assert x == Allocation((0.0, 3.0, 3.0))
    assert x.amounts == (0.0, 3.0, 3.0) and list(x) == [0.0, 3.0, 3.0] and len(x) == 3
    assert hash(x) == hash(Allocation((0.0, 3.0, 3.0)))
    assert repr(x) == "Allocation(amounts=(0.0, 3.0, 3.0))"



def retention_by_two_steps(e, shares):
    """The plain kernel list the rules built before `_finalize` checked it.

    Kept as the reference for `core._retention_kernel`, which runs the
    feasibility prefix sums in the loop that builds the allocation.
    """
    inflows = e.inflows
    n = len(inflows)
    x = []
    incoming = 0.0
    for i, (v, a) in enumerate(zip(inflows, shares)):
        x.append(a * v + incoming)
        incoming += (1.0 - a) * v / (n - 1 - i)
    x.append(inflows[-1] + incoming)
    return x


def _outcome(make):
    """The bit pattern of an allocation, or the type and message it raised."""
    try:
        return tuple(v.hex() for v in make())
    except RiverShareError as caught:
        return type(caught), str(caught)


@st.composite
def river_profiles(draw):
    """Inflows of magnitude 1e-6 to 1e6 for 2 to 100 agents, a quarter of them zero."""
    n = draw(st.integers(min_value=2, max_value=100))
    magnitude = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return InflowProfile(
        tuple(0.0 if rng.random() < 0.25 else rng.uniform(0.0, magnitude) for _ in range(n))
    )


@given(river_profiles(), st.floats(min_value=0.0, max_value=1.0), st.data())
@settings(deadline=None, max_examples=200)
def test_one_pass_rules_match_the_two_step_reference(e, weight, data):
    n = len(e)
    alphas = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n - 1, max_size=n - 1)
    )
    specs = [
        RuleSpec.no_transfer(),
        RuleSpec.egalitarian_full_transfer(),
        RuleSpec.egalitarian_partial_transfer(),
        RuleSpec.shapley(),
        RuleSpec.compromise(weight),
        RuleSpec.partial_compromise(weight),
        RuleSpec.retention_rule(alphas),
    ]
    assert {spec.kind for spec in specs} == set(RuleKind)
    for spec in specs:
        reference = core._finalize(e, retention_by_two_steps(e, spec.shares(n)))
        assert _outcome(lambda: spec.apply(e)) == _outcome(lambda: reference), spec.label()


@st.composite
def injected_outputs(draw):
    """A profile and unchecked shares whose retention output sits near a boundary.

    Shares of 1 up to position k make every prefix before k exactly feasible,
    so a share at k moves x[k] by a multiple of the tolerance: above the
    prefix bound or below zero.  The kernel conserves water, so an output
    that misses the total is made by moving the profile's cached total by a
    multiple of the tolerance instead.  A NaN or infinite share makes the
    output non-finite.
    """
    e = draw(river_profiles())
    n = len(e)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    shares = [rng.random() for _ in range(n - 1)]
    how = draw(st.sampled_from(["prefix", "below zero", "total", "non-finite", "none"]))
    c = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
    positive = [k for k in range(n - 1) if e[k] > 0.0]
    if how in ("prefix", "below zero", "non-finite") and positive:
        k = draw(st.sampled_from(positive))
        shares[:k] = [1.0] * k
        tol = tolerance_for(e.total)
        if how == "prefix":
            shares[k] = 1.0 + c * tol / e[k]
        elif how == "below zero":
            shares[k] = -abs(c) * tol / e[k]
        else:
            shares[k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif how == "total":
        total = e.total + c * tolerance_for(e.total)
        object.__setattr__(e, "_total", total)
    return e, shares


@given(injected_outputs())
@settings(deadline=None, max_examples=300)
def test_one_pass_check_agrees_with_finalize(case):
    e, shares = case
    raw = retention_by_two_steps(e, shares)
    reference = _outcome(lambda: core._finalize(e, list(raw)))
    fallbacks = []
    finalize = core._finalize
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_finalize", lambda e, x: fallbacks.append(x) or finalize(e, x))
        assert _outcome(lambda: core._retention_kernel(e, shares)) == reference
    # only an output that needs a clamp or fails a check leaves the one pass
    clean = isinstance(reference[0], str) and min(raw) >= 0.0
    bits = [[v.hex() for v in x] for x in fallbacks]
    assert bits == ([] if clean else [[v.hex() for v in raw]])


def _falling_profile():
    yield 1.0
    yield -2.0


@pytest.mark.parametrize(
    "inflows,error,message",
    [
        (_falling_profile(), RiverShareError, "inflow at position 1 must be >= 0, got -2.0"),
        (("1", "nan"), RiverShareError, "inflow at position 1 must be finite, got 'nan'"),
        ((2.0, -1), RiverShareError, "inflow at position 1 must be >= 0, got -1.0"),
        ((1e308, 1e308), RiverShareError, "total inflow is too large to represent as a float"),
        ((5.0,), DimensionError, "an inflow profile needs at least two agents, got 1"),
        ((math.nan, "x"), RiverShareError, "inflow at position 0 must be finite, got nan"),
        ((math.inf, -math.inf), RiverShareError, "inflow at position 0 must be finite, got inf"),
        ((1.0, "x"), RiverShareError, "inflow at position 1 must be a number, got 'x'"),
    ],
)
def test_inflow_profile_messages(inflows, error, message):
    with pytest.raises(error) as caught:
        InflowProfile(inflows)
    assert str(caught.value) == message
    assert type(caught.value) is error


def test_inflow_profile_accepts_any_iterable_of_numbers():
    e = InflowProfile(v for v in ("1", 2, 3.5))
    assert e.inflows == (1.0, 2.0, 3.5) and e.total == 6.5
    assert all(type(v) is float for v in e)


@pytest.mark.parametrize("factor", [math.nan, math.inf])
def test_scaled_rejects_a_non_finite_factor(factor):
    with pytest.raises(ParameterError, match="scale factor must be finite and >= 0"):
        InflowProfile((1.0, 2.0)).scaled(factor)
    with pytest.raises(ParameterError, match=r"scale factor must be >= 0, got -inf"):
        InflowProfile((1.0, 2.0)).scaled(-math.inf)


@pytest.mark.parametrize(
    "inflows,derive,error,message",
    [
        ((1.0, 2.0), lambda e: e.scaled(1e308), ParameterError,
         "scale factor 1e+308 makes the inflows overflow"),
        ((1e308, 0.5e308), lambda e: e.scaled(1.5), ParameterError,
         "scale factor 1.5 makes the inflows overflow"),
        ((1e308, 1.0), lambda e: e.bumped(0, 1e308), ParameterError,
         "delta 1e+308 at position 0 makes the inflows overflow"),
        ((1e308, 0.7e308), lambda e: e.bumped(1, 0.5e308), ParameterError,
         "delta 5e+307 at position 1 makes the inflows overflow"),
        ((1.0, 2.0), lambda e: e.bumped(0, math.nan), ParameterError,
         "delta must be finite, got nan"),
        ((1.0, 2.0), lambda e: e.bumped(1, -math.inf), ParameterError,
         "delta must be finite, got -inf"),
        ((1.0, 2.0), lambda e: e.bumped(0, -5.0), ParameterError,
         "delta -5.0 at position 0 makes the inflow negative"),
    ],
)
def test_derived_profile_errors_name_the_argument(inflows, derive, error, message):
    with pytest.raises(error) as caught:
        derive(InflowProfile(inflows))
    assert str(caught.value) == message
    assert type(caught.value) is error


@pytest.mark.parametrize(
    "values",
    [
        (1.0, 2.0, 3.0),
        (0.0, -0.0),
        (5e-324, 1e308),
        (1e308, 1e308),
        (1.0, -1.0),
        (1.0, math.nan),
        (math.inf, 1.0),
        (math.inf, -math.inf),
        (4.0,),
        (),
    ],
)
def test_bulk_built_profiles_match_the_constructor(values):
    # generated and derived profiles skip __init__; anything its fast path
    # would reject must still end in the constructor's own error
    try:
        expected = InflowProfile(values)
    except RiverShareError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            core._profile_of_floats(values)
        return
    built = core._profile_of_floats(values)
    assert type(built) is InflowProfile
    assert built.inflows == expected.inflows and built.total == expected.total


def test_parameterless_share_vectors_survive_a_weight_sweep():
    n = 1000
    e = InflowProfile([1.0] * n)
    cached = RuleSpec.shapley().shares(n)
    rng = random.Random("weight sweep")
    for k in range(40):
        weighted = RuleSpec.compromise if k % 2 else RuleSpec.partial_compromise
        weighted(rng.random()).apply(e)
    assert RuleSpec.shapley().shares(n) is cached
    assert cached == tuple(1.0 / (n - k) for k in range(n - 1))


def _sized_profile(n):
    return InflowProfile([float(k % 5) + 0.5 * k for k in range(n)])


_MEMO_SIZES = (4, 7, 4, 1000, 2, 7)


@pytest.mark.parametrize(
    "label", ["nt", "eft", "ept", "shapley", "compromise:0.3", "partial:0.3", "alpha:0.2,0.5,0.9"]
)
def test_a_rule_applied_at_changing_sizes_matches_a_fresh_rule(label):
    # the vector a rule keeps for its last size must never serve another size
    spec = core.parse_rule(label)
    kind, _, weight = label.partition(":")
    sizes = (spec.fixed_agent_count,) * 3 if spec.fixed_agent_count else _MEMO_SIZES
    for n in sizes:
        e = _sized_profile(n)
        x = spec.apply(e)
        assert x.amounts == core.parse_rule(label).apply(e).amounts, (label, n)
        shares = spec.retention if kind == "alpha" else named_shares(kind, n, float(weight or 0))
        oracle = retention_rule(e, shares)
        if kind in ("ept", "partial"):  # their vectors are an ulp off the rounded exact ones
            assert_close(x, oracle, tolerance_for(e.total))
        else:
            assert x.amounts == oracle.amounts, (label, n)
        assert spec.shares(n) == core.parse_rule(label).shares(n)


def test_a_pinned_rule_refuses_another_size_and_still_applies_at_its_own():
    spec = RuleSpec.retention_rule((0.5, 0.25))
    own = _sized_profile(3)
    first = spec.apply(own)
    for n in (4, 2):
        with pytest.raises(DimensionError) as caught:
            spec.apply(_sized_profile(n))
        assert str(caught.value) == f"2 retention shares imply 3 agents, but the profile has {n}"
        with pytest.raises(DimensionError) as caught:
            spec.shares(n)
        assert str(caught.value) == f"2 retention shares imply 3 agents, but the profile has {n}"
    assert spec.apply(own) == first == retention_rule(own, (0.5, 0.25))
    assert spec.shares(3) == (0.5, 0.25)


def test_a_kept_vector_skips_no_check_of_n():
    spec = RuleSpec.compromise(0.5)
    assert spec.shares(2) == (0.5,)
    # 2.0 == 2 and True == 1, so comparing with the kept size is not enough
    for n in (2.0, True):
        with pytest.raises(ParameterError) as caught:
            spec.shares(n)
        assert str(caught.value) == f"n must be an integer, got {n!r}"
    with pytest.raises(DimensionError, match=r"^need n >= 2, got 1$"):
        spec.shares(1)


@pytest.mark.parametrize("count", [10**400, sys.maxsize + 1], ids=["10**400", "maxsize+1"])
def test_a_count_past_the_index_range_is_one_error(count):
    # refused before any tuple is sized; a large count in range is not tried
    bound = f"must be at most sys.maxsize = {sys.maxsize}"
    for label in ("shapley", "compromise:0.5", "partial:0.5", "nt", "alpha:0.5"):
        with pytest.raises(DimensionError) as caught:
            core.parse_rule(label).shares(count)
        assert str(caught.value) == f"n {bound}", label
    with pytest.raises(DimensionError) as caught:
        check_source_shape(RuleSpec.shapley(), 0, Axiom.BALANCE, agent_count=count)
    assert str(caught.value) == f"agent_count {bound}"


def test_an_int_too_long_to_print_is_still_one_error():
    # `str` refuses an int of more than 4300 digits, so the message gives its size
    huge = -(10**5000)
    size = "a negative int of 16610 bits"
    cases = [
        (lambda: RuleSpec.shapley().shares(huge), DimensionError, f"need n >= 2, got {size}"),
        (
            lambda: check_source_shape(RuleSpec.shapley(), huge, Axiom.BALANCE, agent_count=4),
            ParameterError,
            f"source position must be a non-terminal agent (0..2), got {size}",
        ),
        (lambda: _THREE.bumped(-huge, 1.0), DimensionError, "position an int of 16610 bits out of range for n=3"),
        (
            lambda: axioms.run_axiom_suite(RuleSpec.shapley(), [Axiom.BALANCE], huge, 0),
            ParameterError,
            f"trials must be >= 1, got {size}",
        ),
        (
            lambda: axioms.find_counterexample(RuleSpec.shapley(), Axiom.BALANCE, (huge, 3)),
            ParameterError,
            f"invalid agent count range ({size}, 3)",
        ),
    ]
    for call, error, message in cases:
        with pytest.raises(RiverShareError) as caught:
            call()
        assert (type(caught.value), str(caught.value)) == (error, message)


def test_threads_sharing_rules_get_the_vectors_of_their_own_sizes():
    rules = (RuleSpec.compromise(0.3), RuleSpec.shapley())
    sizes = range(2, 8)  # six threads on a two-core machine, each at its own size
    profiles = {n: _sized_profile(n) for n in sizes}
    expected = {
        n: [RuleSpec.compromise(0.3).apply(e), RuleSpec.shapley().apply(e)] for n, e in profiles.items()
    }
    results = {n: [] for n in sizes}

    def work(n):
        e = profiles[n]
        for _ in range(500):
            results[n].append([rule.apply(e) for rule in rules])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for n in sizes:
        assert len(results[n]) == 500
        assert all(pair == expected[n] for pair in results[n]), n


def test_a_negative_delta_that_keeps_the_inflow_non_negative_is_valid():
    assert InflowProfile((1.0, 2.0)).bumped(1, -2.0) == InflowProfile((1.0, 0.0))
    assert InflowProfile((3.0, 2.0)).bumped(0, -1.5).total == 3.5


# ---------------------------------------------------------------------------
# constructor and parameter errors


def test_single_agent_rejected():
    with pytest.raises(DimensionError):
        InflowProfile((5.0,))


def test_negative_inflow_rejected():
    with pytest.raises(RiverShareError):
        InflowProfile((1.0, -2.0))


def test_non_finite_inflow_rejected():
    with pytest.raises(RiverShareError):
        InflowProfile((1.0, math.nan))
    with pytest.raises(RiverShareError):
        InflowProfile((1.0, math.inf))


def test_overflowing_total_inflow_rejected():
    with pytest.raises(RiverShareError, match="too large"):
        InflowProfile((1e308, 1e308))
    # the stored total takes no part in equality or repr
    e = InflowProfile((1.0, 2.0))
    assert e.total == 3.0
    assert e == InflowProfile((1, 2.0)) and hash(e) == hash(InflowProfile((1.0, 2.0)))
    assert repr(e) == "InflowProfile(inflows=(1.0, 2.0))"


@pytest.mark.parametrize("weight", [-0.1, 1.1, math.nan])
def test_weights_outside_unit_interval_rejected(weight):
    with pytest.raises(ParameterError):
        compromise((1, 2), weight)
    with pytest.raises(ParameterError):
        partial_compromise((1, 2), weight)


def test_retention_share_bounds():
    RetentionShares((0.0, 1.0, 0.5))  # closed interval is allowed
    with pytest.raises(ParameterError):
        RetentionShares((0.5, 1.5))
    with pytest.raises(DimensionError):
        RetentionShares(())


def test_retention_rule_length_mismatch():
    with pytest.raises(DimensionError):
        retention_rule((1, 2, 3), (0.5,))


def test_rule_spec_parameter_checks():
    with pytest.raises(ParameterError):
        RuleSpec(RuleKind.COMPROMISE)  # weight missing
    with pytest.raises(ParameterError):
        RuleSpec(RuleKind.NO_TRANSFER, weight=0.5)
    with pytest.raises(ParameterError):
        RuleSpec(RuleKind.RETENTION)  # shares missing
    assert RuleSpec.compromise(0.5).label() == "compromise:0.5"
    assert RuleSpec.shapley().label() == "shapley"
    assert RuleSpec.retention_rule((0.25, 0.5)).fixed_agent_count == 3


@pytest.mark.parametrize(
    "build,error,message",
    [
        (
            lambda: RuleSpec(RuleKind.COMPROMISE, 0.5, retention=RetentionShares((0.5,))),
            ParameterError,
            "rule 'compromise' takes no retention shares",
        ),
        (
            lambda: RuleSpec(RuleKind.RETENTION, weight=0.5, retention=RetentionShares((0.5,))),
            ParameterError,
            "rule 'alpha' takes no scalar weight",
        ),
        (lambda: RuleSpec.shapley().shares(1), DimensionError, "need n >= 2, got 1"),
    ],
    ids=["weighted-with-shares", "alpha-with-weight", "one-agent-shares"],
)
def test_rule_spec_refuses_parameters_it_cannot_use(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_an_allocation_observed_is_checked_as_any_vector():
    # an Allocation may hold a negative amount; as an observation it may not
    assert core.as_observed(Allocation((1.0, 0.5))) == ObservedAllocation((1.0, 0.5))
    with pytest.raises(RiverShareError) as caught:
        core.as_observed(Allocation((1.0, -0.5)))
    assert str(caught.value) == "observed amount at position 1 must be >= 0, got -0.5"


def test_allocation_helpers():
    x = Allocation((1.0, 2.0))
    assert len(x) == 2 and x[1] == 2.0 and list(x) == [1.0, 2.0]
    assert x.total == 3.0


def test_allocation_error_reachable():
    # hand the validator's error path a genuinely infeasible request via the
    # public API: validate, then confirm rules never trip it
    assert not validate_allocation((0, 2), (1, 1))
    with pytest.raises(AllocationError):
        raise AllocationError("synthetic")


# ---------------------------------------------------------------------------
# one check for every float vector, and one tolerance at every magnitude


def _vector_entry_points():
    unit = InflowProfile((1.0, 1.0))
    return [
        (InflowProfile, "inflow", lambda v: InflowProfile((1.0, v))),
        (Allocation, "amount", lambda v: Allocation((1.0, v))),
        (ObservedAllocation, "observed amount", lambda v: ObservedAllocation((1.0, v))),
        (RetentionShares, "retention share", lambda v: RetentionShares((0.5, v))),
        ("BasinDataset inflows", "inflow", lambda v: BasinDataset(("a", "b"), (1.0, v))),
        ("BasinDataset withdrawals", "withdrawal", lambda v: BasinDataset(("a", "b"), unit, (1.0, v))),
        (normalize_withdrawals, "withdrawal", lambda v: normalize_withdrawals(unit, (1.0, v))),
        (shares_of_total, "entry", lambda v: shares_of_total((1.0, v))),
        (validate_allocation, "amount", lambda v: validate_allocation(unit, (1.0, v))),
    ]


@pytest.mark.parametrize(
    "value,wording",
    [
        ("a", "must be a number, got 'a'"),
        (None, "must be a number, got None"),
        # ints beyond the float range; repr(10**5000) itself raises ValueError
        (10**400, "is too large to represent as a float"),
        (10**5000, "is too large to represent as a float"),
    ],
    ids=["text", "None", "10**400", "10**5000"],
)
def test_every_vector_entry_point_names_a_non_number(value, wording):
    for entry_point, what, build in _vector_entry_points():
        with pytest.raises(RiverShareError) as caught:
            build(value)
        assert str(caught.value) == f"{what} at position 1 {wording}", entry_point


def _argument_entry_points():
    """(name, call of one argument, what the argument is): a "sequence",
    which None may also be, or a "value" of one type."""
    unit = InflowProfile((1.0, 1.0))
    return [
        ("InflowProfile", InflowProfile, "sequence"),
        ("Allocation", Allocation, "sequence"),
        ("ObservedAllocation", ObservedAllocation, "sequence"),
        ("RetentionShares", RetentionShares, "sequence"),
        ("shapley", shapley, "sequence"),
        ("retention_rule shares", lambda v: retention_rule(unit, v), "sequence"),
        ("RuleSpec.retention_rule", RuleSpec.retention_rule, "sequence"),
        ("source", source, "sequence"),
        ("validate_allocation profile", lambda v: validate_allocation(v, (1.0, 1.0)), "sequence"),
        ("validate_allocation amounts", lambda v: validate_allocation(unit, v), "sequence"),
        ("family_member", lambda v: family_member(v, "compromise", 0.5), "sequence"),
        ("shares_of_total", shares_of_total, "sequence"),
        ("BasinDataset names", lambda v: BasinDataset(v, unit), "sequence"),
        ("BasinDataset inflows", lambda v: BasinDataset(("a", "b"), v), "sequence"),
        ("BasinDataset withdrawals", lambda v: BasinDataset(("a", "b"), unit, v), "sequence or None"),
        ("normalize_withdrawals", lambda v: normalize_withdrawals(unit, v), "sequence"),
        (
            "legitimacy_bounds names",
            lambda v: legitimacy_bounds(unit, (1.0, 1.0), "compromise", names=v),
            "sequence or None",
        ),
        ("run_axiom_suite axioms", lambda v: axioms.run_axiom_suite(RuleSpec.shapley(), v, 2, 0), "sequence"),
        ("RuleSpec", RuleSpec, "value"),
        ("RuleSpec with a weight", lambda v: RuleSpec(v, weight=0.5), "value"),
        ("parse_rule", core.parse_rule, "value"),
        ("dump_dataset", lambda v: data_io.dump_dataset(v, "csv"), "value"),
        ("read_dataset", data_io.read_dataset, "value"),
    ]


def _released_view():
    view = memoryview(array.array("d", [1.0, 2.0]))
    view.release()
    return view


@pytest.mark.parametrize(
    "call,what,value",
    [
        pytest.param(call, what, value, id=f"{name}-{label}")
        for name, call, what in _argument_entry_points()
        for label, value in (
            ("str", "123"), ("bytes", b"12"), ("bytearray", bytearray(b"12")),
            ("memoryview", memoryview(b"12")), ("released memoryview", _released_view()),
            ("None", None), ("int", 5),
        )
        if not (value is None and what == "sequence or None")
    ],
)
def test_an_argument_of_the_wrong_type_is_one_error(call, what, value):
    # never a bare TypeError or AttributeError, and never a chain of errors
    with pytest.raises(RiverShareError) as caught:
        call(value)
    error = caught.value
    assert error.__cause__ is None and (error.__context__ is None or error.__suppress_context__)
    if what != "value" and isinstance(value, memoryview):
        # a view of bytes, refused like bytes rather than read as byte codes,
        # and a released view, which refuses every read
        if "released" in repr(value):
            assert str(error).endswith(", not a released memoryview")
        else:
            assert str(error).endswith(", not a 1-d memoryview of format 'B'")
    elif what != "value" and isinstance(value, (str, bytes, bytearray)):
        # refused, not read as its characters
        assert str(error).endswith(f", not the {type(value).__name__} {value!r}")


def test_a_memoryview_of_numbers_is_a_vector():
    doubles = array.array("d", [1.5, 2.0, 0.0])
    assert InflowProfile(memoryview(doubles)) == InflowProfile((1.5, 2.0, 0.0))
    assert InflowProfile(memoryview(array.array("q", [3, 4]))) == InflowProfile((3.0, 4.0))
    # one-dimensional only: a 2 x 2 view used to escape as NotImplementedError
    square = memoryview(array.array("d", [1.0, 2.0, 3.0, 4.0])).cast("B").cast("d", (2, 2))
    with pytest.raises(RiverShareError) as caught:
        InflowProfile(square)
    assert str(caught.value) == "the inflow vector must be a sequence of numbers, not a 2-d memoryview of format 'd'"


_UNIT = InflowProfile((1.0, 2.0))


@pytest.mark.parametrize(
    "what,call",
    [
        pytest.param("compromise weight", lambda v: compromise((1, 2), v), id="compromise"),
        pytest.param(
            "partial weight",
            lambda v: distance_at(_UNIT, (1.0, 2.0), Family.PARTIAL_COMPROMISE, v),
            id="distance_at",
        ),
        pytest.param(
            "partial weight",
            lambda v: family_member(_UNIT, Family.PARTIAL_COMPROMISE, v),
            id="family_member",
        ),
        pytest.param("scale factor", lambda v: _UNIT.scaled(v), id="scaled"),
        pytest.param("delta", lambda v: _UNIT.bumped(0, v), id="bumped"),
        pytest.param("scale", tolerance_for, id="tolerance_for"),
        pytest.param(
            "scale factor",
            lambda v: check_scale_invariance(RuleSpec.shapley(), (1, 2), v),
            id="check_scale_invariance",
        ),
        pytest.param(
            "inflow increase",
            lambda v: check_upstream_invariance(RuleSpec.shapley(), (1, 2), 0, v),
            id="check_upstream_invariance",
        ),
    ],
)
@pytest.mark.parametrize(
    "value,wording",
    [
        ("x", "must be a number, got 'x'"),
        (None, "must be a number, got None"),
        (10**400, "is too large to represent as a float"),
    ],
    ids=["text", "None", "10**400"],
)
def test_every_scalar_parameter_is_one_parameter_error(what, call, value, wording):
    with pytest.raises(ParameterError) as caught:
        call(value)
    message = str(caught.value)
    if what == "compromise weight" and value is None:
        # None is a weight left out, which `RuleSpec` words itself
        assert message == "rule 'compromise' needs a weight in [0, 1]"
    else:
        assert message == f"{what} {wording}"


_THREE = InflowProfile((1.0, 2.0, 3.0))


@pytest.mark.parametrize(
    "what,value,call",
    [
        pytest.param("position", 1.5, lambda: _THREE.bumped(1.5, 1.0), id="bumped"),
        pytest.param("position", True, lambda: _THREE.bumped(True, 1.0), id="bumped-bool"),
        pytest.param(
            "position", 1.5,
            lambda: check_upstream_invariance(RuleSpec.shapley(), _THREE, 1.5, 1.0),
            id="check_upstream_invariance",
        ),
        pytest.param(
            "position", 1.5,
            lambda: check_downstream_impartiality(RuleSpec.shapley(), _THREE, 1.5, 1.0),
            id="check_downstream_impartiality",
        ),
        pytest.param(
            "position", 2.0,
            lambda: check_equal_treatment_upstream_total(RuleSpec.shapley(), _THREE, _THREE, 2.0),
            id="check_equal_treatment_upstream_total",
        ),
        pytest.param(
            "position", 1.0,
            lambda: check_source_shape(RuleSpec.shapley(), 1.0, Axiom.BALANCE, 4),
            id="check_source_shape-position",
        ),
        pytest.param(
            "agent_count", 4.0,
            lambda: check_source_shape(RuleSpec.shapley(), 1, Axiom.BALANCE, 4.0),
            id="check_source_shape-agent_count",
        ),
        pytest.param("n", 3.0, lambda: RuleSpec.shapley().shares(3.0), id="shares"),
        pytest.param("n", True, lambda: RuleSpec.shapley().shares(True), id="shares-bool"),
        pytest.param(
            "trials", True,
            lambda: axioms.run_axiom_suite(RuleSpec.shapley(), [Axiom.BALANCE], True, 0),
            id="run_axiom_suite-trials",
        ),
        pytest.param(
            "n_range start", 2.5,
            lambda: axioms.run_axiom_suite(RuleSpec.shapley(), [Axiom.BALANCE], 1, 0, (2.5, 3)),
            id="run_axiom_suite-n_range",
        ),
        pytest.param(
            "n_range end", 3.0,
            lambda: axioms.find_counterexample(RuleSpec.shapley(), Axiom.BALANCE, (2, 3.0)),
            id="find_counterexample-n_range",
        ),
        pytest.param(
            "random_trials", 2.5,
            lambda: axioms.find_counterexample(RuleSpec.shapley(), Axiom.BALANCE, random_trials=2.5),
            id="find_counterexample-random_trials",
        ),
        pytest.param(
            "seed", None,
            lambda: axioms.run_axiom_suite(RuleSpec.shapley(), [Axiom.BALANCE], 3, None),
            id="run_axiom_suite-seed",
        ),
        pytest.param(
            "seed", True,
            lambda: axioms.run_axiom_suite(RuleSpec.shapley(), [Axiom.BALANCE], 3, True),
            id="run_axiom_suite-seed-bool",
        ),
        pytest.param(
            "seed", 1.5,
            lambda: axioms.find_counterexample(RuleSpec.shapley(), Axiom.BALANCE, seed=1.5),
            id="find_counterexample-seed",
        ),
    ],
)
def test_positions_and_agent_counts_must_be_integers(what, value, call):
    with pytest.raises(ParameterError) as caught:
        call()
    assert str(caught.value) == f"{what} must be an integer, got {value!r}"


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, "nan"], ids=repr)
def test_tolerance_for_refuses_a_non_finite_scale(scale):
    # a NaN or infinite tolerance would pass every comparison
    with pytest.raises(ParameterError) as caught:
        tolerance_for(scale)
    assert str(caught.value) == f"scale must be finite, got {scale!r}"


def test_tolerance_for_has_the_bits_of_the_max_form():
    floor = core.TOLERANCE_FLOOR
    edge = floor / core.RELATIVE_TOLERANCE
    scales = [0.0, -0.0, 5e-324, -5e-324, floor, edge, 1e308, -1e308, -math.ulp(0.0) * 7]
    scales += [math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), -edge]
    rng = random.Random(2030)
    scales += [rng.choice((-1, 1)) * 10.0 ** rng.uniform(-320, 308) for _ in range(200_000)]
    for scale in scales:
        expected = max(core.RELATIVE_TOLERANCE * abs(scale), floor)
        assert tolerance_for(scale).hex() == expected.hex(), scale


def test_tolerance_floor_is_the_smallest_normal_float():
    assert core.TOLERANCE_FLOOR == 2.0**-1022 == tolerance_for(0.0)
    # nothing allocated, and a 2.5e-6 relative over-allocation: both passed
    # on an absolute floor of 1e-12
    assert not validate_allocation((1e-200, 1e-200), (0, 0))
    assert not validate_allocation((1e-7, 1e-7), (0, 2e-7 + 5e-13))
    # a 1e-200 basin classifies like the unit basin
    tiny = legitimacy_bounds((1e-200, 2e-200, 0.0), (2e-200, 0.5e-200, 1e-200), "compromise")
    unit = legitimacy_bounds((1.0, 2.0, 0.0), (2.0, 0.5, 1.0), "compromise")
    assert tiny.classifications == unit.classifications


def test_a_given_tolerance_must_be_a_number():
    # None is no tolerance given, so it is not in the scalar test above
    with pytest.raises(ParameterError, match="^tolerance must be a number, got 'x'$"):
        validate_allocation((1, 1), (0, 0), tol="x")
    with pytest.raises(ParameterError, match="^tolerance is too large to represent as a float$"):
        validate_allocation((1, 1), (0, 0), tol=10**400)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
def test_a_given_tolerance_must_be_finite_and_non_negative(tol):
    checks = [
        lambda: validate_allocation((1, 1), (0, 0), tol=tol),
        lambda: legitimacy_bounds((1, 2, 0), (2, 0.5, 1), "compromise", tol=tol),
        lambda: check_order_preservation(RuleSpec.shapley(), (5, 1, 1), tol=tol),
        lambda: check_scale_invariance(RuleSpec.shapley(), (5, 1, 1), 2.0, tol=tol),
    ]
    for check in checks:
        with pytest.raises(ParameterError, match=f"^tolerance must be finite and >= 0, got {tol}$"):
            check()
    # zero is a tolerance, and the default still decides this instance
    assert not check_order_preservation(RuleSpec.shapley(), (5, 1, 1))
    assert not validate_allocation((1, 1), (0, 0), tol=0)


_GRID = st.integers(0, 64).map(lambda i: i / 64)  # shares whose complements stay normal when scaled


@st.composite
def unit_basins(draw):
    """2-30 agents with inflows and observed amounts in {0} u [1e-3, 1e3],
    at least one inflow positive, and one rule of each kind; then the axiom
    instances' parameters: a non-terminal position, a second source
    position, an inflow increase and a scale factor."""
    n = draw(st.integers(2, 30))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    inflows = draw(st.lists(entry, min_size=n, max_size=n).filter(any))
    observed = draw(st.lists(entry, min_size=n, max_size=n))
    rules = [
        RuleSpec.no_transfer(),
        RuleSpec.egalitarian_full_transfer(),
        RuleSpec.egalitarian_partial_transfer(),
        RuleSpec.shapley(),
        RuleSpec.compromise(draw(_GRID)),
        RuleSpec.partial_compromise(draw(_GRID)),
        RuleSpec.retention_rule(draw(st.lists(_GRID, min_size=n - 1, max_size=n - 1))),
    ]
    positions = st.integers(0, n - 2)
    instance = (draw(positions), draw(positions), draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3)))
    return inflows, observed, rules, instance


def _axiom_verdicts(inflows, rules, instance, k):
    """Per rule, the verdicts of the nine axiom checkers on instances built
    from the basin and scaled by 2^k: their profiles and the inflow increase
    scale, the scale factor and the positions do not."""
    position, other, delta, gamma = instance
    n = len(inflows)

    def scaled(values):
        return InflowProfile([math.ldexp(v, k) for v in values])

    e = scaled(inflows)
    increase = math.ldexp(delta, k)
    lone = scaled([0.0] * position + [1.0] + [0.0] * (n - 1 - position))
    # sources at `position` and `other` with the same inflow
    first = scaled([0.0] * position + [delta] + inflows[position + 1 :])
    second = scaled([0.0] * other + [delta] + inflows[::-1][other + 1 :])
    # the same own inflow at `position` and the upstream inflows reversed,
    # whose total `fsum` rounds the same
    reversed_upstream = scaled(inflows[:position][::-1] + inflows[position:])
    shapes = (Axiom.PROGRESSIVITY, Axiom.REGRESSIVITY, Axiom.BALANCE)
    return [
        (
            check_scale_invariance(rule, e, gamma),
            check_upstream_invariance(rule, e, position, increase),
            check_downstream_impartiality(rule, e, position, increase, strict=True),
            check_order_preservation(rule, e),
            # `check_source_shape` puts a unit inflow at the source; this is its check
            *[axioms._source_shape_profile_detail(rule, lone, position, shape) is None for shape in shapes],
            check_equal_treatment_source(rule, first, second),
            check_equal_treatment_upstream_total(rule, e, reversed_upstream, position),
        )
        for rule in rules
    ]


def _verdicts(inflows, observed, rules, instance, k):
    """On the basin scaled by 2^k: per rule, whether its output validates
    and whether a 1e-6-relative over-allocation does; per rule, the nine
    axiom verdicts; per family, the legitimacy classes."""
    e = InflowProfile([math.ldexp(v, k) for v in inflows])
    z = ObservedAllocation([math.ldexp(v, k) for v in observed])
    validations = []
    for rule in rules:
        x = rule.apply(e)
        over = x.amounts[:-1] + (x.amounts[-1] + 1e-6 * e.total,)
        validations.append((validate_allocation(e, x).ok, validate_allocation(e, over).ok))
    verdicts = _axiom_verdicts(inflows, rules, instance, k)
    legitimacy = [legitimacy_bounds(e, z, family).classifications for family in Family]
    return validations, verdicts, legitimacy


@settings(deadline=None, max_examples=30)
@given(unit_basins())
def test_verdicts_are_the_same_at_every_magnitude(basin):
    # powers of two scale exactly, so the verdicts must be equal, not close
    inflows, observed, rules, instance = basin
    unit = _verdicts(inflows, observed, rules, instance, 0)
    assert unit[0] == [(True, False)] * len(rules)
    for k in range(-960, 961, 40):
        assert _verdicts(inflows, observed, rules, instance, k) == unit, k
