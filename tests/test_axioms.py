"""Axiom checker, suite, and counterexample-search tests."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
import sys
import types

import pytest

from rivershare import axioms, core
from rivershare.axioms import (
    Axiom,
    AxiomReport,
    Counterexample,
    HypothesisNotMet,
    _CASES,
    _Case,
    _below,
    _draw,
    _first_mismatch,
    _order_detail,
    _upstream_detail,
    check_downstream_impartiality,
    check_equal_treatment_source,
    check_equal_treatment_upstream_total,
    check_order_preservation,
    check_scale_invariance,
    check_source_shape,
    check_upstream_invariance,
    find_counterexample,
    oracle_transfer_simulation,
    run_axiom_suite,
)
from rivershare.core import (
    DimensionError,
    ParameterError,
    RetentionShares,
    RuleSpec,
    parse_rule,
    retention_rule,
    tolerance_for,
)

from oracles import named_shares

STRUCTURAL = (Axiom.SCALE_INVARIANCE, Axiom.DOWNSTREAM_IMPARTIALITY, Axiom.UPSTREAM_INVARIANCE)


class TestScaleInvariance:
    def test_shapley_under_doubling(self):
        assert check_scale_invariance(RuleSpec.shapley(), (50, 30, 10, 10), 2.0)

    def test_identity_scaling(self):
        assert check_scale_invariance(RuleSpec.no_transfer(), (3, 1, 4), 1.0)

    def test_compromise_under_halving(self):
        assert check_scale_invariance(RuleSpec.compromise(0.3), (1, 2, 3), 0.5)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ParameterError):
            check_scale_invariance(RuleSpec.shapley(), (1, 2), 0.0)
        with pytest.raises(ParameterError):
            check_scale_invariance(RuleSpec.shapley(), (1, 2), -1.0)


@pytest.mark.parametrize(
    "gamma,message",
    [
        (math.nan, "scale factor must be finite, got nan"),
        (math.inf, "scale factor must be finite, got inf"),
        (-math.inf, "scale factor must be > 0, got -inf"),
        (0, "scale factor must be > 0, got 0.0"),
    ],
)
def test_scale_factor_is_checked_up_front(gamma, message):
    with pytest.raises(ParameterError) as caught:
        check_scale_invariance(RuleSpec.shapley(), (1, 2, 3), gamma)
    assert str(caught.value) == message


class TestUpstreamInvariance:
    def test_full_transfer_ignores_downstream_bump(self):
        assert check_upstream_invariance(RuleSpec.egalitarian_full_transfer(), (1, 1, 1, 1), 2, 5.0)

    def test_zero_profile(self):
        assert check_upstream_invariance(RuleSpec.shapley(), (0, 0, 0), 1, 1.0)

    def test_no_transfer_everywhere(self):
        for position in (1, 2, 3):
            assert check_upstream_invariance(RuleSpec.no_transfer(), (5, 3, 2, 8), position, 2.5)

    def test_position_out_of_range(self):
        with pytest.raises(DimensionError):
            check_upstream_invariance(RuleSpec.shapley(), (1, 2), 5, 1.0)

    def test_a_rule_that_moves_an_upstream_agent_is_caught(self):
        # no retention rule violates this axiom, so a stub does: every
        # agent gets the mean inflow
        class EqualSplit:
            fixed_agent_count = None

            def label(self) -> str:
                return "equal-split"

            def apply(self, e):
                return core.Allocation([e.total / len(e)] * len(e))

        assert not check_upstream_invariance(EqualSplit(), (3, 3, 3), 2, 3.0)
        # the checker trusts its arguments: the profile is an InflowProfile
        inputs, allocations, violation = _upstream_detail(EqualSplit(), core.InflowProfile((3, 3, 3)), 2, 3.0)
        assert inputs == (("e", (3.0, 3.0, 3.0)), ("position", 2), ("delta", 3.0))
        assert allocations == (("before", (3.0, 3.0, 3.0)), ("after", (4.0, 4.0, 4.0)))
        assert violation == "agent 0 is upstream of 2 but moved from 3.0 to 4.0"
        # a driver names the axiom and the rule on the record it builds
        found = find_counterexample(EqualSplit(), Axiom.UPSTREAM_INVARIANCE, (3, 3), random_trials=0)
        assert (found.axiom, found.rule) == (Axiom.UPSTREAM_INVARIANCE, "equal-split")


@pytest.mark.parametrize("check", [check_upstream_invariance, check_downstream_impartiality])
@pytest.mark.parametrize(
    "e,position,delta,message",
    [
        ((1, 2, 3), 1, math.nan, "inflow increase must be finite, got nan"),
        ((1, 2, 3), 1, math.inf, "inflow increase must be finite, got inf"),
        ((1, 2, 3), 1, -math.inf, "inflow increase must be > 0, got -inf"),
        ((1e308, 2, 2), 0, 1e308, "delta 1e+308 at position 0 makes the inflows overflow"),
    ],
)
def test_inflow_increase_is_checked_up_front(check, e, position, delta, message):
    with pytest.raises(ParameterError) as caught:
        check(RuleSpec.shapley(), e, position, delta)
    assert str(caught.value) == message


class TestDownstreamImpartiality:
    def test_shapley_equal_gains(self):
        assert check_downstream_impartiality(RuleSpec.shapley(), (5, 2, 2, 2), 0, 3.0)

    def test_full_transfer_equal_gains(self):
        assert check_downstream_impartiality(
            RuleSpec.egalitarian_full_transfer(), (5, 2, 2, 2), 0, 3.0
        )

    def test_no_transfer_zero_gains(self):
        assert check_downstream_impartiality(RuleSpec.no_transfer(), (1, 0, 0), 0, 1.0)

    def test_vacuous_on_unequal_tail(self):
        # hypothesis fails (tail 5 != 7), instance counts as a pass
        assert check_downstream_impartiality(RuleSpec.shapley(), (1, 5, 7), 0, 1.0)

    def test_strict_mode_holds_for_the_whole_family(self):
        # equal gains hold even without the constant-tail hypothesis: every
        # downstream agent receives the same split of the extra release
        rules = [
            RuleSpec.shapley(),
            RuleSpec.egalitarian_full_transfer(),
            RuleSpec.egalitarian_partial_transfer(),
            RuleSpec.compromise(0.42),
            RuleSpec.partial_compromise(0.17),
            RuleSpec.retention_rule((0.9, 0.1, 0.5, 0.3)),
        ]
        for rule in rules:
            assert check_downstream_impartiality(rule, (1, 5, 7, 2, 9), 1, 3.0, strict=True)

    def test_strict_mode_flags_what_the_hypothesis_excuses(self):
        # no retention rule fails strict mode, so a stub does: every agent
        # gets the total in proportion to its own inflow plus one, and the
        # downstream gains follow the unequal tail (2, 4, 1)
        class Proportional:
            def label(self) -> str:
                return "proportional"

            def apply(self, e):
                weights = [v + 1.0 for v in e.inflows]
                return core.Allocation([e.total * w / math.fsum(weights) for w in weights])

        e = (1.0, 2.0, 4.0, 1.0)
        assert check_downstream_impartiality(Proportional(), e, 0, 3.0)
        assert not check_downstream_impartiality(Proportional(), e, 0, 3.0, strict=True)
        # on a constant tail both modes check the same equal gains
        for strict in (False, True):
            assert check_downstream_impartiality(
                Proportional(), (1.0, 2.0, 2.0, 2.0), 0, 3.0, strict=strict
            )


def test_two_profiles_must_describe_the_same_river():
    for check in (check_equal_treatment_source, check_equal_treatment_upstream_total):
        args = (0,) if check is check_equal_treatment_upstream_total else ()
        with pytest.raises(DimensionError) as caught:
            check(RuleSpec.shapley(), (1, 2), (1, 2, 3), *args)
        assert str(caught.value) == "both profiles must describe the same river"


def test_a_pinned_rule_refuses_another_agent_count():
    rule = RuleSpec.retention_rule((0.5, 0.5))
    # in `RuleSpec.shares`' words, whatever the position: its range depends
    # on the count, so an out-of-range position must not hide the mismatch
    for position in (0, 3):
        with pytest.raises(DimensionError) as caught:
            check_source_shape(rule, position, Axiom.BALANCE, 4)
        assert str(caught.value) == "2 retention shares imply 3 agents, but the profile has 4"


class _RefusingRule:
    """A size-generic rule that records every profile it is given and fails
    the test if it is applied at all."""

    fixed_agent_count = None

    def __init__(self):
        self.applied = []

    def label(self) -> str:
        return "refusing"

    def apply(self, e):
        self.applied.append(e)
        raise AssertionError("the rule was applied before the arguments were checked")


_E3 = (1.0, 2.0, 2.0)
_PREDICATES = {  # each predicate on valid arguments, any of which a case replaces
    "scale": lambda rule, e=_E3, gamma=2.0, tol=None: check_scale_invariance(rule, e, gamma, tol),
    "upstream": lambda rule, e=_E3, position=1, delta=1.0, tol=None: (
        check_upstream_invariance(rule, e, position, delta, tol)
    ),
    "downstream": lambda rule, e=_E3, position=0, delta=1.0, tol=None: (
        check_downstream_impartiality(rule, e, position, delta, tol)
    ),
    "order": lambda rule, e=_E3, tol=None: check_order_preservation(rule, e, tol),
    "shape": lambda rule, position=0, tol=None: check_source_shape(rule, position, Axiom.BALANCE, 3, tol),
    "source": lambda rule, e=_E3, other=(2.0, 1.0, 0.0), tol=None: (
        check_equal_treatment_source(rule, e, other, tol)
    ),
    "upstream-total": lambda rule, e=_E3, other=(2.0, 1.0, 2.0), position=2, tol=None: (
        check_equal_treatment_upstream_total(rule, e, other, position, tol)
    ),
}
_NOT_A_VECTOR = "the inflow vector must be a sequence of numbers, not the str '12'"
_NEGATIVE = "inflow at position 0 must be >= 0, got -1.0"


def _bad_argument_cases():
    for name in _PREDICATES:
        if name != "shape":
            yield name, {"e": "12"}, core.RiverShareError, _NOT_A_VECTOR
            yield name, {"e": (-1.0, 2.0, 2.0)}, core.RiverShareError, _NEGATIVE
        yield name, {"tol": -1}, ParameterError, "tolerance must be finite and >= 0, got -1.0"
        yield name, {"tol": math.nan}, ParameterError, "tolerance must be finite and >= 0, got nan"
    for name, arg, what in [("scale", "gamma", "scale factor"), ("upstream", "delta", "inflow increase"),
                            ("downstream", "delta", "inflow increase")]:
        yield name, {arg: 0}, ParameterError, f"{what} must be > 0, got 0.0"
        yield name, {arg: -1}, ParameterError, f"{what} must be > 0, got -1.0"
        yield name, {arg: math.nan}, ParameterError, f"{what} must be finite, got nan"
        yield name, {arg: math.inf}, ParameterError, f"{what} must be finite, got inf"
        yield name, {arg: "x"}, ParameterError, f"{what} must be a number, got 'x'"
    for name in ("upstream", "downstream", "shape", "upstream-total"):
        yield name, {"position": 1.5}, ParameterError, "position must be an integer, got 1.5"
        for position in (3, -1):
            if name == "shape":
                message = f"source position must be a non-terminal agent (0..1), got {position}"
                yield name, {"position": position}, ParameterError, message
            else:
                message = f"position {position} out of range for n=3"
                yield name, {"position": position}, DimensionError, message
    for name in ("source", "upstream-total"):
        yield name, {"other": (1.0, 2.0)}, DimensionError, "both profiles must describe the same river"


@pytest.mark.parametrize("name,given,error,message", list(_bad_argument_cases()))
def test_each_predicate_checks_its_arguments_before_the_rule_runs(name, given, error, message):
    rule = _RefusingRule()
    with pytest.raises(error) as caught:
        _PREDICATES[name](rule, **given)
    assert (type(caught.value), str(caught.value)) == (error, message)
    assert rule.applied == []


@pytest.mark.parametrize("tol", [-1, math.nan, "x"])
def test_both_drivers_check_tol_before_the_rule_runs(tol):
    message = (
        "tolerance must be a number, got 'x'" if tol == "x"
        else f"tolerance must be finite and >= 0, got {float(tol)}"
    )
    for axiom in Axiom:
        for drive in (
            lambda rule: run_axiom_suite(rule, [axiom], 3, 0, tol=tol),
            lambda rule: find_counterexample(rule, axiom, random_trials=3, tol=tol),
        ):
            rule = _RefusingRule()
            with pytest.raises(ParameterError) as caught:
                drive(rule)
            assert str(caught.value) == message
            assert rule.applied == []


@pytest.mark.parametrize("count", [10**400, sys.maxsize + 1], ids=["10**400", "maxsize+1"])
def test_an_agent_count_range_past_the_index_range_is_one_error(count):
    # refused before a river is sized, so neither driver hangs or applies the rule
    bound = f"must be at most sys.maxsize = {sys.maxsize}"
    for n_range, end in (((2, count), "end"), ((count, count), "start")):
        for drive in (
            lambda rule: run_axiom_suite(rule, [Axiom.BALANCE], 3, 0, n_range),
            lambda rule: find_counterexample(rule, Axiom.BALANCE, n_range),
        ):
            rule = _RefusingRule()
            with pytest.raises(DimensionError) as caught:
                drive(rule)
            assert str(caught.value) == f"n_range {end} {bound}"
            assert rule.applied == []


_ENTRY_POINTS = {
    **_PREDICATES,
    "suite": lambda rule: run_axiom_suite(rule, list(Axiom), 3, 0),
    "search": lambda rule: find_counterexample(rule, Axiom.BALANCE, random_trials=3),
}


@pytest.mark.parametrize("rule", ["shapley", None, object()], ids=["str", "None", "object"])
@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_a_non_rule_is_one_parameter_error_at_every_entry_point(name, rule):
    with pytest.raises(ParameterError) as caught:
        _ENTRY_POINTS[name](rule)
    needs = "a callable apply and label"
    if name in ("shape", "suite", "search"):  # the entry points that read it
        needs += " and a fixed_agent_count"
    hint = "; pass a RuleSpec or parse_rule(...)" if isinstance(rule, str) else ""
    assert str(caught.value) == f"a rule needs {needs}, got {rule!r}{hint}"


class _NotAnAllocationRule:
    """A size-generic rule whose `apply` returns `kind` of the inflows (or
    None), not an Allocation."""

    fixed_agent_count = None

    def __init__(self, kind):
        self.kind = kind

    def label(self) -> str:
        return "not-an-allocation"

    def apply(self, e):
        return None if self.kind is None else self.kind(e.inflows)


_APPLYING_ENTRY_POINTS = {  # each applies the rule: the source predicate's profiles share a source inflow
    **_ENTRY_POINTS,
    "source": lambda rule: _PREDICATES["source"](rule, other=(0.0, 1.0, 5.0)),
}


@pytest.mark.parametrize("kind", [list, tuple, None], ids=["list", "tuple", "None"])
@pytest.mark.parametrize("name", list(_APPLYING_ENTRY_POINTS))
def test_a_rule_output_that_is_not_an_allocation_is_one_parameter_error(name, kind):
    with pytest.raises(ParameterError) as caught:
        _APPLYING_ENTRY_POINTS[name](_NotAnAllocationRule(kind))
    got = "NoneType" if kind is None else kind.__name__
    assert str(caught.value) == f"a rule's apply() must return an Allocation, got {got}"


def test_an_attribute_error_inside_a_rule_propagates_unchanged():
    class Broken(_NotAnAllocationRule):
        def apply(self, e):
            return e.amounts  # a profile has inflows, not amounts

    for entry in _APPLYING_ENTRY_POINTS.values():
        with pytest.raises(AttributeError, match="'InflowProfile' object has no attribute 'amounts'"):
            entry(Broken(None))


def test_a_rule_needs_a_fixed_agent_count_only_where_it_is_read():
    rule = _FixedRule((1.0, 2.0, 2.0))  # no fixed_agent_count
    assert _PREDICATES["order"](rule)
    for name in ("shape", "suite", "search"):
        with pytest.raises(ParameterError) as caught:
            _ENTRY_POINTS[name](rule)
        assert str(caught.value).startswith("a rule needs a callable apply and label and a fixed_agent_count")
    not_callable = types.SimpleNamespace(apply=RuleSpec.shapley().apply, label="shapley")
    with pytest.raises(ParameterError, match="^a rule needs a callable apply and label, got namespace"):
        _PREDICATES["order"](not_callable)


@pytest.mark.parametrize("label", [None, b"shapley", 3], ids=["None", "bytes", "int"])
@pytest.mark.parametrize("name", ["suite", "search"])
def test_each_driver_refuses_a_label_that_is_not_a_str(name, label):
    # the label keys the random stream and names the rule in every record
    rule = _RefusingRule()
    rule.label = lambda: label
    with pytest.raises(ParameterError) as caught:
        _ENTRY_POINTS[name](rule)
    assert str(caught.value) == f"a rule's label() must return a str, got {label!r}"
    assert rule.applied == []


def _plain_walk(xs, ys, tol):
    for k, (a, b) in enumerate(zip(xs, ys)):
        if abs(a - b) > tol:
            return k, a, b
    return None


class _GivenAmounts:
    """A rule whose outputs are given vectors of floats, NaN included, in
    turn: it skips `Allocation`'s checks, as a rule outside this package
    may."""

    def __init__(self, *outputs):
        self._outputs = itertools.cycle(outputs)

    def label(self) -> str:
        return "given"

    def apply(self, e):
        return types.SimpleNamespace(amounts=next(self._outputs))


def test_first_mismatch_matches_a_plain_walk():
    rng = random.Random("first mismatch")
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308]
    for case in range(3000):
        n = _below(rng, 8)
        xs = [rng.random() for _ in range(n)]
        ys = [x + (rng.random() - 0.5) * 1e-9 if _below(rng, 3) else rng.random() for x in xs]
        for values in (xs, ys):
            for _ in range(_below(rng, 3)):
                if values:
                    values[_below(rng, n)] = rng.choice(specials)
        tol = rng.choice([0.0, 1e-12, 1e-9, 0.5])
        assert _first_mismatch(xs, ys, tol) == _plain_walk(xs, ys, tol), (xs, ys, tol)
    # a stub rule's NaN amounts, through the two predicates that call it:
    # the first output is the rule's on e, the second on the scaled or bumped e
    e = core.InflowProfile((1.0, 2.0, 3.0))
    nan = math.nan
    outputs = [(nan, 1.0, 5.0), (1.0, nan, 5.0), (nan, nan, nan), (1.0, 2.0, 3.0), (2.0, 1.0, 3.0)]
    for before in outputs:
        for after in outputs:
            tol = tolerance_for(e.total)
            assert check_scale_invariance(_GivenAmounts(before, after), e, 1.0) is (
                _plain_walk(after, [1.0 * v for v in before], tol) is None
            )
            tol = tolerance_for(e.total + 1.0)
            assert check_upstream_invariance(_GivenAmounts(before, after), e, 2, 1.0) is (
                _plain_walk(before[:2], after[:2], tol) is None
            )


class TestOrderPreservation:
    def test_no_transfer_always(self):
        assert check_order_preservation(RuleSpec.no_transfer(), (50, 30, 10, 10))

    def test_shapley_fails_on_descending_profile(self):
        assert not check_order_preservation(RuleSpec.shapley(), (50, 30, 10, 10))

    def test_full_transfer_fails_with_two_agents(self):
        assert not check_order_preservation(RuleSpec.egalitarian_full_transfer(), (1, 0))


class _FixedRule:
    """A rule whose output is a given vector, whether feasible or not."""

    def __init__(self, amounts):
        self.amounts = amounts

    def label(self) -> str:
        return "fixed"

    def apply(self, e):
        return core.Allocation(self.amounts)


def _first_order_violation(inflows, amounts, tol):
    """The order-preservation violation of the first pair i < j in (i, j)
    order, found by trying every pair."""
    for i in range(len(inflows)):
        for j in range(i + 1, len(inflows)):
            if inflows[i] >= inflows[j] and amounts[i] < amounts[j] - tol:
                return (
                    f"inflows e[{i}]={inflows[i]} >= e[{j}]={inflows[j]} "
                    f"but assignments x[{i}]={amounts[i]} < x[{j}]={amounts[j]}"
                )
    return None


def _order_cases():
    rng = random.Random("order sweep")
    rules = [RuleSpec.shapley(), RuleSpec.no_transfer(), RuleSpec.egalitarian_full_transfer(),
             RuleSpec.compromise(0.5), RuleSpec.partial_compromise(0.3)]
    for case in range(3000):
        n = 2 + _below(rng, 39)
        if case % 3 == 0:  # many ties, -0.0 among them
            inflows = [float(_below(rng, 4)) or rng.choice([0.0, -0.0]) for _ in range(n)]
        else:
            inflows = [rng.random() for _ in range(n)]
        if case % 2 == 0:
            amounts = [float(_below(rng, 5)) if case % 4 == 0 else 3 * rng.random() for _ in range(n)]
            yield inflows, _FixedRule(amounts), rng.choice([0.0, 1e-9, 0.5, 1.0])
        else:
            yield inflows, rules[case % 5], None
    ascending = [float(k) for k in range(1000)]
    yield ascending, RuleSpec.no_transfer(), None
    yield ascending, _FixedRule([rng.random() for _ in range(1000)]), 0.25
    tied = [float(_below(rng, 50)) for _ in range(1000)]
    yield tied, _FixedRule([float(_below(rng, 100)) for _ in range(1000)]), 1e-9
    descending = sorted(tied, reverse=True)
    yield descending, RuleSpec.shapley(), None
    yield descending, RuleSpec.no_transfer(), None  # every pair constrained, none violated
    late = list(descending)
    late[900] = -1.0  # the first violating pair is (900, 901)
    yield descending, _FixedRule(late), None


def test_order_sweep_finds_the_pair_the_double_loop_finds(monkeypatch):
    cases = list(_order_cases())
    # no agent checked pair by pair before the sweep, the ones checked in
    # use, and every agent of the rivers up to 41 agents
    for head in (0, axioms._ORDER_HEAD, 40):
        monkeypatch.setattr(axioms, "_ORDER_HEAD", head)
        found = 0
        for inflows, rule, tol in cases:
            e = core.InflowProfile(inflows)
            amounts = rule.apply(e).amounts
            expected = _first_order_violation(
                e.inflows, amounts, tolerance_for(e.total) if tol is None else tol
            )
            violation = _order_detail(rule, e, tol)
            if expected is None:
                assert violation is None
            else:
                found += 1
                assert violation == ((("e", e.inflows),), (("allocation", amounts),), expected)
        assert 1000 < found < 3000  # both verdicts are well covered


class TestSourceShape:
    def test_shapley_balance_at_every_source(self):
        for n in range(2, 9):
            for position in range(n - 1):
                assert check_source_shape(RuleSpec.shapley(), position, Axiom.BALANCE, agent_count=n)

    def test_full_transfer_is_progressive(self):
        assert check_source_shape(RuleSpec.compromise(0.0), 0, Axiom.PROGRESSIVITY, agent_count=4)

    def test_no_transfer_is_regressive_not_progressive(self):
        assert check_source_shape(RuleSpec.no_transfer(), 0, Axiom.REGRESSIVITY, agent_count=4)
        assert not check_source_shape(RuleSpec.no_transfer(), 0, Axiom.PROGRESSIVITY, agent_count=4)
        assert not check_source_shape(RuleSpec.no_transfer(), 0, Axiom.BALANCE, agent_count=4)

    def test_retention_threshold_splits_progressive_from_regressive(self):
        # keeping at most 1/(n - position) of a lone inflow is progressive,
        # keeping at least that much is regressive; both exactly at balance
        n = 6
        for position in range(n - 1):
            threshold = 1.0 / (n - position)
            low = RetentionShares(tuple(threshold / 2 for _ in range(n - 1)))
            high = RetentionShares(tuple(min(1.0, threshold * 1.5) for _ in range(n - 1)))
            at = named_shares("shapley", n)
            assert check_source_shape(RuleSpec.retention_rule(low), position, Axiom.PROGRESSIVITY)
            assert check_source_shape(RuleSpec.retention_rule(high), position, Axiom.REGRESSIVITY)
            assert check_source_shape(RuleSpec.retention_rule(at), position, Axiom.BALANCE)

    def test_terminal_position_rejected(self):
        with pytest.raises(ParameterError):
            check_source_shape(RuleSpec.shapley(), 3, Axiom.BALANCE, agent_count=4)

    def test_agent_count_required_for_generic_rules(self):
        with pytest.raises(DimensionError):
            check_source_shape(RuleSpec.shapley(), 0, Axiom.BALANCE)

    def test_non_shape_axiom_rejected(self):
        with pytest.raises(ParameterError):
            check_source_shape(RuleSpec.shapley(), 0, Axiom.SCALE_INVARIANCE, agent_count=4)


class TestEqualTreatmentSource:
    def test_compromise_pays_sources_alike(self):
        for weight in (0.0, 0.3, 1.0):
            assert check_equal_treatment_source(
                RuleSpec.compromise(weight), (0, 4, 9, 0), (4, 1, 1, 1)
            )

    def test_shapley_pays_sources_by_position(self):
        assert not check_equal_treatment_source(RuleSpec.shapley(), (4, 0, 0, 0), (0, 4, 0, 0))

    def test_no_transfer_trivially(self):
        assert check_equal_treatment_source(RuleSpec.no_transfer(), (2, 7, 1), (0, 2, 5))

    def test_missing_source_is_not_a_verdict(self):
        with pytest.raises(HypothesisNotMet):
            check_equal_treatment_source(RuleSpec.shapley(), (0, 0, 9), (1, 0, 0))

    def test_unequal_source_inflows_are_not_a_verdict(self):
        with pytest.raises(HypothesisNotMet):
            check_equal_treatment_source(RuleSpec.shapley(), (1, 0, 0), (2, 0, 0))


class TestEqualTreatmentUpstreamTotal:
    def test_partial_compromise_sees_only_the_sum(self):
        for weight in (0.0, 0.4, 1.0):
            assert check_equal_treatment_upstream_total(
                RuleSpec.partial_compromise(weight), (3, 1, 5, 2), (1, 3, 5, 2), 2
            )

    def test_full_transfer_distinguishes_where_water_entered(self):
        assert not check_equal_treatment_upstream_total(
            RuleSpec.egalitarian_full_transfer(), (4, 0, 0, 0), (0, 4, 0, 0), 2
        )

    def test_no_transfer_trivially(self):
        assert check_equal_treatment_upstream_total(
            RuleSpec.no_transfer(), (9, 1, 2, 0), (2, 8, 2, 7), 2
        )

    def test_broken_hypothesis_is_not_a_verdict(self):
        with pytest.raises(HypothesisNotMet):
            check_equal_treatment_upstream_total(RuleSpec.no_transfer(), (1, 2, 3), (2, 2, 3), 2)
        with pytest.raises(HypothesisNotMet):
            check_equal_treatment_upstream_total(RuleSpec.no_transfer(), (1, 2, 3), (2, 1, 4), 2)


# ---------------------------------------------------------------------------
# oracle


class TestTransferSimulation:
    def test_matches_the_shapley_construction(self):
        x = oracle_transfer_simulation((50, 30, 10, 10), (0.25, 1 / 3, 0.5))
        assert list(x) == pytest.approx([12.5, 22.5, 27.5, 37.5], abs=1e-12)

    def test_zero_profile(self):
        assert list(oracle_transfer_simulation((0, 0, 0), (0.7, 0.2))) == [0.0, 0.0, 0.0]

    def test_matches_closed_form_on_random_instances(self):
        rng = random.Random("oracle-vs-closed-form")
        for _ in range(300):
            n = rng.randint(2, 9)
            e = tuple(rng.uniform(0, 1e6) for _ in range(n))
            shares = tuple(rng.random() for _ in range(n - 1))
            via_simulation = oracle_transfer_simulation(e, shares)
            via_formula = retention_rule(e, shares)
            tol = tolerance_for(sum(e))
            assert all(
                abs(a - b) <= tol for a, b in zip(via_simulation, via_formula)
            ), (e, shares)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            oracle_transfer_simulation((1, 2, 3), (0.5,))


# ---------------------------------------------------------------------------
# randomized suites


class TestRunAxiomSuite:
    def test_deterministic_for_a_seed(self):
        rule = RuleSpec.compromise(0.5)
        axioms = [Axiom.BALANCE, Axiom.SCALE_INVARIANCE]
        first = run_axiom_suite(rule, axioms, 200, seed=7)
        second = run_axiom_suite(rule, axioms, 200, seed=7)
        assert first == second

    def test_reports_in_declaration_order(self):
        reports = run_axiom_suite(RuleSpec.no_transfer(), list(Axiom), 50, seed=1)
        assert [r.axiom for r in reports] == list(Axiom)

    def test_empty_axiom_set_rejected(self):
        with pytest.raises(ParameterError):
            run_axiom_suite(RuleSpec.no_transfer(), [], 10, seed=0)

    def test_nonpositive_trials_rejected(self):
        with pytest.raises(ParameterError):
            run_axiom_suite(RuleSpec.no_transfer(), [Axiom.BALANCE], 0, seed=0)

    def test_violations_come_with_a_counterexample(self):
        (report,) = run_axiom_suite(RuleSpec.compromise(0.5), [Axiom.BALANCE], 500, seed=7)
        assert report.violations > 0
        assert report.first_counterexample is not None
        assert report.trials == 500
        assert not report.passed
        json.dumps(report.to_dict())  # serializable for machine output

    def test_a_violating_suite_builds_one_counterexample(self, monkeypatch):
        built = []

        class Counting(Counterexample):
            __slots__ = ()

            def __init__(self, *values):
                built.append(values[0])
                Counterexample.__init__(self, *values)

        monkeypatch.setattr(axioms, "Counterexample", Counting)
        (report,) = run_axiom_suite(RuleSpec.compromise(0.5), [Axiom.PROGRESSIVITY], 100, seed=12345)
        assert report.violations > 50
        assert built == [Axiom.PROGRESSIVITY]
        assert type(report.first_counterexample) is Counting

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            AxiomReport(Axiom.BALANCE, "nt", trials=10, violations=3, rng_seed=0)
        for violations in (-1, 11):
            with pytest.raises(ValueError, match=r"^violations must lie in \[0, trials\]$"):
                AxiomReport(Axiom.BALANCE, "nt", trials=10, violations=violations, rng_seed=0)
        counterexample = Counterexample(Axiom.BALANCE, "nt", (), (), "stub")
        present = r"^counterexample must be present exactly when violations > 0$"
        # every field by name, in any order, the counterexample given or defaulted
        for fields in (
            {"violations": 3},
            {"violations": 0, "first_counterexample": counterexample},
        ):
            with pytest.raises(ValueError, match=present):
                AxiomReport(rng_seed=0, trials=10, rule="nt", axiom=Axiom.BALANCE, **fields)
        for violations in (-1, 11):
            with pytest.raises(ValueError, match=r"^violations must lie in \[0, trials\]$"):
                AxiomReport(
                    first_counterexample=counterexample, violations=violations,
                    rng_seed=0, trials=10, rule="nt", axiom=Axiom.BALANCE,
                )
        report = AxiomReport(
            rng_seed=0, trials=10, violations=2, rule="nt", axiom=Axiom.BALANCE,
            first_counterexample=counterexample,
        )
        assert report == AxiomReport(Axiom.BALANCE, "nt", 10, 2, 0, counterexample)
        assert AxiomReport(axiom=Axiom.BALANCE, rule="nt", trials=10, violations=0, rng_seed=0) == (
            AxiomReport(Axiom.BALANCE, "nt", 10, 0, 0, None)
        )

    def test_suite_gives_up_after_64_regenerations(self, monkeypatch):
        attempts = []

        def never_conforms(rule, *instance):
            attempts.append(instance)
            raise HypothesisNotMet("never")

        case = _CASES[Axiom.BALANCE]
        monkeypatch.setitem(_CASES, Axiom.BALANCE, _Case(case.generate, never_conforms, case.directed))
        with pytest.raises(RuntimeError) as caught:
            run_axiom_suite(RuleSpec.shapley(), [Axiom.BALANCE], 5, seed=1)
        assert str(caught.value) == f"could not generate a conforming instance for {Axiom.BALANCE}"
        assert len(attempts) == 64

    def test_shapley_structural_axioms_and_balance(self):
        reports = run_axiom_suite(
            RuleSpec.shapley(), list(STRUCTURAL) + [Axiom.BALANCE], 1000, seed=11
        )
        assert all(r.violations == 0 for r in reports)

    @pytest.mark.parametrize("weight", [0.0, 0.3, 0.7, 1.0])
    def test_compromise_axioms(self, weight):
        reports = run_axiom_suite(
            RuleSpec.compromise(weight),
            list(STRUCTURAL) + [Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS],
            500,
            seed=11,
        )
        assert all(r.violations == 0 for r in reports)

    @pytest.mark.parametrize("weight", [0.0, 0.3, 0.7, 1.0])
    def test_partial_compromise_axioms(self, weight):
        reports = run_axiom_suite(
            RuleSpec.partial_compromise(weight),
            list(STRUCTURAL) + [Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW],
            500,
            seed=11,
        )
        assert all(r.violations == 0 for r in reports)

    def test_no_transfer_preserves_order(self):
        (report,) = run_axiom_suite(RuleSpec.no_transfer(), [Axiom.ORDER_PRESERVATION], 1000, seed=11)
        assert report.violations == 0

    def test_any_retention_rule_passes_structural_axioms(self):
        rng = random.Random("retention structural")
        for _ in range(5):
            n = rng.randint(2, 8)
            shares = RetentionShares(tuple(rng.random() for _ in range(n - 1)))
            reports = run_axiom_suite(RuleSpec.retention_rule(shares), STRUCTURAL, 300, seed=3)
            assert all(r.violations == 0 for r in reports), shares

    def test_pinned_rule_uses_its_own_size(self):
        rule = RuleSpec.retention_rule((0.5, 0.25))  # three agents
        reports = run_axiom_suite(rule, [Axiom.SCALE_INVARIANCE], 100, seed=5)
        assert reports[0].violations == 0


@pytest.mark.parametrize(
    "axioms", [["balance"], [Axiom.BALANCE, "bogus"], [Axiom.BALANCE, None], [[Axiom.BALANCE]]]
)
def test_suite_rejects_anything_but_axioms(axioms):
    with pytest.raises(ParameterError, match="unknown axiom"):
        run_axiom_suite(RuleSpec.shapley(), axioms, 10, seed=1)


def test_search_rejects_anything_but_axioms():
    with pytest.raises(ParameterError, match="unknown axiom 'balance'"):
        find_counterexample(RuleSpec.shapley(), "balance")


@pytest.mark.parametrize("n_range", [(5, 2), (1, 3), (0, 0)])
def test_search_checks_the_agent_count_range(n_range):
    with pytest.raises(ParameterError, match="invalid agent count range"):
        find_counterexample(RuleSpec.shapley(), Axiom.BALANCE, n_range=n_range)


@pytest.mark.parametrize("n_range", [(2, 3, 4), (2,), 5, None], ids=["triple", "single", "int", "None"])
def test_both_drivers_want_a_pair_of_agent_counts(n_range):
    message = f"^{re.escape(f'n_range must be a pair of agent counts, got {n_range!r}')}$"
    with pytest.raises(ParameterError, match=message):
        run_axiom_suite(RuleSpec.shapley(), [Axiom.BALANCE], 3, 0, n_range)
    with pytest.raises(ParameterError, match=message):
        find_counterexample(RuleSpec.shapley(), Axiom.BALANCE, n_range)


def test_trial_counts_have_a_floor():
    with pytest.raises(ParameterError, match="^trials must be >= 1, got 0$"):
        run_axiom_suite(RuleSpec.shapley(), [Axiom.BALANCE], 0, 0)
    with pytest.raises(ParameterError, match="^random_trials must be >= 0, got -5$"):
        find_counterexample(RuleSpec.shapley(), Axiom.BALANCE, random_trials=-5)
    # zero is the directed phase alone, which finds eft's balance failure
    assert find_counterexample(RuleSpec.egalitarian_full_transfer(), Axiom.BALANCE, random_trials=0)


_LONG_ALPHA = RuleSpec.retention_rule([k / 41 for k in range(1, 40)]).label()


@pytest.mark.parametrize(
    "key",
    [
        f"2024|nt|{Axiom.BALANCE.value}|0|0",
        f"7|compromise:0.3|{Axiom.SCALE_INVARIANCE.value}|39|1",
        f"{2**31 - 1}|{_LONG_ALPHA}|{Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS.value}|9999|63",
        f"9|find|shapley|{Axiom.ORDER_PRESERVATION.value}|1999",
        f"-3|find|{_LONG_ALPHA}|{Axiom.DOWNSTREAM_IMPARTIALITY.value}|0",
    ],
)
def test_reseed_gives_the_state_of_a_string_seed(key):
    # the suites and searches skip random.py's seed wrapper; the state must
    # still be the one seeding with the key string makes
    rng = random.Random("some earlier state")
    rng.random()
    state = _draw(rng, key, generate=lambda rng, n: rng.getstate(), fixed_n=2, lo=2, hi=2)
    assert state == random.Random(key).getstate()


def test_criterion_7_profiles_take_the_bulk_check(monkeypatch):
    # generated, derived and library profiles are all valid, so none may fall
    # back to the constructor or its entry-by-entry check
    def refuse(*args):
        raise AssertionError("a generated profile left the bulk check")

    monkeypatch.setattr(core, "_walk_floats", refuse)
    monkeypatch.setattr(core.InflowProfile, "__init__", refuse)
    pairs = [(RuleSpec.shapley(), list(STRUCTURAL) + [Axiom.BALANCE])]
    for w in (0.0, 0.3, 0.7, 1.0):
        pairs.append((RuleSpec.compromise(w), list(STRUCTURAL) + [Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS]))
        pairs.append(
            (RuleSpec.partial_compromise(w), list(STRUCTURAL) + [Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW])
        )
    pairs.append((RuleSpec.no_transfer(), [Axiom.ORDER_PRESERVATION]))
    for rule, axioms in pairs:
        assert all(r.passed for r in run_axiom_suite(rule, axioms, 200, seed=42))
    for rule, axiom in [
        (RuleSpec.shapley(), Axiom.ORDER_PRESERVATION),
        (RuleSpec.compromise(0.5), Axiom.BALANCE),
        (RuleSpec.egalitarian_full_transfer(), Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW),
        (RuleSpec.shapley(), Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS),
    ]:
        assert find_counterexample(rule, axiom, seed=42) is not None


# ---------------------------------------------------------------------------
# directed search


class TestFindCounterexample:
    @pytest.mark.parametrize(
        "rule,axiom",
        [
            (RuleSpec.shapley(), Axiom.ORDER_PRESERVATION),
            (RuleSpec.compromise(0.5), Axiom.BALANCE),
            (RuleSpec.egalitarian_full_transfer(), Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW),
            (RuleSpec.shapley(), Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS),
            (RuleSpec.egalitarian_full_transfer(), Axiom.ORDER_PRESERVATION),
            (RuleSpec.egalitarian_partial_transfer(), Axiom.ORDER_PRESERVATION),
            (RuleSpec.compromise(0.3), Axiom.ORDER_PRESERVATION),
            (RuleSpec.compromise(0.7), Axiom.ORDER_PRESERVATION),
            (RuleSpec.no_transfer(), Axiom.PROGRESSIVITY),
            (RuleSpec.no_transfer(), Axiom.BALANCE),
        ],
    )
    def test_finds_known_violations(self, rule, axiom):
        found = find_counterexample(rule, axiom)
        assert found is not None
        assert found.axiom is axiom
        assert found.rule == rule.label()
        json.dumps(found.to_dict())

    def test_mixed_retention_fails_equal_source_treatment(self):
        # two distinct retention shares at reachable source positions
        rule = RuleSpec.retention_rule((0.9, 0.1, 0.5))
        found = find_counterexample(rule, Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS)
        assert found is not None

    def test_no_find_for_satisfied_axiom(self):
        assert find_counterexample(RuleSpec.no_transfer(), Axiom.ORDER_PRESERVATION, random_trials=300) is None
        assert find_counterexample(RuleSpec.shapley(), Axiom.BALANCE, random_trials=300) is None


# ---------------------------------------------------------------------------
# golden stream
#
# A fixed matrix of suites and searches, pinned by SHA-256: the key-sorted
# JSON of the reports and counterexamples, and every profile the rule was
# applied to, in order.  The digests are those of generators that drew with
# `random.Random`'s own randrange, randint, choice and uniform, so they hold
# `_below` and the written-out uniform draws to the stdlib stream; a change
# to how instances are drawn, built or checked moves them.  The explicit
# tol of 1e-12 turns float noise into violations, so even the clean suites'
# counts depend on every value.

GOLDEN_RULES = (
    "nt",
    "shapley",
    "compromise:0.5",
    "partial:0.3",
    "alpha:0.9,0.1,0.5,0.3,0.25,0.75,0.0",
)
GOLDEN_SUITES = (  # (n_range, tol); rows 2 and 3 are one suite, and the digests hash both
    ((2, 10), None),
    ((2, 40), None),
    ((2, 40), None),
    ((2, 40), 1e-12),
)
GOLDEN_SUITE_DIGESTS = (
    "ed161ac52d23a11d3cbc53ed13973c8c4c2a10e2c99eea615187feb9263c229c",
    "32d9714ec40f5241d991c79bbf91a7a6158d3325a3c76d69d7c034e621cfa29b",
)
GOLDEN_FIND_DIGESTS = (
    "399b9d54791c7358d3d2ad9ed6068591434de8786ce6e744e14faad4dab075c6",
    "c6a9e8101af664d4cd9bb7e56cef102b132936d3f20a2f768f91332e8130ffc5",
)


class _RecordingRule:
    """A rule that hashes every profile it is applied to, in order."""

    def __init__(self, rule: RuleSpec):
        self._rule = rule
        self.fixed_agent_count = rule.fixed_agent_count
        self.applied = hashlib.sha256()

    def label(self) -> str:
        return self._rule.label()

    def apply(self, e):
        self.applied.update(repr(e.inflows).encode())
        return self._rule.apply(e)


def _json_digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_golden_suite_stream():
    records = []
    applied = hashlib.sha256()
    for label in GOLDEN_RULES:
        for n_range, tol in GOLDEN_SUITES:
            rule = _RecordingRule(parse_rule(label))
            reports = run_axiom_suite(rule, list(Axiom), 40, seed=2024, n_range=n_range, tol=tol)
            records.append([report.to_dict() for report in reports])
            applied.update(rule.applied.digest())
    assert (_json_digest(records), applied.hexdigest()) == GOLDEN_SUITE_DIGESTS


def test_golden_find_stream():
    records = []
    applied = hashlib.sha256()
    for label in GOLDEN_RULES:
        for axiom in Axiom:
            for tol in (None, 1e-12):
                rule = _RecordingRule(parse_rule(label))
                found = find_counterexample(rule, axiom, seed=9, random_trials=60, tol=tol)
                records.append(None if found is None else found.to_dict())
                applied.update(rule.applied.digest())
    assert (_json_digest(records), applied.hexdigest()) == GOLDEN_FIND_DIGESTS


@pytest.mark.parametrize(
    "rule,axiom,violations",
    [
        (RuleSpec.shapley(), Axiom.ORDER_PRESERVATION, 1802),
        (RuleSpec.compromise(0.5), Axiom.BALANCE, 1363),
        (RuleSpec.egalitarian_full_transfer(), Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW, 1139),
        (RuleSpec.shapley(), Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS, 1409),
    ],
)
def test_golden_violation_counts(rule, axiom, violations):
    # the four pairs the acceptance gate expects a counterexample for
    (report,) = run_axiom_suite(rule, [axiom], 2000, seed=42)
    assert report.violations == violations


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 1000, 2**31])
def test_below_draws_what_randrange_draws(n):
    ours, theirs = random.Random(f"below|{n}"), random.Random(f"below|{n}")
    for _ in range(200):
        assert _below(ours, n) == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()
