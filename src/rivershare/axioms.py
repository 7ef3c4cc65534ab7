"""Executable fairness axioms for river allocation rules.

Each axiom is a predicate on one rule evaluation (or on a pair of related
evaluations).  The checkers here decide single instances, each returning
None or the violation's inputs, allocations and text.  One record per
axiom, in `_CASES`, holds its checker, the generator of random instances
that meet its hypothesis by construction, and its directed cases;
`run_axiom_suite` drives the checker over random instances, and
`find_counterexample` tries the directed cases before random ones.  Each
driver builds the Counterexample it keeps from the axiom and the label.

Arguments are checked once, where they enter: every entry point checks
the rule first, in `_as_rule`, then each `check_*` predicate the rest
before it applies the rule, and each driver its own (the rule's label, a
str; the axioms, counts, seed, `n_range` and `tol`) once per call, in
`_case` and `_run_range`.  A rule's output is not checked: the checkers
read its `amounts`, and `_rule_output_checked`, around all nine entry
points, turns a failed read into one ParameterError.  The `_*_detail`
checkers, the generators and `_first_mismatch` trust theirs: the
generators build valid instances, and the checkers only raise
HypothesisNotMet, for an instance that misses the axiom's hypothesis.

The random stream is a contract: the same arguments give the same
instances, verdicts and counterexamples in every process.  A suite keeps
one `random.Random` and reseeds it before each trial with the key string
`f"{seed}|{label}|{axiom}|{trial}|{attempt}"`, where label is the rule's
`label()`, axiom the axiom's value, and attempt counts the trial's
regenerations (0 unless a drawn instance missed the axiom's hypothesis).
The random phase of `find_counterexample` reseeds its one generator with
`f"{seed}|find|{label}|{axiom}|{trial}"`.  A reseed hands the C `seed` the
int `rng.seed(key)` makes (the key's bytes and their SHA-512 digest), without
random.py's wrapper, which also resets `gauss_next`, never set here.
Every draw is `_below(rng, n)`, the rejection sampling behind `randrange`,
`randint` and `choice`, or `rng.random()`; a uniform draw on [a, b) is
written out as `a + (b - a) * rng.random()`, which is what `uniform`
computes.  The golden tests in tests/test_axioms.py pin this stream.
"""

from __future__ import annotations

import _random
import enum
import functools
import math
import random
from collections.abc import Iterable
from operator import sub

from .core import (
    DimensionError,
    InflowProfile,
    ParameterError,
    RuleSpec,
    _agent_count_mismatch,
    _as_float,
    _as_tuple,
    _check_count,
    _check_int,
    _check_position,
    _checked_tolerance,
    _derived_profile,
    _int_text,
    _profile_of_floats,
    _Record,
    as_profile,
    source,
    tolerance_for,
)

if random._sha512 is None:  # Python 3.13 binds the hash `_draw` uses at the first string seed
    random.Random("")
# what `_draw` calls, bound once: the C `seed`, random.py's own SHA-512 (importing
# hashlib would map OpenSSL, 3.5 MB more RSS) and the int conversion
_seed = _random.Random.seed
_sha512 = random._sha512
_from_bytes = int.from_bytes


class Axiom(enum.Enum):
    SCALE_INVARIANCE = "scale-invariance"
    UPSTREAM_INVARIANCE = "upstream-invariance"
    DOWNSTREAM_IMPARTIALITY = "downstream-impartiality"
    ORDER_PRESERVATION = "order-preservation"
    PROGRESSIVITY = "progressivity"
    REGRESSIVITY = "regressivity"
    BALANCE = "balance"
    EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS = "equal-source-inflows"
    EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW = "equal-upstream-total-inflow"


class HypothesisNotMet(Exception):
    """The instance does not satisfy the axiom's hypothesis.

    Deliberately distinct from a False verdict: such instances say nothing
    about the rule and must not be counted either way.
    """


class Counterexample(_Record):
    """A concrete instance on which a rule violates an axiom."""

    __slots__ = _fields = ("axiom", "rule", "inputs", "allocations", "violation")

    def to_dict(self) -> dict:
        # the (name, value) pairs become objects; the inputs keep their values as given
        return {
            **_Record.to_dict(self),
            "inputs": dict(self.inputs),
            "allocations": {k: list(v) for k, v in self.allocations},
        }


class AxiomReport(_Record):
    """Tally of one rule checked against one axiom over many instances."""

    __slots__ = _fields = (
        "axiom", "rule", "trials", "violations", "rng_seed", "first_counterexample",
    )
    _defaults = {"first_counterexample": None}

    def __init__(self, *values, **named):
        _Record.__init__(self, *values, **named)
        if not 0 <= self.violations <= self.trials:
            raise ValueError("violations must lie in [0, trials]")
        if (self.first_counterexample is None) != (self.violations == 0):
            raise ValueError("counterexample must be present exactly when violations > 0")

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {**_Record.to_dict(self), "passed": self.passed}


def _lone_inflow(n: int, position: int, value: float) -> InflowProfile:
    return _profile_of_floats((0.0,) * position + (value,) + (0.0,) * (n - 1 - position))


def _first_mismatch(xs, ys, tol):
    """The first k with abs(xs[k] - ys[k]) > tol, with both values, or None.

    A NaN difference is no mismatch.  Up to the hundred agents or so of a
    usual suite, this plain walk is faster than a `max` pass in C
    builtins ahead of it.
    """
    for k, (a, b) in enumerate(zip(xs, ys)):
        if abs(a - b) > tol:
            return k, a, b
    return None


# ---------------------------------------------------------------------------
# single-instance checkers
#
# Each `_*_detail` function returns None on a pass and, on a failure, the
# violation's (inputs, allocations, text), from which the driver builds its
# Counterexample; the public predicates below check their arguments and
# test that against None.  A checker trusts its arguments: `e` (and
# `other`) an `InflowProfile`, positions in range, a scale factor or an
# inflow increase finite and > 0, and `tol` a checked float or None, which
# takes `tolerance_for` of the instance's own scale.  It still raises
# HypothesisNotMet, which is a property of the instance, not a bad argument.


def _as_rule(rule, pinned: bool = False) -> int | None:
    """Refuse a `rule` without a callable `apply` and `label`, or, when
    `pinned`, without the `fixed_agent_count` the caller reads and gets
    back: one ParameterError, not an AttributeError from the first trial."""
    if not (callable(getattr(rule, "apply", None)) and callable(getattr(rule, "label", None))
            and (not pinned or hasattr(rule, "fixed_agent_count"))):
        needs = "a callable apply and label" + (" and a fixed_agent_count" if pinned else "")
        hint = "; pass a RuleSpec or parse_rule(...)" if isinstance(rule, str) else ""
        raise ParameterError(f"a rule needs {needs}, got {rule!r}{hint}")
    return rule.fixed_agent_count if pinned else None


def _rule_output_checked(entry):
    """`entry`, one of the nine entry points, with one error translated: a
    checker's read of `.amounts` that fails on what a rule's `apply`
    returned (a list, a tuple, None) becomes one ParameterError.  Any other
    AttributeError, such as one raised inside a rule, propagates unchanged.
    It adds one call per entry-point call and nothing per trial."""

    @functools.wraps(entry)
    def checked(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        except AttributeError as exc:
            last = exc.__traceback__
            while last.tb_next is not None:
                last = last.tb_next
            if exc.name != "amounts" or last.tb_frame.f_globals is not globals():
                raise
            raise ParameterError(
                f"a rule's apply() must return an Allocation, got {type(exc.obj).__name__}"
            ) from None

    return checked


def _positive_finite(value, what: str) -> float:
    value = _as_float(value, ParameterError, what)
    if value <= 0:
        raise ParameterError(f"{what} must be > 0, got {value}")
    if not math.isfinite(value):
        raise ParameterError(f"{what} must be finite, got {value}")
    return value


def _scale_detail(rule: RuleSpec, e, gamma, tol=None) -> tuple | None:
    scaled = _derived_profile(e, None, gamma)
    if tol is None:
        tol = tolerance_for(max(e.total, scaled.total))
    base = rule.apply(e)
    left = rule.apply(scaled)
    right = [gamma * v for v in base.amounts]
    bad = _first_mismatch(left.amounts, right, tol)
    if bad is None:
        return None
    k, a, b = bad
    return (
        (("e", e.inflows), ("gamma", gamma)),
        (("on e", base.amounts), ("on gamma*e", left.amounts)),
        f"position {k}: rule on scaled profile gives {a}, scaling the rule output gives {b}",
    )


def _upstream_detail(rule: RuleSpec, e, position, delta, tol=None) -> tuple | None:
    bumped = _derived_profile(e, position, delta)
    if tol is None:
        tol = tolerance_for(bumped.total)
    base = rule.apply(e)
    after = rule.apply(bumped)
    # extra water entering at `position` must not change anybody upstream
    bad = _first_mismatch(base.amounts[:position], after.amounts[:position], tol)
    if bad is None:
        return None
    k, a, b = bad
    return (
        (("e", e.inflows), ("position", position), ("delta", delta)),
        (("before", base.amounts), ("after", after.amounts)),
        f"agent {k} is upstream of {position} but moved from {a} to {b}",
    )


def _downstream_detail(
    rule: RuleSpec, e, position, delta, tol=None, strict=False
) -> tuple | None:
    if not strict:
        # the inflows are finite, so `count`'s identity shortcut changes nothing
        tail = e.inflows[position + 1 :]
        if tail and tail.count(tail[0]) != len(tail):
            return None  # hypothesis not met: the claim is vacuous here
    bumped = _derived_profile(e, position, delta)
    if tol is None:
        tol = tolerance_for(bumped.total)
    base = rule.apply(e)
    after = rule.apply(bumped)
    gains = list(map(sub, after.amounts[position + 1 :], base.amounts[position + 1 :]))
    for k, g in enumerate(gains[1:], start=position + 2):
        if abs(g - gains[0]) > tol:
            return (
                (("e", e.inflows), ("position", position), ("delta", delta)),
                (("before", base.amounts), ("after", after.amounts)),
                f"downstream gains differ: agent {position + 1} gains {gains[0]}, "
                f"agent {k} gains {g}",
            )
    return None


_ORDER_HEAD = 2  # the agents whose pairs `_order_detail` checks one by one


def _order_detail(rule: RuleSpec, e, tol=None) -> tuple | None:
    """The first pair i < j, in (i, j) order, with e_i >= e_j but x_i < x_j - tol.

    The first `_ORDER_HEAD` agents' pairs are checked one by one, since a
    violating profile's first pair usually starts there; `_first_order_row`
    sweeps the rest.
    """
    if tol is None:
        tol = tolerance_for(e.total)
    x = rule.apply(e)
    inflows = e.inflows
    amounts = x.amounts
    n = len(inflows)
    head = min(_ORDER_HEAD, n - 1)
    for i in range(head):
        ei, xi = inflows[i], amounts[i]
        for j in range(i + 1, n):
            if ei >= inflows[j] and xi < amounts[j] - tol:
                return _order_violation(inflows, amounts, i, j)
    if head == n - 1:
        return None
    i = _first_order_row(inflows, amounts, tol, head)
    if i is None:
        return None
    ei, xi = inflows[i], amounts[i]
    j = next(j for j in range(i + 1, n) if ei >= inflows[j] and xi < amounts[j] - tol)
    return _order_violation(inflows, amounts, i, j)


def _first_order_row(inflows, amounts, tol, lo: int) -> int | None:
    """The first i >= lo with a j > i such that e_i >= e_j but x_i < x_j - tol.

    Swept from the mouth up to `lo`, a Fenwick tree over inflow ranks keeps
    the largest x_j - tol passed at each inflow or less; the last agent
    below one of those is the first i: O(n log n).
    """
    rank = {v: r for r, v in enumerate(sorted(set(inflows[lo:])), start=1)}
    size = len(rank)
    top = [-math.inf] * (size + 1)  # top[r]: the maximum over the ranks that r covers
    first = None
    for i in range(len(inflows) - 1, lo - 1, -1):
        r = k = rank[inflows[i]]
        xi = amounts[i]
        while k:
            if xi < top[k]:
                first = i
                break
            k &= k - 1
        value = xi - tol
        while r <= size:
            if top[r] < value:
                top[r] = value
            r += r & -r
    return first


def _order_violation(inflows, amounts, i: int, j: int) -> tuple:
    return (
        (("e", inflows),),
        (("allocation", amounts),),
        f"inflows e[{i}]={inflows[i]} >= e[{j}]={inflows[j]} "
        f"but assignments x[{i}]={amounts[i]} < x[{j}]={amounts[j]}",
    )


_SHAPES = (Axiom.PROGRESSIVITY, Axiom.REGRESSIVITY, Axiom.BALANCE)


def _source_shape_profile_detail(rule: RuleSpec, e, position, shape, tol=None) -> tuple | None:
    # e must have its only positive inflow at `position` (a non-terminal
    # agent), and `shape` must be one of `_SHAPES`
    if tol is None:
        tol = tolerance_for(e.total)
    x = rule.apply(e)
    downstream = x.amounts[position + 1 :]
    mean = math.fsum(downstream) / len(downstream)
    kept = x.amounts[position]
    if shape is Axiom.PROGRESSIVITY:
        ok = kept <= mean + tol
        relation = "<="
    elif shape is Axiom.REGRESSIVITY:
        ok = kept >= mean - tol
        relation = ">="
    else:
        ok = abs(kept - mean) <= tol
        relation = "=="
    if ok:
        return None
    return (
        (("e", e.inflows), ("position", position)),
        (("allocation", x.amounts),),
        f"source assignment {kept} {relation} downstream mean {mean} fails",
    )


def _equal_source_detail(rule: RuleSpec, e, other, tol=None) -> tuple | None:
    if tol is None:
        tol = tolerance_for(max(e.total, other.total))
    s1 = source(e)
    s2 = source(other)
    if s1 is None or s2 is None:
        raise HypothesisNotMet("both profiles need a source")
    if abs(e.inflows[s1] - other.inflows[s2]) > tol:
        raise HypothesisNotMet(f"source inflows differ: {e.inflows[s1]} vs {other.inflows[s2]}")
    x1 = rule.apply(e)
    x2 = rule.apply(other)
    if abs(x1.amounts[s1] - x2.amounts[s2]) <= tol:
        return None
    return (
        (("e", e.inflows), ("other", other.inflows), ("sources", (s1, s2))),
        (("on e", x1.amounts), ("on other", x2.amounts)),
        f"sources with equal inflow get {x1.amounts[s1]} vs {x2.amounts[s2]}",
    )


def _equal_upstream_total_detail(
    rule: RuleSpec, e, other, position, tol=None
) -> tuple | None:
    if tol is None:
        tol = tolerance_for(max(e.total, other.total))
    own1, own2 = e.inflows[position], other.inflows[position]
    pre1 = math.fsum(e.inflows[:position])
    pre2 = math.fsum(other.inflows[:position])
    if abs(own1 - own2) > tol:
        raise HypothesisNotMet(f"own inflows differ at {position}: {own1} vs {own2}")
    if abs(pre1 - pre2) > tol:
        raise HypothesisNotMet(f"upstream totals differ at {position}: {pre1} vs {pre2}")
    x1 = rule.apply(e)
    x2 = rule.apply(other)
    if abs(x1.amounts[position] - x2.amounts[position]) <= tol:
        return None
    return (
        (("e", e.inflows), ("other", other.inflows), ("position", position)),
        (("on e", x1.amounts), ("on other", x2.amounts)),
        f"agent {position} has equal own inflow and upstream total "
        f"yet gets {x1.amounts[position]} vs {x2.amounts[position]}",
    )


def _same_river(e, other) -> tuple[InflowProfile, InflowProfile]:
    e, other = as_profile(e), as_profile(other)
    if len(e) != len(other):
        raise DimensionError("both profiles must describe the same river")
    return e, other


@_rule_output_checked
def check_scale_invariance(rule: RuleSpec, e, gamma, tol=None) -> bool:
    """Does scaling all inflows by gamma scale the whole allocation by gamma?"""
    _as_rule(rule)
    e = as_profile(e)
    gamma = _positive_finite(gamma, "scale factor")
    return _scale_detail(rule, e, gamma, _checked_tolerance(tol)) is None


@_rule_output_checked
def check_upstream_invariance(rule: RuleSpec, e, position, delta, tol=None) -> bool:
    """Does extra inflow at `position` leave all upstream assignments alone?"""
    _as_rule(rule)
    e = as_profile(e)
    delta = _positive_finite(delta, "inflow increase")
    _check_position(position, len(e))
    return _upstream_detail(rule, e, position, delta, _checked_tolerance(tol)) is None


@_rule_output_checked
def check_downstream_impartiality(rule: RuleSpec, e, position, delta, tol=None, strict=False) -> bool:
    """Do all agents below `position` gain equally from extra inflow there?

    The hypothesis asks the downstream inflows to be pairwise equal;
    instances that fail it count as (vacuous) passes.  With strict=True the
    hypothesis is dropped and equal gains are demanded on every profile.
    The suites draw only instances that meet the hypothesis, and the
    search's directed cases that miss it pass vacuously, as here.
    """
    _as_rule(rule)
    e = as_profile(e)
    delta = _positive_finite(delta, "inflow increase")
    _check_position(position, len(e))
    return _downstream_detail(rule, e, position, delta, _checked_tolerance(tol), strict) is None


@_rule_output_checked
def check_order_preservation(rule: RuleSpec, e, tol=None) -> bool:
    """Does a weakly larger inflow upstream imply a weakly larger assignment?"""
    _as_rule(rule)
    return _order_detail(rule, as_profile(e), _checked_tolerance(tol)) is None


@_rule_output_checked
def check_source_shape(rule: RuleSpec, position, shape: Axiom, agent_count=None, tol=None) -> bool:
    """Compare the source's keep with the downstream mean on a unit inflow.

    `shape` selects the comparison: progressivity wants the source to keep at
    most the downstream mean, regressivity at least, balance exactly.  The
    profile is a unit inflow at `position` with nothing else entering.
    `agent_count` sizes the river for size-generic rules.
    """
    pinned = _as_rule(rule, True)
    n = pinned if agent_count is None else _check_count(agent_count, "agent_count")
    if n is None:
        raise DimensionError("agent_count is required for size-generic rules")
    if pinned not in (None, n):  # before the position, whose range depends on n
        raise _agent_count_mismatch(pinned, n)
    if not 0 <= _check_int(position, "position") < n - 1:
        raise ParameterError(
            f"source position must be a non-terminal agent (0..{n - 2}), got {_int_text(position)}"
        )
    tol = _checked_tolerance(tol)
    if shape not in _SHAPES:
        raise ParameterError(f"{shape} is not a source-shape axiom")
    # scale invariance makes a unit inflow sufficient
    e = _lone_inflow(n, position, 1.0)
    return _source_shape_profile_detail(rule, e, position, shape, tol) is None


@_rule_output_checked
def check_equal_treatment_source(rule: RuleSpec, e, other, tol=None) -> bool:
    """Must two sources with the same inflow be assigned the same amount?

    Raises HypothesisNotMet when either profile lacks a source or the source
    inflows differ.
    """
    _as_rule(rule)
    e, other = _same_river(e, other)
    return _equal_source_detail(rule, e, other, _checked_tolerance(tol)) is None


@_rule_output_checked
def check_equal_treatment_upstream_total(rule: RuleSpec, e, other, position, tol=None) -> bool:
    """Equal own inflow plus equal upstream total must mean an equal assignment.

    Raises HypothesisNotMet when the two profiles disagree at `position` or
    in their upstream sums.
    """
    _as_rule(rule)
    e, other = _same_river(e, other)
    tol = _checked_tolerance(tol)
    _check_position(position, len(e))
    return _equal_upstream_total_detail(rule, e, other, position, tol) is None


# ---------------------------------------------------------------------------
# randomized instance generation (the module docstring states the stream)


_MAGNITUDE = 1e6


def _below(rng: random.Random, n: int) -> int:
    """`rng.randrange(n)` for an int n >= 1: the same bits, drawn directly.

    Like `randrange`, it draws n.bit_length() bits (3 for n = 4) and draws
    again while the result is n or more.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_profile(rng: random.Random, n: int) -> InflowProfile:
    style = _below(rng, 4)
    random_ = rng.random
    if style == 0:
        values = [_MAGNITUDE * random_() for _ in range(n)]
    elif style == 1:
        values = [_MAGNITUDE * random_() if random_() < 0.4 else 0.0 for _ in range(n)]
    elif style == 2:
        values = [float(_below(rng, 1000)) for _ in range(n)]
    else:
        values = [random_() for _ in range(n)]
    return _profile_of_floats(tuple(values))


def _positive(rng: random.Random) -> float:
    """A draw on [1e-6, 1e6), as `rng.uniform(1e-6, 1e6)` computes it."""
    return 1e-6 + (_MAGNITUDE - 1e-6) * rng.random()


def _downstream_instance(rng: random.Random, n: int) -> tuple:
    random_ = rng.random
    position = _below(rng, n - 1)
    values = [_MAGNITUDE * random_() for _ in range(position + 1)]
    # choice([0.0, uniform(0, M)]) drew the uniform before the index
    drawn = _MAGNITUDE * random_()
    tail_value = drawn if _below(rng, 2) else 0.0
    values += [tail_value] * (n - position - 1)  # a constant tail: the hypothesis holds
    return _profile_of_floats(tuple(values)), position, _positive(rng)


def _order_instance(rng: random.Random, n: int) -> tuple:
    e = _random_profile(rng, n)
    if rng.random() < 0.5:
        # descending inflows constrain every pair of agents
        e = _profile_of_floats(tuple(sorted(e.inflows, reverse=True)))
    return (e,)


def _source_instance(rng: random.Random, n: int) -> tuple:
    position = _below(rng, n - 1)
    return _lone_inflow(n, position, _positive(rng)), position


def _with_random_tail(rng: random.Random, head: list[float], n: int) -> InflowProfile:
    """`head`, then draws on [0, 1e6) for the agents below it."""
    random_ = rng.random
    return _profile_of_floats(tuple(head + [_MAGNITUDE * random_() for _ in range(n - len(head))]))


def _equal_source_instance(rng: random.Random, n: int) -> tuple:
    v = _positive(rng)
    e = _with_random_tail(rng, [0.0] * _below(rng, n - 1) + [v], n)
    return e, _with_random_tail(rng, [0.0] * _below(rng, n - 1) + [v], n)


def _equal_upstream_total_instance(rng: random.Random, n: int) -> tuple:
    random_ = rng.random
    position = _below(rng, n)
    own = _MAGNITUDE * random_()
    head1 = [_MAGNITUDE * random_() for _ in range(position)]
    target = math.fsum(head1)
    head2 = [_MAGNITUDE * random_() for _ in range(position)]
    current = math.fsum(head2)
    if current > 0.0:
        head2 = [v * (target / current) for v in head2]
    else:
        head2 = head1  # cannot rescale an all-zero block
    e = _with_random_tail(rng, head1 + [own], n)
    return e, _with_random_tail(rng, head2 + [own], n), position


def _library_profiles(n: int) -> list[InflowProfile]:
    """The directed cases' profiles: a unit inflow at each agent, then a
    descending ramp and a constant profile."""
    units = [_lone_inflow(n, i, 1.0) for i in range(n)]
    ramp = _profile_of_floats(tuple(float(n - k) for k in range(n)))
    return units + [ramp, _profile_of_floats((1.0,) * n)]


# ---------------------------------------------------------------------------
# one record per axiom


class _Case(_Record):
    """One axiom: `generate(rng, n)` draws an instance for n agents, checked
    by `detail(rule, *instance, tol)`, and `directed(n, _library_profiles(n))`
    yields the search's fixed cases."""

    __slots__ = _fields = ("generate", "detail", "directed")


def _source_shape_case(shape: Axiom) -> _Case:
    return _Case(
        _source_instance,
        lambda rule, e, position, tol: _source_shape_profile_detail(rule, e, position, shape, tol),
        lambda n, profiles: ((profiles[position], position) for position in range(n - 1)),
    )


_CASES = {
    Axiom.SCALE_INVARIANCE: _Case(
        lambda rng, n: (_random_profile(rng, n), 10.0 ** (-3.0 + 6.0 * rng.random())),
        _scale_detail,
        lambda n, profiles: ((e, gamma) for e in profiles for gamma in (0.5, 2.0, 10.0)),
    ),
    Axiom.UPSTREAM_INVARIANCE: _Case(
        lambda rng, n: (_random_profile(rng, n), 1 + _below(rng, n - 1), _positive(rng)),
        _upstream_detail,
        lambda n, profiles: ((e, position, 1.0) for e in profiles for position in range(1, n)),
    ),
    Axiom.DOWNSTREAM_IMPARTIALITY: _Case(
        _downstream_instance, _downstream_detail,
        lambda n, profiles: ((e, position, 1.0) for e in profiles for position in range(n - 1)),
    ),
    Axiom.ORDER_PRESERVATION: _Case(
        _order_instance, _order_detail, lambda n, profiles: ((e,) for e in profiles)
    ),
    Axiom.PROGRESSIVITY: _source_shape_case(Axiom.PROGRESSIVITY),
    Axiom.REGRESSIVITY: _source_shape_case(Axiom.REGRESSIVITY),
    Axiom.BALANCE: _source_shape_case(Axiom.BALANCE),
    Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS: _Case(
        _equal_source_instance, _equal_source_detail,
        # unit inflows at two different non-terminal agents
        lambda n, profiles: (
            (profiles[a], profiles[b]) for a in range(n - 1) for b in range(n - 1) if a != b
        ),
    ),
    Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW: _Case(
        _equal_upstream_total_instance, _equal_upstream_total_detail,
        lambda n, profiles: (
            (profiles[a], profiles[b], position)
            for a in range(n - 1) for b in range(a + 1, n - 1) for position in range(b + 1, n)
        ),
    ),
}


def _case(axiom) -> _Case:
    """The record of `axiom`: the one place an unknown axiom is rejected."""
    try:
        return _CASES[axiom]
    except (KeyError, TypeError):
        raise ParameterError(f"unknown axiom {axiom!r}") from None


def _draw(rng: random.Random, key: str, generate, fixed_n, lo: int, hi: int) -> tuple:
    """Reseed `rng` with `key` as `rng.seed(key)` would, then draw n (unless
    the rule fixes it) and an instance for n agents."""
    b = key.encode()
    _seed(rng, _from_bytes(b + _sha512(b).digest(), "big"))
    return generate(rng, lo + _below(rng, hi - lo + 1) if fixed_n is None else fixed_n)


def _run_range(
    rule, trials, what: str, fewest: int, seed, n_range, tol
) -> tuple[str, int, int, float | None]:
    """Check a driver's arguments once per call: the label of `rule`, which
    must be a str; the trial count `trials`, named `what`, of at least
    `fewest`; the seed; `n_range`, the pair (lo, hi) of agent counts with
    2 <= lo <= hi; and `tol`.  Returns the label, lo, hi and the checked
    `tol`, or None for each instance's own `tolerance_for`.  The checkers
    trust all of them."""
    label = rule.label()
    if not isinstance(label, str):
        raise ParameterError(f"a rule's label() must return a str, got {label!r}")
    if _check_int(trials, what) < fewest:
        raise ParameterError(f"{what} must be >= {fewest}, got {_int_text(trials)}")
    _check_int(seed, "seed")
    try:
        lo, hi = n_range
    except (TypeError, ValueError):
        raise ParameterError(f"n_range must be a pair of agent counts, got {n_range!r}") from None
    _check_count(lo, "n_range start")
    _check_count(hi, "n_range end")
    if not 2 <= lo <= hi:
        raise ParameterError(f"invalid agent count range ({_int_text(lo)}, {hi})")
    return label, lo, hi, _checked_tolerance(tol)


@_rule_output_checked
def run_axiom_suite(
    rule: RuleSpec,
    axioms: Iterable[Axiom],
    trials: int,
    seed: int,
    n_range: tuple[int, int] = (2, 10),
    tol: float | None = None,
) -> list[AxiomReport]:
    """Check `rule` against each axiom on `trials` random conforming instances.

    Instances are generated per axiom so hypotheses hold by construction.
    Results are deterministic for a given seed.  Reports come back in the
    enum's declaration order with at most one stored counterexample each.
    """
    fixed_n = _as_rule(rule, True)
    requested = {
        axiom: _case(axiom)
        for axiom in _as_tuple(axioms, ParameterError, "axioms must be a collection of Axiom members")
    }
    if not requested:
        raise ParameterError("at least one axiom is required")
    label, lo, hi, tol = _run_range(rule, trials, "trials", 1, seed, n_range, tol)
    reports = []
    rng = random.Random()
    for axiom in Axiom:
        if axiom not in requested:
            continue
        case = requested[axiom]
        generate, detail = case.generate, case.detail
        key = f"{seed}|{label}|{axiom.value}|"
        violations = 0
        first = None
        for trial in range(trials):
            for attempt in range(64):
                instance = _draw(rng, f"{key}{trial}|{attempt}", generate, fixed_n, lo, hi)
                try:
                    violation = detail(rule, *instance, tol)
                except HypothesisNotMet:
                    continue  # regenerate; conforming generators make this rare
                break
            else:
                raise RuntimeError(f"could not generate a conforming instance for {axiom}")
            if violation is not None:
                violations += 1
                if first is None:
                    first = Counterexample(axiom, label, *violation)
        reports.append(
            AxiomReport(
                axiom=axiom,
                rule=label,
                trials=trials,
                violations=violations,
                rng_seed=seed,
                first_counterexample=first,
            )
        )
    return reports


@_rule_output_checked
def find_counterexample(
    rule: RuleSpec,
    axiom: Axiom,
    n_range: tuple[int, int] = (2, 10),
    seed: int = 0,
    random_trials: int = 2000,
    tol: float | None = None,
) -> Counterexample | None:
    """Search for an instance violating `axiom`, adversarial cases first.

    The directed phase walks a fixed library of profiles (single unit
    inflows, a descending ramp, a constant profile) that are the classic
    stress cases for these rules; the random phase reuses the suite
    generators.  Returns None when nothing is found.
    """
    fixed_n = _as_rule(rule, True)
    case = _case(axiom)
    label, lo, hi, tol = _run_range(rule, random_trials, "random_trials", 0, seed, n_range, tol)
    key = f"{seed}|find|{label}|{axiom.value}|"

    def instances():  # directed cases first; only a random phase builds a `Random`
        for n in range(lo, hi + 1) if fixed_n is None else (fixed_n,):
            yield from case.directed(n, _library_profiles(n))
        rng = random.Random()
        for trial in range(random_trials):
            yield _draw(rng, f"{key}{trial}", case.generate, fixed_n, lo, hi)

    for instance in instances():
        try:
            found = case.detail(rule, *instance, tol)
        except HypothesisNotMet:
            continue
        if found is not None:
            return Counterexample(axiom, label, *found)
    return None


# ---------------------------------------------------------------------------
# brute-force oracle for the retention family


def oracle_transfer_simulation(e, shares) -> tuple[float, ...]:
    """Evaluate the retention family by simulating the hand-offs directly.

    Walks the river once: each non-terminal agent banks its kept fraction
    and pushes the release downstream in equal portions; the terminal agent
    banks everything it sees.  It reads plain floats: `float()` of each
    inflow and share, with no other check, and calls nothing in core, so it
    stands apart from the closed-form kernel and the input checks it
    cross-checks.
    """
    e = [float(v) for v in e]
    shares = [float(a) for a in shares]
    n = len(e)
    if len(shares) + 1 != n:
        raise DimensionError(
            f"{len(shares)} retention shares imply {len(shares) + 1} agents, "
            f"but the profile has {n}"
        )
    banked = [0.0] * n
    for k in range(n):
        if k == n - 1:
            banked[k] += e[k]
            continue
        kept = shares[k] * e[k]
        banked[k] += kept
        portion = (e[k] - kept) / (n - 1 - k)
        for j in range(k + 1, n):
            banked[j] += portion
    return tuple(banked)
