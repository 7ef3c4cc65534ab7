"""Executable fairness axioms for river allocation rules.

Each axiom is a predicate on one rule evaluation (or on a pair of related
evaluations).  The checkers here decide single instances; `run_axiom_suite`
drives them over randomized instances whose generators are built per axiom
so that hypotheses are satisfied by construction rather than by rejection
sampling, and `find_counterexample` searches a small adversarial library
before falling back to random search.

All randomness is derived from string-seeded generators keyed by
(seed, rule, axiom, trial), which keeps runs reproducible across processes.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Iterable

from .core import (
    Allocation,
    DimensionError,
    InflowProfile,
    ParameterError,
    RuleSpec,
    as_profile,
    as_retention,
    source,
    tolerance_for,
)


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


_SOURCE_SHAPES = (Axiom.PROGRESSIVITY, Axiom.REGRESSIVITY, Axiom.BALANCE)


class HypothesisNotMet(Exception):
    """The instance does not satisfy the axiom's hypothesis.

    Deliberately distinct from a False verdict: such instances say nothing
    about the rule and must not be counted either way.
    """


@dataclass(frozen=True)
class Counterexample:
    """A concrete instance on which a rule violates an axiom."""

    axiom: Axiom
    rule: str
    inputs: tuple[tuple[str, object], ...]
    allocations: tuple[tuple[str, tuple[float, ...]], ...]
    violation: str

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom.value,
            "rule": self.rule,
            "inputs": {k: v for k, v in self.inputs},
            "allocations": {k: list(v) for k, v in self.allocations},
            "violation": self.violation,
        }


@dataclass(frozen=True)
class AxiomReport:
    """Tally of one rule checked against one axiom over many instances."""

    axiom: Axiom
    rule: str
    trials: int
    violations: int
    rng_seed: int
    first_counterexample: Counterexample | None = None

    def __post_init__(self):
        if not 0 <= self.violations <= self.trials:
            raise ValueError("violations must lie in [0, trials]")
        if (self.first_counterexample is None) != (self.violations == 0):
            raise ValueError("counterexample must be present exactly when violations > 0")

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom.value,
            "rule": self.rule,
            "trials": self.trials,
            "violations": self.violations,
            "rng_seed": self.rng_seed,
            "passed": self.passed,
            "first_counterexample": (
                None if self.first_counterexample is None else self.first_counterexample.to_dict()
            ),
        }


def _first_mismatch(xs, ys, tol):
    for k, (a, b) in enumerate(zip(xs, ys)):
        if abs(a - b) > tol:
            return k, a, b
    return None


# ---------------------------------------------------------------------------
# single-instance checkers
#
# Each `_*_detail` function returns None on a pass and a Counterexample on a
# failure; the public predicates below collapse that to a boolean.


def _scale_detail(rule: RuleSpec, e, gamma, tol=None) -> Counterexample | None:
    e = as_profile(e)
    gamma = float(gamma)
    if gamma <= 0 or not math.isfinite(gamma):
        raise ParameterError(f"scale factor must be > 0, got {gamma}")
    scaled = e.scaled(gamma)
    if tol is None:
        tol = tolerance_for(max(e.total, scaled.total))
    base = rule.apply(e)
    left = rule.apply(scaled)
    right = [gamma * v for v in base]
    bad = _first_mismatch(left, right, tol)
    if bad is None:
        return None
    k, a, b = bad
    return Counterexample(
        Axiom.SCALE_INVARIANCE,
        rule.label(),
        (("e", e.inflows), ("gamma", gamma)),
        (("on e", base.amounts), ("on gamma*e", left.amounts)),
        f"position {k}: rule on scaled profile gives {a}, scaling the rule output gives {b}",
    )


def _inflow_increase(delta) -> float:
    delta = float(delta)
    if delta <= 0:
        raise ParameterError(f"inflow increase must be > 0, got {delta}")
    if not math.isfinite(delta):
        raise ParameterError(f"inflow increase must be finite, got {delta}")
    return delta


def _upstream_detail(rule: RuleSpec, e, position, delta, tol=None) -> Counterexample | None:
    e = as_profile(e)
    delta = _inflow_increase(delta)
    bumped = e.bumped(position, delta)
    if tol is None:
        tol = tolerance_for(bumped.total)
    base = rule.apply(e)
    after = rule.apply(bumped)
    # extra water entering at `position` must not change anybody upstream
    bad = _first_mismatch(base[:position], after[:position], tol)
    if bad is None:
        return None
    k, a, b = bad
    return Counterexample(
        Axiom.UPSTREAM_INVARIANCE,
        rule.label(),
        (("e", e.inflows), ("position", position), ("delta", delta)),
        (("before", base.amounts), ("after", after.amounts)),
        f"agent {k} is upstream of {position} but moved from {a} to {b}",
    )


def _tail_is_constant(e: InflowProfile, position: int) -> bool:
    tail = e.inflows[position + 1 :]
    return all(v == tail[0] for v in tail[1:]) if tail else True


def _downstream_detail(
    rule: RuleSpec, e, position, delta, tol=None, strict=False
) -> Counterexample | None:
    e = as_profile(e)
    delta = _inflow_increase(delta)
    if not 0 <= position < len(e):
        raise DimensionError(f"position {position} out of range for n={len(e)}")
    if not strict and not _tail_is_constant(e, position):
        return None  # hypothesis not met: the claim is vacuous here
    bumped = e.bumped(position, delta)
    if tol is None:
        tol = tolerance_for(bumped.total)
    base = rule.apply(e)
    after = rule.apply(bumped)
    gains = [after[k] - base[k] for k in range(position + 1, len(e))]
    for k, g in enumerate(gains[1:], start=position + 2):
        if abs(g - gains[0]) > tol:
            return Counterexample(
                Axiom.DOWNSTREAM_IMPARTIALITY,
                rule.label(),
                (("e", e.inflows), ("position", position), ("delta", delta)),
                (("before", base.amounts), ("after", after.amounts)),
                f"downstream gains differ: agent {position + 1} gains {gains[0]}, "
                f"agent {k} gains {g}",
            )
    return None


def _order_detail(rule: RuleSpec, e, tol=None) -> Counterexample | None:
    e = as_profile(e)
    if tol is None:
        tol = tolerance_for(e.total)
    x = rule.apply(e)
    n = len(e)
    for i in range(n):
        for j in range(i + 1, n):
            if e[i] >= e[j] and x[i] < x[j] - tol:
                return Counterexample(
                    Axiom.ORDER_PRESERVATION,
                    rule.label(),
                    (("e", e.inflows),),
                    (("allocation", x.amounts),),
                    f"inflows e[{i}]={e[i]} >= e[{j}]={e[j]} "
                    f"but assignments x[{i}]={x[i]} < x[{j}]={x[j]}",
                )
    return None


def _source_shape_profile_detail(rule: RuleSpec, e, position, shape, tol=None):
    # e must have its only positive inflow at `position` (a non-terminal agent)
    e = as_profile(e)
    if tol is None:
        tol = tolerance_for(e.total)
    x = rule.apply(e)
    downstream = x.amounts[position + 1 :]
    mean = math.fsum(downstream) / len(downstream)
    kept = x[position]
    if shape is Axiom.PROGRESSIVITY:
        ok = kept <= mean + tol
        relation = "<="
    elif shape is Axiom.REGRESSIVITY:
        ok = kept >= mean - tol
        relation = ">="
    elif shape is Axiom.BALANCE:
        ok = abs(kept - mean) <= tol
        relation = "=="
    else:
        raise ParameterError(f"{shape} is not a source-shape axiom")
    if ok:
        return None
    return Counterexample(
        shape,
        rule.label(),
        (("e", e.inflows), ("position", position)),
        (("allocation", x.amounts),),
        f"source assignment {kept} {relation} downstream mean {mean} fails",
    )


def _source_shape_detail(
    rule: RuleSpec, position, shape, agent_count=None, tol=None
) -> Counterexample | None:
    n = rule.fixed_agent_count or agent_count
    if n is None:
        raise DimensionError("agent_count is required for size-generic rules")
    if agent_count is not None and rule.fixed_agent_count not in (None, agent_count):
        raise DimensionError(
            f"rule is pinned to {rule.fixed_agent_count} agents, agent_count={agent_count} given"
        )
    if not 0 <= position < n - 1:
        raise ParameterError(
            f"source position must be a non-terminal agent (0..{n - 2}), got {position}"
        )
    values = [0.0] * n
    values[position] = 1.0  # scale invariance makes a unit inflow sufficient
    return _source_shape_profile_detail(rule, InflowProfile(tuple(values)), position, shape, tol)


def _equal_source_detail(rule: RuleSpec, e, other, tol=None) -> Counterexample | None:
    e = as_profile(e)
    other = as_profile(other)
    if len(e) != len(other):
        raise DimensionError("both profiles must describe the same river")
    if tol is None:
        tol = tolerance_for(max(e.total, other.total))
    s1 = source(e)
    s2 = source(other)
    if s1 is None or s2 is None:
        raise HypothesisNotMet("both profiles need a source")
    if abs(e[s1] - other[s2]) > tol:
        raise HypothesisNotMet(f"source inflows differ: {e[s1]} vs {other[s2]}")
    x1 = rule.apply(e)
    x2 = rule.apply(other)
    if abs(x1[s1] - x2[s2]) <= tol:
        return None
    return Counterexample(
        Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS,
        rule.label(),
        (("e", e.inflows), ("other", other.inflows), ("sources", (s1, s2))),
        (("on e", x1.amounts), ("on other", x2.amounts)),
        f"sources with equal inflow get {x1[s1]} vs {x2[s2]}",
    )


def _equal_upstream_total_detail(
    rule: RuleSpec, e, other, position, tol=None
) -> Counterexample | None:
    e = as_profile(e)
    other = as_profile(other)
    if len(e) != len(other):
        raise DimensionError("both profiles must describe the same river")
    if not 0 <= position < len(e):
        raise DimensionError(f"position {position} out of range for n={len(e)}")
    if tol is None:
        tol = tolerance_for(max(e.total, other.total))
    own1, own2 = e[position], other[position]
    pre1 = math.fsum(e.inflows[:position])
    pre2 = math.fsum(other.inflows[:position])
    if abs(own1 - own2) > tol:
        raise HypothesisNotMet(f"own inflows differ at {position}: {own1} vs {own2}")
    if abs(pre1 - pre2) > tol:
        raise HypothesisNotMet(f"upstream totals differ at {position}: {pre1} vs {pre2}")
    x1 = rule.apply(e)
    x2 = rule.apply(other)
    if abs(x1[position] - x2[position]) <= tol:
        return None
    return Counterexample(
        Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW,
        rule.label(),
        (("e", e.inflows), ("other", other.inflows), ("position", position)),
        (("on e", x1.amounts), ("on other", x2.amounts)),
        f"agent {position} has equal own inflow and upstream total "
        f"yet gets {x1[position]} vs {x2[position]}",
    )


def check_scale_invariance(rule: RuleSpec, e, gamma, tol=None) -> bool:
    """Does scaling all inflows by gamma scale the whole allocation by gamma?"""
    return _scale_detail(rule, e, gamma, tol) is None


def check_upstream_invariance(rule: RuleSpec, e, position, delta, tol=None) -> bool:
    """Does extra inflow at `position` leave all upstream assignments alone?"""
    return _upstream_detail(rule, e, position, delta, tol) is None


def check_downstream_impartiality(rule: RuleSpec, e, position, delta, tol=None, strict=False) -> bool:
    """Do all agents below `position` gain equally from extra inflow there?

    The hypothesis asks the downstream inflows to be pairwise equal;
    instances that fail it count as (vacuous) passes.  With strict=True the
    hypothesis is dropped and equal gains are demanded on every profile.
    """
    return _downstream_detail(rule, e, position, delta, tol, strict) is None


def check_order_preservation(rule: RuleSpec, e, tol=None) -> bool:
    """Does a weakly larger inflow upstream imply a weakly larger assignment?"""
    return _order_detail(rule, e, tol) is None


def check_source_shape(rule: RuleSpec, position, shape: Axiom, agent_count=None, tol=None) -> bool:
    """Compare the source's keep with the downstream mean on a unit inflow.

    `shape` selects the comparison: progressivity wants the source to keep at
    most the downstream mean, regressivity at least, balance exactly.  The
    profile is a unit inflow at `position` with nothing else entering.
    `agent_count` sizes the river for size-generic rules.
    """
    return _source_shape_detail(rule, position, shape, agent_count, tol) is None


def check_equal_treatment_source(rule: RuleSpec, e, other, tol=None) -> bool:
    """Must two sources with the same inflow be assigned the same amount?

    Raises HypothesisNotMet when either profile lacks a source or the source
    inflows differ.
    """
    return _equal_source_detail(rule, e, other, tol) is None


def check_equal_treatment_upstream_total(rule: RuleSpec, e, other, position, tol=None) -> bool:
    """Equal own inflow plus equal upstream total must mean an equal assignment.

    Raises HypothesisNotMet when the two profiles disagree at `position` or
    in their upstream sums.
    """
    return _equal_upstream_total_detail(rule, e, other, position, tol) is None


# ---------------------------------------------------------------------------
# randomized instance generation


_MAGNITUDE = 1e6


def _random_profile(rng: random.Random, n: int, magnitude=_MAGNITUDE) -> InflowProfile:
    style = rng.randrange(4)
    if style == 0:
        values = [rng.uniform(0.0, magnitude) for _ in range(n)]
    elif style == 1:
        values = [rng.uniform(0.0, magnitude) if rng.random() < 0.4 else 0.0 for _ in range(n)]
    elif style == 2:
        values = [float(rng.randrange(0, 1000)) for _ in range(n)]
    else:
        values = [rng.random() for _ in range(n)]
    return InflowProfile(tuple(values))


def _pick_n(rule: RuleSpec, rng: random.Random, n_range) -> int:
    if rule.fixed_agent_count is not None:
        return rule.fixed_agent_count
    lo, hi = n_range
    return rng.randint(lo, hi)


def _build_instance(axiom: Axiom, rule: RuleSpec, rng: random.Random, n_range) -> dict:
    n = _pick_n(rule, rng, n_range)
    if axiom is Axiom.SCALE_INVARIANCE:
        return {"e": _random_profile(rng, n), "gamma": 10.0 ** rng.uniform(-3.0, 3.0)}
    if axiom is Axiom.UPSTREAM_INVARIANCE:
        return {
            "e": _random_profile(rng, n),
            "position": rng.randint(1, n - 1),
            "delta": rng.uniform(1e-6, _MAGNITUDE),
        }
    if axiom is Axiom.DOWNSTREAM_IMPARTIALITY:
        position = rng.randint(0, n - 2)
        head = [rng.uniform(0.0, _MAGNITUDE) for _ in range(position + 1)]
        tail_value = rng.choice([0.0, rng.uniform(0.0, _MAGNITUDE)])
        values = head + [tail_value] * (n - position - 1)
        return {
            "e": InflowProfile(tuple(values)),
            "position": position,
            "delta": rng.uniform(1e-6, _MAGNITUDE),
        }
    if axiom is Axiom.ORDER_PRESERVATION:
        e = _random_profile(rng, n)
        if rng.random() < 0.5:
            # descending inflows constrain every pair of agents
            e = InflowProfile(tuple(sorted(e.inflows, reverse=True)))
        return {"e": e}
    if axiom in _SOURCE_SHAPES:
        position = rng.randint(0, n - 2)
        values = [0.0] * n
        values[position] = rng.uniform(1e-6, _MAGNITUDE)
        return {"e": InflowProfile(tuple(values)), "position": position, "shape": axiom}
    if axiom is Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS:
        v = rng.uniform(1e-6, _MAGNITUDE)

        def with_source(position):
            values = [0.0] * position + [v]
            values += [rng.uniform(0.0, _MAGNITUDE) for _ in range(n - position - 1)]
            return InflowProfile(tuple(values))

        return {
            "e": with_source(rng.randint(0, n - 2)),
            "other": with_source(rng.randint(0, n - 2)),
        }
    if axiom is Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW:
        position = rng.randint(0, n - 1)
        own = rng.uniform(0.0, _MAGNITUDE)
        head1 = [rng.uniform(0.0, _MAGNITUDE) for _ in range(position)]
        target = math.fsum(head1)
        head2 = [rng.uniform(0.0, _MAGNITUDE) for _ in range(position)]
        current = math.fsum(head2)
        if current > 0.0:
            head2 = [v * (target / current) for v in head2]
        else:
            head2 = list(head1)  # cannot rescale an all-zero block

        def complete(head):
            tail = [rng.uniform(0.0, _MAGNITUDE) for _ in range(n - position - 1)]
            return InflowProfile(tuple(head + [own] + tail))

        return {"e": complete(head1), "other": complete(head2), "position": position}
    raise ParameterError(f"unknown axiom {axiom!r}")


_DETAIL_CHECKERS = {
    Axiom.SCALE_INVARIANCE: _scale_detail,
    Axiom.UPSTREAM_INVARIANCE: _upstream_detail,
    Axiom.DOWNSTREAM_IMPARTIALITY: _downstream_detail,
    Axiom.ORDER_PRESERVATION: _order_detail,
    Axiom.PROGRESSIVITY: _source_shape_profile_detail,
    Axiom.REGRESSIVITY: _source_shape_profile_detail,
    Axiom.BALANCE: _source_shape_profile_detail,
    Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS: _equal_source_detail,
    Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW: _equal_upstream_total_detail,
}


def _run_one(axiom, rule, instance, tol, strict_impartiality):
    checker = _DETAIL_CHECKERS[axiom]
    if axiom is Axiom.DOWNSTREAM_IMPARTIALITY:
        return checker(rule, tol=tol, strict=strict_impartiality, **instance)
    return checker(rule, tol=tol, **instance)


def run_axiom_suite(
    rule: RuleSpec,
    axioms: Iterable[Axiom],
    trials: int,
    seed: int,
    n_range: tuple[int, int] = (2, 10),
    strict_impartiality: bool = False,
    tol: float | None = None,
) -> list[AxiomReport]:
    """Check `rule` against each axiom on `trials` random conforming instances.

    Instances are generated per axiom so hypotheses hold by construction.
    Results are deterministic for a given seed.  Reports come back in the
    enum's declaration order with at most one stored counterexample each.
    """
    requested = set(axioms)
    if not requested:
        raise ParameterError("at least one axiom is required")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    lo, hi = n_range
    if not 2 <= lo <= hi:
        raise ParameterError(f"invalid agent count range {n_range}")
    reports = []
    label = rule.label()
    for axiom in Axiom:
        if axiom not in requested:
            continue
        violations = 0
        first = None
        for trial in range(trials):
            counterexample = None
            for attempt in range(64):
                rng = random.Random(f"{seed}|{label}|{axiom.value}|{trial}|{attempt}")
                instance = _build_instance(axiom, rule, rng, n_range)
                try:
                    counterexample = _run_one(axiom, rule, instance, tol, strict_impartiality)
                except HypothesisNotMet:
                    continue  # regenerate; conforming generators make this rare
                break
            else:
                raise RuntimeError(f"could not generate a conforming instance for {axiom}")
            if counterexample is not None:
                violations += 1
                if first is None:
                    first = counterexample
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


# ---------------------------------------------------------------------------
# directed counterexample search


def _library_profiles(n: int) -> list[InflowProfile]:
    out = []
    for i in range(n):
        values = [0.0] * n
        values[i] = 1.0
        out.append(InflowProfile(tuple(values)))  # single unit inflow at i
    out.append(InflowProfile(tuple(float(n - k) for k in range(n))))  # descending ramp
    out.append(InflowProfile((1.0,) * n))  # constant
    return out


def _directed_instances(axiom: Axiom, rule: RuleSpec, n_range) -> Iterable[dict]:
    if rule.fixed_agent_count is not None:
        sizes = [rule.fixed_agent_count]
    else:
        lo, hi = n_range
        sizes = list(range(lo, hi + 1))
    for n in sizes:
        profiles = _library_profiles(n)
        if axiom is Axiom.SCALE_INVARIANCE:
            for e in profiles:
                for gamma in (0.5, 2.0, 10.0):
                    yield {"e": e, "gamma": gamma}
        elif axiom is Axiom.UPSTREAM_INVARIANCE:
            for e in profiles:
                for position in range(1, n):
                    yield {"e": e, "position": position, "delta": 1.0}
        elif axiom is Axiom.DOWNSTREAM_IMPARTIALITY:
            for e in profiles:
                for position in range(n - 1):
                    if _tail_is_constant(e, position):
                        yield {"e": e, "position": position, "delta": 1.0}
        elif axiom is Axiom.ORDER_PRESERVATION:
            for e in profiles:
                yield {"e": e}
        elif axiom in _SOURCE_SHAPES:
            for position in range(n - 1):
                values = [0.0] * n
                values[position] = 1.0
                yield {"e": InflowProfile(tuple(values)), "position": position, "shape": axiom}
        elif axiom is Axiom.EQUAL_TREATMENT_EQUAL_SOURCE_INFLOWS:
            units = _library_profiles(n)[: n - 1]  # unit inflows at non-terminal spots
            for a, e in enumerate(units):
                for b, other in enumerate(units):
                    if a != b:
                        yield {"e": e, "other": other}
        elif axiom is Axiom.EQUAL_TREATMENT_EQUAL_UPSTREAM_TOTAL_INFLOW:
            units = _library_profiles(n)[:n]
            for a in range(n - 1):
                for b in range(a + 1, n - 1):
                    for position in range(b + 1, n):
                        yield {"e": units[a], "other": units[b], "position": position}
        else:
            raise ParameterError(f"unknown axiom {axiom!r}")


def find_counterexample(
    rule: RuleSpec,
    axiom: Axiom,
    n_range: tuple[int, int] = (2, 10),
    seed: int = 0,
    random_trials: int = 2000,
    tol: float | None = None,
    strict_impartiality: bool = False,
) -> Counterexample | None:
    """Search for an instance violating `axiom`, adversarial cases first.

    The directed phase walks a fixed library of profiles (single unit
    inflows, a descending ramp, a constant profile) that are the classic
    stress cases for these rules; the random phase reuses the suite
    generators.  Returns None when nothing is found.
    """
    for instance in _directed_instances(axiom, rule, n_range):
        try:
            found = _run_one(axiom, rule, instance, tol, strict_impartiality)
        except HypothesisNotMet:
            continue
        if found is not None:
            return found
    label = rule.label()
    for trial in range(random_trials):
        rng = random.Random(f"{seed}|find|{label}|{axiom.value}|{trial}")
        instance = _build_instance(axiom, rule, rng, n_range)
        try:
            found = _run_one(axiom, rule, instance, tol, strict_impartiality)
        except HypothesisNotMet:
            continue
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# brute-force oracle for the retention family


def oracle_transfer_simulation(e, shares) -> Allocation:
    """Evaluate the retention family by simulating the hand-offs directly.

    Walks the river once: each non-terminal agent banks its kept fraction
    and pushes the release downstream in equal portions; the terminal agent
    banks everything it sees.  Intentionally independent of the closed-form
    evaluation in core so the two can cross-check each other.
    """
    e = as_profile(e)
    shares = as_retention(shares)
    n = len(e)
    if shares.agent_count != n:
        raise DimensionError(
            f"{len(shares)} retention shares imply {shares.agent_count} agents, "
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
    return Allocation(tuple(banked))
