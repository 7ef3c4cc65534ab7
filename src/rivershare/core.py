"""Domain types and allocation rules for sharing water along a linear river.

Agents sit on a line and are indexed 0..n-1 from the most upstream agent to
the river mouth.  An inflow profile records how much water enters the river
on each agent's territory.  An allocation assigns water rights subject to
two physical constraints: the whole aggregate inflow is distributed
(non-wastefulness), and no upstream group of agents is assigned more water
than has entered the river up to its last member (feasibility, because
water only flows downstream).

Every rule in this module is a member of one linear family, the retention
rule: each non-terminal agent keeps a share of its own inflow and splits the
rest equally among the agents downstream.  A `RuleSpec` names a rule and
owns its text form (`label`, with `parse_rule` as the inverse) and its share
vector (`shares(n)`); one kernel evaluates every rule from that vector.  Rule
outputs satisfy both constraints by construction and are still checked, in
the same pass that builds them: the kernel's loop keeps the feasibility
prefix sums, and one `min` and one `fsum` of the result finish the check.  A
valid result becomes an `Allocation` without being converted or checked
again; any other goes through the checker `validate_allocation` uses, which
names the first violated constraint.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

RELATIVE_TOLERANCE = 1e-9
TOLERANCE_FLOOR = 1e-12


class RiverShareError(ValueError):
    """Base class for domain errors raised by this package."""


class DimensionError(RiverShareError):
    """Vector lengths are unusable: too short, or mutually inconsistent."""


class ParameterError(RiverShareError):
    """A rule or family parameter is outside its legal range."""


class AllocationError(RiverShareError):
    """A candidate allocation violates non-wastefulness or feasibility."""


def tolerance_for(scale: float) -> float:
    """Default comparison tolerance for quantities of the given magnitude."""
    return max(RELATIVE_TOLERANCE * abs(scale), TOLERANCE_FLOOR)


def _as_floats(values: Iterable[float], what: str) -> tuple[float, ...]:
    out = []
    for k, v in enumerate(values):
        f = float(v)
        if not math.isfinite(f):
            raise RiverShareError(f"{what} at position {k} must be finite, got {v!r}")
        out.append(f)
    return tuple(out)


class _FloatVector:
    """Read-only sequence behaviour shared by the frozen float-vector types.

    A subclass names the dataclass field that holds its tuple, as in
    `class Allocation(_FloatVector, values="amounts")`, and its
    `__post_init__` calls `_coerce` to store that field as finite floats.
    The tuple is also kept under the common name `_values`, outside the
    dataclass fields, so element access costs no more than the field's own.
    """

    def __init_subclass__(cls, values: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._field = values

    @classmethod
    def _of_checked(cls, values: tuple[float, ...]):
        """An instance holding `values`, a tuple of finite floats the caller
        has already checked.  `__post_init__` does not run, so this is only
        for a type whose one field is its vector."""
        self = object.__new__(cls)
        self._store(values)
        return self

    def _store(self, values: tuple[float, ...]) -> None:
        object.__setattr__(self, self._field, values)
        object.__setattr__(self, "_values", values)

    def _coerce(self, what: str) -> tuple[float, ...]:
        values = _as_floats(getattr(self, self._field), what)
        self._store(values)
        return values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, k: int) -> float:
        return self._values[k]

    def __iter__(self):
        return iter(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)


@dataclass(frozen=True)
class InflowProfile(_FloatVector, values="inflows"):
    """Per-agent inflows, most upstream first.  Needs n >= 2, entries >= 0."""

    inflows: tuple[float, ...]
    _total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # accept the common case in one pass of C builtins: a finite fsum
        # means every entry is finite and the total does not overflow
        items = tuple(self.inflows)
        try:
            values = tuple(map(float, items))
            total = math.fsum(values)
        except (TypeError, ValueError, OverflowError):
            total = math.nan
        if math.isfinite(total) and len(values) >= 2 and min(values) >= 0.0:
            self._store(values)
        else:
            # something is off: the entry-by-entry checks name it
            object.__setattr__(self, "inflows", items)
            total = self._checked_total()
        object.__setattr__(self, "_total", total)

    def _checked_total(self) -> float:
        values = self._coerce("inflow")
        if len(values) < 2:
            raise DimensionError(
                f"an inflow profile needs at least two agents, got {len(values)}"
            )
        for k, v in enumerate(values):
            if v < 0.0:
                raise RiverShareError(f"inflow at position {k} must be >= 0, got {v}")
        # the entries are finite, so fsum either returns a finite total or
        # raises on overflow
        try:
            return math.fsum(values)
        except OverflowError:
            raise RiverShareError(
                "total inflow is too large to represent as a float"
            ) from None

    @property
    def total(self) -> float:
        return self._total

    def scaled(self, factor: float) -> "InflowProfile":
        if factor < 0:
            raise ParameterError(f"scale factor must be >= 0, got {factor}")
        if not math.isfinite(factor):
            raise ParameterError(f"scale factor must be finite and >= 0, got {factor}")
        return _derived_profile(tuple(v * factor for v in self.inflows), f"scale factor {factor}")

    def bumped(self, position: int, delta: float) -> "InflowProfile":
        """Copy with `delta` added to the inflow at `position`."""
        if not 0 <= position < len(self.inflows):
            raise DimensionError(f"position {position} out of range for n={len(self)}")
        if not math.isfinite(delta):
            raise ParameterError(f"delta must be finite, got {delta}")
        values = list(self.inflows)
        values[position] += delta
        return _derived_profile(tuple(values), f"delta {delta} at position {position}")


def _derived_profile(values: tuple[float, ...], cause: str) -> InflowProfile:
    """The profile of `values`, made from a valid profile by the finite
    change that `cause` names.

    The old entries and the change were finite, so a rejected profile with
    no negative entry overflowed, and the error names the change.
    """
    try:
        return InflowProfile(values)
    except RiverShareError:
        if min(values) >= 0.0:
            raise ParameterError(f"{cause} makes the inflows overflow") from None
        raise


def as_profile(e) -> InflowProfile:
    if isinstance(e, InflowProfile):
        return e
    return InflowProfile(tuple(e))


@dataclass(frozen=True)
class Allocation(_FloatVector, values="amounts"):
    """Water rights per agent.  Produced by rules; validated against a profile."""

    amounts: tuple[float, ...]

    def __post_init__(self):
        self._coerce("amount")


@dataclass(frozen=True)
class ObservedAllocation(_FloatVector, values="amounts"):
    """An observed division of the water, e.g. measured withdrawals.

    Unlike Allocation it carries no feasibility promise; observed behaviour
    may well violate it.  Entries must be non-negative.
    """

    amounts: tuple[float, ...]

    def __post_init__(self):
        values = self._coerce("observed amount")
        for k, v in enumerate(values):
            if v < 0.0:
                raise RiverShareError(f"observed amount at position {k} must be >= 0, got {v}")


def as_observed(z) -> ObservedAllocation:
    if isinstance(z, ObservedAllocation):
        return z
    if isinstance(z, Allocation):
        return ObservedAllocation(z.amounts)
    return ObservedAllocation(tuple(z))


@dataclass(frozen=True)
class ValidationResult:
    """Boolean verdict plus the first violated constraint, if any."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_allocation(e, x, tol: float | None = None) -> ValidationResult:
    """Check non-negativity, non-wastefulness and cumulative feasibility.

    Returns a truthy ValidationResult when all constraints hold within the
    tolerance; otherwise the result is falsy and names the first violation.
    """
    e = as_profile(e)
    amounts = x.amounts if isinstance(x, (Allocation, ObservedAllocation)) else _as_floats(x, "amount")
    if len(amounts) != len(e):
        raise DimensionError(
            f"allocation has {len(amounts)} entries but the profile has {len(e)}"
        )
    if tol is None:
        tol = tolerance_for(e.total)
    reason = _violation(e, amounts, tol)
    return ValidationResult(reason is None, reason)


def _violation(e: InflowProfile, amounts: tuple[float, ...], tol: float) -> str | None:
    """The first constraint that `amounts` violates against `e`, or None.

    The checks run in the order negative amount, non-wastefulness,
    feasibility.  `amounts` must be finite.
    """
    if min(amounts) < -tol:
        for k, v in enumerate(amounts):
            if v < -tol:
                return f"negative amount {v} at position {k}"
    allocated = math.fsum(amounts)
    inflow = e.total
    if abs(allocated - inflow) > tol:
        return f"non-wastefulness: allocated total {allocated} differs from inflow total {inflow}"
    # water cannot flow upstream: every prefix is capped by what has entered
    inflows = e.inflows
    prefix_x = 0.0
    prefix_e = 0.0
    for k in range(len(inflows) - 1):
        prefix_x += amounts[k]
        prefix_e += inflows[k]
        if prefix_x > prefix_e + tol:
            return (
                f"cumulative feasibility at position {k}: "
                f"first {k + 1} agents get {prefix_x} but only {prefix_e} has entered"
            )
    return None


def _finalize(e: InflowProfile, raw: list[float]) -> Allocation:
    """Accept or reject a rule output that the kernel's one pass did not accept."""
    tol = tolerance_for(e.total)
    if min(raw) < 0.0:
        # clamp float wobble in (-tol, 0) to exactly 0
        raw = [0.0 if -tol < v < 0.0 else v for v in raw]
    amounts = tuple(raw)
    if not all(map(math.isfinite, amounts)):
        _as_floats(amounts, "amount")  # raises, naming the first bad entry
    reason = _violation(e, amounts, tol)
    if reason is not None:
        raise AllocationError(f"rule produced an invalid allocation: {reason}")
    return Allocation._of_checked(amounts)


# ---------------------------------------------------------------------------
# allocation rules


def no_transfer(e) -> Allocation:
    """Every agent keeps exactly its own inflow (absolute sovereignty)."""
    return _NO_TRANSFER.apply(e)


def egalitarian_full_transfer(e) -> Allocation:
    """Each inflow is split equally among the agents strictly downstream.

    The most upstream agent receives nothing; the terminal agent keeps its
    own inflow on top of the shares it receives.
    """
    return _EGALITARIAN_FULL_TRANSFER.apply(e)


def shapley(e) -> Allocation:
    """Each inflow is split equally among its owner and all downstream agents."""
    return _SHAPLEY.apply(e)


def egalitarian_partial_transfer(e) -> Allocation:
    """Each agent transfers an equal part of its inflow to every downstream agent.

    Agent i keeps i/(n-1) of its own inflow and receives 1/(n-1) of every
    upstream inflow.
    """
    return _EGALITARIAN_PARTIAL_TRANSFER.apply(e)


def _check_weight(weight: float, kind: RuleKind) -> float:
    weight = float(weight)
    if not (0.0 <= weight <= 1.0) or not math.isfinite(weight):
        raise ParameterError(f"{kind.value} weight must lie in [0, 1], got {weight}")
    return weight


def compromise(e, weight: float) -> Allocation:
    """Convex mix: `weight` on keeping own inflow, the rest on full transfer."""
    return RuleSpec.compromise(weight).apply(e)


def partial_compromise(e, weight: float) -> Allocation:
    """Convex mix: `weight` on keeping own inflow, the rest on partial transfer."""
    return RuleSpec.partial_compromise(weight).apply(e)


@dataclass(frozen=True)
class RetentionShares(_FloatVector, values="shares"):
    """Per-agent retained fractions for the general rule family.

    Entry k is the fraction of its own inflow that non-terminal agent k
    keeps; the rest is split equally among the agents downstream of k.  The
    terminal agent always keeps everything, so only n-1 entries are stored.
    """

    shares: tuple[float, ...]

    def __post_init__(self):
        values = self._coerce("retention share")
        if len(values) < 1:
            raise DimensionError("need at least one retention share (n >= 2)")
        for k, v in enumerate(values):
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"retention share at position {k} must lie in [0, 1], got {v}")

    @property
    def agent_count(self) -> int:
        return len(self.shares) + 1


def as_retention(shares) -> RetentionShares:
    if isinstance(shares, RetentionShares):
        return shares
    return RetentionShares(tuple(shares))


def _retention_kernel(e: InflowProfile, shares: Sequence[float]) -> Allocation:
    """The only rule kernel: the retention rule of `shares` on `e`, checked.

    `shares` holds one entry per non-terminal agent.  The loop that builds
    the allocation also runs the feasibility prefix sums, with the same
    additions in the same order as `_violation`.  A result is accepted when
    no prefix was infeasible, no entry is negative and the total is within
    tolerance; a finite `fsum` also means every entry is finite.  Anything
    else goes to `_finalize`, which clamps, checks again and names the fault.
    """
    inflows = e.inflows
    total = e._total
    tol = tolerance_for(total)
    x = []
    incoming = 0.0  # this agent's equal parts of everything released upstream
    prefix_x = 0.0
    prefix_e = 0.0
    feasible = True
    for v, a, downstream in zip(inflows, shares, range(len(inflows) - 1, 0, -1)):
        xi = a * v + incoming
        x.append(xi)
        incoming += (1.0 - a) * v / downstream
        prefix_x += xi
        prefix_e += v
        if prefix_x > prefix_e + tol:
            feasible = False
    x.append(inflows[-1] + incoming)
    if feasible and min(x) >= 0.0 and abs(math.fsum(x) - total) <= tol:
        # `Allocation._of_checked`, inlined on the path every rule call takes
        amounts = tuple(x)
        allocation = object.__new__(Allocation)
        object.__setattr__(allocation, "amounts", amounts)
        object.__setattr__(allocation, "_values", amounts)
        return allocation
    return _finalize(e, x)


def retention_rule(e, shares) -> Allocation:
    """General family: agent k keeps a fraction of its inflow, splits the rest.

    Agent k keeps shares[k] of its own inflow and releases the remainder in
    equal parts to every agent downstream; the terminal agent keeps all it
    has.  All the named rules in this module are members of this family.
    """
    return RuleSpec.retention_rule(shares).apply(e)


def source(e) -> int | None:
    """Most upstream non-terminal position with positive inflow, if any."""
    e = as_profile(e)
    for k in range(len(e) - 1):
        if e[k] > 0.0:
            return k
    return None


# ---------------------------------------------------------------------------
# retention-share constructions that reproduce the named rules


def shapley_shares(n: int) -> RetentionShares:
    """Retention shares under which the general family equals the Shapley rule."""
    return RetentionShares(RuleSpec.shapley().shares(n))


def compromise_shares(n: int, weight: float) -> RetentionShares:
    """Constant retention shares, matching the compromise rule of that weight."""
    return RetentionShares(RuleSpec.compromise(weight).shares(n))


def partial_compromise_shares(n: int, weight: float) -> RetentionShares:
    """Retention shares matching the partial compromise rule of that weight.

    Retention rises linearly along the river: position k keeps
    1 - (1-weight) * (n-1-k)/(n-1).
    """
    return RetentionShares(RuleSpec.partial_compromise(weight).shares(n))


# ---------------------------------------------------------------------------
# rule descriptors


class RuleKind(enum.Enum):
    NO_TRANSFER = "nt"
    EGALITARIAN_FULL_TRANSFER = "eft"
    EGALITARIAN_PARTIAL_TRANSFER = "ept"
    SHAPLEY = "shapley"
    COMPROMISE = "compromise"
    PARTIAL_COMPROMISE = "partial"
    RETENTION = "alpha"


_WEIGHTED_KINDS = (RuleKind.COMPROMISE, RuleKind.PARTIAL_COMPROMISE)

# the parameterless rules that are endpoints of the weighted families
_FAMILY_ENDPOINTS = {
    RuleKind.NO_TRANSFER: (RuleKind.COMPROMISE, 1.0),
    RuleKind.EGALITARIAN_FULL_TRANSFER: (RuleKind.COMPROMISE, 0.0),
    RuleKind.EGALITARIAN_PARTIAL_TRANSFER: (RuleKind.PARTIAL_COMPROMISE, 0.0),
}


@dataclass(frozen=True)
class RuleSpec:
    """A rule plus its parameters, as a value that can be stored and applied."""

    kind: RuleKind
    weight: float | None = None
    retention: RetentionShares | None = None

    def __post_init__(self):
        if self.kind in _WEIGHTED_KINDS:
            if self.weight is None:
                raise ParameterError(f"rule '{self.kind.value}' needs a weight in [0, 1]")
            object.__setattr__(self, "weight", _check_weight(self.weight, self.kind))
            if self.retention is not None:
                raise ParameterError(f"rule '{self.kind.value}' takes no retention shares")
        elif self.kind is RuleKind.RETENTION:
            if self.retention is None:
                raise ParameterError("rule 'alpha' needs retention shares")
            object.__setattr__(self, "retention", as_retention(self.retention))
            if self.weight is not None:
                raise ParameterError("rule 'alpha' takes no scalar weight")
        else:
            if self.weight is not None or self.retention is not None:
                raise ParameterError(f"rule '{self.kind.value}' takes no parameters")

    @classmethod
    def no_transfer(cls) -> "RuleSpec":
        return cls(RuleKind.NO_TRANSFER)

    @classmethod
    def egalitarian_full_transfer(cls) -> "RuleSpec":
        return cls(RuleKind.EGALITARIAN_FULL_TRANSFER)

    @classmethod
    def egalitarian_partial_transfer(cls) -> "RuleSpec":
        return cls(RuleKind.EGALITARIAN_PARTIAL_TRANSFER)

    @classmethod
    def shapley(cls) -> "RuleSpec":
        return cls(RuleKind.SHAPLEY)

    @classmethod
    def compromise(cls, weight: float) -> "RuleSpec":
        return cls(RuleKind.COMPROMISE, weight=weight)

    @classmethod
    def partial_compromise(cls, weight: float) -> "RuleSpec":
        return cls(RuleKind.PARTIAL_COMPROMISE, weight=weight)

    @classmethod
    def retention_rule(cls, shares) -> "RuleSpec":
        return cls(RuleKind.RETENTION, retention=as_retention(shares))

    @property
    def fixed_agent_count(self) -> int | None:
        """Agent count this rule is pinned to, or None when size-generic."""
        if self.retention is not None:
            return self.retention.agent_count
        return None

    def shares(self, n: int) -> tuple[float, ...]:
        """Retention shares under which the general rule is this rule for n agents.

        nt and eft are compromise:1 and compromise:0, ept is partial:0, and
        the Shapley rule keeps 1/(n-k) at position k.
        """
        if n < 2:
            raise DimensionError(f"need n >= 2, got {n}")
        if self.kind is not RuleKind.RETENTION:
            return _named_shares(self.kind, self.weight, n)
        if self.retention.agent_count != n:
            raise DimensionError(
                f"{len(self.retention)} retention shares imply {self.retention.agent_count} "
                f"agents, but the profile has {n}"
            )
        return self.retention.shares

    def label(self) -> str:
        """Round-trippable text form, e.g. 'nt' or 'compromise:0.5'; see parse_rule."""
        if self.kind in _WEIGHTED_KINDS:
            return f"{self.kind.value}:{self.weight!r}"
        if self.kind is RuleKind.RETENTION:
            return "alpha:" + ",".join(repr(v) for v in self.retention)
        return self.kind.value

    def apply(self, e) -> Allocation:
        e = as_profile(e)
        if self.retention is None:
            # a valid profile has n >= 2, the one check `shares` would add
            return _retention_kernel(e, _named_shares(self.kind, self.weight, len(e.inflows)))
        return _retention_kernel(e, self.shares(len(e.inflows)))


# the parameterless rules, built once for the module-level rule functions
_NO_TRANSFER = RuleSpec.no_transfer()
_EGALITARIAN_FULL_TRANSFER = RuleSpec.egalitarian_full_transfer()
_EGALITARIAN_PARTIAL_TRANSFER = RuleSpec.egalitarian_partial_transfer()
_SHAPLEY = RuleSpec.shapley()


# the named rules are applied over and over at a handful of sizes, and
# building the tuple costs as much as the kernel that consumes it; the bound
# keeps the memory held to a few share vectors of the largest river seen
@functools.lru_cache(maxsize=32)
def _named_shares(kind: RuleKind, weight: float | None, n: int) -> tuple[float, ...]:
    kind, weight = _FAMILY_ENDPOINTS.get(kind, (kind, weight))
    if kind is RuleKind.COMPROMISE:
        return (weight,) * (n - 1)
    if kind is RuleKind.PARTIAL_COMPROMISE:
        return tuple(1.0 - (1.0 - weight) * (n - 1 - k) / (n - 1) for k in range(n - 1))
    return tuple(1.0 / (n - k) for k in range(n - 1))  # Shapley


_RULE_GRAMMAR = "nt | eft | ept | shapley | compromise:<w> | partial:<w> | alpha:<a1,...>"


def parse_rule(text: str) -> RuleSpec:
    """Inverse of RuleSpec.label(); errors name the offending token.

    Range checks are left to RuleSpec and RetentionShares.
    """
    head, sep, tail = text.strip().partition(":")
    try:
        kind = RuleKind(head.casefold())
    except ValueError:
        raise ParameterError(f"unknown rule {head!r}, expected one of: {_RULE_GRAMMAR}") from None
    if kind in _WEIGHTED_KINDS:
        try:
            weight = float(tail)
        except ValueError:
            raise ParameterError(
                f"{head}: expected a weight in [0, 1] after the colon, got {tail!r}"
            ) from None
        return RuleSpec(kind, weight=weight)
    if kind is RuleKind.RETENTION:
        if not tail:
            raise ParameterError("alpha: expected comma-separated retention shares after the colon")
        shares = []
        for token in tail.split(","):
            try:
                shares.append(float(token))
            except ValueError:
                raise ParameterError(f"alpha: {token!r} is not a number") from None
        return RuleSpec(kind, retention=shares)
    if sep:
        raise ParameterError(f"rule {head!r} takes no parameter, got {tail!r}")
    return RuleSpec(kind)
