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
vector (`shares(n)`); one kernel evaluates every rule from that vector.  The
vectors are cached at two levels: each `RuleSpec` keeps the one for the last
river size it served, which costs the memory of one vector per live rule,
and two process-wide caches of 16 vectors each, one for the parameterless
rules and one for the weighted ones, serve a rule at a new size.  Rule
outputs satisfy both constraints by construction and are still checked, in
the same pass that builds them: the kernel's loop keeps the feasibility
prefix sums, and one `min` and one `fsum` of the result finish the check.  A
valid result becomes an `Allocation` without being converted or checked
again; any other goes through the checker `validate_allocation` uses, which
names the first violated constraint.

Every float vector the package takes in (inflows, amounts, retention
shares, withdrawals, the entries of `analysis.shares_of_total`) passes one
check, `_checked_floats`, so a bad entry is one `RiverShareError` naming
its position wherever it enters.  Every sequence argument that is not a
tuple passes one check, `_as_tuple`, which refuses a str or bytes-like
instead of reading its characters.  Every number the package reads (a
scalar parameter such as a rule weight, a tolerance, a scale factor or an
inflow change; a vector entry; a dataset cell) passes one conversion,
`_as_float`, or `_as_finite_float` where it must be finite, so a value
that is not a number, or an int beyond the float range, is one error
naming the parameter, the position or the cell.  Positions and agent
counts pass one integer check, `_check_int`, which refuses a bool, and an
agent count beyond the index range, `sys.maxsize`, is refused by
`_check_count` before any vector is sized.
Comparisons use `tolerance_for(scale)`, 1e-9 relative with a floor at the
smallest normal float, 2^-1022, so verdicts are the same at every
magnitude down to there; the scale, and a `tol` given instead, must be
finite, and the `tol` >= 0.

The value types here, in `data_io`, in `axioms` and in `analysis` are
immutable records on one `__slots__` base, `_Record`, rather than
dataclasses, so that importing the package does not import `dataclasses`
and, through it, `inspect`.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from collections.abc import Iterable, Sequence

RELATIVE_TOLERANCE = 1e-9
TOLERANCE_FLOOR = 2.0**-1022  # the smallest normal float


class RiverShareError(ValueError):
    """Base class for domain errors raised by this package."""


class DimensionError(RiverShareError):
    """Vector lengths are unusable: too short, or mutually inconsistent."""


class ParameterError(RiverShareError):
    """A rule or family parameter is outside its legal range."""


class AllocationError(RiverShareError):
    """A candidate allocation violates non-wastefulness or feasibility."""


def tolerance_for(scale: float) -> float:
    """Default comparison tolerance for quantities of the given magnitude,
    which must be finite: a NaN or infinite tolerance would pass every
    comparison."""
    try:
        tol = RELATIVE_TOLERANCE * abs(scale)
    except (TypeError, OverflowError):  # not a float: `_as_finite_float` words it below
        tol = math.nan
    if TOLERANCE_FLOOR <= tol < math.inf:
        return tol
    if tol < TOLERANCE_FLOOR:
        return TOLERANCE_FLOOR
    return tolerance_for(_as_finite_float(scale, ParameterError, "scale"))


def _resolved_tolerance(tol: float | None, scale: float) -> float:
    """`tol`, checked, or `tolerance_for(scale)` when it is None."""
    if tol is None:
        return tolerance_for(scale)
    return _checked_tolerance(tol)


def _checked_tolerance(tol: float | None) -> float | None:
    """A given `tol` as a float, which must be finite and >= 0: a NaN would
    pass every comparison.  None stays None, for callers that take
    `tolerance_for` of each comparison's own scale."""
    if tol is None:
        return None
    tol = _as_float(tol, ParameterError, "tolerance")
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


def _checked_floats(
    values: Iterable[float], what: str, error: type, non_negative: bool
) -> tuple[tuple[float, ...], float]:
    """`values` as a tuple of floats and its `fsum`: the one check of every
    float vector the package takes in.

    Any argument but a tuple goes through `_as_tuple`, so a str, a bytes or
    a bytearray, or anything not iterable, is one `error` naming the vector.
    Valid input passes in one pass of C builtins: a finite `fsum` means
    every entry is a finite number.  Anything else (and an empty vector
    that must be non-negative, which `min` refuses) goes to `_walk_floats`,
    which raises `error` naming the first bad entry.  When it finds none
    and the entries sum past the float range, the total is returned as inf
    for the caller to word.
    """
    if values.__class__ is tuple:  # an `isinstance` test on every call would cost more
        items = values
    else:
        items = _as_tuple(values, error, "the {} vector must be a sequence of numbers", what)
    try:
        floats = tuple(map(float, items))
        total = math.fsum(floats)
        if math.isfinite(total) and (not non_negative or min(floats) >= 0.0):
            return floats, total
    except (TypeError, ValueError, OverflowError):
        pass
    floats = _walk_floats(items, what, error, non_negative)
    try:
        return floats, math.fsum(floats)
    except OverflowError:
        return floats, math.inf


_NUMBER_FORMATS = frozenset("efdhHiIlLqQnN")  # memoryview formats read as numbers, not byte codes


def _as_tuple(values, error: type, what: str, *args) -> tuple:
    """`values` as a tuple: the one check of every sequence argument.  A
    str, bytes or bytearray, which iterates as its characters or byte
    codes, a memoryview that is released or not one-dimensional with a
    float or (wider than a byte) int format, and anything not iterable are
    one `error` stating `what.format(*args)`, which is formatted only
    then."""
    if isinstance(values, (str, bytes, bytearray, memoryview)):
        if values.__class__ is not memoryview:
            raise error(f"{what.format(*args)}, not the {type(values).__name__} {values!r}")
        try:
            ndim, fmt = values.ndim, values.format
        except ValueError:  # a released view refuses every read
            raise error(f"{what.format(*args)}, not a released memoryview") from None
        if ndim != 1 or fmt.lstrip("@=<>!") not in _NUMBER_FORMATS:
            raise error(f"{what.format(*args)}, not a {ndim}-d memoryview of format {fmt!r}")
    try:
        items = iter(values)
    except TypeError:
        raise error(f"{what.format(*args)}, got {values!r}") from None
    return tuple(items)


def _as_float(value, error: type, what: str, *args) -> float:
    """`value` as a float: the one conversion of every number the package
    reads (a scalar parameter, a vector entry, a dataset cell).  Anything
    `float` refuses is one `error` naming `what.format(*args)`; the name is
    formatted only then, and the range checks are the caller's."""
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range, whose repr may fail too
        raise error(f"{what.format(*args)} is too large to represent as a float") from None
    except (TypeError, ValueError):
        raise error(f"{what.format(*args)} must be a number, got {value!r}") from None


def _as_finite_float(value, error: type, what: str, *args) -> float:
    """`_as_float(value, error, what, *args)`, which must also be finite."""
    f = _as_float(value, error, what, *args)
    if not math.isfinite(f):
        raise error(f"{what.format(*args)} must be finite, got {value!r}")
    return f


def _walk_floats(items: tuple, what: str, error: type, non_negative: bool, where=None) -> tuple[float, ...]:
    """`items` as floats, or `error` naming, by position or by its string in
    `where`, the first entry that is not a finite number or, failing that,
    the first negative one when `non_negative`."""
    name, places = ("{} at position {}", range(len(items))) if where is None else ("{1}: {0}", where)
    floats = tuple([_as_finite_float(v, error, name, what, k) for k, v in zip(places, items)])
    if non_negative:
        for k, f in zip(places, floats):
            if f < 0.0:
                raise error(f"{name.format(what, k)} must be >= 0, got {f}")
    return floats


def _check_int(value, what: str) -> int:
    """`value`, which must be an int and not a bool: the one check of every
    position and agent count the package takes in."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return value


def _check_count(value, what: str) -> int:
    """`_check_int(value, what)`, which must also be a valid index, at most
    `sys.maxsize`: a larger count would size no tuple, and would fail as a
    bare OverflowError or MemoryError there."""
    if _check_int(value, what) > sys.maxsize:
        raise DimensionError(f"{what} must be at most sys.maxsize = {sys.maxsize}")
    return value


def _check_position(position: int, n: int) -> None:
    _check_int(position, "position")
    if not 0 <= position < n:
        raise DimensionError(f"position {_int_text(position)} out of range for n={n}")


def _int_text(value: int) -> str:
    """The int `value` as an error message shows it: its digits, or, past
    the digit count `str` converts (4300 by default), its sign and size, so
    that wording the error cannot fail."""
    try:
        return str(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


class _Record:
    """Base of the package's immutable values: a `__slots__` class whose
    public fields are named in `_fields`.

    `__init__` stores the fields, given in order or by name, with
    `_defaults` for trailing ones left out; a type with values to check
    checks them in its own `__init__`, before or after storing them.
    Records of one class with equal fields are equal and hash alike; the
    repr lists the fields by name.  `to_dict` gives the fields as JSON data, as `--json` prints
    them: each under its name, or under its entry in `_json_names`, and
    converted by `_json`.  Assigning or deleting an attribute raises
    AttributeError.  Pickling and copying save every slot, including any
    kept outside `_fields` (such as a cached total), and restore them
    without running `__init__`; a type whose extra slot is a memo, such as
    `RuleSpec`, saves only its fields and derives the memo again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _json_names: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slots' own setters, which cost less to call than `object.__setattr__`
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def __init__(self, *values, **named):
        if named or len(values) != len(self._setters):
            # the fields after the positional ones must each be named or defaulted
            fields = self._fields
            rest = fields[len(values):]
            given = {**self._defaults, **named}
            if len(values) > len(fields) or not named.keys() <= set(rest) <= given.keys():
                raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}, each once")
            values += tuple([given[name] for name in rest])
        for store, value in zip(self._setters, values):
            store(self, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def to_dict(self) -> dict:
        names = self._json_names
        return {names.get(name, name): _json(getattr(self, name)) for name in self._fields}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for cls in self.__class__.__mro__
            for name in cls.__dict__.get("__slots__", ())
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


class _FloatVector(_Record):
    """Read-only sequence behaviour shared by the immutable float-vector types.

    A subclass names its one field, as in
    `class Allocation(_FloatVector, values="amounts")`.  That field is an
    alias of the `_values` slot, so the tuple is stored once and both names
    read it at slot speed.  `__init__` stores finite floats there; equality
    and hashing compare that tuple directly.
    """

    __slots__ = ("_values",)

    def __init_subclass__(cls, values: str, **kwargs):
        super().__init_subclass__(**kwargs)
        setattr(cls, values, _FloatVector.__dict__["_values"])
        cls._fields = (values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, k: int) -> float:
        return self._values[k]

    def __iter__(self):
        return iter(self._values)

    @property
    def total(self) -> float:
        return math.fsum(self._values)


#: Classes `_json` returns as they are after one test; subclasses take the long way.
_SCALARS = frozenset({float, int, str, bool, type(None)})


def _json(value):
    """`value` as JSON data: a float vector becomes a list of its floats, a
    tuple a list of its entries' JSON data, a record its `to_dict()` and an
    enum member its value; anything else stays as it is."""
    if value.__class__ in _SCALARS:
        return value
    if isinstance(value, _FloatVector):
        return list(value._values)
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    return value


class InflowProfile(_FloatVector, values="inflows"):
    """Per-agent inflows, most upstream first.  Needs n >= 2, entries >= 0."""

    __slots__ = ("_total",)

    def __init__(self, inflows: Iterable[float]):
        values, total = _checked_floats(inflows, "inflow", RiverShareError, True)
        if len(values) < 2:
            raise DimensionError(f"an inflow profile needs at least two agents, got {len(values)}")
        if total == math.inf:
            raise RiverShareError("total inflow is too large to represent as a float")
        _set_values(self, values)
        _set_total(self, total)

    @property
    def total(self) -> float:
        return self._total

    def scaled(self, factor: float) -> "InflowProfile":
        factor = _as_float(factor, ParameterError, "scale factor")
        if factor < 0:
            raise ParameterError(f"scale factor must be >= 0, got {factor}")
        if not math.isfinite(factor):
            raise ParameterError(f"scale factor must be finite and >= 0, got {factor}")
        return _derived_profile(self, None, factor)

    def bumped(self, position: int, delta: float) -> "InflowProfile":
        """Copy with `delta` added to the inflow at `position`."""
        _check_position(position, len(self.inflows))
        delta = _as_finite_float(delta, ParameterError, "delta")
        return _derived_profile(self, position, delta)


# the slots' own setters, for the float vectors' `__init__` and the builders
# on the rule path that skip it; calling one costs less than `object.__setattr__`
_set_values = _FloatVector._values.__set__
_set_total = InflowProfile._total.__set__


def _profile_of_floats(values: tuple[float, ...]) -> InflowProfile:
    """`InflowProfile(values)` for a tuple of floats, such as a generated or
    derived profile.

    A valid tuple takes the one bulk check of `__init__`'s fast path (a
    finite `fsum`, n >= 2, `min` >= 0) and skips its conversion pass and
    frame; anything else goes to `InflowProfile`, so every error reads the
    same.  `fsum` raises OverflowError when finite entries sum past the
    float range.
    """
    try:
        total = math.fsum(values)
    except (ValueError, OverflowError):
        return InflowProfile(values)
    if not (math.isfinite(total) and len(values) >= 2 and min(values) >= 0.0):
        return InflowProfile(values)
    profile = object.__new__(InflowProfile)
    _set_values(profile, values)
    _set_total(profile, total)
    return profile


def _derived_profile(e: InflowProfile, position: int | None, change: float) -> InflowProfile:
    """`e` with `change` added to the inflow at `position`, or, when
    `position` is None, `e` scaled by `change`: the one builder of derived
    profiles, which trusts its arguments.  `scaled` and `bumped` call it
    after their checks, and the axiom checkers with arguments their callers
    checked: a finite factor >= 0, or a finite delta at an index of `e`.

    The old entries and the change were finite, so a rejected profile
    either has a negative entry or overflowed, and the error names the
    change.  The name is formatted only then, so a valid result pays for no
    float formatting.
    """
    if position is None:
        values = tuple([v * change for v in e.inflows])
    else:
        values = list(e.inflows)
        values[position] += change
        values = tuple(values)
    try:
        return _profile_of_floats(values)
    except RiverShareError:
        cause = f"scale factor {change}" if position is None else f"delta {change} at position {position}"
        if min(values) >= 0.0:
            raise ParameterError(f"{cause} makes the inflows overflow") from None
        raise ParameterError(f"{cause} makes the inflow negative") from None


def as_profile(e) -> InflowProfile:
    if isinstance(e, InflowProfile):
        return e
    return InflowProfile(e)


class Allocation(_FloatVector, values="amounts"):
    """Water rights per agent.  Produced by rules; validated against a profile."""

    __slots__ = ()

    def __init__(self, amounts: Iterable[float]):
        values, total = _checked_floats(amounts, "amount", RiverShareError, False)
        if total == math.inf:
            raise RiverShareError("total amount is too large to represent as a float")
        _set_values(self, values)


class ObservedAllocation(_FloatVector, values="amounts"):
    """An observed division of the water, e.g. measured withdrawals.

    Unlike Allocation it carries no feasibility promise; observed behaviour
    may well violate it.  Entries must be non-negative.
    """

    __slots__ = ()

    def __init__(self, amounts: Iterable[float]):
        values, total = _checked_floats(amounts, "observed amount", RiverShareError, True)
        if total == math.inf:
            raise RiverShareError("total observed amount is too large to represent as a float")
        _set_values(self, values)


def as_observed(z) -> ObservedAllocation:
    if isinstance(z, ObservedAllocation):
        return z
    return ObservedAllocation(z)


class ValidationResult(_Record):
    """Boolean verdict plus the first violated constraint, if any."""

    __slots__ = _fields = ("ok", "reason")
    _defaults = {"reason": None}

    def __bool__(self) -> bool:
        return self.ok


def validate_allocation(e, x, tol: float | None = None) -> ValidationResult:
    """Check non-negativity, non-wastefulness and cumulative feasibility.

    Returns a truthy ValidationResult when all constraints hold within the
    tolerance; otherwise the result is falsy and names the first violation.
    """
    e = as_profile(e)
    amounts = (x if isinstance(x, (Allocation, ObservedAllocation)) else Allocation(x)).amounts
    if len(amounts) != len(e):
        raise DimensionError(
            f"allocation has {len(amounts)} entries but the profile has {len(e)}"
        )
    reason = _violation(e, amounts, _resolved_tolerance(tol, e.total))
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
    x = Allocation(raw)  # a non-finite entry is named there
    reason = _violation(e, x.amounts, tol)
    if reason is not None:
        raise AllocationError(f"rule produced an invalid allocation: {reason}")
    return x


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
    """`weight` as a float in [0, 1].  `kind` names it in an error: a
    weighted `RuleKind`, or the `analysis.Family` of the same value."""
    weight = _as_float(weight, ParameterError, "{} weight", kind.value)
    if not 0.0 <= weight <= 1.0:
        raise ParameterError(f"{kind.value} weight must lie in [0, 1], got {weight}")
    return weight


def compromise(e, weight: float) -> Allocation:
    """Convex mix: `weight` on keeping own inflow, the rest on full transfer."""
    return RuleSpec.compromise(weight).apply(e)


def partial_compromise(e, weight: float) -> Allocation:
    """Convex mix: `weight` on keeping own inflow, the rest on partial transfer."""
    return RuleSpec.partial_compromise(weight).apply(e)


class RetentionShares(_FloatVector, values="shares"):
    """Per-agent retained fractions for the general rule family.

    Entry k is the fraction of its own inflow that non-terminal agent k
    keeps; the rest is split equally among the agents downstream of k.  The
    terminal agent always keeps everything, so only n-1 entries are stored.
    """

    __slots__ = ()

    def __init__(self, shares: Iterable[float]):
        values, _ = _checked_floats(shares, "retention share", ParameterError, False)
        if len(values) < 1:
            raise DimensionError("need at least one retention share (n >= 2)")
        for k, v in enumerate(values):
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"retention share at position {k} must lie in [0, 1], got {v}")
        _set_values(self, values)

    @property
    def agent_count(self) -> int:
        return len(self.shares) + 1


def as_retention(shares) -> RetentionShares:
    if isinstance(shares, RetentionShares):
        return shares
    return RetentionShares(shares)


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
    tol = RELATIVE_TOLERANCE * total  # `tolerance_for(total)`: the total is >= 0
    if tol < TOLERANCE_FLOOR:
        tol = TOLERANCE_FLOOR
    x = []
    incoming = 0.0  # this agent's equal parts of everything released upstream
    prefix_x = 0.0
    prefix_e = 0.0
    feasible = True
    # `downstream` counts the agents below this one down, as a float: it
    # stays exact, so dividing by it gives the int divisor's bits, and it
    # is cheaper to count and divide by than a `range` of ints
    downstream = len(inflows) - 1.0
    # one fused loop: `accumulate` and `map` in C were bit-identical but slower
    for v, a in zip(inflows, shares):
        xi = a * v + incoming
        x.append(xi)
        incoming += (1.0 - a) * v / downstream
        downstream -= 1.0
        prefix_x += xi
        prefix_e += v
        if prefix_x > prefix_e + tol:
            feasible = False
    x.append(inflows[-1] + incoming)
    if feasible and min(x) >= 0.0 and abs(math.fsum(x) - total) <= tol:
        # `Allocation(x)` less its checks, which the lines above have made
        allocation = object.__new__(Allocation)
        _set_values(allocation, tuple(x))
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
    inflows = as_profile(e).inflows
    for k in range(len(inflows) - 1):
        if inflows[k] > 0.0:
            return k
    return None


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

# the parameterless rules that are endpoints of the weighted families, by
# the `RuleKind` values that key the share caches
_FAMILY_ENDPOINTS = {
    RuleKind.NO_TRANSFER.value: (RuleKind.COMPROMISE.value, 1.0),
    RuleKind.EGALITARIAN_FULL_TRANSFER.value: (RuleKind.COMPROMISE.value, 0.0),
    RuleKind.EGALITARIAN_PARTIAL_TRANSFER.value: (RuleKind.PARTIAL_COMPROMISE.value, 0.0),
}


class RuleSpec(_Record):
    """A rule plus its parameters, as a value that can be stored and applied.

    The share vector for the last river size the rule served is kept in the
    `_memo` slot as `(n, shares)`.  It is a cache, not a field: equality,
    hashing, the repr, `to_dict` and the pickled or copied state leave it
    out, and loading derives it again.  A pinned rule's memo holds its own
    vector from the start; a size-generic rule's holds no size until its
    first use.  One tuple is stored and read whole, so threads sharing a
    rule each see a size with its own vector.
    """

    _fields = ("kind", "weight", "retention")
    __slots__ = _fields + ("_memo",)

    def __init__(
        self,
        kind: RuleKind,
        weight: float | None = None,
        retention: RetentionShares | None = None,
    ):
        if kind.__class__ is not RuleKind:
            raise ParameterError(f"a rule kind must be a RuleKind, got {kind!r}")
        if kind in _WEIGHTED_KINDS:
            if weight is None:
                raise ParameterError(f"rule '{kind.value}' needs a weight in [0, 1]")
            weight = _check_weight(weight, kind)
            if retention is not None:
                raise ParameterError(f"rule '{kind.value}' takes no retention shares")
        elif kind is RuleKind.RETENTION:
            if retention is None:
                raise ParameterError("rule 'alpha' needs retention shares")
            retention = as_retention(retention)
            if weight is not None:
                raise ParameterError("rule 'alpha' takes no scalar weight")
        else:
            if weight is not None or retention is not None:
                raise ParameterError(f"rule '{kind.value}' takes no parameters")
        _Record.__init__(self, kind, weight, retention)
        self._start_memo()

    def _start_memo(self) -> None:
        retention = self.retention
        _set_memo(self, (0, ()) if retention is None else (retention.agent_count, retention.shares))

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __setstate__(self, state: dict) -> None:
        _Record.__setstate__(self, state)
        self._start_memo()

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
        return cls(RuleKind.RETENTION, retention=shares)

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
        if _check_count(n, "n") < 2:
            raise DimensionError(f"need n >= 2, got {_int_text(n)}")
        size, shares = self._memo
        if size != n:
            shares = self._shares_for(n)
        return shares

    def _shares_for(self, n: int) -> tuple[float, ...]:
        """`shares(n)` for an n other than the memo's, which must be a valid
        count: one from a checked profile, or one `shares` has checked.
        The vector comes from the shared caches and is kept in the memo."""
        if self.retention is not None:
            raise _agent_count_mismatch(self.retention.agent_count, n)
        cache = _endpoint_shares if self.weight is None else _weighted_shares
        shares = cache(self.kind._value_, self.weight, n)
        _set_memo(self, (n, shares))
        return shares

    def label(self) -> str:
        """Round-trippable text form, e.g. 'nt' or 'compromise:0.5'; see parse_rule."""
        if self.kind in _WEIGHTED_KINDS:
            return f"{self.kind.value}:{self.weight!r}"
        if self.kind is RuleKind.RETENTION:
            return "alpha:" + ",".join(repr(v) for v in self.retention)
        return self.kind.value

    def apply(self, e) -> Allocation:
        e = as_profile(e)
        # `shares`, less the checks that a valid profile's size already passed
        n = len(e.inflows)
        size, shares = self._memo
        if size != n:
            shares = self._shares_for(n)
        return _retention_kernel(e, shares)


# the memo slot's own setter: the record refuses `setattr`
_set_memo = RuleSpec._memo.__set__


def _agent_count_mismatch(pinned: int, n: int) -> DimensionError:
    """The error for a river of n agents given to a rule pinned to `pinned`."""
    return DimensionError(f"{pinned - 1} retention shares imply {pinned} agents, but the profile has {n}")


# the parameterless rules, built once for the module-level rule functions
_NO_TRANSFER = RuleSpec.no_transfer()
_EGALITARIAN_FULL_TRANSFER = RuleSpec.egalitarian_full_transfer()
_EGALITARIAN_PARTIAL_TRANSFER = RuleSpec.egalitarian_partial_transfer()
_SHAPLEY = RuleSpec.shapley()


def _named_shares(kind: str, weight: float | None, n: int) -> tuple[float, ...]:
    """The share vector of the named rule with `RuleKind` value `kind`."""
    kind, weight = _FAMILY_ENDPOINTS.get(kind, (kind, weight))
    if kind == RuleKind.COMPROMISE.value:
        return (weight,) * (n - 1)
    if kind == RuleKind.PARTIAL_COMPROMISE.value:
        return tuple(1.0 - (1.0 - weight) * (n - 1 - k) / (n - 1) for k in range(n - 1))
    return tuple(1.0 / (n - k) for k in range(n - 1))  # Shapley


# The named rules are applied over and over at a handful of sizes, and
# building the tuple costs as much as the kernel that consumes it, so share
# vectors are cached at two levels.  Each `RuleSpec` keeps the vector of the
# last size it served in its `_memo` slot: one vector per live rule, freed
# with the rule, and the same tuple the cache below returned.  Below it, two
# bounded caches shared by the process serve a rule at a new size, and
# `analysis._member`, whose family members are not `RuleSpec`s.  They are
# keyed on the kind's value, a str whose hash is stored, since
# `RuleKind.__hash__` is a Python function.  The parameterless kinds (nt,
# eft, ept, shapley) have a cache of their own, so that a sweep over many
# weights cannot evict them: every fresh spec of such a kind then shares one
# tuple per size.  The benchmark's allocate-sweep builds thousands of fresh
# specs, and one 32-entry cache for both cost it 2.5% throughput and 1 MB of
# peak RSS (Python 3.11.7, 2-core x86 VM).  Each bound of 16 keeps the memory
# held to a few share vectors of the largest river seen.
_endpoint_shares = functools.lru_cache(maxsize=16)(_named_shares)
_weighted_shares = functools.lru_cache(maxsize=16)(_named_shares)


_RULE_GRAMMAR = "nt | eft | ept | shapley | compromise:<w> | partial:<w> | alpha:<a1,...>"


def parse_rule(text: str) -> RuleSpec:
    """Inverse of RuleSpec.label(); errors name the offending token.

    The weight's number and range checks are left to RuleSpec, and the
    retention shares' to RetentionShares, whose errors name the share's
    position.
    """
    if not isinstance(text, str):
        raise ParameterError(f"a rule must be given as text, got {text!r}")
    head, sep, tail = text.strip().partition(":")
    try:
        kind = RuleKind(head.casefold())
    except ValueError:
        raise ParameterError(f"unknown rule {head!r}, expected one of: {_RULE_GRAMMAR}") from None
    if kind in _WEIGHTED_KINDS:
        return RuleSpec(kind, weight=tail)
    if kind is RuleKind.RETENTION:
        if not tail:
            raise ParameterError("alpha: expected comma-separated retention shares after the colon")
        return RuleSpec(kind, retention=tail.split(","))
    if sep:
        raise ParameterError(f"rule {head!r} takes no parameter, got {tail!r}")
    return RuleSpec(kind)
