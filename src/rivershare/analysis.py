"""Fitting observed allocations to one-parameter rule families.

Both families interpolate linearly between a full-transfer endpoint and the
no-transfer rule, so the best fit in Euclidean distance has a closed form:
project the observation onto the segment between the two endpoint
allocations and clip the coefficient to [0, 1].  On top of the fit this
module provides the distance profile along a family, its quadrature
average, per-agent legitimacy intervals, and the embedded Nile basin case
study with its reference checks.

A family's segment is built once per basin: the memo keeps the last
profile and observation objects with one record per family, so fits,
integrals, legitimacy intervals and distance curves over the same basin
apply each endpoint rule once between them.  The memo holds only objects
that passed the argument checks, and they are immutable, so a call given
those very objects skips the checks and reads the record; an equal
observation that is another object is checked and projected anew.

The record also holds the projection of the observation onto the family's
line: the parameter of the member nearest z, which is the fit's unclipped
parameter, the length of the segment and the distance from z to the line.
Amounts far from 1 are scaled by a power of two picked from the basin's
total and the largest observed amount, up or down, before they are
squared, so tiny and huge basins neither underflow nor overflow; ordinary
ones are not scaled at all.  The projection's inner product is one C pass,
`map` over `operator.mul` into `math.fsum`; its other sums stay
comprehensions, which Python 3.11 to 3.13 run faster than `map` over the
`operator` functions.

Along the segment the distance to z is a hyperbola in t, which
`distance_at` reads off that projection in constant time whatever the
number of agents, and the distance integral is its closed-form
antiderivative.  Gauss-Legendre quadrature of the same hyperbola remains as
a cross-check; its nodes and weights are computed here in pure Python, so
the module needs nothing beyond the standard library.  Quadrature takes at
most 1024 nodes (`_MAX_NODES`).
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from functools import lru_cache
from itertools import repeat
from operator import mul

from .core import (
    RELATIVE_TOLERANCE,
    Allocation,
    DimensionError,
    InflowProfile,
    ObservedAllocation,
    ParameterError,
    _as_tuple,
    _check_int,
    _check_weight,
    _checked_floats,
    _Record,
    _resolved_tolerance,
    _retention_kernel,
    _weighted_shares,
    as_observed,
    as_profile,
    no_transfer,
    parse_rule,
)
from .data_io import builtin_nile


class Family(Enum):
    """One-parameter families between a transfer rule and no-transfer."""

    COMPROMISE = "compromise"
    PARTIAL_COMPROMISE = "partial"


def as_family(value) -> Family:
    if isinstance(value, Family):
        return value
    try:
        return Family(str(value))
    except ValueError:
        legal = ", ".join(f.value for f in Family)
        raise ParameterError(f"unknown family {value!r}, expected one of: {legal}") from None


def family_member(e, family, parameter: float) -> Allocation:
    """The family's allocation at `parameter` (weight on no-transfer).

    Parameter 1 is the no-transfer rule; parameter 0 is the family's full
    transfer endpoint, bit-identical to eft or ept.
    """
    family = as_family(family)
    t = _check_weight(parameter, family)
    return _member(as_profile(e), family, t)


def _member(e: InflowProfile, family: Family, t: float) -> Allocation:
    """`family_member(e, family, t)` for a checked profile and family and a
    float t in [0, 1]: `RuleSpec.apply`'s kernel call on the same cached
    share vector."""
    return _retention_kernel(e, _weighted_shares(family._value_, t, len(e.inflows)))


class _Segment(_Record):
    """A family's segment on one basin and the observation's projection
    onto its line, in amounts multiplied by `scale`.

    a and b are the no-transfer and full-transfer `Allocation`s.  raw is the
    parameter of the member nearest z, unclipped, length the scaled |A - B|,
    and height the distance from z to the line over length, so that along
    the segment the distance to z is length * hypot(t - raw, height) / scale.
    The last three are None when every member is B to the float: the
    endpoints coincide or lie under 2^-537 apart in the band, or z is too
    far for the hyperbola to be a float.
    """

    __slots__ = _fields = ("a", "b", "scale", "raw", "length", "height")


#: The segments of the last basin, as (profile, observation, {family:
#: segment}).  The key is the pair of objects, never equal ones: equal
#: vectors need not be bit-identical (-0.0 == 0.0), and holding them keeps
#: their ids from being reused.  Every update replaces the whole tuple in
#: one assignment, so a reader never sees a half-built entry.
_last_basin: tuple = (None, None, {})


def _basin(e, z, family) -> tuple[InflowProfile, ObservedAllocation, Family, _Segment]:
    """The arguments every family reader takes, coerced and checked, and
    the family's `_Segment` on them, from the memo or built into it.  Given
    the memo's own profile and observation, only the family is checked.

    The scale is a power of two, so scaling is exact while amounts stay
    normal.  It is 1 while e.total and max(z) are each zero or within
    [2^-450, 2^450], where squares of the leading amounts stay far inside
    the normal range: there the readers give the unscaled formulas' results
    bit for bit.  Otherwise it brings the larger of the two into [0.5, 1),
    so no square overflows and the leading ones do not underflow.  The
    scaled A - B gets a power of two of its own, `lift`, picked the same way,
    when its squares sum below 2^-900, unless in the band they underflow to
    zero: a segment under 2^-537 there is a point next to the basin.
    """
    global _last_basin
    profile, observation, segments = _last_basin
    if profile is e and observation is z and segments:
        # the memo holds only a profile and an observation that passed the
        # checks below, and neither can change since
        family = as_family(family)
        segment = segments.get(family)
        if segment is not None:
            return e, z, family, segment
    else:
        e = as_profile(e)
        z = as_observed(z)
        family = as_family(family)
        if len(z) != len(e):
            raise DimensionError(f"observation has {len(z)} entries for {len(e)} agents")
        segments = {}
    # the no-transfer endpoint is the same for both families
    a = next(iter(segments.values())).a if segments else no_transfer(e)
    b = _member(e, family, 0.0)
    sizes = [size for size in (e.total, max(z.amounts)) if size]
    if all(2.0**-450 <= size <= 2.0**450 for size in sizes):
        scale = 1.0
    else:
        # below 2^-1024 the power that would bring the larger one into
        # [0.5, 1) is past the float range; 2^1023 brings it into [2^-51, 0.5)
        scale = math.ldexp(1.0, min(-math.frexp(max(sizes))[1], 1023))
    direction = [(ai - bi) * scale for ai, bi in zip(a.amounts, b.amounts)]
    gram = math.fsum([d * d for d in direction])
    lift = 1.0
    if gram < 2.0**-900 and (gram or scale != 1.0) and (peak := max(map(abs, direction))):
        lift = math.ldexp(1.0, min(-math.frexp(peak)[1], 1023))
        direction = [d * lift for d in direction]
        gram = math.fsum([d * d for d in direction])
    raw = length = height = None
    if gram != 0.0:
        offsets = [(zi - bi) * scale for zi, bi in zip(z.amounts, b.amounts)]
        along = math.fsum(map(mul, offsets, direction)) / gram  # raw / lift
        length = math.sqrt(gram) / lift
        height = math.hypot(*[along * d - g for g, d in zip(offsets, direction)]) / length
        raw = along * lift
        # beyond this every member is B to the last bit and the integral overflows
        if math.hypot(abs(raw) + 1.0, height) >= 2.0**1022:
            raw = length = height = None
    segment = _Segment(a, b, scale, raw, length, height)
    _last_basin = (e, z, {**segments, family: segment})
    return e, z, family, segment


def _distance(x, z, scale: float) -> float:
    """|x - z|, each difference multiplied by `scale` before it is squared."""
    return math.sqrt(math.fsum([(g := (a - b) * scale) * g for a, b in zip(x, z)])) / scale


class FitResult(_Record):
    """Least-squares projection of an observation onto a rule family."""

    __slots__ = _fields = (
        "family", "parameter_star", "fitted_allocation", "residual_distance",
        "clipped", "unconstrained_parameter", "degenerate",
    )
    _defaults = {"degenerate": False}
    _json_names = {
        "parameter_star": "parameter", "fitted_allocation": "allocation",
        "residual_distance": "residual",
    }


def fit_family(e, z, family) -> FitResult:
    """Fit min_{t in [0,1]} of the distance from z to the family at t.

    Writing A for the no-transfer allocation and B for the family's full
    transfer endpoint, the member at t is B + t(A - B) and the optimum is
    <z - B, A - B> / |A - B|^2 clipped to the unit interval.  When the two
    endpoints coincide (within tolerance) every parameter fits equally
    well; the result is flagged degenerate and pinned at parameter 0.
    """
    e, z, family, segment = _basin(e, z, family)
    scale = segment.scale
    # relative to the basin alone, with no absolute floor, so that a tiny
    # basin is not degenerate for being tiny
    if segment.length is None or segment.length <= RELATIVE_TOLERANCE * e.total * scale:
        return FitResult(family, 0.0, segment.b, _distance(segment.b, z, scale), False, None, True)
    raw = segment.raw
    t = min(1.0, max(0.0, raw))
    member = _member(e, family, t)
    return FitResult(family, t, member, _distance(member, z, scale), t != raw, raw, False)


def distance_at(e, z, family, parameter: float) -> float:
    """Euclidean distance from the observation to the family at `parameter`.

    Read off the projection as |A - B| hypot(t - t0, h / |A - B|), with t0
    the parameter nearest z and h the distance from z to the line, it can
    differ from the distance to `family_member` at t in the last bits.
    """
    e, z, family, segment = _basin(e, z, family)
    t = _check_weight(parameter, family)
    if segment.raw is None:
        return _distance(segment.b, z, segment.scale)
    return segment.length * math.hypot(t - segment.raw, segment.height) / segment.scale


#: Most Gauss-Legendre nodes a distance integral may use.  Building a rule
#: evaluates the count-term recurrence about twice per root, so the work
#: grows as count^2: about 0.1 s at this bound on a 2-core x86 VM.
_MAX_NODES = 1024


def _check_nodes(nodes, most: int = _MAX_NODES) -> None:
    if _check_int(nodes, "nodes") < 1:
        raise ParameterError(f"nodes must be a positive integer, got {nodes!r}")
    if nodes > most:
        raise ParameterError(f"nodes must be at most {most}, got {nodes}")


@lru_cache(maxsize=8)
def _unit_interval_nodes(count: int) -> tuple[tuple[float, float], ...]:
    """The `count`-point Gauss-Legendre rule on (0, 1), as (node, weight)
    pairs in increasing node order.

    The nodes are the roots x of the Legendre polynomial P_count, mapped
    from (-1, 1).  Each root in [0, 1) is found by Newton's method on the
    three-term recurrence, starting from Tricomi's asymptotic estimate; the
    rule is symmetric, so the other half is its mirror image.  The weight of
    x is 1 / ((1 - x^2) P'(x)^2), half the weight on (-1, 1), with 1 - x^2
    taken as (1 - x)(1 + x).  The weights are then scaled to sum to one,
    which moves each by a few units in the last place.
    """
    n = count
    # P_j = a_j x P_(j-1) - b_j P_(j-2)
    steps = [((2 * j - 1) / j, (j - 1) / j) for j in range(2, n + 1)]
    nodes = [0.0] * n
    weights = [0.0] * n
    for k in range((n + 1) // 2):
        x = (1.0 - (n - 1) / (8.0 * n**3)) * math.cos(math.pi * (k + 0.75) / (n + 0.5))
        for _ in range(8):
            p0, p1 = 1.0, x
            for a, b in steps:
                p0, p1 = p1, a * x * p1 - b * p0
            derivative = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
            step = p1 / derivative
            x -= step
            if abs(step) <= 1e-15:
                break
        nodes[k] = (1.0 - x) / 2.0
        nodes[n - 1 - k] = (1.0 + x) / 2.0
        weights[k] = weights[n - 1 - k] = 1.0 / ((1.0 - x) * (1.0 + x) * derivative * derivative)
    total = math.fsum(weights)
    return tuple([(t, w / total) for t, w in zip(nodes, weights)])


def _hyperbola_integral(t0: float, height: float) -> float:
    """The integral of hypot(t - t0, height) over t in [0, 1].

    With s = t - t0 the antiderivative is
    (s hypot(s, height) + height^2 asinh(s / height)) / 2.  Between
    s0 = -t0 and s1 = 1 - t0 of opposite signs both of its differences
    add terms of one sign.  When the ends lie on one side of t0, at
    distances lo and hi = lo + 1 with H = hypot(., height) at each, the
    differences are written without cancellation:
    hi H_hi - lo H_lo = (lo + hi)(lo^2 + H_hi^2) / (hi H_hi + lo H_lo), here
    divided through by H_hi so that no square can overflow, and the asinh
    difference is log1p((1 + (lo + hi) / (H_lo + H_hi)) / (lo + H_lo)).
    Below height 1.5e-162 the height^2 term is under 1e-320 while the
    integral is at least 1/4, so the profile is taken as |t - t0|, whose
    integral is exact at height 0; this also keeps every division by
    height finite.
    """
    s0, s1 = -t0, 1.0 - t0
    flat = height * height == 0.0
    if s0 > 0.0 or s1 < 0.0:
        lo, hi = (s0, s1) if s0 > 0.0 else (-s1, -s0)
        if flat:
            return (lo + hi) / 2.0
        near, far = math.hypot(lo, height), math.hypot(hi, height)
        ends = (lo + hi) / (hi + lo * (near / far)) * (lo * (lo / far) + far)
        logs = math.log1p((1.0 + (lo + hi) / (near + far)) / (lo + near))
    else:
        if flat:
            return (s0 * s0 + s1 * s1) / 2.0
        ends = s1 * math.hypot(s1, height) - s0 * math.hypot(s0, height)
        logs = math.asinh(s1 / height) - math.asinh(s0 / height)
    return (ends + height * (height * logs)) / 2.0


def integrate_distance(e, z, family, nodes: int | None = None) -> float:
    """Average distance from z over the whole family, times one.

    With u = B - z and D = A - B the distance profile is
    |u + tD| = |D| hypot(t - t0, h / |D|), where t0 is the parameter
    nearest z and h = |u + t0 D| the distance there: the projection that
    `fit_family` also reads.  By default the integral over the unit
    parameter interval is the profile's closed-form antiderivative, in
    constant time after the projection's three passes over the agents.
    When the endpoints coincide the profile is the constant |u|, returned
    as is.

    The closed form is written without cancellation, so it is accurate to
    a few units in the last place wherever t0 lies, on the family's line
    (h = 0, as for any normalized two-agent observation) as well as off
    it: over 10^4 random family-basins of 2 to 30 agents it stayed within
    9e-16 relative of a 30-digit mpmath evaluation.

    An integer `nodes` integrates the same profile with `nodes`-point
    Gauss-Legendre instead, one `hypot` per node, as a cross-check.  The
    profile is convex with one kink at most, sharp where z lies close to
    the line: there 64 nodes can be off by a few parts in 10^4 and 256 by
    a few parts in 10^5.
    """
    e, z, family, segment = _basin(e, z, family)
    if nodes is not None:
        _check_nodes(nodes)
    scale = segment.scale
    if segment.raw is None:
        return _distance(segment.b, z, scale)
    t0, length, height = segment.raw, segment.length, segment.height
    if nodes is None:
        return length * _hyperbola_integral(t0, height) / scale
    hypot = math.hypot
    rule = _unit_interval_nodes(nodes)
    return length * math.fsum([w * hypot(t - t0, height) for t, w in rule]) / scale


# ---------------------------------------------------------------------------
# legitimacy intervals


class Legitimacy(Enum):
    LEGITIMATE = "legitimate"
    BELOW_LOWER = "below-lower"
    ABOVE_UPPER = "above-upper"


class LegitimacyEntry(_Record):
    """One agent's observed amount against its family interval.

    One is built per agent, so the fields share one tuple slot and are read
    through properties: a single store per entry instead of six.
    """

    __slots__ = ("_values",)
    _fields = ("agent", "position", "lower", "upper", "observed", "classification")

    def __init__(
        self,
        agent: str,
        position: int,
        lower: float,
        upper: float,
        observed: float,
        classification: Legitimacy,
    ):
        object.__setattr__(
            self, "_values", (agent, position, lower, upper, observed, classification)
        )

    agent = property(lambda self: self._values[0])
    position = property(lambda self: self._values[1])
    lower = property(lambda self: self._values[2])
    upper = property(lambda self: self._values[3])
    observed = property(lambda self: self._values[4])
    classification = property(lambda self: self._values[5])

    @classmethod
    def _of_rows(cls, rows: list[tuple]) -> tuple["LegitimacyEntry", ...]:
        """One entry per tuple of the six field values in `rows`, built
        without running `__init__`: C builtins make the objects and fill
        their one slot."""
        entries = tuple(map(object.__new__, repeat(cls, len(rows))))
        deque(map(cls._values.__set__, entries, rows), maxlen=0)
        return entries

    def _key(self) -> tuple:
        return self._values


class LegitimacyReport(_Record):
    """Every agent's legitimacy entry for one family."""

    __slots__ = _fields = ("family", "entries")

    @property
    def classifications(self) -> tuple[Legitimacy, ...]:
        return tuple(entry.classification for entry in self.entries)

    @property
    def all_legitimate(self) -> bool:
        return all(c is Legitimacy.LEGITIMATE for c in self.classifications)


def legitimacy_bounds(e, z, family, names=None, tol=None) -> LegitimacyReport:
    """Classify each observed amount against its family envelope.

    A family member at parameter t gives agent i the amount
    B_i + t(A_i - B_i), so over t in [0, 1] agent i can receive anything
    between min(A_i, B_i) and max(A_i, B_i).  Observations inside that
    interval (within tolerance) are legitimate; the rest fall below the
    lower bound or above the upper one.
    """
    e, z, family, segment = _basin(e, z, family)
    if names is None:
        names = tuple(f"agent {i}" for i in range(len(e)))
    else:
        names = tuple(map(str, _as_tuple(names, ParameterError, "agent names must be a sequence")))
        if len(names) != len(e):
            raise DimensionError(f"{len(names)} names for {len(e)} agents")
    tol = _resolved_tolerance(tol, max(e.total, z.total))
    a, b = segment.a, segment.b
    below, above, inside = Legitimacy.BELOW_LOWER, Legitimacy.ABOVE_UPPER, Legitimacy.LEGITIMATE
    # lower and upper are min(A_i, B_i) and max(A_i, B_i) without the calls:
    # on a tie both keep A_i, as min and max do, so a zero keeps its sign
    rows = [
        (
            name, i, (lower := bi if bi < ai else ai), (upper := bi if bi > ai else ai), zi,
            below if zi < lower - tol else above if zi > upper + tol else inside,
        )
        for i, (name, ai, bi, zi) in enumerate(zip(names, a.amounts, b.amounts, z.amounts))
    ]
    return LegitimacyReport(family, LegitimacyEntry._of_rows(rows))


def shares_of_total(values) -> tuple[float, ...]:
    """Each entry divided by the (positive) total of all entries."""
    items, total = _checked_floats(values, "entry", ParameterError, False)
    if total == math.inf:
        raise ParameterError("the total of the entries is too large to represent as a float")
    if not total > 0.0:
        raise ParameterError(f"shares need a positive total, got {total}")
    return tuple(map(total.__rtruediv__, items))


# ---------------------------------------------------------------------------
# the Nile case study


#: Reference summary table for the Nile analysis, in km^3/year at the one
#: decimal place the underlying withdrawal statistics are reported with.
#: Column order: observed, then six rules labelled as `parse_rule` reads them.
NILE_REFERENCE_TABLE: tuple[tuple[str, tuple[float, ...]], ...] = (
    ("observed", (5.4, 0.7, 0.7, 28.1, 81.0)),
    ("eft", (0.0, 4.2, 9.6, 18.4, 83.7)),
    ("compromise:0.5", (8.40, 10.20, 13.60, 41.85, 41.85)),
    ("nt", (16.8, 16.2, 17.6, 65.3, 0.0)),
    ("partial:0.5", (8.40, 12.22, 17.33, 63.46, 14.49)),
    ("ept", (0.0, 8.25, 17.05, 61.62, 28.98)),
    ("shapley", (3.36, 7.41, 13.28, 45.93, 45.93)),
)

#: Every other reference check of the same analysis, in report order:
#: name -> (expected, tolerance), where a tolerance of None asks for
#: equality.  The `quadrature:*` rows compare each exact distance integral
#: with Gauss-Legendre quadrature on twice the nodes.
NILE_REFERENCE_STATS: dict = {
    "fit:compromise:parameter": (0.068, 0.001),
    "fit:compromise:allocation": ((1.1, 5.0, 10.2, 21.6, 78.0), 0.1),
    "fit:partial:parameter": (0.0, None),
    "fit:partial:clipped": (True, None),
    "integral:compromise": (46.52, 0.01),
    "integral:partial": (78.27, 0.01),
    "quadrature:compromise": (0.0, 1e-8),
    "quadrature:partial": (0.0, 1e-8),
    "legitimacy:compromise": (
        ("legitimate", "below-lower", "below-lower", "legitimate", "legitimate"), None,
    ),
    "legitimacy:partial": (
        ("legitimate", "below-lower", "below-lower", "below-lower", "above-upper"), None,
    ),
    "share:observed:Egypt": (0.70, 0.005),
    "share:inflow:Tanzania": (0.145, 0.001),
}

_TABLE_TOLERANCE = 0.01


class ReferenceCheck(_Record):
    """One computed statistic next to its reference value."""

    __slots__ = _fields = ("name", "expected", "actual", "tolerance", "ok")


def _reference_check(name: str, expected, actual, tolerance: float | None) -> ReferenceCheck:
    """`actual` against `expected`: equal when `tolerance` is None, else
    within `tolerance`, entry by entry for a tuple."""
    if tolerance is None:
        ok = expected == actual
    elif isinstance(expected, tuple):
        gap = max(abs(a - b) for a, b in zip(actual, expected))
        ok = len(actual) == len(expected) and gap <= tolerance
    else:
        ok = abs(actual - expected) <= tolerance
    return ReferenceCheck(name, expected, actual, tolerance, ok)


class CaseStudyResult(_Record):
    """Everything the Nile analysis produces, with its reference checks."""

    __slots__ = _fields = (
        "names", "inflows", "withdrawals", "observed", "observed_exact",
        "reporting_decimals", "table", "compromise_fit", "partial_fit",
        "compromise_integral", "partial_integral", "compromise_integral_fine",
        "partial_integral_fine", "compromise_legitimacy", "partial_legitimacy",
        "inflow_shares", "observed_shares", "checks",
    )

    @property
    def all_ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> tuple[ReferenceCheck, ...]:
        return tuple(check for check in self.checks if not check.ok)

    def to_dict(self) -> dict:
        # the table's (label, column) pairs become an object, and the two
        # families' fields are grouped under fits, integrals and legitimacy
        data = _Record.to_dict(self)
        pop = data.pop
        data.update(
            table=dict(data["table"]),
            fits={"compromise": pop("compromise_fit"), "partial": pop("partial_fit")},
            integrals={
                "compromise": pop("compromise_integral"),
                "partial": pop("partial_integral"),
                "compromise_fine": pop("compromise_integral_fine"),
                "partial_fine": pop("partial_integral_fine"),
            },
            legitimacy={
                "compromise": pop("compromise_legitimacy"),
                "partial": pop("partial_legitimacy"),
            },
            all_ok=self.all_ok,
        )
        return data


def nile_case_study(reporting_decimals: int | None = 1, nodes: int = 64) -> CaseStudyResult:
    """Run the full Nile analysis and compare it against reference values.

    The underlying withdrawal statistics are published at one decimal
    place, and the reference fit, integral, and share figures all derive
    from the summary table at that precision.  The default therefore
    rounds the normalized withdrawals to `reporting_decimals` before any
    statistic is computed from them; the exact normalization is kept in
    `observed_exact`.  Passing reporting_decimals=None analyzes the exact
    normalization instead, which moves the distance integrals (and the
    last digit of the fitted parameter) slightly off the reference values.

    The integrals are exact; the `*_integral_fine` fields integrate the
    same profiles with 2 * `nodes`-point Gauss-Legendre, and the
    `quadrature:*` checks compare the two.
    """
    if reporting_decimals is not None and _check_int(reporting_decimals, "reporting_decimals") < 0:
        raise ParameterError(
            f"reporting_decimals must be a non-negative integer or None, got {reporting_decimals!r}"
        )
    # the quadrature cross-check of the exact integrals uses twice as many nodes
    _check_nodes(nodes, most=_MAX_NODES // 2)
    dataset = builtin_nile()
    e = dataset.inflows
    exact = dataset.normalized_withdrawals()
    if reporting_decimals is None:
        observed = tuple(exact)
    else:
        observed = tuple(round(v, reporting_decimals) for v in exact)
    z = ObservedAllocation(observed)

    # every column but the observed one is labelled with its rule
    computed = {
        label: observed if label == "observed" else tuple(parse_rule(label).apply(e))
        for label, _ in NILE_REFERENCE_TABLE
    }
    table = tuple(computed.items())

    compromise_fit = fit_family(e, z, Family.COMPROMISE)
    partial_fit = fit_family(e, z, Family.PARTIAL_COMPROMISE)
    integrals = {family: integrate_distance(e, z, family) for family in Family}
    integrals_fine = {
        family: integrate_distance(e, z, family, nodes=2 * nodes) for family in Family
    }
    legitimacy = {
        family: legitimacy_bounds(e, z, family, names=dataset.names) for family in Family
    }
    inflow_shares = shares_of_total(e)
    observed_shares = shares_of_total(observed)

    egypt = dataset.names.index("Egypt")
    tanzania = dataset.names.index("Tanzania")
    actual = {
        "fit:compromise:parameter": compromise_fit.parameter_star,
        "fit:compromise:allocation": tuple(compromise_fit.fitted_allocation),
        "fit:partial:parameter": partial_fit.parameter_star,
        "fit:partial:clipped": partial_fit.clipped,
        "integral:compromise": integrals[Family.COMPROMISE],
        "integral:partial": integrals[Family.PARTIAL_COMPROMISE],
        **{
            f"quadrature:{family.value}": abs(integrals_fine[family] - integrals[family])
            for family in Family
        },
        **{
            f"legitimacy:{family.value}": tuple(c.value for c in legitimacy[family].classifications)
            for family in Family
        },
        "share:observed:Egypt": observed_shares[egypt],
        "share:inflow:Tanzania": inflow_shares[tanzania],
    }
    checks = [
        _reference_check(f"table:{label}", reference, computed[label], _TABLE_TOLERANCE)
        for label, reference in NILE_REFERENCE_TABLE
    ] + [
        _reference_check(name, expected, actual[name], tolerance)
        for name, (expected, tolerance) in NILE_REFERENCE_STATS.items()
    ]

    return CaseStudyResult(
        names=dataset.names,
        inflows=tuple(e),
        withdrawals=dataset.withdrawals,
        observed=observed,
        observed_exact=tuple(exact),
        reporting_decimals=reporting_decimals,
        table=table,
        compromise_fit=compromise_fit,
        partial_fit=partial_fit,
        compromise_integral=integrals[Family.COMPROMISE],
        partial_integral=integrals[Family.PARTIAL_COMPROMISE],
        compromise_integral_fine=integrals_fine[Family.COMPROMISE],
        partial_integral_fine=integrals_fine[Family.PARTIAL_COMPROMISE],
        compromise_legitimacy=legitimacy[Family.COMPROMISE],
        partial_legitimacy=legitimacy[Family.PARTIAL_COMPROMISE],
        inflow_shares=inflow_shares,
        observed_shares=observed_shares,
        checks=tuple(checks),
    )
