"""Fitting observed allocations to one-parameter rule families.

Both families interpolate linearly between a full-transfer endpoint and the
no-transfer rule, so the best fit in Euclidean distance has a closed form:
project the observation onto the segment between the two endpoint
allocations and clip the coefficient to [0, 1].  On top of the fit this
module provides the distance profile along a family, its quadrature
average, per-agent legitimacy intervals, and the embedded Nile basin case
study with its reference checks.

numpy is imported only when a distance integral is computed: by
`integrate_distance`, and so by `nile_case_study`.  Importing this module,
fitting, and the legitimacy intervals load no numpy.  Quadrature takes at
most 1024 nodes (`_MAX_NODES`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence

from .core import (
    Allocation,
    DimensionError,
    ObservedAllocation,
    ParameterError,
    RuleKind,
    RuleSpec,
    as_observed,
    as_profile,
    no_transfer,
    parse_rule,
    tolerance_for,
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
    return RuleSpec(RuleKind(as_family(family).value), weight=parameter).apply(e)


def _distance(x: Sequence[float], z: Sequence[float]) -> float:
    return math.sqrt(math.fsum((a - b) * (a - b) for a, b in zip(x, z)))


@dataclass(frozen=True)
class FitResult:
    """Least-squares projection of an observation onto a rule family."""

    family: Family
    parameter_star: float
    fitted_allocation: Allocation
    residual_distance: float
    clipped: bool
    unconstrained_parameter: float | None
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "parameter": self.parameter_star,
            "allocation": list(self.fitted_allocation),
            "residual": self.residual_distance,
            "clipped": self.clipped,
            "unconstrained_parameter": self.unconstrained_parameter,
            "degenerate": self.degenerate,
        }


def fit_family(e, z, family) -> FitResult:
    """Fit min_{t in [0,1]} of the distance from z to the family at t.

    Writing A for the no-transfer allocation and B for the family's full
    transfer endpoint, the member at t is B + t(A - B) and the optimum is
    <z - B, A - B> / |A - B|^2 clipped to the unit interval.  When the two
    endpoints coincide (within tolerance) every parameter fits equally
    well; the result is flagged degenerate and pinned at parameter 0.
    """
    e = as_profile(e)
    z = as_observed(z)
    family = as_family(family)
    if len(z) != len(e):
        raise DimensionError(f"observation has {len(z)} entries for {len(e)} agents")
    a = no_transfer(e)
    b = family_member(e, family, 0.0)
    direction = [ai - bi for ai, bi in zip(a, b)]
    gram = math.fsum(d * d for d in direction)
    if math.sqrt(gram) <= tolerance_for(e.total):
        member = family_member(e, family, 0.0)
        return FitResult(
            family=family,
            parameter_star=0.0,
            fitted_allocation=member,
            residual_distance=_distance(member, z),
            clipped=False,
            unconstrained_parameter=None,
            degenerate=True,
        )
    raw = math.fsum((zi - bi) * d for zi, bi, d in zip(z, b, direction)) / gram
    t = min(1.0, max(0.0, raw))
    member = family_member(e, family, t)
    return FitResult(
        family=family,
        parameter_star=t,
        fitted_allocation=member,
        residual_distance=_distance(member, z),
        clipped=(t != raw),
        unconstrained_parameter=raw,
    )


def distance_at(e, z, family, parameter: float) -> float:
    """Euclidean distance from the observation to the family at `parameter`."""
    e = as_profile(e)
    z = as_observed(z)
    if len(z) != len(e):
        raise DimensionError(f"observation has {len(z)} entries for {len(e)} agents")
    member = family_member(e, family, parameter)
    return _distance(member, z)


#: Most Gauss-Legendre nodes a distance integral may use.  leggauss builds a
#: count x count companion matrix, so the bound keeps memory and time small.
_MAX_NODES = 1024


def _check_nodes(nodes, most: int = _MAX_NODES) -> None:
    if not isinstance(nodes, int) or nodes < 1:
        raise ParameterError(f"nodes must be a positive integer, got {nodes!r}")
    if nodes > most:
        raise ParameterError(f"nodes must be at most {most}, got {nodes}")


@lru_cache(maxsize=8)
def _unit_interval_nodes(count: int):
    # Gauss-Legendre nodes mapped from (-1, 1) onto (0, 1)
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(count)
    return (nodes + 1.0) / 2.0, weights / 2.0


def integrate_distance(e, z, family, nodes: int = 64) -> float:
    """Average distance from z over the whole family, times one.

    Quadrature of the distance profile over the unit parameter interval
    with `nodes`-point Gauss-Legendre.  The profile is convex with one
    kink at most, so 64 nodes already agree with 128 to well below 1e-8
    on well-scaled data.
    """
    e = as_profile(e)
    z = as_observed(z)
    family = as_family(family)
    if len(z) != len(e):
        raise DimensionError(f"observation has {len(z)} entries for {len(e)} agents")
    _check_nodes(nodes)
    import numpy as np

    t, w = _unit_interval_nodes(nodes)
    a = np.asarray(no_transfer(e), dtype=float)
    b = np.asarray(family_member(e, family, 0.0), dtype=float)
    zz = np.asarray(tuple(z), dtype=float)
    offsets = (b - zz)[None, :] + np.outer(t, a - b)
    norms = np.sqrt((offsets * offsets).sum(axis=1))
    return float(w @ norms)


# ---------------------------------------------------------------------------
# legitimacy intervals


class Legitimacy(Enum):
    LEGITIMATE = "legitimate"
    BELOW_LOWER = "below-lower"
    ABOVE_UPPER = "above-upper"


@dataclass(frozen=True)
class LegitimacyEntry:
    agent: str
    position: int
    lower: float
    upper: float
    observed: float
    classification: Legitimacy

    def to_dict(self) -> dict:
        return {
            "agent": self.agent,
            "position": self.position,
            "lower": self.lower,
            "upper": self.upper,
            "observed": self.observed,
            "classification": self.classification.value,
        }


@dataclass(frozen=True)
class LegitimacyReport:
    family: Family
    entries: tuple[LegitimacyEntry, ...]

    @property
    def classifications(self) -> tuple[Legitimacy, ...]:
        return tuple(entry.classification for entry in self.entries)

    @property
    def all_legitimate(self) -> bool:
        return all(c is Legitimacy.LEGITIMATE for c in self.classifications)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "entries": [entry.to_dict() for entry in self.entries],
        }


def legitimacy_bounds(e, z, family, names=None, tol=None) -> LegitimacyReport:
    """Classify each observed amount against its family envelope.

    A family member at parameter t gives agent i the amount
    B_i + t(A_i - B_i), so over t in [0, 1] agent i can receive anything
    between min(A_i, B_i) and max(A_i, B_i).  Observations inside that
    interval (within tolerance) are legitimate; the rest fall below the
    lower bound or above the upper one.
    """
    e = as_profile(e)
    z = as_observed(z)
    family = as_family(family)
    if len(z) != len(e):
        raise DimensionError(f"observation has {len(z)} entries for {len(e)} agents")
    if names is None:
        names = tuple(f"agent {i}" for i in range(len(e)))
    else:
        names = tuple(str(n) for n in names)
        if len(names) != len(e):
            raise DimensionError(f"{len(names)} names for {len(e)} agents")
    if tol is None:
        tol = tolerance_for(max(e.total, z.total))
    a = no_transfer(e)
    b = family_member(e, family, 0.0)
    entries = []
    for i, name in enumerate(names):
        lower, upper = min(a[i], b[i]), max(a[i], b[i])
        if z[i] < lower - tol:
            kind = Legitimacy.BELOW_LOWER
        elif z[i] > upper + tol:
            kind = Legitimacy.ABOVE_UPPER
        else:
            kind = Legitimacy.LEGITIMATE
        entries.append(
            LegitimacyEntry(
                agent=name,
                position=i,
                lower=lower,
                upper=upper,
                observed=z[i],
                classification=kind,
            )
        )
    return LegitimacyReport(family=family, entries=tuple(entries))


def shares_of_total(values) -> tuple[float, ...]:
    """Each entry divided by the (positive) total of all entries."""
    items = tuple(float(v) for v in values)
    for k, v in enumerate(items):
        if not math.isfinite(v):
            raise ParameterError(f"entry at position {k} must be finite, got {v}")
    total = math.fsum(items)
    if not total > 0.0:
        raise ParameterError(f"shares need a positive total, got {total}")
    return tuple(v / total for v in items)


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

#: Reference fit, integral, and share statistics for the same analysis.
NILE_REFERENCE_STATS: dict = {
    "fit:compromise:parameter": (0.068, 0.001),
    "fit:compromise:allocation": ((1.1, 5.0, 10.2, 21.6, 78.0), 0.1),
    "fit:partial:parameter": 0.0,
    "integral:compromise": (46.52, 0.01),
    "integral:partial": (78.27, 0.01),
    "legitimacy:compromise": (
        "legitimate", "below-lower", "below-lower", "legitimate", "legitimate",
    ),
    "legitimacy:partial": (
        "legitimate", "below-lower", "below-lower", "below-lower", "above-upper",
    ),
    "share:observed:Egypt": (0.70, 0.005),
    "share:inflow:Tanzania": (0.145, 0.001),
}

_TABLE_TOLERANCE = 0.01
_QUADRATURE_CONSISTENCY = 1e-8


@dataclass(frozen=True)
class ReferenceCheck:
    """One computed statistic next to its reference value."""

    name: str
    expected: object
    actual: object
    tolerance: float | None
    ok: bool

    def to_dict(self) -> dict:
        expected = self.expected
        actual = self.actual
        if isinstance(expected, tuple):
            expected = list(expected)
        if isinstance(actual, tuple):
            actual = list(actual)
        return {
            "name": self.name,
            "expected": expected,
            "actual": actual,
            "tolerance": self.tolerance,
            "ok": self.ok,
        }


def _close_check(name: str, expected, actual, tolerance: float) -> ReferenceCheck:
    if isinstance(expected, tuple):
        gap = max(abs(a - b) for a, b in zip(actual, expected))
        ok = len(actual) == len(expected) and gap <= tolerance
    else:
        ok = abs(actual - expected) <= tolerance
    return ReferenceCheck(name=name, expected=expected, actual=actual, tolerance=tolerance, ok=ok)


def _exact_check(name: str, expected, actual) -> ReferenceCheck:
    return ReferenceCheck(
        name=name, expected=expected, actual=actual, tolerance=None, ok=(expected == actual)
    )


@dataclass(frozen=True)
class CaseStudyResult:
    """Everything the Nile analysis produces, with its reference checks."""

    names: tuple[str, ...]
    inflows: tuple[float, ...]
    withdrawals: tuple[float, ...]
    observed: tuple[float, ...]
    observed_exact: tuple[float, ...]
    reporting_decimals: int | None
    table: tuple[tuple[str, tuple[float, ...]], ...]
    compromise_fit: FitResult
    partial_fit: FitResult
    compromise_integral: float
    partial_integral: float
    compromise_integral_fine: float
    partial_integral_fine: float
    compromise_legitimacy: LegitimacyReport
    partial_legitimacy: LegitimacyReport
    inflow_shares: tuple[float, ...]
    observed_shares: tuple[float, ...]
    checks: tuple[ReferenceCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> tuple[ReferenceCheck, ...]:
        return tuple(check for check in self.checks if not check.ok)

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "inflows": list(self.inflows),
            "withdrawals": list(self.withdrawals),
            "observed": list(self.observed),
            "observed_exact": list(self.observed_exact),
            "reporting_decimals": self.reporting_decimals,
            "table": {label: list(column) for label, column in self.table},
            "fits": {
                "compromise": self.compromise_fit.to_dict(),
                "partial": self.partial_fit.to_dict(),
            },
            "integrals": {
                "compromise": self.compromise_integral,
                "partial": self.partial_integral,
                "compromise_fine": self.compromise_integral_fine,
                "partial_fine": self.partial_integral_fine,
            },
            "legitimacy": {
                "compromise": self.compromise_legitimacy.to_dict(),
                "partial": self.partial_legitimacy.to_dict(),
            },
            "inflow_shares": list(self.inflow_shares),
            "observed_shares": list(self.observed_shares),
            "checks": [check.to_dict() for check in self.checks],
            "all_ok": self.all_ok,
        }


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
    """
    if reporting_decimals is not None and (
        not isinstance(reporting_decimals, int) or reporting_decimals < 0
    ):
        raise ParameterError(
            f"reporting_decimals must be a non-negative integer or None, got {reporting_decimals!r}"
        )
    # the quadrature cross-check integrates with twice as many nodes
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
    integrals = {
        family: integrate_distance(e, z, family, nodes=nodes) for family in Family
    }
    integrals_fine = {
        family: integrate_distance(e, z, family, nodes=2 * nodes) for family in Family
    }
    legitimacy = {
        family: legitimacy_bounds(e, z, family, names=dataset.names) for family in Family
    }
    inflow_shares = shares_of_total(e)
    observed_shares = shares_of_total(observed)

    checks = [
        _close_check(f"table:{label}", reference, computed[label], _TABLE_TOLERANCE)
        for label, reference in NILE_REFERENCE_TABLE
    ]
    stats = NILE_REFERENCE_STATS
    expected, tol = stats["fit:compromise:parameter"]
    checks.append(_close_check("fit:compromise:parameter", expected, compromise_fit.parameter_star, tol))
    expected, tol = stats["fit:compromise:allocation"]
    checks.append(
        _close_check("fit:compromise:allocation", expected, tuple(compromise_fit.fitted_allocation), tol)
    )
    checks.append(
        _exact_check("fit:partial:parameter", stats["fit:partial:parameter"], partial_fit.parameter_star)
    )
    checks.append(_exact_check("fit:partial:clipped", True, partial_fit.clipped))
    expected, tol = stats["integral:compromise"]
    checks.append(_close_check("integral:compromise", expected, integrals[Family.COMPROMISE], tol))
    expected, tol = stats["integral:partial"]
    checks.append(_close_check("integral:partial", expected, integrals[Family.PARTIAL_COMPROMISE], tol))
    for family in Family:
        checks.append(
            _close_check(
                f"quadrature:{family.value}",
                0.0,
                abs(integrals_fine[family] - integrals[family]),
                _QUADRATURE_CONSISTENCY,
            )
        )
    for family in Family:
        checks.append(
            _exact_check(
                f"legitimacy:{family.value}",
                stats[f"legitimacy:{family.value}"],
                tuple(c.value for c in legitimacy[family].classifications),
            )
        )
    egypt = dataset.names.index("Egypt")
    tanzania = dataset.names.index("Tanzania")
    expected, tol = stats["share:observed:Egypt"]
    checks.append(_close_check("share:observed:Egypt", expected, observed_shares[egypt], tol))
    expected, tol = stats["share:inflow:Tanzania"]
    checks.append(_close_check("share:inflow:Tanzania", expected, inflow_shares[tanzania], tol))

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
