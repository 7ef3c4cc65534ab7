"""Tests for family fitting, distance quadrature, legitimacy, case study.

The fit is checked against a dense grid search and the integral against
an adaptive Simpson refinement, the closed-form integral, numpy's
Gauss-Legendre rule applied node by node, and mpmath's 30-digit
antiderivative and quadrature, all written directly from the definitions
rather than through the library's closed forms.  Per-call
endpoint, fit, integral and legitimacy formulas are kept here as references
for the family segment the library shares between calls.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

try:
    import mpmath
except ImportError:  # the mpmath oracles are skipped without it
    mpmath = None
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    RELATIVE_TOLERANCE,
    Allocation,
    DimensionError,
    InflowProfile,
    ObservedAllocation,
    ParameterError,
    RiverShareError,
    compromise,
    egalitarian_full_transfer,
    egalitarian_partial_transfer,
    no_transfer,
    partial_compromise,
    tolerance_for,
)
from rivershare.data_io import BasinDataset, DatasetError, builtin_nile, normalize_withdrawals

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


def closed_form_integral(e, z, family):
    """The integral over [0, 1] of |B - z + t(A - B)|, in closed form.

    With u = B - z and d = A - B the integrand is sqrt(a t^2 + b t + c),
    a = |d|^2, b = 2 u.d, c = |u|^2.  Around its minimizer t0 = -b / 2a it
    is sqrt(a s^2 + h^2) with s = t - t0, and h is the perpendicular
    distance |u + t0 d|, taken from the vector so that z near the line
    stays accurate.  The antiderivative of sqrt(a s^2 + h^2) is
    (s sqrt(a s^2 + h^2) + (h^2 / sqrt(a)) asinh(sqrt(a) s / h)) / 2.
    """
    a_end = tuple(no_transfer(e))
    if family is Family.COMPROMISE:
        b_end = tuple(egalitarian_full_transfer(e))
    else:
        b_end = tuple(egalitarian_partial_transfer(e))
    u = [bi - zi for bi, zi in zip(b_end, z)]
    d = [ai - bi for ai, bi in zip(a_end, b_end)]
    a = math.fsum(di * di for di in d)
    if a == 0.0:
        return math.sqrt(math.fsum(ui * ui for ui in u))
    t0 = -math.fsum(ui * di for ui, di in zip(u, d)) / a
    h = math.sqrt(math.fsum((ui + t0 * di) ** 2 for ui, di in zip(u, d)))
    r = math.sqrt(a)

    def antiderivative(s):
        if h == 0.0:
            return r * s * abs(s) / 2.0
        return (s * math.hypot(r * s, h) + h * h / r * math.asinh(r * s / h)) / 2.0

    return antiderivative(1.0 - t0) - antiderivative(-t0)


def numpy_integral(e, z, family, nodes=64):
    """numpy's Gauss-Legendre rule, with the distance |B - z + t(A - B)|
    computed at each node from the endpoint rules."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    t, w = (t + 1.0) / 2.0, w / 2.0
    a = np.asarray(no_transfer(e), dtype=float)
    if family is Family.COMPROMISE:
        b = np.asarray(egalitarian_full_transfer(e), dtype=float)
    else:
        b = np.asarray(egalitarian_partial_transfer(e), dtype=float)
    zz = np.asarray(tuple(z), dtype=float)
    offsets = (b - zz)[None, :] + np.outer(t, a - b)
    return float(w @ np.sqrt((offsets * offsets).sum(axis=1)))


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


def drawn_family_basins(seed, count):
    """`count` (e, z, family) cases over the whole range of basins.

    n runs from 2 to 30, two agents in every fifth case, at one magnitude
    in 1e-6..1e6, with a tenth of the inflows zero.  A third of the
    observations lie on the family's line or within 1e-15..1e-4 of it, at
    parameters from -0.5 to 1.5, so some lie beyond its endpoints; a third
    are normalized withdrawals, which lie on the line for two agents; the
    rest are uniform up to ten times the magnitude.
    """
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        n = 2 if k % 5 == 0 else rng.randint(3, 30)
        magnitude = 10.0 ** rng.uniform(-6.0, 6.0)
        e = InflowProfile(
            tuple(0.0 if rng.random() < 0.1 else rng.uniform(0.0, magnitude) for _ in range(n))
        )
        family = (Family.COMPROMISE, Family.PARTIAL_COMPROMISE)[k % 2]
        kind = k % 3 if e.total > 0.0 else 2
        if kind == 0:
            a, b = no_transfer(e), family_member(e, family, 0.0)
            t = rng.uniform(-0.5, 1.5)
            wobble = rng.choice((0.0, 1e-15, 1e-9, 1e-4))
            z = [
                max(0.0, (bi + t * (ai - bi)) * (1.0 + wobble * rng.uniform(-1.0, 1.0)))
                for ai, bi in zip(a, b)
            ]
        elif kind == 1:
            z = normalize_withdrawals(e, [rng.uniform(0.01, 100.0) for _ in range(n)])
        else:
            z = [rng.uniform(0.0, 10.0 * magnitude) for _ in range(n)]
        cases.append((e, ObservedAllocation(z), family))
    return cases


def exact_quadratic(e, z, family):
    """|B - z + t(A - B)|^2 = (a t^2 + 2 b t + c) / 4^shift, with a, b and c
    exact integers: every float is an integer over a power of two, so over
    the largest of those powers the endpoints and z are integers."""
    values = (*no_transfer(e), *family_member(e, family, 0.0), *z)
    ratios = [v.as_integer_ratio() for v in values]
    shift = max(q for _, q in ratios).bit_length() - 1
    ints = [p << (shift - q.bit_length() + 1) for p, q in ratios]
    n = len(e)
    d = [x - y for x, y in zip(ints[:n], ints[n : 2 * n])]
    u = [y - w for y, w in zip(ints[n : 2 * n], ints[2 * n :])]
    return (
        sum(x * x for x in d),
        sum(x * y for x, y in zip(u, d)),
        sum(x * x for x in u),
        shift,
    )


def mpmath_integral(mpmath, a, b, c, shift):
    """The integral over [0, 1] of sqrt(a t^2 + 2 b t + c) / 2^shift, from
    the antiderivative of `closed_form_integral` in mpmath.

    It is evaluated at 30 digits plus two for each digit of the minimizer
    t0, which covers what the difference of the antiderivative at the two
    ends cancels when t0 lies far outside [0, 1].
    """
    mpf, sqrt = mpmath.mpf, mpmath.sqrt
    if a == 0:
        return mpmath.ldexp(sqrt(c), -shift)
    with mpmath.workdps(30 + 2 * len(str(abs(b) // a))):
        t0 = mpf(-b) / a
        eta2 = mpf(a * c - b * b) / (a * a)
        s0, s1 = -t0, 1 - t0
        if eta2 == 0:
            twice = s1 * abs(s1) - s0 * abs(s0)
        else:
            eta = sqrt(eta2)
            twice = (
                s1 * sqrt(s1 * s1 + eta2)
                - s0 * sqrt(s0 * s0 + eta2)
                + eta2 * (mpmath.asinh(s1 / eta) - mpmath.asinh(s0 / eta))
            )
        return mpmath.ldexp(sqrt(a) * twice / 2, -shift)


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
        assert fit.fitted_allocation == family_member(e, family, 0.0)
    # water entering only at the mouth stays there under every member
    e = InflowProfile((0.0, 0.0, 5.0))
    z = ObservedAllocation((1.0, 1.0, 3.0))
    for family in Family:
        fit = fit_family(e, z, family)
        assert fit.degenerate
        assert fit.fitted_allocation == family_member(e, family, 0.0)
        assert fit.residual_distance == distance_at(e, z, family, 0.0) == math.sqrt(6.0)


def test_fit_dimension_mismatch():
    with pytest.raises(DimensionError):
        fit_family((1.0, 2.0), (1.0, 1.0, 1.0), Family.COMPROMISE)


def test_family_readers_check_their_arguments_alike():
    readers = (
        fit_family,
        lambda e, z, family: distance_at(e, z, family, 0.5),
        integrate_distance,
        legitimacy_bounds,
    )
    for reader in readers:
        with pytest.raises(DimensionError, match="^observation has 3 entries for 2 agents$"):
            reader((1.0, 2.0), (1.0, 1.0, 1.0), Family.COMPROMISE)
        # the family is checked before the lengths
        with pytest.raises(ParameterError, match="unknown family 'shapley'"):
            reader((1.0, 2.0), (1.0, 1.0, 1.0), "shapley")


@pytest.mark.parametrize("magnitude", [1e160, 1e300, 2.0**1000])
def test_large_basins_fit_like_the_unit_basin(magnitude):
    # squares of these amounts overflow a float; every result must still be
    # the unit basin's, scaled by the magnitude
    unit_e, unit_z = InflowProfile((1.0, 2.0, 0.0)), ObservedAllocation((1.0, 1.0, 1.0))
    e = unit_e.scaled(magnitude)
    z = ObservedAllocation([magnitude * v for v in unit_z])
    for family in Family:
        fit, unit_fit = fit_family(e, z, family), fit_family(unit_e, unit_z, family)
        assert not fit.degenerate and not fit.clipped
        assert fit.parameter_star == pytest.approx(unit_fit.parameter_star, rel=1e-14)
        assert fit.unconstrained_parameter == fit.parameter_star
        assert fit.residual_distance == pytest.approx(magnitude * unit_fit.residual_distance, rel=1e-14)
        for t in (0.0, 0.5, 1.0):
            assert distance_at(e, z, family, t) == pytest.approx(
                magnitude * distance_at(unit_e, unit_z, family, t), rel=1e-14
            )
        assert integrate_distance(e, z, family) == pytest.approx(
            magnitude * integrate_distance(unit_e, unit_z, family), rel=1e-14
        )


#: ROADMAP item 2's grid: a unit basin at these magnitudes, observed at
#: 1e-150 to 1e150 times the basin wherever that stays a normal float.
GRID_BASIN, GRID_OBSERVATION = InflowProfile((1.0, 2.0, 0.0)), (2.0, 0.5, 1.0)
GRID = [
    (magnitude, 10.0**k)
    for magnitude in (1e-300, 1e-200, 1e-160, 1e160, 1e300)
    for k in range(-150, 151, 50)
    if 2.0**-1022 <= magnitude * 10.0**k and math.isfinite(magnitude * 10.0**k * 2.0)
]


@pytest.mark.parametrize("magnitude,ratio", GRID)
def test_tiny_and_huge_basins_fit_like_the_unit_basin(magnitude, ratio):
    # every result is the unit basin's, observed at the same ratio, times
    # the magnitude; the observation is off the family's line and not
    # orthogonal to it, so every length is non-zero and every parameter
    # well conditioned
    unit_z = ObservedAllocation([ratio * v for v in GRID_OBSERVATION])
    e = GRID_BASIN.scaled(magnitude)
    z = ObservedAllocation([magnitude * v for v in unit_z])
    for family in Family:
        fit, unit_fit = fit_family(e, z, family), fit_family(GRID_BASIN, unit_z, family)
        assert not fit.degenerate and not unit_fit.degenerate
        assert fit.parameter_star == pytest.approx(unit_fit.parameter_star, rel=0.0, abs=1e-14)
        assert fit.unconstrained_parameter == pytest.approx(
            unit_fit.unconstrained_parameter, rel=1e-14, abs=1e-14
        )
        lengths = [(fit.residual_distance, unit_fit.residual_distance)]
        lengths += [
            (distance_at(e, z, family, t), distance_at(GRID_BASIN, unit_z, family, t))
            for t in (0.0, 0.5, 1.0)
        ]
        lengths.append((integrate_distance(e, z, family), integrate_distance(GRID_BASIN, unit_z, family)))
        for value, unit in lengths:
            assert math.isfinite(value) and value > 0.0
            assert value == pytest.approx(magnitude * unit, rel=1e-14, abs=0.0)


def test_a_tiny_basin_is_not_degenerate_for_being_tiny():
    # its endpoints differ by 1e-200, far below the absolute tolerance floor
    e = InflowProfile((1e-200, 3e-200, 0.0))
    z = ObservedAllocation((1e-200, 1e-200, 2e-200))
    unit = fit_family((1.0, 3.0, 0.0), (1.0, 1.0, 2.0), Family.COMPROMISE)
    fit = fit_family(e, z, Family.COMPROMISE)
    assert not fit.degenerate and not unit.degenerate
    assert fit.parameter_star == pytest.approx(unit.parameter_star, rel=1e-14)
    assert fit.residual_distance == pytest.approx(1e-200 * unit.residual_distance, rel=1e-14, abs=0.0)
    # endpoints that coincide within 1e-9 of the total still are
    e = InflowProfile((1e-210, 0.0, 1e-200))
    assert fit_family(e, (0.0, 0.0, 1e-200), Family.COMPROMISE).degenerate


def test_observations_far_above_the_basin_keep_every_digit():
    # z up to 1e300 / |e| times the basin: scaled by z's power of two, |A - B|^2
    # is subnormal from r = 1e155 and zero from 1e162, so only the
    # direction's own power of two keeps the projection's digits
    pytest.importorskip("mpmath")
    e = InflowProfile((1.1234567, 2.7182818, 0.3141592))
    for k in range(-150, 301):
        r = 10.0**k
        if r > 1e300 / e.total:
            break
        z = ObservedAllocation([r * v for v in (2.0, 0.5, 1.1)])
        for family in Family:
            quadratic = exact_quadratic(e, z, family)
            a, b = quadratic[:2]
            with mpmath.workdps(30):
                t0 = float(mpmath.mpf(-b) / a)
            fit = fit_family(e, z, family)
            assert not fit.degenerate, (r, family)
            assert fit.unconstrained_parameter == pytest.approx(t0, rel=1e-14, abs=0.0)
            for t in (0.0, 0.5, 1.0):
                exact_value = float(exact_distance(quadratic, t))
                assert distance_at(e, z, family, t) == pytest.approx(exact_value, rel=1e-14, abs=0.0)
            integral = float(mpmath_integral(mpmath, *quadratic))
            assert integrate_distance(e, z, family) == pytest.approx(integral, rel=1e-14, abs=0.0)


def test_a_segment_far_below_the_observation_reads_as_its_endpoint():
    # |A - B| is some 2^-1020 of |B - z|, so every member is B to the last
    # bit of its distance, and the hyperbola through the projection would
    # overflow: each reader gives |B - z|, finite
    e = InflowProfile((1e-308, 2e-308, 0.0))
    z = ObservedAllocation((2.0, 0.5, 1.1))
    for family in Family:
        gap = reference_distance(family_member(e, family, 0.0), z)
        fit = fit_family(e, z, family)
        assert fit.degenerate and fit.residual_distance == gap
        assert integrate_distance(e, z, family) == gap
        assert [distance_at(e, z, family, t) for t in (0.0, 0.5, 1.0)] == [gap] * 3


def test_as_family_coercion():
    assert as_family("compromise") is Family.COMPROMISE
    assert as_family("partial") is Family.PARTIAL_COMPROMISE
    assert as_family(Family.COMPROMISE) is Family.COMPROMISE
    # read as the rule, axiom and dataset names are: stripped and case-folded
    assert as_family("Compromise") is Family.COMPROMISE
    assert as_family(" PARTIAL\t") is Family.PARTIAL_COMPROMISE
    for name in ("shapley", "", "partial compromise"):
        with pytest.raises(ParameterError) as caught:
            as_family(name)
        assert str(caught.value) == f"unknown family {name!r}, expected one of: compromise, partial"


def test_family_member_endpoints():
    e = InflowProfile((3.0, 2.0, 1.0, 1.0))
    assert tuple(family_member(e, "compromise", 1.0)) == tuple(no_transfer(e))
    assert tuple(family_member(e, "compromise", 0.0)) == tuple(egalitarian_full_transfer(e))
    assert tuple(family_member(e, "partial", 0.0)) == tuple(egalitarian_partial_transfer(e))
    with pytest.raises(ParameterError):
        family_member(e, "partial", 1.5)
    # interior members have the weighted rules' bits, on random basins
    rng = random.Random(472)
    for _ in range(200):
        scale = 10.0 ** rng.randint(-6, 6)
        e = [rng.choice((0.0, rng.uniform(0.0, scale))) for _ in range(rng.randint(2, 30))]
        t = rng.random()
        for family, rule in ((Family.COMPROMISE, compromise), ("partial", partial_compromise)):
            member = family_member(e, family, t)
            assert [v.hex() for v in member] == [v.hex() for v in rule(e, t)], (e, family, t)


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
    # sharply curved near its minimum; the exact integral meets Simpson to
    # the oracle's own accuracy there (5e-13 of the scale at worst), and
    # 256 Gauss-Legendre nodes resolve it as well
    rng = random.Random(4242)
    cases = [(NILE.inflows, NILE_Z, family) for family in Family]
    for _ in range(25):
        e, family = random_case(rng)
        cases.append((e, random_observation(rng, e, family), family))
    for e, z, family in cases:
        oracle = simpson_integral(e, z, family)
        scale = max(1.0, oracle)
        assert integrate_distance(e, z, family) == pytest.approx(oracle, rel=0.0, abs=1e-12 * scale)
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
    # on the Nile 64 and 128 nodes both reach the exact integral's last digit
    for family in Family:
        exact = integrate_distance(NILE.inflows, NILE_Z, family)
        for nodes in (64, 128):
            quadrature = integrate_distance(NILE.inflows, NILE_Z, family, nodes=nodes)
            assert quadrature == pytest.approx(exact, rel=1e-15, abs=0.0)


RULE_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 64, 128, 1024)


@pytest.mark.parametrize("count", RULE_COUNTS)
def test_node_rule_is_a_symmetric_positive_rule_of_unit_mass(count):
    rule = analysis._unit_interval_nodes(count)
    nodes = [t for t, _ in rule]
    weights = [w for _, w in rule]
    assert len(rule) == count
    assert all(0.0 < t < 1.0 for t in nodes)
    assert nodes == sorted(nodes) and len(set(nodes)) == count
    assert all(w > 0.0 for w in weights)
    assert abs(math.fsum(weights) - 1.0) <= 1e-15
    for k in range(count):
        assert abs(nodes[k] + nodes[count - 1 - k] - 1.0) <= 2.3e-16
        assert weights[k] == weights[count - 1 - k]


@pytest.mark.parametrize("count", range(1, 9))
def test_node_rule_integrates_polynomials_exactly(count):
    # exact up to degree 2 count - 1; at degree 2 count the Gauss error
    # term (n!)^4 / ((2n + 1) ((2n)!)^2) is left over
    rule = analysis._unit_interval_nodes(count)
    for m in range(2 * count):
        assert math.fsum(w * t**m for t, w in rule) == pytest.approx(1.0 / (m + 1), rel=4e-15)
    m = 2 * count
    error = math.factorial(count) ** 4 / ((m + 1) * math.factorial(m) ** 2)
    shortfall = 1.0 / (m + 1) - math.fsum(w * t**m for t, w in rule)
    assert shortfall == pytest.approx(error, rel=1e-5)


@pytest.mark.parametrize("count", RULE_COUNTS)
def test_node_rule_matches_numpy(count):
    x, v = np.polynomial.legendre.leggauss(count)
    for (t, w), t_np, w_np in zip(analysis._unit_interval_nodes(count), (x + 1.0) / 2.0, v / 2.0):
        assert abs(t - t_np) <= 1.2e-16
        assert abs(w - w_np) <= 1e-14


def test_integral_rejects_bad_nodes(forbid_node_rule):
    # every count is checked before any node rule is built
    for nodes in (0, 2.5, analysis._MAX_NODES + 1, 100_000_000):
        with pytest.raises(ParameterError):
            integrate_distance(NILE.inflows, NILE_Z, Family.COMPROMISE, nodes=nodes)


def test_integral_rejects_bool_nodes(forbid_node_rule):
    # True is an int, and would run a one-node rule
    for nodes in (True, False):
        with pytest.raises(ParameterError, match=f"^nodes must be an integer, got {nodes}$"):
            integrate_distance(NILE.inflows, NILE_Z, Family.COMPROMISE, nodes=nodes)
        with pytest.raises(ParameterError, match=f"^nodes must be an integer, got {nodes}$"):
            nile_case_study(nodes=nodes)


def test_integral_accepts_the_largest_node_count(monkeypatch):
    # served by a small real rule, so no 1024-node rule is built
    small_rule = analysis._unit_interval_nodes(8)
    requested = []
    monkeypatch.setattr(
        analysis, "_unit_interval_nodes", lambda count: requested.append(count) or small_rule
    )
    integrate_distance(NILE.inflows, NILE_Z, Family.COMPROMISE, nodes=analysis._MAX_NODES)
    assert requested == [analysis._MAX_NODES]


def test_integral_matches_closed_form_on_nile():
    expected = {Family.COMPROMISE: 46.52833, Family.PARTIAL_COMPROMISE: 78.27168}
    for family in Family:
        exact = closed_form_integral(NILE.inflows, NILE_Z, family)
        assert exact == pytest.approx(expected[family], abs=1e-5)
        assert integrate_distance(NILE.inflows, NILE_Z, family) == pytest.approx(exact, rel=1e-12)


def test_integral_matches_closed_form_on_random_basins():
    # basins drawn as the fit-basins benchmark draws them: a tenth of the
    # inflows zero, withdrawals uniform and rescaled to the total inflow.
    # The exact integral stays within 7e-16 relative of the closed form.
    # Where z lies close to the family's line the profile has a sharp kink
    # that 64 nodes resolve only to ~1e-7 relative (basin 284 here, n = 5,
    # compromise: 6.9e-8); 256 nodes resolve every one of them
    rng = random.Random(8080)
    for k in range(520):
        n = (5, 10, 30, 100)[k % 4]
        e = InflowProfile(tuple(0.0 if rng.random() < 0.1 else rng.uniform(0.0, 100.0) for _ in range(n)))
        z = normalize_withdrawals(e, tuple(rng.uniform(0.01, 100.0) for _ in range(n)))
        for family in Family:
            exact = closed_form_integral(e, z, family)
            assert integrate_distance(e, z, family, nodes=256) == pytest.approx(exact, rel=1e-10)
            assert integrate_distance(e, z, family) == pytest.approx(exact, rel=2e-15, abs=0.0)


def test_integral_matches_closed_form_on_a_point_segment():
    # water entering only at the mouth: both endpoints coincide, gram = 0
    e = InflowProfile((0.0, 0.0, 5.0))
    z = ObservedAllocation((1.0, 1.0, 3.0))
    for family in Family:
        assert closed_form_integral(e, z, family) == math.sqrt(6.0)
        assert integrate_distance(e, z, family) == closed_form_integral(e, z, family)


def test_integral_matches_mpmath_on_drawn_basins():
    # the default integral against a 30-digit antiderivative on 10^4
    # family-basins, and that antiderivative against mpmath's own
    # quadrature, split at t0, on the 200 cases where the integral is worst
    pytest.importorskip("mpmath")
    worst = []
    for e, z, family in drawn_family_basins(1402, 10_000):
        quadratic = exact_quadratic(e, z, family)
        expected = float(mpmath_integral(mpmath, *quadratic))
        integral = integrate_distance(e, z, family)
        if expected == 0.0:
            assert integral == 0.0
            continue
        error = abs(integral - expected) / expected
        assert error <= 1e-14, (e, z, family, integral, expected)
        if quadratic[0] != 0:
            worst.append((error, quadratic))
    worst.sort(key=lambda case: case[0])
    for _, (a, b, c, shift) in worst[-200:]:
        with mpmath.workdps(30):
            t0 = mpmath.mpf(-b) / a
            eta = mpmath.sqrt(mpmath.mpf(a * c - b * b)) / a
            pieces = [0, t0, 1] if 0 < t0 < 1 else [0, 1]
            area = mpmath.quad(lambda t: mpmath.hypot(t - t0, eta), pieces)
            quadrature = mpmath.ldexp(mpmath.sqrt(a) * area, -shift)
            reference = mpmath_integral(mpmath, a, b, c, shift)
            assert abs(quadrature - reference) <= 1e-20 * reference


def test_default_integral_builds_no_node_rule(forbid_node_rule):
    rng = random.Random(606)
    cases = [(NILE.inflows, NILE_Z, family) for family in Family]
    for _ in range(40):
        e, family = random_case(rng)
        cases.append((e, random_observation(rng, e, family), family))
    for e, z, family in cases:
        closed = closed_form_integral(e, z, family)
        assert integrate_distance(e, z, family) == pytest.approx(closed, rel=1e-12)


def test_closed_form_on_the_line_and_far_from_it():
    # on the family's line the profile is |t - t0| exactly, beyond either
    # end as well as between them
    for t0, integral in ((-2.0, 2.5), (-0.5, 1.0), (0.0, 0.5), (0.25, 0.3125), (1.0, 0.5), (3.0, 2.5)):
        assert analysis._hyperbola_integral(t0, 0.0) == integral
        assert analysis._hyperbola_integral(t0, 1e-170) == integral
    # far from a short segment the profile is nearly flat at hypot(1/2 - t0, h),
    # and no square may overflow on the way there
    for t0, height in ((0.5, 1e200), (-1e200, 1.0), (1e200, 1e200), (2.0, 1e160)):
        expected = math.hypot(0.5 - t0, height)
        assert analysis._hyperbola_integral(t0, height) == pytest.approx(expected, rel=1e-15)


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


def test_legitimacy_bounds_keep_min_and_max_on_tied_zeros(monkeypatch):
    # on a tie min and max return their first argument, so each bound keeps
    # the sign of A_i's zero
    a = Allocation((0.0, -0.0, 1.0, 2.0))
    b = Allocation((-0.0, 0.0, 1.0, 0.5))
    monkeypatch.setattr(analysis, "no_transfer", lambda e: a)
    monkeypatch.setattr(analysis, "_member", lambda e, family, parameter: b)
    monkeypatch.setattr(analysis, "_last_basin", (None, None, {}))
    e = InflowProfile((1.0, 1.0, 1.0, 1.0))
    report = legitimacy_bounds(e, ObservedAllocation((0.0, 0.0, 1.0, 3.0)), Family.COMPROMISE, tol=0.0)
    bounds = [(entry.lower, entry.upper) for entry in report.entries]
    assert repr(bounds) == repr([(min(ai, bi), max(ai, bi)) for ai, bi in zip(a, b)])
    assert report.classifications[-1] is Legitimacy.ABOVE_UPPER


def test_legitimacy_rejects_an_observation_whose_total_overflows():
    with pytest.raises(RiverShareError, match="^total observed amount is too large to represent as a float$"):
        legitimacy_bounds((1, 2, 0), (1e308, 1e308, 0), "compromise")


def test_legitimacy_name_length_mismatch():
    with pytest.raises(DimensionError):
        legitimacy_bounds(NILE.inflows, NILE_Z, Family.COMPROMISE, names=("a", "b"))


@pytest.mark.parametrize(
    "names,wording",
    [
        (("a", "b", "a"), "duplicate agent name 'a'"),
        ((None, None, "c"), "duplicate agent name 'None'"),  # each name is read as its str
        (("a", "", "c"), "agent names must be non-empty"),
    ],
)
def test_legitimacy_names_are_checked_as_a_dataset_checks_them(names, wording):
    with pytest.raises(ParameterError) as caught:
        legitimacy_bounds((1, 2, 3), (2, 2, 2), Family.COMPROMISE, names=names)
    assert str(caught.value) == wording
    if None not in names:
        with pytest.raises(DatasetError, match=f"^{wording}$"):
            BasinDataset(names, (1, 2, 3))


# ---------------------------------------------------------------------------
# one segment per profile, against the per-call formulas it replaced


def reference_distance(x, z):
    return math.sqrt(math.fsum((a - b) * (a - b) for a, b in zip(x, z)))


def reference_endpoints(e, family):
    return no_transfer(e), family_member(e, family, 0.0)


def reference_fit(e, z, family, ends=None):
    a, b = ends or reference_endpoints(e, family)
    direction = [ai - bi for ai, bi in zip(a, b)]
    gram = math.fsum(d * d for d in direction)
    if math.sqrt(gram) <= RELATIVE_TOLERANCE * e.total:
        return FitResult(family, 0.0, b, reference_distance(b, z), False, None, degenerate=True)
    raw = math.fsum((zi - bi) * d for zi, bi, d in zip(z, b, direction)) / gram
    t = min(1.0, max(0.0, raw))
    member = family_member(e, family, t)
    return FitResult(family, t, member, reference_distance(member, z), t != raw, raw)


def reference_integral(e, z, family, nodes=64, ends=None):
    a, b = ends or reference_endpoints(e, family)
    u = [bi - zi for bi, zi in zip(b, z)]
    direction = [ai - bi for ai, bi in zip(a, b)]
    gram = math.fsum(d * d for d in direction)
    if gram == 0.0:
        return math.sqrt(math.fsum(ui * ui for ui in u))
    t0 = -math.fsum(ui * d for ui, d in zip(u, direction)) / gram
    length = math.sqrt(gram)
    height = math.hypot(*(ui + t0 * d for ui, d in zip(u, direction))) / length
    rule = analysis._unit_interval_nodes(nodes)
    return length * math.fsum(w * math.hypot(t - t0, height) for t, w in rule)


def reference_legitimacy(e, z, family, ends=None):
    a, b = ends or reference_endpoints(e, family)
    tol = tolerance_for(max(e.total, z.total))
    entries = []
    for i in range(len(e)):
        lower, upper = min(a[i], b[i]), max(a[i], b[i])
        if z[i] < lower - tol:
            kind = Legitimacy.BELOW_LOWER
        elif z[i] > upper + tol:
            kind = Legitimacy.ABOVE_UPPER
        else:
            kind = Legitimacy.LEGITIMATE
        entries.append(analysis.LegitimacyEntry(f"agent {i}", i, lower, upper, z[i], kind))
    return analysis.LegitimacyReport(family, tuple(entries))


def exact(value) -> str:
    """A key that tells every float bit pattern apart, -0.0 from 0.0 too."""
    if hasattr(value, "to_dict"):
        return json.dumps(value.to_dict())
    return repr(value)


@st.composite
def scaled_basins(draw):
    """n 2-100 at one magnitude in 1e-6..1e6, a quarter of the inflows zero."""
    n = draw(st.integers(2, 100))
    scale = 10.0 ** draw(st.integers(-6, 6))
    entry = st.tuples(st.integers(0, 3), st.floats(0.0, 1.0)).map(
        lambda p: 0.0 if p[0] == 0 else p[1] * scale
    )
    e = InflowProfile(tuple(draw(st.lists(entry, min_size=n, max_size=n))))
    z = ObservedAllocation(tuple(draw(st.lists(st.floats(0.0, scale), min_size=n, max_size=n))))
    return e, z, draw(st.sampled_from(Family))


def unscaled(e, z) -> bool:
    """Whether the family readers leave the amounts unscaled: e.total and
    max(z) are each zero or within [2^-450, 2^450]."""
    return all(2.0**-450 <= v <= 2.0**450 for v in (e.total, max(z)) if v)


def lifted(e, family) -> bool:
    """Whether `_basin` lifts an in-band direction: the squares of the
    unscaled A - B sum to a positive value below 2^-900, where the per-call
    formulas lose digits."""
    a, b = reference_endpoints(e, family)
    gram = math.fsum((ai - bi) * (ai - bi) for ai, bi in zip(a, b))
    return 0.0 < gram < 2.0**-900


def exact_distance(quadratic, t: float):
    """|B - z + t(A - B)| at the float t, from the integers of
    `exact_quadratic`: squared exactly, rooted at 30 digits."""
    a, b, c, shift = quadratic
    p, q = t.as_integer_ratio()
    with mpmath.workdps(30):
        root = mpmath.sqrt(mpmath.mpf(a * p * p + 2 * b * p * q + c * q * q)) / q
        return mpmath.ldexp(root, -shift)


def assert_distance_near_exact(e, z, family, parameters):
    """`distance_at` at each parameter within 2 * 2^-52 (d* + |A - B| + |B - z|)
    of the exact distance d*: a few roundings of the projection's terms.
    The per-member sum |B + t(A - B) - z| exceeds this fourfold on drawn
    basins.  A subnormal result is a multiple of 2^-1074, so 2^-1075 more
    is allowed for its rounding."""
    quadratic = exact_quadratic(e, z, family)
    a, _, c, shift = quadratic
    with mpmath.workdps(30):
        sides = mpmath.ldexp(mpmath.sqrt(a) + mpmath.sqrt(c), -shift)
        for t in parameters:
            expected = exact_distance(quadratic, t)
            gap = abs(distance_at(e, z, family, t) - expected)
            bound = 2 * 2.0**-52 * (expected + sides) + mpmath.ldexp(1, -1075)
            assert gap <= bound, (e, z, family, t)


@settings(deadline=None)
@given(basin=scaled_basins(), t=st.floats(0.0, 1.0))
# a subnormal inflow beside a total near 1.5e6, which a scale of 2^-21
# picked from the total alone rounded away
@example(
    basin=(
        InflowProfile((4.94066e-319, 0.0, 1.5e6, 0.0)),
        ObservedAllocation((1e5, 1e5, 1e5, 1e6)),
        Family.PARTIAL_COMPROMISE,
    ),
    t=0.5,
)
# in the band, a direction whose squares underflow keeps the per-call bits
@example(
    basin=(
        InflowProfile((1.3130926960584463e-211, 0.08750000000000001)),
        ObservedAllocation((0.0, 0.0)),
        Family.COMPROMISE,
    ),
    t=0.0,
)
# in the band, a lifted direction: the per-call 64-node integral is 1.4e-11
# off here, while the lifted projection's equals mpmath's
@example(
    basin=(
        InflowProfile((7.925795888524132e-158, 7.945141796411701)),
        ObservedAllocation((1.9123072555150755, 9.977260070718351)),
        Family.COMPROMISE,
    ),
    t=0.5,
)
def test_segment_matches_the_per_call_formulas(basin, t):
    e, z, family = basin
    size = e.total + z.total
    if unscaled(e, z) and not lifted(e, family):
        # the first call builds the segment, the rest read it
        assert exact(fit_family(e, z, family)) == exact(reference_fit(e, z, family))
        integral = integrate_distance(e, z, family, nodes=64)
        assert exact(integral) == exact(reference_integral(e, z, family))
        assert integral == pytest.approx(numpy_integral(e, z, family), rel=1e-14, abs=0.0)
    elif mpmath is not None:
        # squares of the unscaled amounts or of A - B underflow here, so
        # the per-call formulas are no reference; the exact profile is
        quadratic = exact_quadratic(e, z, family)
        for s in (0.0, t, 1.0):
            gap = distance_at(e, z, family, s) - float(exact_distance(quadratic, s))
            assert abs(gap) <= 1e-15 * size
    if mpmath is not None:
        # `distance_at` reads the projection, not the member, so its
        # reference is the exact profile on either side of the band
        assert_distance_near_exact(e, z, family, (0.0, t, 1.0))
        # the tests' float closed form cancels when t0 lies far outside
        # [0, 1] (1e-109 basins reach t0 = -2e108), so the pin is exact
        closed = float(mpmath_integral(mpmath, *exact_quadratic(e, z, family)))
        assert integrate_distance(e, z, family) == pytest.approx(closed, rel=1e-14, abs=0.0)
    assert exact(legitimacy_bounds(e, z, family)) == exact(reference_legitimacy(e, z, family))


def test_segment_memo_is_keyed_on_the_profile_object(monkeypatch):
    values = (0.0, 3.0, 1.5, 0.0, 2.0)
    first = InflowProfile(values)
    equal = InflowProfile(values)
    signed = InflowProfile((-0.0,) + values[1:])
    assert first == equal == signed
    observations = (
        ObservedAllocation((1.0, 2.0, 0.5, 1.0, 2.0)),
        ObservedAllocation((0.0, 0.0, 6.5, 0.0, 0.0)),
    )
    calls = [
        (call, e, z, family)
        for call in (
            fit_family,
            integrate_distance,
            legitimacy_bounds,
            lambda e, z, family: distance_at(e, z, family, 0.0),
            lambda e, z, family: distance_at(e, z, family, 0.375),
            lambda e, z, family: distance_at(e, z, family, 1.0),
        )
        for e in (first, equal, signed)
        for z in observations
        for family in Family
    ]
    random.Random(31).shuffle(calls)
    warm = []
    for call, e, z, family in calls:
        warm.append(exact(call(e, z, family)))
        # an equal profile that is another object misses the memo
        assert analysis._last_basin[0] is e
    for (call, e, z, family), result in zip(calls, warm):
        monkeypatch.setattr(analysis, "_last_basin", (None, None, {}))
        assert exact(call(e, z, family)) == result


def test_projection_memo_is_keyed_on_the_observation_object(monkeypatch):
    e = InflowProfile((0.0, 3.0, 1.5, 0.0, 2.0))
    values = (0.0, 2.0, 0.5, 1.0, 2.0)
    first = ObservedAllocation(values)
    equal = ObservedAllocation(values)
    signed = ObservedAllocation((-0.0,) + values[1:])
    assert first == equal == signed
    calls = [
        (call, z, family)
        for call in (
            fit_family,
            integrate_distance,
            lambda e, z, family: integrate_distance(e, z, family, nodes=64),
        )
        for z in (first, equal, signed)
        for family in Family
    ]
    random.Random(47).shuffle(calls)
    warm = []
    for call, z, family in calls:
        warm.append(exact(call(e, z, family)))
        # an equal observation that is another object misses the memo
        profile, observation, segments = analysis._last_basin
        assert profile is e and observation is z
        segment = segments[family]
        call(e, z, family)
        assert analysis._last_basin[2][family] is segment
    for (call, z, family), result in zip(calls, warm):
        monkeypatch.setattr(analysis, "_last_basin", (None, None, {}))
        assert exact(call(e, z, family)) == result


def test_family_readers_keep_their_values_on_drawn_basins():
    # fit, legitimacy and the Gauss-Legendre integral read the memo's
    # segment and projection, and must give the per-call formulas' values
    # bit for bit; repr shows each float's every bit.  The distance reads
    # the projection too, so it is held to the exact profile instead
    rng = random.Random(77)

    def rows(report):
        values = [entry._key() for entry in report.entries]
        return [row[5] for row in values], repr([row[2:5] for row in values])

    for e, z, family in drawn_family_basins(2718, 10_000):
        ends = reference_endpoints(e, family)
        fit = fit_family(e, z, family)
        assert repr(fit) == repr(reference_fit(e, z, family, ends))
        assert rows(legitimacy_bounds(e, z, family)) == rows(reference_legitimacy(e, z, family, ends))
        if mpmath is not None:
            assert_distance_near_exact(e, z, family, (0.0, fit.parameter_star, rng.random(), 1.0))
        integral = integrate_distance(e, z, family, nodes=64)
        assert repr(integral) == repr(reference_integral(e, z, family, ends=ends))


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


def test_shares_name_the_bad_entry_or_the_overflowing_total():
    with pytest.raises(ParameterError, match=r"^shares need a positive total, got 0\.0$"):
        shares_of_total((0.0, -0.0))
    with pytest.raises(ParameterError, match=r"^entry at position 1 must be finite, got nan$"):
        shares_of_total((1.0, float("nan"), 2.0))
    # entries that are finite but sum past the float range, in any order
    # next to a bad entry, which is named first
    with pytest.raises(ParameterError, match=r"^entry at position 2 must be finite, got inf$"):
        shares_of_total((1e308, 1e308, float("inf")))
    with pytest.raises(ParameterError, match="^the total of the entries is too large to represent as a float$"):
        shares_of_total((1e308, 1e308))
    assert shares_of_total((3.0, -1.0)) == (1.5, -0.5)


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


def test_case_study_rejects_bool_decimals():
    # False would round to 0 decimals and True would be echoed as a count
    for decimals in (True, False):
        with pytest.raises(ParameterError, match="reporting_decimals"):
            nile_case_study(reporting_decimals=decimals)


def test_case_study_is_deterministic_and_serializable():
    first = nile_case_study()
    second = nile_case_study()
    assert first == second
    payload = json.dumps(first.to_dict(), sort_keys=True)
    assert payload == json.dumps(second.to_dict(), sort_keys=True)
    decoded = json.loads(payload)
    assert decoded["all_ok"] is True
    assert decoded["fits"]["compromise"]["parameter"] == first.compromise_fit.parameter_star
