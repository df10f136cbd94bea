import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezing import checks, planar
from squeezing import (
    Annulus,
    Excision,
    ExcisedDomain,
    PuncturedBall,
    TOLERANCE,
    annulus_conjectured_value,
    annulus_lower_bound,
    boundary_distance,
    caratheodory_lower_estimate,
    completeness_criterion,
    euclidean_radius,
    excised_domain_lower_bound,
    excision_constant,
    kobayashi_distance,
    lipschitz_check,
    mobius_circle_image,
    punctured_ball_squeezing,
    punctured_domain_upper_bound,
    uniform_ball_points,
)
from squeezing.errors import (
    DomainValidationError,
    EmptyList,
    OutOfFundamentalRange,
    ParameterOrderViolation,
    PointNotInDomain,
    PointOutsideAnnulus,
    PunctureEvaluation,
    ShapeMismatch,
)

QUARTER = Annulus(0.25)


def rational_endpoint_value(u: float, v: float, w: float) -> Fraction:
    """Exact oracle: the excision objective at r = u, (u/v - u/w)/(1 - u^2/(vw))."""
    u, v, w = Fraction(u), Fraction(v), Fraction(w)
    return u * (w - v) / (v * w - u * u)


def rational_gap_value(rho: Fraction, r: Fraction) -> Fraction:
    """Exact oracle: tanh(log(A)/2) = (A-1)/(A+1) with A the cross ratio."""
    ratio = ((1 + rho) * (1 - r)) / ((1 - rho) * (1 + r))
    return (ratio - 1) / (ratio + 1)


def rational_lower_bound(r: float, rho: float) -> Fraction:
    """Exact oracle: the larger of the direct and reflected branches."""
    r, rho = Fraction(r), Fraction(rho)
    return max(rational_gap_value(rho, r), rational_gap_value(r / rho, r))


class TestAnnulusLowerBound:
    def test_golden_value(self):
        expected = rational_gap_value(Fraction(1, 2), Fraction(1, 4))
        assert expected == Fraction(2, 7)
        certificate = annulus_lower_bound(QUARTER, 0.5)
        assert certificate.value == pytest.approx(float(expected), abs=TOLERANCE)
        assert certificate.tag == "lower"

    def test_reflection_branch(self):
        near_inner = annulus_lower_bound(QUARTER, 0.3)
        assert near_inner.witness["branch"] == "reflected"
        direct = annulus_lower_bound(QUARTER, 0.7)
        assert direct.witness["branch"] == "direct"

    def test_rejects_points_outside(self):
        with pytest.raises(PointOutsideAnnulus):
            annulus_lower_bound(QUARTER, 0.2)
        with pytest.raises(PointOutsideAnnulus):
            annulus_lower_bound(QUARTER, 1.0)

    def test_accepts_complex_points(self):
        z = 0.5 * np.exp(1j * 1.3)
        assert annulus_lower_bound(QUARTER, z).value == pytest.approx(2.0 / 7.0, abs=TOLERANCE)

    def test_reflected_branch_near_one_stays_below_the_exact_bound(self):
        # the rounding of r / rho, amplified near 1, once put this 9.7e-9 above
        r, rho = 0.9999999852393279, 0.999999992437333
        certificate = annulus_lower_bound(Annulus(r), rho)
        assert certificate.witness["branch"] == "reflected"
        assert certificate.witness["folded_rho"] == r / rho
        assert Fraction(certificate.value) <= rational_lower_bound(r, rho)
        assert certificate.value == 0.34440448936322726

    def test_within_four_ulps_near_one(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            r = 1.0 - 10.0 ** rng.uniform(-15.0, -0.3)
            rho = r + (1.0 - r) * rng.uniform()
            if not r < rho < 1.0:
                continue
            exact = rational_lower_bound(r, rho)
            value = annulus_lower_bound(Annulus(r), rho).value
            assert abs(Fraction(value) - exact) <= 4 * math.ulp(float(exact)), (r, rho)

    @given(st.floats(min_value=0.2500001, max_value=0.9999))
    @settings(max_examples=200)
    def test_fold_coincidence(self, rho):
        folded = QUARTER.fold(rho)
        conjecture = annulus_conjectured_value(QUARTER, folded).value
        assert abs(conjecture - annulus_lower_bound(QUARTER, rho).value) <= TOLERANCE


class TestConjecturedValue:
    def test_golden_value(self):
        assert annulus_conjectured_value(QUARTER, 0.5).value == pytest.approx(2.0 / 7.0, abs=TOLERANCE)

    def test_outer_value(self):
        expected = rational_gap_value(Fraction(9, 10), Fraction(1, 4))
        assert expected == Fraction(26, 31)
        assert annulus_conjectured_value(QUARTER, 0.9).value == pytest.approx(float(expected), abs=TOLERANCE)

    def test_below_fundamental_range_rejected(self):
        with pytest.raises(OutOfFundamentalRange):
            annulus_conjectured_value(QUARTER, 0.4)

    def test_method_marks_conjecture(self):
        assert "conjecture" in annulus_conjectured_value(QUARTER, 0.5).method


# a point in the hole raised BoundaryPoint or asked to be folded, fold(0.1)
# returned 2.5 and the boundary distance of 2.0 read -1
@pytest.mark.parametrize("z", [0.1, -0.2, 2.0, 0.25])
@pytest.mark.parametrize("call", [
    lambda z: annulus_conjectured_value(QUARTER, z),
    lambda z: caratheodory_lower_estimate(z, 0.5, QUARTER),
    QUARTER.fold,
    QUARTER.boundary_distance,
    lambda z: boundary_distance(z, QUARTER),
], ids=["conjectured_value", "caratheodory", "fold", "Annulus.boundary_distance", "boundary_distance"])
def test_point_off_the_annulus_refused(call, z):
    with pytest.raises(PointOutsideAnnulus):
        call(z)


@pytest.mark.parametrize("z", [2.0, -1.0, 1j])
def test_point_off_the_disc_refused(z):
    with pytest.raises(DomainValidationError, match="point must lie in the open unit disc"):
        boundary_distance(z)
    with pytest.raises(DomainValidationError, match="point must lie in the open unit disc"):
        caratheodory_lower_estimate(z, 0.5)


class TestExcisionConstant:
    def test_positive(self):
        assert excision_constant(0.2, 0.3, 0.6) > 0.0

    def test_matches_brute_force_scan(self):
        # oracle: exhaustive scan with the raw formulas; the objective is
        # continuous and tends to 1 at r = v, so [u, v) suffices
        rng = np.random.default_rng(12)
        triples = [(0.2, 0.3, 0.6), (math.nextafter(0.3, 0.0), 0.3, 0.6), (0.1, 0.5, 0.5005)]
        for _ in range(17):
            u, v, w = np.sort(rng.uniform(0.01, 0.99, 3))
            triples.append((float(u), float(v), float(w)))
        triples += [(math.nextafter(v, 0.0), v, w) for _, v, w in triples[-3:]]
        triples += [(u, v, min(v + 5e-4, 0.999)) for u, v, _ in triples[-3:]]
        sigma = lambda x: np.log((1.0 + x) / (1.0 - x))
        for u, v, w in triples:
            rs = np.linspace(u, v, 10 ** 5, endpoint=False)
            rs = rs[rs < v]  # when u = nextafter(v, 0) some nodes round up to v
            brute = np.tanh(0.5 * (sigma(rs / v) - sigma(rs / w))).min()
            assert abs(excision_constant(u, v, w) - brute) <= 1e-9, (u, v, w)

    def test_infimum_sits_at_left_endpoint(self):
        # the objective increases in r, so the infimum is the left endpoint
        # value, rounded down by a budget of at most 7 ulps
        for u, v, w in [(0.1, 0.4, 0.7), (0.2, 0.3, 0.6), (0.05, 0.5, 0.9)]:
            endpoint = rational_endpoint_value(u, v, w)
            gap = endpoint - Fraction(excision_constant(u, v, w))
            assert 0 < gap <= 14 * math.ulp(float(endpoint)), (u, v, w)

    def test_never_above_the_exact_infimum(self):
        # a "lower" value to the last ulp: in rational arithmetic no result
        # exceeds u(w - v)/(vw - u^2), and none sits more than 14 ulps below
        rng = np.random.default_rng(17)
        triples = [
            (0.673930871746986, 0.6739308717469861, 0.6746675731628228),
            (1e-200, 2e-200, 3e-200),
            (1e-320, 0.5, 0.9),
        ]
        for _ in range(500):
            u, v, w = (float(x) for x in np.sort(rng.uniform(0.0, 1.0, 3)))
            triples += [
                (u, v, w),
                (math.nextafter(v, 0.0), v, w),
                (u, v, math.nextafter(v, 1.0)),
                (u * 1e-150, v, w),
                (u * 1e-100, v * 1e-100, w * 1e-100),
            ]
        for u, v, w in triples:
            if not 0.0 < u < v < w < 1.0:
                continue
            value = excision_constant(u, v, w)
            gap = rational_endpoint_value(u, v, w) - Fraction(value)
            assert 0 <= gap <= 14 * math.ulp(value), (u, v, w)

    def test_grid_observation_w_monotonicity(self):
        # a theorem: the objective at each r grows with w, since hyperbolic_radius(r/w)
        # decreases in w, and its infimum over r is attained, so c grows with w
        values = [excision_constant(0.2, 0.3, w) for w in (0.9, 0.7, 0.5, 0.35)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_interval_collapse(self):
        tight = excision_constant(0.299999, 0.3, 0.6)
        endpoint = rational_endpoint_value(0.299999, 0.3, 0.6)
        assert 0 < endpoint - Fraction(tight) <= 14 * math.ulp(float(endpoint))

    def test_parameter_order_enforced(self):
        with pytest.raises(ParameterOrderViolation):
            excision_constant(0.3, 0.2, 0.6)
        with pytest.raises(ParameterOrderViolation):
            excision_constant(0.2, 0.3, 1.0)


class TestMobiusCircleImage:
    def test_identity_parameter(self):
        center, radius = mobius_circle_image(0.0, 0.4)
        assert center == 0.0
        assert radius == 0.4

    def test_image_radius_below_one(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = 0.95 * rng.random() * np.exp(2j * np.pi * rng.random())
            rho = 0.05 + 0.9 * rng.random()
            _, radius = mobius_circle_image(a, rho)
            assert radius < 1.0


def krantz_domain(iterations=3):
    """Finite truncation of the classical infinitely-connected example:
    holes of radius 1/4 carried along the hyperbolic translation
    z -> (z + 1/2)/(1 + z/2); the k = 0 hole is omitted so the origin
    stays in the domain."""
    shift = math.atanh(0.5)
    params = [math.tanh(k * shift) for k in range(-iterations, iterations + 1) if k != 0]
    return ExcisedDomain(
        u=0.2,
        v=0.255,
        w=0.265,
        excisions=tuple(Excision(a, 0.25) for a in params),
    )


class TestExcisedDomain:
    def test_krantz_far_region_at_origin(self):
        domain = krantz_domain()
        certificate = excised_domain_lower_bound(domain, 0.0)
        assert certificate.witness["region"] == "far"
        assert certificate.value == pytest.approx(domain.far_constant, abs=0)

    def test_near_region_beside_hole(self):
        domain = krantz_domain()
        center, radius = domain.excisions[3].circle_image(0.25)
        point = center + (radius + 5e-4) * (center / abs(center))
        certificate = excised_domain_lower_bound(domain, point)
        assert certificate.witness["region"] == "near"
        assert certificate.value == pytest.approx(domain.near_constant, abs=0)

    def test_point_inside_hole_rejected(self):
        domain = krantz_domain()
        with pytest.raises(PointNotInDomain):
            excised_domain_lower_bound(domain, 0.5)

    @pytest.mark.parametrize(
        "point", [complex(math.nan, 0.0), complex(0.0, math.nan), math.inf, complex(-math.inf, 0.0)]
    )
    def test_non_finite_point_rejected(self, point):
        domain = krantz_domain()
        assert not domain.contains(point)
        with pytest.raises(PointNotInDomain):
            excised_domain_lower_bound(domain, point)

    def test_overlapping_excisions_rejected(self):
        with pytest.raises(DomainValidationError):
            ExcisedDomain(0.2, 0.3, 0.45, (Excision(0.1, 0.25), Excision(0.15, 0.25)))

    @pytest.mark.parametrize("center", [1.2, float("nan")])
    def test_center_must_lie_in_disc(self, center):
        with pytest.raises(DomainValidationError):
            ExcisedDomain(0.2, 0.3, 0.45, (Excision(center, 0.25),))

    def test_radius_window_enforced(self):
        with pytest.raises(DomainValidationError):
            ExcisedDomain(0.2, 0.3, 0.45, (Excision(0.5, 0.35),))


class TestExcisedPointContract:
    def test_an_array_point_is_a_shape_mismatch(self):
        domain = krantz_domain()
        for z in (np.array([0.1, 0.2]), [0.1], np.zeros((2, 2))):
            with pytest.raises(ShapeMismatch):
                excised_domain_lower_bound(domain, z)

    def test_a_zero_dimensional_array_is_one_point(self):
        domain = krantz_domain()
        assert excised_domain_lower_bound(domain, np.array(0.0)) == excised_domain_lower_bound(domain, 0.0)
        assert domain.contains(np.array(0.0)) is True and domain.collar(np.array(0.0)) == -1

    def test_the_holes_are_closed(self):
        # the hole of parameter 0 is the disc |z| <= 1/4 exactly, so 1/4 is on its circle
        domain = ExcisedDomain(0.2, 0.3, 0.45, (Excision(0j, 0.25),))
        assert domain.hole_circles == ((0j, 0.25),)
        assert domain.contains(0.25) is False and domain.contains(0.25 + 2.0 ** -50) is True
        assert domain.contains(np.array([0.25, -0.25j, 0.25 + 2.0 ** -50])).tolist() == [False, False, True]

    def test_none_converts_to_nan_and_is_outside(self):
        domain = krantz_domain()
        assert domain.contains(None) is False
        assert domain.contains([None, 0.0]).tolist() == [False, True]
        with pytest.raises(PointNotInDomain):
            excised_domain_lower_bound(domain, None)

    @pytest.mark.parametrize("z", ["abc", object(), [0.1, "abc"]])
    def test_what_is_not_a_number_is_refused(self, z):
        with pytest.raises(DomainValidationError):
            krantz_domain().contains(z)
        with pytest.raises(DomainValidationError):
            excised_domain_lower_bound(krantz_domain(), z)


def _excised_mixed_stack(domain, rng):
    """Random disc points, points on each hole and collar circle, points with
    |z| >= 1, and NaN and infinite points."""
    theta = np.exp(2j * np.pi * rng.random(8))
    circles = [*domain.hole_circles, *domain.collar_circles]
    return np.concatenate([
        uniform_ball_points(rng, 1, 40)[:, 0],
        np.concatenate([center + radius * theta for center, radius in circles]),
        theta, 1.5 * theta,
        [complex(math.nan, 0.0), complex(0.0, math.nan), math.inf, complex(-math.inf, 1.0), complex(math.inf, math.nan)],
    ])


class TestStackedExcisedDomain:
    """A stack of points gives, point by point, the one-point answer."""

    @pytest.mark.parametrize("make", [krantz_domain, checks.two_hole_domain])
    def test_mixed_stack_matches_one_point_calls(self, make):
        domain = make()
        stack = _excised_mixed_stack(domain, np.random.default_rng(30))
        inside, collar = domain.contains(stack), domain.collar(stack)
        assert inside.shape == collar.shape == stack.shape
        assert inside.dtype == bool and collar.dtype.kind == "i"
        one_inside = [domain.contains(z) for z in stack]
        one_collar = [domain.collar(z) for z in stack]
        assert all(type(x) is bool for x in one_inside) and all(type(x) is int for x in one_collar)
        assert inside.tolist() == one_inside and collar.tolist() == one_collar
        assert 0 < inside.sum() < len(stack) and (collar >= 0).any() and (collar == -1).any()
        assert not inside[-5:].any() and not inside[-13:-5].any()  # non-finite, |z| = 1.5
        grid = stack[:-1].reshape(4, -1)
        assert domain.contains(grid).ravel().tolist() == one_inside[:-1]
        assert domain.collar(grid).ravel().tolist() == one_collar[:-1]

    @pytest.mark.parametrize("make", [krantz_domain, checks.two_hole_domain])
    def test_the_bound_reads_its_region_from_the_collar(self, make):
        domain = make()
        stack = _excised_mixed_stack(domain, np.random.default_rng(31))
        for z, inside, index in zip(stack, domain.contains(stack), domain.collar(stack)):
            if not inside:
                continue
            witness = excised_domain_lower_bound(domain, z).witness
            assert witness["region"] == ("near" if index >= 0 else "far")
            assert witness.get("excision", -1) == index


class TestExcisedCheck:
    def excised_result(self):
        (result,) = [r for r in checks.suite_planar() if r.invariant == "excised-domain-two-case"]
        return result

    def test_membership_that_ignores_the_holes_fails(self, monkeypatch):
        # the wrong rule applied per point, as the stacked membership call needs
        monkeypatch.setattr(planar.ExcisedDomain, "contains", lambda self, z: np.abs(np.asarray(z, dtype=complex)) < 1.0)
        result = self.excised_result()
        assert not result.passed
        assert result.witness.startswith("at ")

    def test_a_bound_with_the_other_regions_value_fails(self, monkeypatch):
        bound = checks.excised_domain_lower_bound

        def swapped(domain, z):
            certificate = bound(domain, z)
            other = domain.far_constant if certificate.witness["region"] == "near" else domain.near_constant
            return dataclasses.replace(certificate, value=other)

        monkeypatch.setattr(checks, "excised_domain_lower_bound", swapped)
        result = self.excised_result()
        assert not result.passed
        assert result.witness.startswith("at ")

    def test_collars_of_radius_w_fail(self, monkeypatch):
        fixture = checks.two_hole_domain

        def widened():
            domain = fixture()
            collars = tuple(exc.circle_image(domain.w) for exc in domain.excisions)
            object.__setattr__(domain, "collar_circles", collars)
            return domain

        monkeypatch.setattr(checks, "two_hole_domain", widened)
        result = self.excised_result()
        assert not result.passed
        assert result.witness.startswith("at ")


class TestPuncturedUpperBound:
    def test_vanishes_toward_puncture(self):
        domain = PuncturedBall(2, (np.zeros(2),))
        values = [
            punctured_domain_upper_bound(domain, np.array([10.0 ** -k, 0.0])).value
            for k in range(1, 8)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_two_punctures_oracle(self):
        # oracle: the bound is the compressed distance to the nearest puncture
        punctures = (np.zeros(2), np.array([0.5, 0.0]))
        domain = PuncturedBall(2, punctures)
        z = np.array([0.25, 0.0])
        expected = euclidean_radius(min(kobayashi_distance(z, p) for p in punctures))
        assert punctured_domain_upper_bound(domain, z).value == pytest.approx(expected, abs=0)
        assert punctured_domain_upper_bound(domain, z).tag == "upper"

    def test_dimension_one_meets_exact(self):
        # the upper bound collapses onto the exact value |z| in dimension one too
        domain = PuncturedBall(1, (np.zeros(1),))
        upper = punctured_domain_upper_bound(domain, np.array([0.25])).value
        assert upper == pytest.approx(0.25, abs=TOLERANCE)
        assert upper == pytest.approx(punctured_ball_squeezing(np.array([0.25])).value, abs=TOLERANCE)

    def test_puncture_rejected(self):
        domain = PuncturedBall(2, (np.zeros(2),))
        with pytest.raises(PunctureEvaluation):
            punctured_domain_upper_bound(domain, np.zeros(2))

    def test_duplicate_punctures_rejected(self):
        with pytest.raises(DomainValidationError):
            PuncturedBall(2, (np.zeros(2), np.zeros(2)))

    @pytest.mark.parametrize("dimension", [True, np.True_, 1.5, 2.0, 0, -1])
    def test_dimension_must_be_a_positive_integer(self, dimension):
        # True was a 1-ball and 1.5 raised ShapeMismatch ("complex 1.5-vector")
        with pytest.raises(DomainValidationError, match="dimension must be a positive integer"):
            PuncturedBall(dimension, (np.zeros(1),))

    def test_numpy_integer_dimension(self):
        z = np.array([0.25, 0.1])
        numpy_dim = punctured_domain_upper_bound(PuncturedBall(np.int64(2), (np.zeros(2),)), z)
        assert numpy_dim == punctured_domain_upper_bound(PuncturedBall(2, (np.zeros(2),)), z)


class TestCaratheodoryEstimate:
    def test_disc_center(self):
        assert caratheodory_lower_estimate(0.0, 1.0) == 0.25

    def test_annulus_golden_point(self):
        # delta = min(1/2, 1/4) = 1/4, so the estimate is (2/7)/(4/4) = 2/7
        estimate = caratheodory_lower_estimate(0.5, 2.0 / 7.0, QUARTER)
        assert estimate == pytest.approx(2.0 / 7.0, abs=TOLERANCE)

    def test_diverges_toward_boundary(self):
        values = [
            caratheodory_lower_estimate(1.0 - 10.0 ** -k, 0.5) for k in range(1, 8)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e5

    def test_boundary_point_rejected(self):
        with pytest.raises(DomainValidationError, match="point must lie in the open unit disc"):
            caratheodory_lower_estimate(1.0 + 0j, 0.5)

    @pytest.mark.parametrize("annulus", [None, QUARTER])
    def test_nan_point_rejected(self, annulus):
        error = DomainValidationError if annulus is None else PointOutsideAnnulus
        with pytest.raises(error):
            caratheodory_lower_estimate(math.nan, 0.5, annulus)

    def test_invalid_lower_bound_rejected(self):
        with pytest.raises(DomainValidationError):
            caratheodory_lower_estimate(0.0, 0.0)


class TestCompletenessCriterion:
    def test_positive_constant_required(self):
        with pytest.raises(DomainValidationError):
            completeness_criterion(lambda z: 1.0, lambda z: 0.5, 0.0, [0.5])

    def test_nan_constant_refused(self):
        with pytest.raises(DomainValidationError, match="the criterion constant must be positive"):
            completeness_criterion(lambda z: 1.0, lambda z: 0.5, math.nan, [0.5])

    def test_nan_margin_fails_at_its_point(self):
        bound = {0.2: 1.0, 0.3: math.nan, 0.4: -5.0}
        report = completeness_criterion(bound.get, lambda z: z, 0.1, [0.2, 0.3, 0.4])
        assert not report.passed and math.isnan(report.worst_margin) and report.worst_point == 0.3

    def test_infinite_margins_are_reported(self):
        report = completeness_criterion(lambda z: math.inf, lambda z: z, 0.1, [0.2, 0.4])
        assert report.passed and report.worst_margin == math.inf and report.worst_point == 0.2


class TestLipschitzCheck:
    def test_constant_squeezing_trivial(self):
        rng = np.random.default_rng(14)
        pairs = [tuple(uniform_ball_points(rng, 3, 2)) for _ in range(50)]
        assert lipschitz_check(lambda z: 2 ** -0.5, kobayashi_distance, pairs)

    def test_equal_points(self):
        z = np.array([0.2, 0.1j])
        assert lipschitz_check(lambda v: float(np.linalg.norm(v)), kobayashi_distance, [(z, z)])

    @pytest.mark.parametrize("pairs", [[], (p for p in []), np.zeros((0, 2, 3))], ids=["list", "generator", "array"])
    def test_no_pairs_refused(self, pairs):
        with pytest.raises(EmptyList):
            lipschitz_check(lambda z: 0.5, lambda x, y: 0.5, pairs)

    def test_each_function_is_called_once_on_the_stacks(self):
        rng = np.random.default_rng(15)
        pairs = [tuple(uniform_ball_points(rng, 2, 2)) for _ in range(40)]
        shapes = []

        def norm(z):
            shapes.append(z.shape)
            return np.linalg.norm(z, axis=-1)

        assert lipschitz_check(norm, kobayashi_distance, pairs)
        assert shapes == [(40, 2), (40, 2)]
        # one pair given distance 0 at unequal norms fails the stack
        assert not lipschitz_check(norm, lambda x, y: kobayashi_distance(x, y) * (np.arange(40) != 7), pairs)

    def test_pairs_of_mixed_shapes_refused(self):
        with pytest.raises(ShapeMismatch):
            lipschitz_check(lambda z: 0.5, lambda x, y: 0.5, [(np.zeros(2), np.zeros(3))])
        with pytest.raises(ShapeMismatch):
            lipschitz_check(lambda z: 0.5, lambda x, y: 0.5, [0.1, 0.2])

    def test_results_that_do_not_give_one_value_per_pair_refused(self):
        pairs = np.zeros((5, 2, 2))
        with pytest.raises(ShapeMismatch):  # (5, 1) against (5,) would broadcast to 25 comparisons
            lipschitz_check(lambda z: np.zeros((5, 1)), kobayashi_distance, pairs)

    # a NaN gap fails, as a NaN completeness margin does; inf - inf is NaN
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf-at-both-points"])
    def test_a_gap_that_is_not_a_number_fails(self, value):
        assert not lipschitz_check(lambda z: value, lambda x, y: 0.5, [(0.1, 0.2)])
