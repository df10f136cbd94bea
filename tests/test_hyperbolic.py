import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezing import (
    MAX_RADIUS,
    TOLERANCE,
    ball_mobius,
    bounded_metric,
    euclidean_radius,
    hyperbolic_radius,
    kobayashi_distance,
    mobius_map,
    poincare_distance,
)
from squeezing.errors import DomainValidationError, ShapeMismatch

finite_radii = st.floats(min_value=0.0, max_value=0.999999, allow_nan=False)
distances = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
disc_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


class TestRadialMaps:
    def test_zero(self):
        assert hyperbolic_radius(0.0) == 0.0
        assert euclidean_radius(0.0) == 0.0

    def test_log_values(self):
        assert hyperbolic_radius(0.5) == pytest.approx(math.log(3.0), abs=TOLERANCE)
        assert hyperbolic_radius(0.25) == pytest.approx(math.log(5.0 / 3.0), abs=TOLERANCE)

    def test_inverse_values(self):
        assert euclidean_radius(math.log(3.0)) == pytest.approx(0.5, abs=TOLERANCE)
        # oracle: tanh(log(A)/2) = (A - 1)/(A + 1) in exact rational arithmetic
        ratio = Fraction(9, 5)
        expected = (ratio - 1) / (ratio + 1)
        assert expected == Fraction(2, 7)
        assert euclidean_radius(math.log(9.0 / 5.0)) == pytest.approx(float(expected), abs=TOLERANCE)

    def test_domain_errors(self):
        with pytest.raises(DomainValidationError):
            hyperbolic_radius(-0.1)
        with pytest.raises(DomainValidationError):
            hyperbolic_radius(1.0)
        with pytest.raises(DomainValidationError):
            euclidean_radius(-1e-9)
        with pytest.raises(DomainValidationError):
            euclidean_radius(float("inf"))

    def test_near_boundary_does_not_overflow(self):
        assert math.isfinite(hyperbolic_radius(1.0 - 1e-15))
        assert hyperbolic_radius(MAX_RADIUS) == pytest.approx(37.42994775023705, abs=1e-9)

    def test_accepts_arrays(self):
        grid = np.linspace(0.0, 0.9, 11)
        out = hyperbolic_radius(grid)
        assert out.shape == grid.shape
        assert np.all(np.diff(out) > 0)

    @given(finite_radii)
    @settings(max_examples=200)
    def test_roundtrip_from_radius(self, r):
        assert abs(euclidean_radius(hyperbolic_radius(r)) - r) <= TOLERANCE

    @given(distances)
    @settings(max_examples=200)
    def test_roundtrip_from_distance(self, w):
        assert abs(hyperbolic_radius(euclidean_radius(w)) - w) <= TOLERANCE

    @given(finite_radii, finite_radii)
    @settings(max_examples=200)
    def test_strictly_increasing(self, r1, r2):
        if r1 == r2:
            return
        lo, hi = sorted((r1, r2))
        assert hyperbolic_radius(lo) < hyperbolic_radius(hi)

    @given(st.floats(min_value=0.0, max_value=20.0), st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=300)
    def test_subadditivity(self, u, v):
        assert euclidean_radius(u + v) <= euclidean_radius(u) + euclidean_radius(v) + TOLERANCE


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _outcome(fn, x):
    try:
        return int(_bits([fn(x)])[0])
    except DomainValidationError as exc:
        return type(exc)


class TestScalarPath:
    """Python and numpy floats take a short path that must give the bits of
    the array path's element, with the same errors on the same inputs."""

    N = 100_000
    rng = np.random.default_rng(20260)
    radii = np.concatenate([
        rng.random(N // 2),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, N // 4),  # near the boundary
        10.0 ** -rng.uniform(0.0, 300.0, N // 4),  # tiny radii
        [0.0, 5e-324, MAX_RADIUS],
    ])
    distances = np.concatenate([
        rng.uniform(0.0, 40.0, N // 2),
        10.0 ** rng.uniform(-300.0, 3.0, N // 2),
        [0.0, 5e-324, 1e308],
    ])
    SPECIAL = [-0.0, math.nan, -1e-300, -1.0, 1.0, math.inf, -math.inf]

    @pytest.mark.parametrize("fn, name", [(hyperbolic_radius, "radii"), (euclidean_radius, "distances")])
    def test_scalars_match_the_array_elements(self, fn, name):
        values = getattr(self, name)
        expected = _bits(fn(values))
        assert np.array_equal(_bits([fn(x) for x in values.tolist()]), expected)
        assert np.array_equal(_bits([fn(x) for x in values]), expected)  # np.float64 items

    @pytest.mark.parametrize("fn", [hyperbolic_radius, euclidean_radius])
    @pytest.mark.parametrize("x", SPECIAL)
    def test_special_values_agree(self, fn, x):
        array = _outcome(lambda v: fn(np.array([v]))[0], x)
        assert _outcome(fn, x) == array
        assert _outcome(fn, np.float64(x)) == array

    def test_scalar_results_are_python_floats(self):
        for x in (0.5, np.float64(0.5)):
            assert type(hyperbolic_radius(x)) is float
            assert type(euclidean_radius(x)) is float


class TestPoincareDistance:
    def test_from_center(self):
        for z in (0.3, -0.7j, 0.2 + 0.4j):
            assert poincare_distance(0.0, z) == pytest.approx(hyperbolic_radius(abs(z)), abs=TOLERANCE)

    def test_identity_case(self):
        assert poincare_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_antipodal_half(self):
        # oracle: |(0.5 + 0.5) / (1 + 0.25)| = 0.8, and sigma(0.8) = log 9
        transported = abs((0.5 - (-0.5)) / (1.0 - (-0.5) * 0.5))
        assert transported == pytest.approx(0.8, abs=0)
        assert poincare_distance(0.5, -0.5) == pytest.approx(math.log(9.0), abs=TOLERANCE)

    def test_rejects_exterior_points(self):
        with pytest.raises(DomainValidationError):
            poincare_distance(1.0, 0.0)

    @given(disc_points, disc_points)
    @settings(max_examples=200)
    def test_symmetry(self, a, b):
        assert abs(poincare_distance(a, b) - poincare_distance(b, a)) <= TOLERANCE

    @given(disc_points, disc_points, disc_points)
    @settings(max_examples=200)
    def test_mobius_invariance(self, a, b, c):
        moved = poincare_distance(mobius_map(c, a), mobius_map(c, b))
        assert abs(moved - poincare_distance(a, b)) <= TOLERANCE

    @given(disc_points, disc_points, disc_points)
    @settings(max_examples=200)
    def test_triangle_inequality_compressed(self, a, b, c):
        t_ab = bounded_metric(poincare_distance(a, b))
        t_bc = bounded_metric(poincare_distance(b, c))
        t_ac = bounded_metric(poincare_distance(a, c))
        assert t_ac <= t_ab + t_bc + TOLERANCE


class TestMobiusMap:
    def test_sends_parameter_to_zero(self):
        assert mobius_map(0.3 - 0.2j, 0.3 - 0.2j) == 0.0

    def test_identity_parameter(self):
        assert mobius_map(0.0, 0.25j) == 0.25j

    def test_direct_substitution(self):
        assert mobius_map(0.5, 0.0) == pytest.approx(-0.5, abs=0)

    @given(disc_points, disc_points)
    @settings(max_examples=200)
    def test_inverse_recovers_point(self, a, z):
        # (w + a)/(1 + conj(a) w) undoes (z - a)/(1 - conj(a) z)
        w = mobius_map(a, z)
        back = (w + a) / (1.0 + np.conj(a) * w)
        assert abs(back - z) <= TOLERANCE

    @given(disc_points, disc_points)
    @settings(max_examples=200)
    def test_stays_in_disc(self, a, z):
        assert abs(mobius_map(a, z)) < 1.0 + TOLERANCE


class TestKobayashiBall:
    def test_from_center(self):
        z = np.array([0.1 + 0.2j, -0.3j])
        assert kobayashi_distance(np.zeros(2), z) == pytest.approx(
            hyperbolic_radius(np.linalg.norm(z)), abs=TOLERANCE
        )

    def test_identity_case(self):
        z = np.array([0.4, 0.2j])
        assert kobayashi_distance(z, z) == 0.0

    def test_dimension_one_matches_disc(self):
        assert kobayashi_distance([0.5], [-0.5]) == pytest.approx(math.log(9.0), abs=TOLERANCE)
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = 0.95 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 3.0
            if max(abs(a), abs(b)) >= 1.0:
                continue
            assert abs(kobayashi_distance([a], [b]) - poincare_distance(a, b)) <= TOLERANCE

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a *= 0.8 / max(1.0, np.linalg.norm(a))
            b *= 0.8 / max(1.0, np.linalg.norm(b))
            assert abs(kobayashi_distance(a, b) - kobayashi_distance(b, a)) <= TOLERANCE

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kobayashi_distance(np.zeros(2), np.zeros(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_point_rejected_without_overflow_warning(self):
        # ||z||^2 overflows to inf, which is outside the ball
        with pytest.raises(DomainValidationError):
            kobayashi_distance([1e300, 0.0], np.zeros(2))

    def test_ball_mobius_is_involutive(self):
        rng = np.random.default_rng(5)
        a = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2.0
        z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / 2.0
        assert np.linalg.norm(ball_mobius(a, ball_mobius(a, z)) - z) <= TOLERANCE


def _ball_stack(rng, n, count, cap=0.99):
    """``count`` points of the complex n-ball of radius ``cap``, at radii spread over [0, cap)."""
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return z * (cap * rng.random((count, 1)) / np.linalg.norm(z, axis=1, keepdims=True))


class TestStackedBallKernels:
    """A stack of points gives, row by row, the bits of the one-point call."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_against_stack(self, n):
        rng = np.random.default_rng(40 + n)
        a, b = _ball_stack(rng, n, 60), _ball_stack(rng, n, 60)
        a[::7] = 0.0  # a = 0 rows: phi_0(z) = -z
        b[::5] = a[::5]  # equal points: distance 0 up to rounding
        distances, images = kobayashi_distance(a, b), ball_mobius(a, b)
        assert distances.shape == (60,) and images.shape == (60, n)
        for i in range(60):
            one = kobayashi_distance(a[i], b[i])
            assert type(one) is float and distances[i] == one
            assert np.array_equal(images[i], ball_mobius(a[i], b[i]))
        assert np.all(distances[::5] <= TOLERANCE)
        assert np.unique(distances).size > 40  # the rows are not one answer

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_vector_broadcast_against_a_stack(self, n):
        rng = np.random.default_rng(50 + n)
        a, b = _ball_stack(rng, n, 1)[0], _ball_stack(rng, n, 40)
        b[3] = a
        for left, right, flip in ((a, b, False), (b, a, True), (np.zeros(n), b, False)):
            distances, images = kobayashi_distance(left, right), ball_mobius(left, right)
            assert distances.shape == (40,) and images.shape == (40, n)
            for i in range(40):
                pair = (left[i], right) if flip else (left, right[i])
                assert distances[i] == kobayashi_distance(*pair)
                assert np.array_equal(images[i], ball_mobius(*pair))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_from_the_centre_a_stack_reads_the_1d_norm(self, n):
        # ||phi_0(z)|| = ||z|| with the bits of np.linalg.norm on one vector, which
        # np.vdot(z, z).real and np.linalg.norm(..., axis=-1) do not always give
        z = _ball_stack(np.random.default_rng(70 + n), n, 200)
        distances = kobayashi_distance(np.zeros(n), z)
        assert all(distances[i] == hyperbolic_radius(float(np.linalg.norm(z[i]))) for i in range(200))

    def test_batch_shapes_broadcast(self):
        rng = np.random.default_rng(60)
        a, b = _ball_stack(rng, 2, 12).reshape(3, 4, 2), _ball_stack(rng, 2, 4)
        distances = kobayashi_distance(a, b)
        assert distances.shape == (3, 4)
        assert all(distances[i, j] == kobayashi_distance(a[i, j], b[j]) for i in range(3) for j in range(4))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [[1e300, 0.0], [1e200 + 1e200j, 0.0], [np.inf, 0.0], [np.nan, 0.0], [0.6, 0.8]])
    def test_one_bad_row_refuses_the_stack_without_warning(self, bad):
        stack = np.zeros((5, 2), dtype=complex)
        stack[3] = bad
        with pytest.raises(DomainValidationError):
            kobayashi_distance(stack, np.zeros(2))
        with pytest.raises(DomainValidationError):
            ball_mobius(np.zeros(2), stack)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kobayashi_distance(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ShapeMismatch):
            kobayashi_distance(np.zeros((3, 2)), np.zeros((4, 2)))


class TestBoundedMetric:
    def test_zero(self):
        assert bounded_metric(0.0) == 0.0

    def test_inverse_pair(self):
        assert bounded_metric(hyperbolic_radius(0.9)) == pytest.approx(0.9, abs=TOLERANCE)

    def test_subadditivity_example(self):
        # oracle: tanh(2 artanh(0.3)) = 2*0.3/(1 + 0.09) = 60/109
        value = bounded_metric(hyperbolic_radius(0.3) + hyperbolic_radius(0.3))
        assert value == pytest.approx(float(Fraction(60, 109)), abs=TOLERANCE)
        assert value <= 0.6
