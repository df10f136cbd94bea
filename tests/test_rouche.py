import numpy as np
import pytest

from squeezing import (
    CircleContour,
    SampledMap,
    injectivity_certificate,
    laurent_basis,
    laurent_map,
    polynomial_map,
    rouche_dominates,
    unit_annulus_contours,
    zero_count,
    zero_count_detailed,
)
from squeezing.checks import injective_corpus, noninjective_corpus
from squeezing.errors import DomainValidationError, GuardViolation, NonIntegerResidual
from squeezing.rouche import _argument_sums


def monomial(k):
    return SampledMap(lambda z: z ** k, lambda z: k * z ** (k - 1.0))


def annulus_sums_at(f, inner_radius, targets, n):
    """Reference: per-target argument-principle sums of f - w and guard
    margins from a separate evaluation at exactly n samples per circle."""
    totals = np.zeros(len(targets), dtype=complex)
    margins = np.full(len(targets), np.inf)
    for contour in unit_annulus_contours(inner_radius):
        ring = contour.radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
        z = contour.center + ring
        values = np.asarray(f.evaluator(z), dtype=complex)
        derivatives = np.asarray(f.derivative_evaluator(z), dtype=complex)
        shifted = values[None, :] - targets[:, None]
        margins = np.minimum(margins, np.abs(shifted).min(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            totals += contour.orientation * np.mean(
                derivatives[None, :] / shifted * ring[None, :], axis=1
            )
    return totals, margins


class TestContourValidation:
    def test_samples_must_be_power_of_two(self):
        with pytest.raises(DomainValidationError):
            CircleContour(samples=100)
        with pytest.raises(DomainValidationError):
            CircleContour(samples=32)

    def test_radius_positive(self):
        with pytest.raises(DomainValidationError):
            CircleContour(radius=0.0)

    def test_orientation(self):
        with pytest.raises(DomainValidationError):
            CircleContour(orientation=2)


class TestZeroCount:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("samples", [64, 256, 1024, 4096])
    def test_monomial_winding(self, k, samples):
        detail = zero_count_detailed(monomial(k), CircleContour(samples=samples))
        assert detail.count == k
        assert detail.residual < 1e-8

    def test_cubic_with_linear_term(self):
        # oracle: roots of z^3 + 0.5 z are 0 and +-i/sqrt(2), all inside |z| = 1
        roots = np.roots([1.0, 0.0, 0.5, 0.0])
        assert np.all(np.abs(roots) < 1.0)
        assert zero_count(polynomial_map([0.0, 0.5, 0.0, 1.0]), CircleContour()) == 3

    def test_annulus_excludes_outside_zero(self):
        identity = SampledMap(lambda z: z, lambda z: np.ones_like(z))
        assert zero_count(identity, unit_annulus_contours(0.5)) == 0

    def test_shifted_zero_inside_annulus(self):
        shifted = SampledMap(lambda z: z - 0.75, lambda z: np.ones_like(z))
        assert zero_count(shifted, unit_annulus_contours(0.5)) == 1

    def test_scalar_valued_evaluator(self):
        constant = SampledMap(lambda z: 2.0, lambda z: 0.0)
        assert zero_count(constant, CircleContour()) == 0
        assert zero_count(constant, unit_annulus_contours(0.5)) == 0

    def test_guard_violation_for_zero_on_contour(self):
        on_contour = SampledMap(lambda z: z - 1.0, lambda z: np.ones_like(z))
        with pytest.raises(GuardViolation, match=r"\|f\| = 0\.000e\+00 <= guard 1\.0e-09"):
            zero_count(on_contour, CircleContour())

    def test_non_integer_residual_for_zero_hugging_contour(self):
        # zero just outside the circle, between sample points: the quadrature
        # cannot settle on an integer and must say so instead of rounding
        pole = (1.0 + 1e-6) * np.exp(1j * np.pi / 100000.0)
        hugging = SampledMap(lambda z: z - pole, lambda z: np.ones_like(z))
        with pytest.raises(NonIntegerResidual):
            zero_count(hugging, CircleContour())

    def test_residual_shrinks_with_refinement(self):
        wobbly = polynomial_map([0.3, 0.0, 0.0, 1.0])
        coarse = zero_count_detailed(wobbly, CircleContour(samples=64))
        assert coarse.count == 3
        assert coarse.residual < 1e-8


class TestArgumentSums:
    @pytest.mark.parametrize(
        "coefficients, extra_targets",
        [
            ([0, 0, 1], []),  # injective
            ([0, 0, 0, 0, 1], []),  # z^2: two preimages of every 0.25 < |w| < 1
            ([0, 0, 1], [1.0, 0.5]),  # targets on the image of the theta = 0 nodes
        ],
    )
    @pytest.mark.parametrize("n", [256, 1000])
    def test_one_pass_matches_separate_resolutions(self, coefficients, extra_targets, n):
        f = laurent_map(coefficients)
        targets = np.array([0.0, 0.3 + 0.2j, 0.75, -0.6j, 2.0, *extra_targets], dtype=complex)
        coarse_ref, margins_lo = annulus_sums_at(f, 0.5, targets, n)
        fine_ref, margins_hi = annulus_sums_at(f, 0.5, targets, 2 * n)
        fine, coarse, margins = _argument_sums(f, unit_annulus_contours(0.5), targets, 2 * n)
        assert np.array_equal(fine, fine_ref, equal_nan=True)
        assert np.array_equal(coarse, coarse_ref, equal_nan=True)
        assert np.array_equal(margins, np.minimum(margins_lo, margins_hi))
        if extra_targets:
            assert np.all(margins[-2:] == 0.0)
            assert not np.any(np.isfinite(fine[-2:]))
            assert not np.any(np.isfinite(coarse[-2:]))


class TestRoucheDominance:
    def test_dominates(self):
        contour = CircleContour()
        assert rouche_dominates(monomial(3), polynomial_map([0.0, 0.5]), contour)

    def test_rejects(self):
        contour = CircleContour()
        assert not rouche_dominates(monomial(1), polynomial_map([0.0, 2.0]), contour)

    def test_zero_perturbation(self):
        contour = CircleContour()
        assert rouche_dominates(monomial(2), polynomial_map([0.0]), contour)

    def test_consistency_when_dominated(self):
        contour = CircleContour()
        cases = [
            (monomial(3), polynomial_map([0.0, 0.5]), polynomial_map([0.0, 0.5, 0.0, 1.0])),
            (monomial(2), polynomial_map([0.05]), polynomial_map([0.05, 0.0, 1.0])),
        ]
        for f, g, combined in cases:
            assert rouche_dominates(f, g, contour)
            assert zero_count(f, contour) == zero_count(combined, contour)


class TestLaurentBasis:
    @pytest.mark.parametrize("degree", range(5))
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_map_and_derivative_match_termwise_sums(self, degree, shape):
        rng = np.random.default_rng(10 * degree + len(shape))
        c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
        radii = rng.uniform(0.2, 1.5, shape)
        z = radii * np.exp(2j * np.pi * rng.random(shape))
        value = np.zeros(shape, dtype=complex)
        derivative = np.zeros(shape, dtype=complex)
        value_scale = np.zeros(shape)
        derivative_scale = np.zeros(shape)
        for j, k in enumerate(range(-degree, degree + 1)):
            value = value + c[j] * z ** k
            derivative = derivative + k * c[j] * z ** (k - 1)
            value_scale = value_scale + abs(c[j]) * radii ** k
            derivative_scale = derivative_scale + abs(k * c[j]) * radii ** (k - 1)
        f = laurent_map(c)
        assert np.shape(f.evaluator(z)) == shape
        assert np.all(np.abs(f.evaluator(z) - value) <= 1e-13 * value_scale)
        assert np.all(np.abs(f.derivative_evaluator(z) - derivative) <= 1e-13 * derivative_scale)

    def test_basis_columns_are_the_laurent_powers(self):
        z = np.array([0.5 + 0.5j, -2.0])
        basis = laurent_basis(z, 2)
        assert basis.shape == (2, 5)
        assert np.array_equal(basis[:, 2], np.ones(2))
        assert np.array_equal(basis[:, 3], z)
        assert np.allclose(basis[:, 0], z ** -2.0, rtol=1e-15)

    def test_even_length_rejected(self):
        with pytest.raises(DomainValidationError):
            laurent_map([0, 1])


class TestInjectivityCertificate:
    def test_identity_certified(self):
        cert = injectivity_certificate(laurent_map([0, 0, 1]), 0.5, target_grid=16)
        assert cert.status == "certified"
        assert cert.min_boundary_modulus > 1e-9

    def test_square_refuted(self):
        # oracle: z^2 - w has the two annulus roots +-sqrt(w) for 0.25 < |w| < 1
        w = 0.5 + 0.1j
        roots = np.sqrt(np.abs(w))
        assert 0.5 < roots < 1.0
        cert = injectivity_certificate(laurent_map([0, 0, 0, 0, 1]), 0.5, target_grid=16)
        assert cert.status == "refuted"

    def test_reflection_certified(self):
        cert = injectivity_certificate(laurent_map([0.25, 0, 0]), 0.25, target_grid=16)
        assert cert.status == "certified"

    def test_noninjective_corpus_never_certified(self):
        for name, candidate in noninjective_corpus():
            status = injectivity_certificate(candidate, 0.5, target_grid=16).status
            assert status in ("refuted", "inconclusive"), name

    def test_grid_refinement_never_flips_to_refuted(self):
        for name, candidate in injective_corpus():
            for grid in (8, 16, 32):
                status = injectivity_certificate(candidate, 0.5, target_grid=grid).status
                assert status != "refuted", (name, grid)

    def test_annulus_accepts_domain_object(self):
        from squeezing import Annulus

        cert = injectivity_certificate(laurent_map([0, 0, 1]), Annulus(0.5), target_grid=8)
        assert cert.status == "certified"

    def test_grid_validation(self):
        with pytest.raises(DomainValidationError):
            injectivity_certificate(laurent_map([0, 0, 1]), 0.5, target_grid=1)
