import functools
import tracemalloc

import numpy as np
import pytest

from squeezing import (
    CircleContour,
    InjectivityCertificate,
    SampledMap,
    disc_automorphism,
    injectivity_certificate,
    laurent_basis,
    laurent_map,
    mobius_map,
    polynomial_map,
    rouche_dominates,
    unit_annulus_contours,
    zero_count,
    zero_count_detailed,
)
from squeezing.checks import injective_corpus, noninjective_witnesses
from squeezing import rouche
from squeezing.errors import DomainValidationError, GuardViolation, NonIntegerResidual
from squeezing.rouche import _curves_apart, _segment_distances


def monomial(k):
    return SampledMap(lambda z: z ** k, lambda z: k * z ** (k - 1.0))


def annulus_sums_at(f, inner_radius, w, n):
    """Reference: the argument-principle sum of f - w and the guard margin
    from a separate evaluation at exactly n samples per circle."""
    total = 0j
    margin = np.inf
    for contour in unit_annulus_contours(inner_radius):
        ring = contour.radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
        z = contour.center + ring
        shifted = np.asarray(f.evaluator(z), dtype=complex) - w
        derivatives = np.asarray(f.derivative_evaluator(z), dtype=complex)
        margin = min(margin, np.abs(shifted).min())
        with np.errstate(divide="ignore", invalid="ignore"):
            total += contour.orientation * np.mean(derivatives / shifted * ring)
    return total, margin


class TestContourValidation:
    def test_samples_must_be_power_of_two(self):
        with pytest.raises(DomainValidationError):
            CircleContour(samples=100)
        with pytest.raises(DomainValidationError):
            CircleContour(samples=32)

    def test_radius_positive(self):
        with pytest.raises(DomainValidationError):
            CircleContour(radius=0.0)

    def test_nan_radius_rejected(self):
        with pytest.raises(DomainValidationError):
            CircleContour(radius=float("nan"))

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

    @pytest.mark.parametrize("contours", [CircleContour(), unit_annulus_contours(0.5)])
    def test_nan_on_contour_raises(self, contours):
        nan_valued = SampledMap(lambda z: np.full_like(z, np.nan), lambda z: np.ones_like(z))
        with pytest.raises(GuardViolation, match=r"\|f\| = nan"):
            zero_count_detailed(nan_valued, contours)
        nan_derivative = SampledMap(lambda z: z - 0.75, lambda z: np.full_like(z, np.nan))
        with pytest.raises(NonIntegerResidual):
            zero_count_detailed(nan_derivative, contours)

    def test_nan_quadrature_raises_without_refining(self):
        calls = []

        def nan_derivative(z):
            calls.append(np.size(z))
            return np.full_like(z, np.nan)

        with pytest.raises(NonIntegerResidual):
            zero_count_detailed(SampledMap(lambda z: z - 0.75, nan_derivative), CircleContour())
        assert len(calls) <= 2

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


class TestPreimageCount:
    @pytest.mark.parametrize("samples", [512, 1024, 2048])
    def test_margin_and_count_match_a_separate_evaluation(self, samples):
        # the certificate counts the preimages of f(sqrt r) from its curve samples
        for name, f in injective_corpus(0.5):
            if f.laurent_coefficients is None:
                continue  # disc automorphisms are certified without sampling
            w0 = f.evaluator(np.sqrt(0.5))
            total, margin = annulus_sums_at(f, 0.5, w0, 2 * samples)
            cert = injectivity_certificate(f, 0.5, samples=samples)
            assert cert.status == "certified", name
            assert cert.min_boundary_modulus == margin, name
            assert np.rint(total.real) == 1 and abs(total - 1) < 1e-9, name


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
        assert rouche_dominates(monomial(2), polynomial_map([0.05]), contour)
        assert zero_count(monomial(2), contour) == zero_count(polynomial_map([0.05, 0.0, 1.0]), contour)


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

    def test_reflection_certified(self):
        cert = injectivity_certificate(laurent_map([0.25, 0, 0]), 0.25, target_grid=16)
        assert cert.status == "certified"

    def test_grid_refinement_never_flips_to_refuted(self):
        for name, candidate in injective_corpus():
            for grid in (8, 16, 32):
                status = injectivity_certificate(candidate, 0.5, target_grid=grid).status
                assert status != "refuted", (name, grid)

    def test_annulus_accepts_domain_object(self):
        from squeezing import Annulus

        cert = injectivity_certificate(laurent_map([0, 0, 1]), Annulus(0.5), target_grid=8)
        assert cert.status == "certified"

    def test_reason_only_when_inconclusive(self):
        assert injectivity_certificate(laurent_map([0, 0, 1]), 0.5, target_grid=8).reason is None
        assert injectivity_certificate(laurent_map([0, 0, 0, 0, 1]), 0.5, target_grid=8).reason is None
        assert injectivity_certificate(disc_automorphism(0.5j), 0.5).reason is None
        assert injectivity_certificate(monomial(1), 0.5).reason is not None

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("modulus", [0.0, 0.5, 0.9])
    def test_disc_automorphism_certified(self, modulus, r):
        cert = injectivity_certificate(disc_automorphism(modulus * np.exp(0.7j)), r)
        assert cert == InjectivityCertificate("certified", np.inf)

    def test_disc_automorphism_evaluators(self):
        a = 0.5 * np.exp(0.7j)
        f = disc_automorphism(a)
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.allclose(f.evaluator(0.9 * circle), mobius_map(a, 0.9 * circle), rtol=0, atol=1e-14)
        assert np.allclose(np.abs(f.evaluator(circle)), 1.0, rtol=0, atol=1e-14)
        # the one zero a, counted through the derivative evaluator
        assert zero_count(f, CircleContour()) == zero_count(f, unit_annulus_contours(0.4)) == 1

    @pytest.mark.parametrize("a", [1.0, -1j, 0.6 + 0.8j, 2.0, np.nan])
    def test_disc_automorphism_rejects_a_outside_the_disc(self, a):
        with pytest.raises(DomainValidationError):
            disc_automorphism(a)

    @pytest.mark.parametrize("f", [polynomial_map([0, 1]), monomial(1)])
    def test_untagged_maps_are_inconclusive(self, f):
        cert = injectivity_certificate(f, 0.5)
        assert cert.status == "inconclusive"
        assert cert.reason == "no certificate for this map: build it with laurent_map or disc_automorphism"
        assert cert.min_boundary_modulus == np.inf


def joukowski(lam):
    return laurent_map([lam, 0, 1])


def brute_force_apart(nodes, tubes):
    """Reference for _curves_apart: every segment pair, no hash."""
    rows, n = nodes.shape
    start = nodes.ravel()
    end = np.roll(nodes, -1, axis=1).ravel()
    tube = np.repeat(tubes, n)
    a, b = np.triu_indices(rows * n, k=1)
    gap = (b - a) % n
    keep = ~((a // n == b // n) & ((gap == 1) | (gap == n - 1)))
    a, b = a[keep], b[keep]
    distance = _segment_distances(start[a], end[a], start[b], end[b])
    return bool(np.all(distance > tube[a] + tube[b]))


class TestBoundaryCertificate:
    # target_grid is accepted and unread: no value of it changes the outcome
    @pytest.mark.parametrize("r", [0.25, 0.4, 0.5])
    @pytest.mark.parametrize("grid", [8, 16, 32, 64])
    def test_mobius_maps_certified_at_every_grid(self, grid, r):
        for coefficients in ([0, 0, 1], [r, 0, 0]):
            cert = injectivity_certificate(laurent_map(coefficients), r, target_grid=grid)
            assert cert.status == "certified", coefficients
            assert (cert.reason, cert.samples, cert.critical_points) == (None, 2048, 0)
            assert 0.0 < cert.tube < 1e-6

    # z + lambda/z identifies z1 != z2 exactly when z1 z2 = lambda: injective
    # for |lambda| < r^2; for r^2 < |lambda| < 1 its critical points
    # +-sqrt(lambda) lie in the annulus
    @pytest.mark.parametrize("band, expected", [
        ((0.0, 0.95), "certified"),
        ((1.005, 1.05), "refuted"),
        ((1.2, None), "refuted"),
    ])
    def test_joukowski_bands(self, band, expected):
        rng = np.random.default_rng(int(100 * band[0]))
        for _ in range(12):
            r = float(rng.uniform(0.15, 0.7))
            high = 0.9 / r ** 2 if band[1] is None else band[1]
            lam = r * r * rng.uniform(band[0], high) * np.exp(2j * np.pi * rng.uniform())
            samples = int(rng.choice([512, 1024, 2048]))
            cert = injectivity_certificate(joukowski(lam), r, samples=samples)
            assert cert.status == expected, (r, lam, samples)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_powers_refuted(self, k):
        rng = np.random.default_rng(k)
        c = np.zeros(2 * k + 1, dtype=complex)
        c[-1] = 1.0
        for samples in (512, 1024, 2048):
            r = float(rng.uniform(0.15, 0.7))
            cert = injectivity_certificate(laurent_map(c), r, samples=samples)
            assert (cert.status, cert.critical_points) == ("refuted", 0), (r, samples)

    @pytest.mark.parametrize("index", range(3))
    def test_noninjective_witnesses_refuted(self, index):
        name, f, r = noninjective_witnesses()[index]
        c = f.laurent_coefficients
        m = len(c) // 2
        # critical points: roots of z^{m+1} f'(z) = sum_k k c_k z^{k+m}
        moduli = np.abs(np.roots((np.arange(-m, m + 1) * c)[::-1]))
        assert np.any((moduli > r) & (moduli < 1.0)), name
        for samples in (512, 1024, 2048):
            assert injectivity_certificate(f, r, samples=samples).status == "refuted", (name, samples)

    def test_wrapped_evaluator_keeps_the_coefficients(self):
        f = laurent_map([0.3, 0, 0, 1, 0.1])
        wrapped = SampledMap(functools.wraps(f.evaluator)(lambda z: f.evaluator(z)), f.derivative_evaluator)
        assert np.array_equal(wrapped.laurent_coefficients, f.laurent_coefficients)
        assert polynomial_map([0, 1]).laurent_coefficients is None

    @pytest.mark.parametrize("coefficients, reason", [
        # critical points 5e-10 r outside the inner circle: too close for a trusted count
        ([0.25 * (1 + 1e-9), 0, 1], "critical points without a trusted count"),
        ([0, 0.5, 0], "preimages of f(sqrt r): untrusted"),  # a constant map
        ([0.249, 0, 1], "boundary curves not locally injective"),  # |f'| ~ 0.004 on |z| = r
    ])
    def test_inconclusive_reason_names_the_failed_test(self, coefficients, reason):
        cert = injectivity_certificate(laurent_map(coefficients), 0.5, samples=512)
        assert (cert.status, cert.reason) == ("inconclusive", reason)

    @pytest.mark.parametrize("coefficients, reason", [
        ([1e300, 0, 1e-300], "boundary curves closer than their tubes"),
        # inf or NaN in z^2 f' leaves no finite companion matrix: no root is located
        ([0, np.nan, 1], "preimages of f(sqrt r): untrusted"),
        ([np.inf, 0, 1], "preimages of f(sqrt r): untrusted"),
        ([0, 0, np.nan], "preimages of f(sqrt r): untrusted"),
    ])
    def test_extreme_coefficients_stay_inconclusive(self, coefficients, reason):
        with np.errstate(all="ignore"):
            cert = injectivity_certificate(laurent_map(coefficients), 0.5, samples=512)
        assert (cert.status, cert.reason, cert.critical_points) == ("inconclusive", reason, 0)

    @pytest.mark.parametrize("r, coefficients, status", [
        (1e-200, [0, 0, 0, 1, 0.1], None),  # no critical point in the annulus; r^2 underflows
        (1e-300, [1, 0, 0, 0, 1], None),
        (1e-300, [0.1, 0.2, 0, 1, 0], "refuted"),  # a trusted count at a critical point
    ])
    def test_radius_too_small_for_the_degree(self, r, coefficients, status):
        f = laurent_map(coefficients)
        if status is None:
            with pytest.raises(DomainValidationError, match=f"annulus radius {r!r} is too small for degree 2"):
                injectivity_certificate(f, r, samples=512)
        else:
            cert = injectivity_certificate(f, r, samples=512)
            assert cert.status == status and cert.critical_points >= 1

    @pytest.mark.parametrize("samples", [0, -3, np.nan])
    def test_samples_must_be_positive(self, samples):
        with pytest.raises(DomainValidationError, match=f"samples must be a positive integer, got {samples!r}"):
            injectivity_certificate(MILD, 0.4, samples=samples)

    def test_turning_numbers_stop_a_missed_critical_point(self, monkeypatch):
        # with no root located, z + lambda/z with r^2 < |lambda| < r^1.5 passes
        # the preimage count (the second preimage lambda/sqrt(r) of f(sqrt r)
        # lies in the hole) and has simple, disjoint boundary curves, but its
        # two critical points +-sqrt(lambda) make the turning numbers differ
        monkeypatch.setattr(rouche, "_roots", lambda p: np.zeros(0, dtype=complex))
        for r, lam in ((0.3, 0.12), (0.4, 0.2j), (0.5, -0.3)):
            cert = injectivity_certificate(joukowski(lam), r, samples=1024)
            assert (cert.status, cert.reason) == ("inconclusive", "turning numbers differ"), (r, lam)

    def test_hash_matches_brute_force(self):
        rng = np.random.default_rng(5)
        outcomes = []
        for _ in range(300):
            n = int(rng.choice([8, 16, 40]))
            theta = 2 * np.pi * np.arange(n) / n
            radii = rng.uniform(0.2, 1.0, (2, 1))
            wobble = 1.0 + rng.uniform(0.0, 0.6) * rng.standard_normal((2, n))
            nodes = radii * wobble * np.exp(1j * theta) + 0.1 * rng.standard_normal((2, 1))
            tubes = 10.0 ** rng.uniform(-4, -1, 2)
            expected = brute_force_apart(nodes, tubes)
            assert _curves_apart(nodes, tubes) == expected
            outcomes.append(expected)
        assert 0.2 < np.mean(outcomes) < 0.8

    def test_segment_distances_match_dense_sampling(self):
        rng = np.random.default_rng(6)
        p1, q1, p2, q2 = rng.standard_normal((4, 200)) + 1j * rng.standard_normal((4, 200))
        distance = _segment_distances(p1, q1, p2, q2)
        t = np.linspace(0.0, 1.0, 401)
        for i in range(200):
            first = p1[i] + t * (q1[i] - p1[i])
            second = p2[i] + t * (q2[i] - p2[i])
            sampled = np.abs(first[:, None] - second[None, :]).min()
            spacing = (abs(q1[i] - p1[i]) + abs(q2[i] - p2[i])) / 400
            assert distance[i] - 1e-12 <= sampled <= distance[i] + spacing
        assert np.count_nonzero(distance == 0.0) > 25


MILD = laurent_map([0.01, 0.05j, 0.02, 1.0, 0.1 - 0.03j])


class TestCertificateMemory:
    @pytest.mark.parametrize("grid", [32, 64])
    def test_peak_does_not_grow_with_the_grid(self, grid):
        # the boundary pass never builds a targets x samples matrix
        tracemalloc.start()
        try:
            cert = injectivity_certificate(MILD, 0.4, target_grid=grid, samples=2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.status == "certified"
        assert peak < 4 * 2 ** 20, peak


class TestKernelMemory:
    def test_annulus_count_holds_one_contour_at_a_time(self):
        # z^2 f' of the r = 0.1 degree-one witness refines to MAX_SAMPLES per
        # circle; both circles' samples alive at once would take about 8.5 MiB
        _, f, r = noninjective_witnesses()[1]
        c = f.laurent_coefficients
        critical = polynomial_map(np.arange(-1, 2) * c)
        tracemalloc.start()
        try:
            detail = zero_count_detailed(critical, unit_annulus_contours(r))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (detail.count, detail.samples) == (2, rouche.MAX_SAMPLES)
        assert peak <= 6.5 * 2 ** 20, peak
