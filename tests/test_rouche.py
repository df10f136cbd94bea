import tracemalloc

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
from squeezing import rouche
from squeezing.errors import DomainValidationError, GuardViolation, NonIntegerResidual
from squeezing.rouche import (
    GUARD_THRESHOLD,
    SNAP_WINDOW,
    _BLOCK_BYTES,
    InconclusiveReason,
    InjectivityCertificate,
    _argument_sums,
    _circle_nodes,
    _range_box,
    _refutes,
)


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


def whole_matrix_sums(f, contours, targets, n):
    """Reference: the argument-principle pass on one whole targets x n matrix
    per contour, with the same operations in the same order as the kernel."""
    fine = np.zeros(len(targets), dtype=complex)
    coarse = np.zeros(len(targets), dtype=complex)
    margins = np.full(len(targets), np.inf)
    for contour in contours:
        z, ring = _circle_nodes(contour, n)
        values = np.broadcast_to(np.asarray(f.evaluator(z), dtype=complex), z.shape)
        derivatives = np.asarray(f.derivative_evaluator(z), dtype=complex)
        shifted = values[None, :] - targets[:, None]
        margins = np.minimum(margins, np.abs(shifted).min(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(derivatives, shifted, out=shifted)
            shifted *= ring
            fine += contour.orientation * shifted.mean(axis=1)
            coarse += contour.orientation * shifted[:, ::2].mean(axis=1)
    return fine, coarse, margins


def raster_targets(f, inner_radius, grid):
    """The certificate's cell-centred target grid in raster order."""
    re_low, re_high, im_low, im_high = _range_box(f, inner_radius)
    xs = re_low + (np.arange(grid) + 0.5) * (re_high - re_low) / grid
    ys = im_low + (np.arange(grid) + 0.5) * (im_high - im_low) / grid
    return (xs[:, None] + 1j * ys[None, :]).ravel()


def raster_certificate(f, inner_radius, grid, samples, guard=GUARD_THRESHOLD):
    """Reference: the certificate as one whole pass over the targets in raster
    order, classified once every target's count is in."""
    targets = raster_targets(f, inner_radius, grid)
    fine, coarse, margins = _argument_sums(
        f, unit_annulus_contours(inner_radius), targets, 2 * samples
    )
    nearest = np.rint(fine.real)
    coarse_nearest = np.rint(coarse.real)
    guarded = margins > guard
    snapped = (
        guarded
        & (np.abs(fine - nearest) <= SNAP_WINDOW)
        & (np.abs(coarse - coarse_nearest) <= SNAP_WINDOW)
    )
    trustworthy = snapped & (nearest == coarse_nearest)
    min_margin = float(margins.min())
    if np.any(trustworthy & (nearest >= 2)):
        return InjectivityCertificate("refuted", grid, min_margin)
    if np.all(trustworthy) and np.all(nearest <= 1):
        return InjectivityCertificate("certified", grid, min_margin)
    reason = InconclusiveReason(
        int(np.count_nonzero(~guarded)),
        int(np.count_nonzero(guarded & ~snapped)),
        int(np.count_nonzero(snapped & ~trustworthy)),
    )
    return InjectivityCertificate("inconclusive", grid, min_margin, reason)


def seeded_laurent_cases(count, seed):
    """Laurent maps near the identity, near a Joukowski fold, near z^m, and
    generic ones, with the annulus, grid and samples drawn alongside."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 5))
        r = float(rng.uniform(0.15, 0.7))
        grid = int(rng.choice([4, 8, 16]))
        samples = int(rng.choice([256, 512, 1024]))
        kind = int(rng.integers(0, 4))
        noise = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
        c = np.zeros(2 * m + 1, dtype=complex)
        if kind == 0:
            c[m + 1] = 1.0
            c += 0.05 * noise
        elif kind == 1:
            c[m + 1] = 1.0
            c[m - 1] = r * r * rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        elif kind == 2:
            c[-1] = 1.0
            c += 0.1 * noise
        else:
            c = 0.3 * noise
        yield laurent_map(c), r, grid, samples


# a generic degree-2 Laurent map, close to the identity
MILD = laurent_map([0.01, 0.05j, 0.02, 1.0, 0.1 - 0.03j])

# an inconclusive candidate met by the README search (r = 0.25, rho = 0.5, seed 42)
README_INCONCLUSIVE = laurent_map([
    -0.009857639192071185 + 0.0024619576489650426j,
    0.0030014304405709285 + 0.0030014304405709285j,
    0.0030014304405709285 + 0.0030014304405709285j,
    0.9838610515421815 + 0.0030014304405709285j,
    0.0030014304405709285 + 0.0030014304405709285j,
])


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [128, 4096, 16384])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 1), (3, 5)])
    def test_blocks_match_whole_matrix(self, n, blocks, extra):
        rows = max(1, _BLOCK_BYTES // (16 * n))
        count = blocks * rows + extra
        rng = np.random.default_rng(n + count)
        targets = 1.2 * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
        contours = unit_annulus_contours(0.4)
        on_curve = min(count // rows // 2 * rows + rows // 2, count - 2)
        if count >= 3:
            # the image of an outer node, inside a block and between finite rows
            z, _ = _circle_nodes(contours[0], n)
            targets[on_curve] = MILD.evaluator(z)[n // 3]
        fine, coarse, margins = _argument_sums(MILD, contours, targets, n)
        fine_ref, coarse_ref, margins_ref = whole_matrix_sums(MILD, contours, targets, n)
        assert np.array_equal(fine, fine_ref, equal_nan=True)
        assert np.array_equal(coarse, coarse_ref, equal_nan=True)
        assert np.array_equal(margins, margins_ref, equal_nan=True)
        if count >= 3:
            assert margins[on_curve] == 0.0
            assert not np.isfinite(fine[on_curve])
            assert np.all(np.isfinite(np.delete(fine, on_curve)))


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [512, 4096])
    @pytest.mark.parametrize("k", [0, 1, -1])
    def test_stop_leaves_the_later_blocks_at_zero(self, n, k):
        rows = max(1, _BLOCK_BYTES // (16 * n))
        count = 3 * rows + 5  # four blocks, the last one short
        k %= -(-count // rows)
        rng = np.random.default_rng(n + k)
        targets = 1.2 * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
        contours = unit_annulus_contours(0.4)
        seen = []

        def stop(fine, coarse, margins):
            seen.append((fine.copy(), coarse.copy(), margins.copy()))
            return len(seen) == k + 1

        fine, coarse, margins = _argument_sums(MILD, contours, targets, n, stop=stop)
        fine_ref, coarse_ref, margins_ref = _argument_sums(MILD, contours, targets, n)
        assert len(seen) == k + 1
        for index, (block_fine, block_coarse, block_margins) in enumerate(seen):
            part = slice(index * rows, (index + 1) * rows)
            assert np.array_equal(block_fine, fine_ref[part])
            assert np.array_equal(block_coarse, coarse_ref[part])
            assert np.array_equal(block_margins, margins_ref[part])
        done = min(count, (k + 1) * rows)
        assert np.array_equal(fine[:done], fine_ref[:done])
        assert np.array_equal(coarse[:done], coarse_ref[:done])
        assert np.array_equal(margins, margins_ref)
        assert not np.any(fine[done:]) and not np.any(coarse[done:])
        assert done == count or np.any(fine_ref[done:] != 0)


class TestRefutes:
    def test_nan_sum_does_not_hide_a_refuting_one(self):
        # the first target touches the image curve: margin 0 and a NaN sum
        fine = np.array([np.nan + 0j, 2.0 + 1e-15j, 0.0])
        coarse = np.array([np.nan + 0j, 2.0 - 1e-15j, 0.0])
        margins = np.array([0.0, 0.1, 0.1])
        assert _refutes(fine, coarse, margins, GUARD_THRESHOLD)
        assert _refutes(fine[::-1], coarse[::-1], margins[::-1], GUARD_THRESHOLD)

    def test_matches_the_trust_tests(self):
        # sums around the pre-test's threshold 1.5 and the snap window
        rng = np.random.default_rng(3)
        for _ in range(500):
            size = int(rng.integers(1, 6))
            fine = rng.choice([0.0, 1.0, 1.45, 1.5, 1.9, 2.0, 2.1, 3.0, np.nan], size) + 1j * (
                rng.choice([0.0, 0.05, 0.2], size)
            )
            coarse = fine + rng.choice([0.0, 0.05, 1.0], size)
            margins = rng.choice([0.0, GUARD_THRESHOLD, 1.0], size)
            nearest = np.rint(fine.real)
            trusted = (
                (margins > GUARD_THRESHOLD)
                & (np.abs(fine - nearest) <= SNAP_WINDOW)
                & (np.abs(coarse - np.rint(coarse.real)) <= SNAP_WINDOW)
                & (nearest == np.rint(coarse.real))
            )
            expected = bool(np.any(trusted & (nearest >= 2)))
            assert _refutes(fine, coarse, margins, GUARD_THRESHOLD) == expected


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

    def test_reason_only_when_inconclusive(self):
        assert injectivity_certificate(laurent_map([0, 0, 1]), 0.5, target_grid=8).reason is None
        assert injectivity_certificate(laurent_map([0, 0, 0, 0, 1]), 0.5, target_grid=8).reason is None

    def test_inconclusive_reason_counts_untrusted_targets(self):
        cert = injectivity_certificate(README_INCONCLUSIVE, 0.25)
        assert cert.status == "inconclusive"
        assert cert.reason == (0, 3, 0)
        # recount target by target, each under the first test it fails
        targets = raster_targets(README_INCONCLUSIVE, 0.25, 16)
        fine, coarse, margins = _argument_sums(
            README_INCONCLUSIVE, unit_annulus_contours(0.25), targets, 4096
        )
        failed = {"guard": 0, "snap": 0, "disagreement": 0}
        for total, half, margin in zip(fine, coarse, margins):
            if not margin > GUARD_THRESHOLD:
                failed["guard"] += 1
            elif max(abs(total - round(total.real)), abs(half - round(half.real))) > SNAP_WINDOW:
                failed["snap"] += 1
            elif round(total.real) != round(half.real):
                failed["disagreement"] += 1
        assert cert.reason._asdict() == failed


    def test_outcome_matches_the_raster_whole_pass(self):
        statuses = []
        for f, r, grid, samples in seeded_laurent_cases(72, seed=2024):
            cert = injectivity_certificate(f, r, target_grid=grid, samples=samples)
            expected = raster_certificate(f, r, grid, samples)
            assert cert.status == expected.status
            assert cert.grid_size == expected.grid_size
            assert cert.min_boundary_modulus.hex() == expected.min_boundary_modulus.hex()
            assert cert.reason == expected.reason
            statuses.append(cert.status)
        assert {status: statuses.count(status) > 5 for status in set(statuses)} == {
            "certified": True, "refuted": True, "inconclusive": True,
        }

    def test_targets_walk_centre_out_and_stop_at_a_refutation(self, monkeypatch):
        f = laurent_map([0, 0, 0, 0, 1])  # z^2 hits 0.25 < |w| < 1 twice
        calls = []

        def recording(f, contours, targets, n, stop=None):
            stops = []

            def counting(*sums):
                stops.append(stop(*sums))
                return stops[-1]

            calls.append((targets, stops))
            return _argument_sums(f, contours, targets, n, stop=counting)

        monkeypatch.setattr(rouche, "_argument_sums", recording)
        cert = injectivity_certificate(f, 0.5, target_grid=16, samples=2048)
        assert cert.status == "refuted"
        (targets, stops), = calls
        raster = raster_targets(f, 0.5, 16)
        re_low, re_high, im_low, im_high = _range_box(f, 0.5)
        centre = complex(0.5 * (re_low + re_high), 0.5 * (im_low + im_high))
        distances = np.abs(targets - centre)
        assert np.all(np.diff(distances) >= 0)
        assert sorted(targets.tolist(), key=lambda w: (w.real, w.imag)) == sorted(
            raster.tolist(), key=lambda w: (w.real, w.imag)
        )
        # the 16 targets nearest 0 reach |w| > 0.25, so the first block refutes
        assert stops == [True]


class TestCertificateMemory:
    @pytest.mark.parametrize("grid", [32, 64])
    def test_peak_does_not_grow_with_the_grid(self, grid):
        # a whole targets x 4096 matrix per circle would take 64 MiB at grid 32
        tracemalloc.start()
        try:
            injectivity_certificate(MILD, 0.4, target_grid=grid, samples=2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak
