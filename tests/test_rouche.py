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
from squeezing.errors import DomainValidationError, EmptyList, GuardViolation, NonIntegerResidual
from squeezing.rouche import _curves_apart, _segment_distances, _winding


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


def from_scratch_count(f, contours):
    """Reference for zero_count_detailed: each level evaluates all of its
    nodes afresh; returns (count, residual, samples)."""
    contours = (contours,) if isinstance(contours, CircleContour) else tuple(contours)

    def level(n):
        total, margin = 0j, np.inf
        for contour in contours:
            ring = contour.radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
            z = contour.center + ring
            values = np.asarray(f.evaluator(z), dtype=complex)
            derivatives = np.asarray(f.derivative_evaluator(z), dtype=complex)
            margin = min(margin, np.abs(values).min())
            total += contour.orientation * (derivatives / values * ring).mean()
        assert margin > rouche.GUARD_THRESHOLD
        return total

    n = max(contour.samples for contour in contours)
    value = level(n)
    while np.isfinite(value) and n < rouche.MAX_SAMPLES:
        n *= 2
        refined = level(n)
        stable = abs(refined - value) <= 1e-10
        value = refined
        if stable:
            break
    nearest = np.rint(value.real)
    return int(nearest), float(abs(value - nearest)), n


def polynomial_with_roots(roots):
    return polynomial_map(np.poly(roots)[::-1])


# maps whose zeros sit 0.01-0.03 from a contour, so the count refines from 64
# samples to thousands; the elementwise ones evaluate each node alone
REFINED_COUNTS = {
    "polynomial, circle": (polynomial_with_roots([0.1 + 0.2j + 0.88j, 0.5, -0.3 - 0.4j]),
                           lambda n: CircleContour(0.1 + 0.2j, 0.9, 1, n)),
    "polynomial, annulus": (polynomial_with_roots([0.98, 0.42j, 0.7 - 0.1j, 0.1]),
                            lambda n: unit_annulus_contours(0.4, n)),
    "exp(3z) - e^2.97, circle": (SampledMap(lambda z: np.exp(3 * z) - np.exp(2.97), lambda z: 3 * np.exp(3 * z)),
                                 lambda n: CircleContour(samples=n)),
    "(z - 0.97)(z - 0.42i), annulus": (SampledMap(lambda z: (z - 0.97) * (z - 0.42j), lambda z: 2 * z - 0.97 - 0.42j),
                                       lambda n: unit_annulus_contours(0.4, n)),
}


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

    @pytest.mark.parametrize("center", [complex(np.nan, 0), complex(0, np.inf), -np.inf, np.nan, "0", None, [0, 1]])
    def test_center_must_be_a_finite_number(self, center):
        with pytest.raises(DomainValidationError, match="contour centre must be a finite number"):
            CircleContour(center=center)

    def test_center_accepts_numpy_scalars(self):
        assert zero_count(monomial(1), CircleContour(center=np.complex128(0.1j))) == 1

    def test_no_contour_is_an_empty_list(self):
        with pytest.raises(EmptyList, match="at least one contour is required"):
            zero_count_detailed(monomial(2), ())
        with pytest.raises(EmptyList, match="at least one contour is required"):
            rouche_dominates(monomial(2), polynomial_map([0.5]), [])

    @pytest.mark.parametrize("samples", [64.0, 128.5, "64", True, None])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(DomainValidationError, match=r"samples must be a power of two >= 64"):
            CircleContour(samples=samples)

    @pytest.mark.parametrize("samples", [64.0, 128.5, "64"])
    def test_annulus_contour_samples_must_be_an_integer(self, samples):
        with pytest.raises(DomainValidationError, match=r"samples must be a power of two >= 64"):
            unit_annulus_contours(0.5, samples)

    def test_samples_accepts_numpy_integers(self):
        detail = zero_count_detailed(monomial(2), CircleContour(samples=np.int64(128)))
        assert (detail.count, detail.samples) == (2, 256)


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

    @pytest.mark.parametrize("samples", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("name", sorted(REFINED_COUNTS))
    def test_matches_a_from_scratch_reference(self, name, samples):
        # each level keeps the last level's integrands as its even nodes; the
        # count, the residual's bits and the samples are those of a count
        # that evaluates every node at every level
        f, contours = REFINED_COUNTS[name]
        detail = zero_count_detailed(f, contours(samples))
        count, residual, settled = from_scratch_count(f, contours(samples))
        assert (detail.count, detail.residual.hex(), detail.samples) == (count, residual.hex(), settled)
        if samples == 64:
            assert detail.samples >= 1024  # several levels were interleaved

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


class TestWinding:
    def test_matches_the_unwrapped_angle(self):
        # closed trigonometric curves about random centres, kept where every
        # chord is shorter than its first node's modulus (the disc condition)
        rng = np.random.default_rng(26)
        theta = 2 * np.pi * np.arange(96) / 96
        windings = []
        for _ in range(400):
            lead = int(rng.integers(-3, 4))
            terms = rng.normal(size=(7, 2)) @ [1, 1j] * 0.3 ** rng.uniform(0.5, 2.0)
            terms[lead + 3] += 2.0
            values = np.exp(1j * np.outer(theta, np.arange(-3, 4))) @ terms - (rng.normal(size=2) @ [1, 1j])
            if not np.all(np.abs(np.roll(values, -1) - values) < np.abs(values)):
                continue
            angle = np.unwrap(np.angle(np.append(values, values[0])))
            expected = int(np.rint((angle[-1] - angle[0]) / (2 * np.pi)))
            assert _winding(values[None, :], 0.0)[0][0] == expected
            windings.append(expected)
        assert len(windings) > 200 and len(set(windings)) >= 5

    def test_counts_each_row_with_nodes_on_the_axes(self):
        octagon = np.array([2, 1 + 1j, 2j, -1 + 1j, -2, -1 - 1j, -2j, 1 - 1j])
        twice = np.tile([2, 2j, -2, -2j], 2)
        winding, distance = _winding(np.array([octagon, octagon[::-1], octagon + 3, twice]), 0.0)
        assert winding.tolist() == [1, -1, 0, 2]
        assert distance.tolist() == [2 ** 0.5, 2 ** 0.5, 1.0, 2.0]

    def test_counts_only_when_every_row_keeps_its_nodes_beyond_its_reach(self):
        # the octagon's nearest nodes lie sqrt(2) from 0, the square's 2
        octagon = np.array([2, 1 + 1j, 2j, -1 + 1j, -2, -1 - 1j, -2j, 1 - 1j])
        rows = np.array([octagon, np.tile([2, 2j, -2, -2j], 2)])
        assert _winding(rows, np.array([1.4, 1.9]))[0].tolist() == [1, 2]
        for reach in (np.array([1.5, 1.9]), np.array([1.4, 2.0]), 2 ** 0.5):
            winding, distance = _winding(rows, reach)
            assert winding is None and distance.tolist() == [2 ** 0.5, 2.0]
        assert _winding(np.where(np.arange(8) == 3, np.nan, rows), 0.0)[0] is None  # a NaN node fails


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

    def test_nan_on_the_contour_never_dominates(self):
        nan_at_one_node = SampledMap(lambda z: np.where(z == 1, np.nan, z), lambda z: np.ones_like(z))
        assert not rouche_dominates(nan_at_one_node, polynomial_map([0.5]), CircleContour())
        assert not rouche_dominates(monomial(1), polynomial_map([np.nan]), CircleContour())

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

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_evaluator_matches_annulus_basis_bit_for_bit(self, degree):
        # the certificate, the search and the evaluator share one power table
        r, n = 0.3, 512
        rng = np.random.default_rng(degree)
        c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
        ring = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
        nodes = np.concatenate([ring, r * ring])
        assert np.array_equal(laurent_map(c).evaluator(nodes), rouche.annulus_basis(r, n, degree) @ c)

    @pytest.mark.parametrize("samples, degree, extra", [(16, 1, ()), (2048, 2, ()), (2048, 3, (0.5 + 0j,)),
                                                        (1024, 6, ()), (50, 300, ())])
    def test_table_product_gives_each_row_the_bits_of_an_aligned_block(self, samples, degree, extra):
        # the certificate's products run in blocks below the BLAS thread
        # threshold; aligned on 4 rows, a row's bits do not depend on the block
        rng = np.random.default_rng(samples + degree)
        c = rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1)
        table = rouche.annulus_basis(0.4, 2 * samples, degree, *extra)
        expected = np.concatenate([table[i:i + 4] @ c for i in range(0, len(table), 4)])
        assert np.array_equal(rouche._table_product(table, c), expected)

    def test_even_length_rejected(self):
        with pytest.raises(DomainValidationError):
            laurent_map([0, 1])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double here")
    @pytest.mark.parametrize("degree", [2, 16, 32])
    def test_annulus_basis_is_within_linear_ulps_of_the_exact_powers(self, degree):
        # reference: the powers of the exact nodes rho e^(2 pi i j / n), the
        # angle k j reduced mod n in integers and evaluated in long double;
        # the double nodes themselves are off by about 3.2 ulps
        r, n = 0.3, 4096
        table = rouche.annulus_basis(r, n, degree)
        j = np.arange(n)
        pi = 4 * np.arctan(np.longdouble(1))
        for column, k in enumerate(range(-degree, degree + 1)):
            phase = 2 * pi * np.longdouble((k * j) % n) / n
            unit = np.cos(phase) + 1j * np.sin(phase)
            exact = np.concatenate([unit, np.longdouble(r) ** k * unit])
            error = np.abs(table[:, column] - exact) / np.abs(exact)
            assert error.max() <= (4 * abs(k) + 1) * np.finfo(float).eps, k

    # z^-2, z^-1, z^0, z^1, z^2 by the products; numpy's pow gave NaN for z^-2
    # at 1e200 and inf, and for z^-1 at 0 and inf
    @pytest.mark.parametrize("z, powers", [
        (0.0, [complex(np.nan, np.nan), complex(np.inf, np.nan), 1, 0, 0]),
        (1e-200, [np.inf, 1e200, 1, 1e-200, 0]),
        (1e200, [0, 1e-200, 1, 1e200, np.inf]),
        (np.inf, [0, 0, 1, np.inf, complex(np.inf, np.nan)]),
        (np.nan, [complex(np.nan, np.nan), complex(np.nan, np.nan), 1, np.nan, complex(np.nan, np.nan)]),
    ])
    def test_basis_out_of_range_is_pinned(self, z, powers):
        expected = np.array(powers, dtype=complex)
        with np.errstate(all="ignore"):
            scalar = laurent_basis(z, 2)
            vector = laurent_basis(np.full(3, z), 2)
        assert scalar.shape == (5,) and vector.shape == (3, 5)
        for table in (scalar, vector):
            assert np.array_equal(table.real, np.broadcast_to(expected.real, table.shape), equal_nan=True)
            assert np.array_equal(table.imag, np.broadcast_to(expected.imag, table.shape), equal_nan=True)

    @pytest.mark.parametrize("r, degree", [(2.0 ** -512, 2), (1e-155, 2), (0.5, 1075), (1e-300, 2)])
    def test_annulus_basis_refuses_an_overflowing_radius(self, r, degree):
        with pytest.raises(DomainValidationError, match=f"1 / r\\*\\*{degree} overflows"):
            rouche.annulus_basis(r, 64, degree)

    def test_annulus_basis_stays_finite_at_the_smallest_radius_it_accepts(self):
        # |z^-2| = 2^1022 on the inner circle, the largest power of two below the double maximum
        assert np.all(np.isfinite(rouche.annulus_basis(2.0 ** -511, 4096, 2)))


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
    """Reference for _curves_apart: every segment pair, no box filter.  The
    walk's tests rerun the same draws under several settings of the walk, so
    each draw's outcome is computed once and kept by the draw's bytes."""
    nodes, tubes = np.asarray(nodes, dtype=complex), np.asarray(tubes, dtype=float)
    return _brute_force_apart(nodes.shape, nodes.tobytes(), tubes.tobytes())


@functools.lru_cache(maxsize=None)
def _brute_force_apart(shape, node_bytes, tube_bytes):
    nodes = np.frombuffer(node_bytes, dtype=complex).reshape(shape)
    tubes = np.frombuffer(tube_bytes, dtype=float)
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


def square(up):
    """Nodes of the unit square [0, 1]^2, counterclockwise.  Its horizontal
    sides are two segments each; each vertical side runs a quarter, ``up``
    segments of 1 / (2 up) and a quarter, so that the segments closest to one
    another lie on one vertical side, where every box has the same low x side."""
    levels = np.concatenate([[0.0], 0.25 + 0.5 * np.arange(up + 1) / up])
    return np.concatenate([1 + 1j * levels, [1 + 1j, 0.5 + 1j], 1j * (1 - levels), [0, 0.5]])


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

    @pytest.mark.parametrize("samples", [1, 2, 4])
    def test_critical_point_refutations_do_not_depend_on_the_sample_count(self, samples):
        # each critical point is counted on its own circle, from 64 nodes up,
        # whatever the boundary curves' sample count
        maps = [(f, r) for _, f, r in noninjective_witnesses()]
        rng = np.random.default_rng(27)
        for _ in range(6):
            r = float(rng.uniform(0.2, 0.6))
            lam = r * r * rng.uniform(1.2, 0.9 / r ** 2) * np.exp(2j * np.pi * rng.uniform())
            maps.append((joukowski(lam), r))
        for f, r in maps:
            cert = injectivity_certificate(f, r, samples=samples)
            assert cert.status == "refuted" and cert.critical_points >= 1, (f.laurent_coefficients, r)

    def test_wrapped_evaluator_keeps_the_coefficients(self):
        f = laurent_map([0.3, 0, 0, 1, 0.1])
        wrapped = SampledMap(functools.wraps(f.evaluator)(lambda z: f.evaluator(z)), f.derivative_evaluator)
        assert np.array_equal(wrapped.laurent_coefficients, f.laurent_coefficients)
        assert polynomial_map([0, 1]).laurent_coefficients is None

    @pytest.mark.parametrize("coefficients, reason", [
        # critical points 5e-14 r outside the inner circle: on a disc of radius
        # 1.25e-14, |z^2 f'| stays below the rounding allowance at every node count
        ([0.25 * (1 + 1e-13), 0, 1], "critical points without a trusted count"),
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

    @pytest.mark.parametrize("samples", [0, -3, np.nan, 7.9, 1.5, True])
    def test_samples_must_be_positive(self, samples):
        with pytest.raises(DomainValidationError, match=f"samples must be a positive integer, got {samples!r}"):
            injectivity_certificate(MILD, 0.4, samples=samples)

    def test_samples_accepts_numpy_integers(self):
        cert = injectivity_certificate(MILD, 0.4, samples=np.int64(512))
        assert cert.status == "certified"
        assert type(cert.samples) is int and cert.samples == 512

    def test_turning_numbers_stop_a_missed_critical_point(self, monkeypatch):
        # with no root located, z + lambda/z with r^2 < |lambda| < r^1.5 passes
        # the preimage count (the second preimage lambda/sqrt(r) of f(sqrt r)
        # lies in the hole) and has simple, disjoint boundary curves, but its
        # two critical points +-sqrt(lambda) make the turning numbers differ
        monkeypatch.setattr(rouche, "_roots", lambda p: np.zeros(0, dtype=complex))
        for r, lam in ((0.3, 0.12), (0.4, 0.2j), (0.5, -0.3)):
            cert = injectivity_certificate(joukowski(lam), r, samples=1024)
            assert (cert.status, cert.reason) == ("inconclusive", "turning numbers differ"), (r, lam)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e150, 1e155])
    def test_turning_numbers_do_not_depend_on_the_scale(self, scale):
        # z and r/z scaled: from |T'| ~ 1.3e154 a product of two tangents
        # overflows, yet the curves' turning numbers stay +1 and -1
        for coefficients in ([0, 0, scale], [0.5 * scale, 0, 0]):
            cert = injectivity_certificate(laurent_map(coefficients), 0.5, samples=512)
            assert (cert.status, cert.reason) == ("certified", None), coefficients

    @pytest.mark.parametrize(
        "coefficients, expected",
        [
            ([0, 0, 1], ("certified", None)),
            ([0.5, 0, 0], ("certified", None)),
            ([0, 0, 0, 0, 1], ("refuted", None)),
            ([0, 0, 1, 0.2, 0], ("certified", None)),
            ([0.4 / 1.5, 0, 1 / 1.5], ("refuted", None)),
            # critical points +-sqrt(lambda) 2.5e-10 outside the inner circle
            ([0.25 * (1 + 1e-9), 0, 1], ("refuted", None)),
        ],
        ids=["identity", "reflection", "square", "z+0.2z^2", "joukowski-interior", "joukowski-near-the-inner-circle"],
    )
    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e12])
    def test_outcome_does_not_depend_on_the_scale(self, coefficients, expected, scale):
        # injectivity does not see a constant factor, and neither may the
        # trust tests of the preimage and critical-point counts
        cert = injectivity_certificate(laurent_map(np.multiply(coefficients, scale)), 0.5, samples=512)
        assert (cert.status, cert.reason) == expected

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_degree_60_outcomes_do_not_depend_on_the_scale(self, scale):
        """z + lambda / z + 1e-3 z^60 at r = 0.55, so m = 60 and
        p = z^61 f' has degree 120, past the 100 up to which
        ``_disc_has_zero`` keeps its rounding allowance at ``_ROUNDING`` S;
        here it is 1.2 times that.  For |lambda| = 0.36 the critical points
        +-sqrt(lambda) lie in the annulus and their counts refute; for
        lambda = 0.1 < r^2 the map is certified (the z^60 term moves its
        other critical points outside the unit disc).

        The boundary proofs assume that each node of a curve rounds within
        ``_ROUNDING`` S / 2, S = sum |c_k| rho^k.  With about 3.6 |k| ulps per
        power of the table (``laurent_basis``) and at most 2m + 3 ulps of S
        for the product of 2m + 1 terms, that holds while
        (5.6 m + 3) 2^-53 <= 5e-13, that is for m up to about 800.
        """
        m = 60
        c = np.zeros(2 * m + 1, dtype=complex)
        c[m + 1], c[-1] = 1.0, 1e-3
        for lam, expected in ((0.36 * np.exp(0.7j), ("refuted", 2)), (0.1, ("certified", 0))):
            c[m - 1] = lam
            cert = injectivity_certificate(laurent_map(scale * c), 0.55, samples=512)
            assert (cert.status, cert.critical_points) == expected, lam

    # f = z at r = 0.81: w0 = 0.9 lies 0.1 from the outer curve and 0.09 from
    # the inner one, whose reaches are h and 0.81 h, h = pi / samples, plus
    # rounding terms below 3e-12; at samples 30 only the outer reach exceeds
    # its distance, at 32 only the outer reach exceeds the inner distance, and
    # a constant term 1e11 adds about 0.3 of rounding allowance to both
    @pytest.mark.parametrize("coefficients, samples, expected", [
        ([0, 0, 1], 30, ("inconclusive", "preimages of f(sqrt r): untrusted")),
        ([0, 0, 1], 32, ("certified", None)),
        ([0, 1e11, 1], 2048, ("inconclusive", "preimages of f(sqrt r): untrusted")),
    ], ids=["outer-within-reach", "inner-beyond-its-reach", "within-the-rounding-allowance"])
    def test_each_curve_keeps_its_nodes_beyond_its_reach(self, coefficients, samples, expected):
        cert = injectivity_certificate(laurent_map(coefficients), 0.81, samples=samples)
        assert (cert.status, cert.reason) == expected

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

    def test_hash_matches_brute_force_at_certificate_scales(self):
        # the certificate's own scales: 64-256 nodes per curve, tubes of
        # 1e-9..1e-5, and an inner node pulled out along the normal of an
        # outer segment to 0..3 times the tube sum from it, so that the
        # closest pair is measured and lands on either side of its tubes
        rng = np.random.default_rng(7)
        outcomes = []
        for case in range(60):
            n = int(rng.choice([64, 128, 256]))
            theta = 2 * np.pi * np.arange(n) / n
            radii = np.array([[1.0], [rng.uniform(0.3, 0.8)]])
            wobble = 1.0 + 1e-3 * rng.standard_normal((2, n))
            phase = rng.uniform(0.0, 2 * np.pi, (2, 1))
            nodes = radii * wobble * np.exp(1j * (theta + phase))
            tubes = 10.0 ** rng.uniform(-9, -5, 2)
            j = int(rng.integers(n))
            p, q = nodes[0, j], nodes[0, (j + 1) % n]
            inward = 1j * (q - p) / abs(q - p)  # the outer curve runs counterclockwise
            tip = p + rng.uniform(0.3, 0.7) * (q - p) + inward * rng.uniform(0.0, 3.0) * tubes.sum()
            # pull out the inner node nearest in angle, so the spike crosses nothing
            nodes[1, int(np.rint((np.angle(tip) - phase[1, 0]) * n / (2 * np.pi))) % n] = tip
            if case == 0:
                nodes[0, j] = 1e300  # the squared length of its segments overflows
            elif case == 1:
                nodes[0, j] = q  # a segment of length 0
            with np.errstate(over="ignore", invalid="ignore"):  # the two cases above
                expected = brute_force_apart(nodes, tubes)
                assert _curves_apart(nodes, tubes) == expected, case
            outcomes.append(expected)
        assert not outcomes[0] and not outcomes[1]
        assert 0.3 < np.mean(outcomes) < 0.8

    @pytest.mark.parametrize("chunk", [1, 3, 17])
    def test_sweep_blocks_match_brute_force(self, monkeypatch, chunk):
        # blocks that end inside a box's run of pairs, or hold a single box
        monkeypatch.setattr(rouche, "_PAIR_CHUNK", chunk)
        self.test_hash_matches_brute_force()
        self.test_hash_matches_brute_force_at_certificate_scales()

    @pytest.mark.parametrize("chunk", [1, 3, 17, rouche._PAIR_CHUNK])
    def test_sweep_matches_brute_force_on_tied_boxes(self, monkeypatch, chunk):
        # a short vertical segment and the next but one are 1 / (2 up) apart,
        # 0.6..1.4 times their tube sum; no other pair comes as close
        monkeypatch.setattr(rouche, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(8)
        outcomes = []
        for _ in range(100):
            up = int(rng.choice([4, 16, 64]))
            tubes = np.full(2, rng.uniform(0.3, 0.7) / (2 * up))
            nodes = np.stack([square(up), square(up) + 2])
            expected = brute_force_apart(nodes, tubes)
            assert _curves_apart(nodes, tubes) == expected
            outcomes.append(expected)
        assert 0.3 < np.mean(outcomes) < 0.9

    # _OFFSETS = 1 or 2 sends most pairs through the blocks; 10**6 lists every
    # pair from the slices, as no box overlaps that many boxes on x
    @pytest.mark.parametrize("chunk", [1, 17])
    @pytest.mark.parametrize("offsets", [1, 2, 10 ** 6])
    def test_slices_and_blocks_match_brute_force(self, monkeypatch, offsets, chunk):
        monkeypatch.setattr(rouche, "_OFFSETS", offsets)
        monkeypatch.setattr(rouche, "_PAIR_CHUNK", chunk)
        self.test_hash_matches_brute_force()
        self.test_hash_matches_brute_force_at_certificate_scales()
        self.test_sweep_matches_brute_force_on_tied_boxes(monkeypatch, chunk)

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


class TestCurveSeparation:
    def test_coefficients_imply_the_walk(self):
        """Whenever ``_curves_apart_by_coefficients`` accepts and the segments
        can be measured, the segment-pair walk accepts the certificate's nodes
        and tubes too.  2,400 seeded maps of degree 1..32, dominated by
        e^(i phi) z or e^(i phi) / z, scaled by 1e-12..1e12, at 1..2048 samples,
        one in ten with a NaN, inf or 1e300 coefficient.  Half of them sit
        near the edge of the test, 2 a_p - sum |k| a_k = (1e-6..0.1) a_p,
        where a curve comes close to a cusp and the slack h^2 M / 2 decides."""
        rng = np.random.default_rng(28)
        tally = {"accepted": 0, "left to the walk": 0, "walked apart": 0}
        for case in range(2400):
            m = int(rng.integers(1, 33))
            k = np.arange(-m, m + 1)
            r = float(rng.uniform(0.3, 0.9))
            samples = int(2 ** rng.uniform(0.0, 11.0))
            # terms of size t / k^2 on the circle where they are largest
            size = 10.0 ** rng.uniform(-4.0, 0.0) / np.maximum(k * k, 1) * np.where(k < 0, r ** -k, 1.0)
            c = size * np.exp(2j * np.pi * rng.uniform(size=2 * m + 1))
            dominant = m + int(rng.choice([-1, 1]))
            c[dominant] = np.exp(2j * np.pi * rng.uniform())
            if case % 2:
                # near the edge: sum |k| a_k over the other terms is
                # (1 - delta) a_p on the circle where it is largest
                tail = np.abs(k * c) * np.array([1.0, r])[:, None] ** (k - k[dominant])
                tail[:, dominant] = 0.0
                c[k != k[dominant]] *= (1.0 - 10.0 ** rng.uniform(-6.0, -1.0)) / tail.sum(axis=1).max()
            c *= 10.0 ** rng.uniform(-12.0, 12.0)
            if rng.uniform() < 0.1:
                c[int(rng.integers(2 * m + 1))] = rng.choice([np.nan, np.inf, 1e300])
            n = 2 * samples
            step = 2.0 * np.pi / n
            # the certificate's nodes, scale and tubes
            with np.errstate(all="ignore"):
                nodes = rouche._table_product(rouche.annulus_basis(r, n, m), c).reshape(2, n)
                scale = np.abs(c) * np.array([1.0, r])[:, None] ** k
                tubes = step * step / 8.0 * (scale @ (k * k)) + rouche._ROUNDING * scale.sum(axis=1)
                accepted = rouche._curves_apart_by_coefficients(scale, step) and rouche._segments(nodes) is not None
                apart = _curves_apart(nodes, tubes)
            assert apart or not accepted, (case, m, r, samples)
            tally["accepted"] += accepted
            tally["left to the walk"] += not accepted
            tally["walked apart"] += apart and not accepted
        assert min(tally.values()) >= 200, tally

    @pytest.mark.parametrize("coefficients, r, walked, expected", [
        ([0, 0, 1], 0.5, False, ("certified", None)),
        # |lambda| = 0.85 r^2: injective, but the coefficients leave the
        # curves' radii about 0 overlapping, 1 - |lambda| < r + |lambda| / r
        ([0.85 * 0.36 * np.exp(0.7j), 0, 1], 0.6, True, ("certified", None)),
        # 1/z + a/z^2 identifies z1 and z2 when 1/z1 + 1/z2 = -1/a, and its
        # critical point -2a lies outside the disc: only the walk sees it
        ([-0.74 - 0.4j, 1, 0, 0, 0], 0.47, True, ("inconclusive", "boundary curves closer than their tubes")),
    ], ids=["identity", "joukowski-0.85", "two-to-one-without-a-critical-point"])
    def test_the_walk_decides_what_the_coefficients_cannot(self, monkeypatch, coefficients, r, walked, expected):
        walks = []
        walk = rouche._curves_apart

        def counted(nodes, tubes):
            walks.append(nodes.shape)
            return walk(nodes, tubes)

        monkeypatch.setattr(rouche, "_curves_apart", counted)
        f = laurent_map(coefficients)
        for samples in (512, 2048):
            cert = injectivity_certificate(f, r, samples=samples)
            assert (cert.status, cert.reason, cert.critical_points) == (*expected, 0), samples
        assert walks == ([(2, 1024), (2, 4096)] if walked else [])
        if expected[0] == "inconclusive":
            middle = -0.5 / coefficients[0]  # 1/z1 + 1/z2 = 2 middle = -1/a
            z1, z2 = 1 / (middle * (1 + 2j)), 1 / (middle * (1 - 2j))
            assert r < abs(z1) < 1 and r < abs(z2) < 1 and abs(z1 - z2) > 0.5
            assert f.evaluator(np.array([z1])) == pytest.approx(f.evaluator(np.array([z2])), abs=1e-12)


def corpus_map(name, r):
    """A map of the pinned corpus at inner radius r; lam = r^2 e^(0.7i)."""
    lam = r * r * np.exp(0.7j)
    return laurent_map({
        "z": [0, 0, 1],
        "c/z": [r * (0.6 + 0.3j), 0, 0],
        "z + eps z^2": [0, 0, 0, 1, 0.25 + 0.1j],
        "z + 0.5 lam/z": [0.5 * lam, 0, 1],
        "z + 1.02 lam/z": [1.02 * lam, 0, 1],
        "z + 1.5 lam/z": [1.5 * lam, 0, 1],
        "z^3": [0, 0, 0, 0, 0, 0, 1],
    }[name])


# (map, r, samples, status, reason, critical_points, min_boundary_modulus, tube)
CORPUS_OUTCOMES = [
    ("z", 0.25, 512, "certified", None, 0, 0.25, 4.706195115204505e-06),
    ("z", 0.25, 1024, "certified", None, 0, 0.25, 1.1765495288011263e-06),
    ("z", 0.25, 2048, "certified", None, 0, 0.25, 2.9413813220028153e-07),
    ("c/z", 0.25, 512, "certified", None, 0, 0.16770509831248423, 3.1570116578924185e-06),
    ("c/z", 0.25, 1024, "certified", None, 0, 0.16770509831248423, 7.892534175883995e-07),
    ("c/z", 0.25, 2048, "certified", None, 0, 0.16770509831248423, 1.9731385751239482e-07),
    ("z + eps z^2", 0.25, 512, "certified", None, 0, 0.2974451992493164, 9.774921569411306e-06),
    ("z + eps z^2", 0.25, 1024, "certified", None, 0, 0.29744272403913846, 2.4437313442965066e-06),
    ("z + eps z^2", 0.25, 2048, "certified", None, 0, 0.29744272403913846, 6.10933788017807e-07),
    ("z + 0.5 lam/z", 0.25, 512, "certified", None, 0, 0.20351165804422425, 4.853263712554646e-06),
    ("z + 0.5 lam/z", 0.25, 1024, "certified", None, 0, 0.20351165804422425, 1.2133167015761614e-06),
    ("z + 0.5 lam/z", 0.25, 2048, "certified", None, 0, 0.20351165804422425, 3.0332994883154037e-07),
    ("z + 1.02 lam/z", 0.25, 512, "refuted", None, 2, np.inf, None),
    ("z + 1.02 lam/z", 0.25, 1024, "refuted", None, 2, np.inf, None),
    ("z + 1.02 lam/z", 0.25, 2048, "refuted", None, 2, np.inf, None),
    ("z + 1.5 lam/z", 0.25, 512, "refuted", None, 2, np.inf, None),
    ("z + 1.5 lam/z", 0.25, 1024, "refuted", None, 2, np.inf, None),
    ("z + 1.5 lam/z", 0.25, 2048, "refuted", None, 2, np.inf, None),
    ("z^3", 0.25, 512, "refuted", None, 0, 0.109375, None),
    ("z^3", 0.25, 1024, "refuted", None, 0, 0.109375, None),
    ("z^3", 0.25, 2048, "refuted", None, 0, 0.109375, None),
    ("z", 0.5, 512, "certified", None, 0, 0.20710678118654757, 4.706195115204505e-06),
    ("z", 0.5, 1024, "certified", None, 0, 0.20710678118654757, 1.1765495288011263e-06),
    ("z", 0.5, 2048, "certified", None, 0, 0.20710678118654757, 2.9413813220028153e-07),
    ("c/z", 0.5, 512, "certified", None, 0, 0.1389314524002884, 3.1570116578924185e-06),
    ("c/z", 0.5, 1024, "certified", None, 0, 0.1389314524002884, 7.892534175883995e-07),
    ("c/z", 0.5, 2048, "certified", None, 0, 0.1389314524002884, 1.9731385751239482e-07),
    ("z + eps z^2", 0.5, 512, "certified", None, 0, 0.2707563432300416, 9.774921569411306e-06),
    ("z + eps z^2", 0.5, 1024, "certified", None, 0, 0.27074948381572345, 2.4437313442965066e-06),
    ("z + eps z^2", 0.5, 2048, "certified", None, 0, 0.27074948381572345, 6.10933788017807e-07),
    ("z + 0.5 lam/z", 0.5, 512, "certified", None, 0, 0.15686116555152615, 5.294469504605068e-06),
    ("z + 0.5 lam/z", 0.5, 1024, "certified", None, 0, 0.1568594981405686, 1.323618219901267e-06),
    ("z + 0.5 lam/z", 0.5, 2048, "certified", None, 0, 0.15685885634292515, 3.3090539872531677e-07),
    ("z + 1.02 lam/z", 0.5, 512, "refuted", None, 2, np.inf, None),
    ("z + 1.02 lam/z", 0.5, 1024, "refuted", None, 2, np.inf, None),
    ("z + 1.02 lam/z", 0.5, 2048, "refuted", None, 2, np.inf, None),
    ("z + 1.5 lam/z", 0.5, 512, "refuted", None, 2, np.inf, None),
    ("z + 1.5 lam/z", 0.5, 1024, "refuted", None, 2, np.inf, None),
    ("z + 1.5 lam/z", 0.5, 2048, "refuted", None, 2, np.inf, None),
    ("z^3", 0.5, 512, "refuted", None, 0, 0.22855339059327384, None),
    ("z^3", 0.5, 1024, "refuted", None, 0, 0.22855339059327384, None),
    ("z^3", 0.5, 2048, "refuted", None, 0, 0.22855339059327384, None),
]


def high_degree_map(name, r):
    """A degree-16 or degree-32 map of the pinned corpus at inner radius r;
    the degree-32 map adds to z the terms 0.3^k e^(0.7ik) / k^2 z^k (k >= 2)
    and 0.3 lam^k / k^2 z^-k (k >= 1), lam = r^2 e^(0.7i)."""
    m = 32 if name == "near identity, degree 32" else 16
    c = np.zeros(2 * m + 1, dtype=complex)
    c[m + 1] = 1.0
    if name == "z + eps z^16":
        c[2 * m] = 0.03 + 0.01j
    elif name == "z^16":
        c[m + 1], c[2 * m] = 0.0, 1.0
    else:
        k = np.arange(1, m + 1)
        c[m + 2:] += 0.3 ** k[1:] / k[1:] ** 2 * np.exp(0.7j * k[1:])
        c[m - k] = 0.3 * (r * r * np.exp(0.7j)) ** k / k ** 2
    return laurent_map(c)


# the high-degree power tables, (map, r, samples, status, reason,
# critical_points, min_boundary_modulus, tube)
HIGH_DEGREE_OUTCOMES = [
    ("z + eps z^16", 0.25, 2048, "certified", None, 0, 0.2500004577567335, 2.675304966211394e-06),
    ("z^16", 0.25, 2048, "refuted", None, 0, 1.5258556231856346e-05, None),
    ("near identity, degree 32", 0.25, 2048, "certified", None, 0, 0.22146155200476267, 3.3783855130809537e-07),
    ("z + eps z^16", 0.5, 2048, "certified", None, 0, 0.20722351457589086, 2.675304966211394e-06),
    ("z^16", 0.5, 2048, "refuted", None, 0, 0.003890991210937507, None),
    ("near identity, degree 32", 0.5, 2048, "certified", None, 0, 0.17709306532838331, 3.6136958312850483e-07),
]


class TestCertificateCorpus:
    def test_outcomes_are_pinned(self):
        # the last bits of the modulus and the tube follow the BLAS build
        for name, r, samples, status, reason, critical, modulus, tube in CORPUS_OUTCOMES:
            case = (name, r, samples)
            cert = injectivity_certificate(corpus_map(name, r), r, samples=samples)
            assert (cert.status, cert.reason, cert.critical_points) == (status, reason, critical), case
            assert cert.min_boundary_modulus == pytest.approx(modulus, rel=1e-12), case
            assert cert.tube == (tube if tube is None else pytest.approx(tube, rel=1e-12)), case

    @pytest.mark.parametrize("name, r, samples, status, reason, critical, modulus, tube", HIGH_DEGREE_OUTCOMES)
    def test_high_degree_outcomes_are_pinned(self, name, r, samples, status, reason, critical, modulus, tube):
        cert = injectivity_certificate(high_degree_map(name, r), r, samples=samples)
        assert (cert.status, cert.reason, cert.critical_points) == (status, reason, critical)
        assert cert.min_boundary_modulus == pytest.approx(modulus, rel=1e-12)
        assert cert.tube == (tube if tube is None else pytest.approx(tube, rel=1e-12))


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
