import numpy as np
import pytest

from squeezing import (
    ClassicalDomain,
    contains,
    kubota_constant,
    product_constant,
    punctured_ball_squeezing,
)
from squeezing.errors import (
    DomainValidationError,
    EmptyList,
    PunctureEvaluation,
    ShapeMismatch,
)


class TestDomainValidation:
    def test_type_i_requires_ordered_parameters(self):
        with pytest.raises(DomainValidationError):
            ClassicalDomain.type_i(3, 2)

    def test_type_iii_requires_order_two(self):
        # floor(q/2) vanishes at q = 1, leaving the constant undefined
        with pytest.raises(DomainValidationError):
            ClassicalDomain.type_iii(1)

    def test_type_iv_requires_dimension_two(self):
        with pytest.raises(DomainValidationError):
            ClassicalDomain.type_iv(1)

    def test_complex_dimensions(self):
        assert ClassicalDomain.type_i(2, 3).complex_dimension == 6
        assert ClassicalDomain.type_ii(3).complex_dimension == 6
        assert ClassicalDomain.type_iii(4).complex_dimension == 6
        assert ClassicalDomain.type_iv(5).complex_dimension == 5


class TestMembership:
    def test_origin_in_every_domain(self):
        assert contains(ClassicalDomain.type_i(2, 3), np.zeros((2, 3)))
        assert contains(ClassicalDomain.type_ii(3), np.zeros((3, 3)))
        assert contains(ClassicalDomain.type_iii(4), np.zeros((4, 4)))
        assert contains(ClassicalDomain.type_iv(2), np.zeros(2))

    def test_boundary_point_excluded(self):
        # exact ties ||Z|| = 1 (by hand: Z Z^H has largest eigenvalue exactly 1)
        ties = [
            (ClassicalDomain.type_i(1, 1), [[1.0]]),
            (ClassicalDomain.type_i(2, 2), [[1.0, 0.0], [0.0, 0.5]]),
            (ClassicalDomain.type_i(1, 2), [[0.6, 0.8]]),
            (ClassicalDomain.type_ii(2), [[1.0, 0.0], [0.0, 0.0]]),
            (ClassicalDomain.type_iii(2), [[0.0, 1.0], [-1.0, 0.0]]),
        ]
        for domain, z in ties:
            assert not contains(domain, np.array(z)), domain.describe()

    def test_type_iv_isotropic_boundary_tie(self):
        # oracle by hand: z = (0.5, 0.5i) has zz' = 0 and ||z||^2 = 1/2, so the
        # defining form 1 + |zz'|^2 - 2||z||^2 is exactly 0: a boundary point,
        # classified outside by the strict inequality.
        z = np.array([0.5, 0.5j])
        quad = np.dot(z, z)
        assert quad == 0.0
        assert 1.0 + abs(quad) ** 2 - 2.0 * np.vdot(z, z).real == 0.0
        assert not contains(ClassicalDomain.type_iv(2), z)
        # shrinking strictly inside flips membership
        assert contains(ClassicalDomain.type_iv(2), 0.9 * z)

    def test_type_iv_matches_lie_norm_oracle(self):
        rng = np.random.default_rng(12)
        domain = ClassicalDomain.type_iv(3)
        for _ in range(300):
            z = 0.8 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / 3.0
            quad = np.dot(z, z)
            norm_sq = np.vdot(z, z).real
            lie_norm_sq = norm_sq + np.sqrt(max(norm_sq ** 2 - abs(quad) ** 2, 0.0))
            assert contains(domain, z) == (lie_norm_sq < 1.0)

    def test_spectral_norm_oracle_type_i(self):
        rng = np.random.default_rng(13)
        domain = ClassicalDomain.type_i(2, 3)
        for _ in range(300):
            z = 0.8 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / 2.0
            largest = np.linalg.svd(z, compute_uv=False)[0]
            assert contains(domain, z) == (largest < 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_i(2, 3), np.zeros((3, 2)))
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_ii(2), np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_iii(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_iv(3), np.zeros(2))

    @pytest.mark.parametrize(
        "params, point",
        [
            ((1, 1), [[np.nan]]),
            ((1, 1), [[np.inf]]),
            ((1, 2), [[np.nan, 0.0]]),
            ((2, 2), [[0.5, 0.0], [0.0, np.nan]]),
        ],
    )
    def test_non_finite_type_i_point_outside(self, params, point):
        # an infinite entry makes the product Z Z^H warn (inf * 0); the answer is what counts
        with np.errstate(invalid="ignore"):
            assert not contains(ClassicalDomain.type_i(*params), point)

    def test_non_finite_type_i_sweep(self):
        rng = np.random.default_rng(15)
        bad = (np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, np.inf))
        for _ in range(2000):
            r = int(rng.integers(1, 5))
            s = int(rng.integers(r, 6))
            z = (rng.uniform(-0.4, 0.4, (r, s)) + 0j) / np.sqrt(s)
            z.flat[rng.integers(z.size)] = bad[rng.integers(len(bad))]
            with np.errstate(invalid="ignore"):
                assert not contains(ClassicalDomain.type_i(r, s), z)

    def test_scaling_monotonicity(self):
        rng = np.random.default_rng(14)
        domain = ClassicalDomain.type_ii(2)
        for _ in range(50):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            z = g + g.T
            while not contains(domain, z):
                z = 0.9 * z
            for t in np.linspace(0.1, 0.9, 9):
                assert contains(domain, t * z)


class TestConstants:
    def test_examples(self):
        assert kubota_constant(ClassicalDomain.type_i(2, 3)).value == 2 ** -0.5
        assert kubota_constant(ClassicalDomain.type_iii(5)).value == 2 ** -0.5
        assert kubota_constant(ClassicalDomain.type_i(1, 1)).value == 1.0

    def test_tags(self):
        certificate = kubota_constant(ClassicalDomain.type_iv(4))
        assert certificate.tag == "exact"
        assert certificate.value == 2 ** -0.5

    def test_product_examples(self):
        pair = [ClassicalDomain.type_iv(3), ClassicalDomain.type_iv(7)]
        assert product_constant(pair).value == 0.5
        mixed = [ClassicalDomain.type_i(2, 2), ClassicalDomain.type_ii(3)]
        assert product_constant(mixed).value == 5 ** -0.5

    def test_empty_product_rejected(self):
        with pytest.raises(EmptyList):
            product_constant([])

    def test_values_in_range(self):
        domains = [
            ClassicalDomain.type_i(r, s) for r in range(1, 5) for s in range(r, 5)
        ] + [ClassicalDomain.type_ii(3), ClassicalDomain.type_iii(6), ClassicalDomain.type_iv(9)]
        for domain in domains:
            value = kubota_constant(domain).value
            assert 0.0 < value <= 1.0
            if domain.kind == "I" and domain.params == (1, 1):
                assert value == 1.0
            else:
                assert value < 1.0 or domain.params[0] == 1


class TestPuncturedBall:
    def test_norm_identity(self):
        z = np.array([0.3, 0.0])
        assert punctured_ball_squeezing(z).value == pytest.approx(0.3, abs=0)

    def test_near_boundary(self):
        z = np.array([1.0 - 1e-9])
        assert punctured_ball_squeezing(z).value == pytest.approx(1.0, abs=1e-8)

    def test_puncture_rejected(self):
        with pytest.raises(PunctureEvaluation):
            punctured_ball_squeezing(np.zeros(3))

    def test_outside_rejected(self):
        with pytest.raises(DomainValidationError):
            punctured_ball_squeezing(np.array([1.2, 0.0]))

    def test_matrix_rejected(self):
        with pytest.raises(ShapeMismatch):
            punctured_ball_squeezing(np.full((2, 2), 0.25))
