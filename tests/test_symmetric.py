import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from squeezing import (
    ClassicalDomain,
    contains,
    kubota_constant,
    product_constant,
    punctured_ball_squeezing,
    sandwich_check_type_i,
    uniform_ball_points,
)
from squeezing import symmetric
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


class TestParse:
    def test_parse_inverts_describe(self):
        domains = [ClassicalDomain.type_i(r, s) for r in range(1, 6) for s in range(r, 9)]
        domains += [ClassicalDomain.type_ii(p) for p in range(1, 9)]
        domains += [ClassicalDomain.type_iii(q) for q in range(2, 10)]
        domains += [ClassicalDomain.type_iv(n) for n in range(2, 10)]
        for domain in domains:
            parsed = ClassicalDomain.parse(domain.describe())
            assert parsed == domain and hash(parsed) == hash(domain)
            assert parsed.describe() == domain.describe()

    @pytest.mark.parametrize("token", [
        "typeV:2", "TypeI:1,1", "type1:1", "", ":2",  # unknown kind
        "typeI:2", "typeII:2,2", "typeIV:3,3", "typeI:1,2,3",  # wrong arity
        "typeI:3,2", "typeI:6,5",  # r > s
        "typeIII:1",  # q = 1
        "typeIV:1",  # n = 1
        "typeII:x", "typeII:1.5", "typeI:1,", "typeI:,1", "typeIV:2e0",  # not an integer
        "typeII:0", "typeIII:-4",  # not positive
        "typeII:", "typeII", "typeI:",  # empty parameter list
    ])
    def test_malformed_token_refused(self, token):
        with pytest.raises(DomainValidationError):
            ClassicalDomain.parse(token)

    @pytest.mark.parametrize("token", [
        "typeIV:" + "9" * 4301, "typeI:1," + "9" * 4301, "typeII: +" + "9" * 4301, "typeIII:-" + "9" * 4301,
    ], ids=["typeIV", "typeI-second", "typeII-signed", "typeIII-negative"])
    def test_parameter_past_the_digit_limit_named(self, token):
        # int() refuses more than sys.get_int_max_str_digits() digits; the message says so
        limit = f"more than {sys.get_int_max_str_digits():,} digits"
        with pytest.raises(DomainValidationError, match=limit):
            ClassicalDomain.parse(token)
        with pytest.raises(DomainValidationError, match="must be integers"):
            ClassicalDomain.parse(token + "x")


class TestIntegerParameters:
    @pytest.mark.parametrize("value", [True, np.True_, 3.0, 1.5, np.float64(3.0), "3", None])
    def test_non_integer_refused(self, value):
        with pytest.raises(DomainValidationError, match="parameters must be positive integers"):
            ClassicalDomain.type_ii(value)
        with pytest.raises(DomainValidationError, match="parameters must be positive integers"):
            ClassicalDomain.type_i(1, value)

    def test_numpy_integers_stored_as_python_ints(self):
        domain = ClassicalDomain.type_i(np.int64(2), np.int32(3))
        assert domain == ClassicalDomain.type_i(2, 3) and hash(domain) == hash(ClassicalDomain.type_i(2, 3))
        assert [type(v) for v in domain.params] == [int, int]
        assert domain.describe() == "typeI:2,3"
        witness = kubota_constant(ClassicalDomain.type_ii(np.int64(3))).witness
        assert witness == {"domain": "typeII:3", "inverse_square": 3}
        assert type(witness["inverse_square"]) is int

    def test_point_shape_and_symmetry(self):
        domains = [ClassicalDomain.type_i(2, 3), ClassicalDomain.type_ii(3),
                   ClassicalDomain.type_iii(4), ClassicalDomain.type_iv(5)]
        assert [(d.point_shape, d.point_symmetry) for d in domains] == [
            ((2, 3), 0), ((3, 3), 1), ((4, 4), -1), ((5,), 0)
        ]


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
        assert not contains(ClassicalDomain.type_i(*params), point)

    @pytest.mark.parametrize(
        "domain, point",
        [
            (ClassicalDomain.type_ii(2), [[np.inf, 0.0], [0.0, 0.0]]),
            (ClassicalDomain.type_iii(2), [[0.0, np.inf], [-np.inf, 0.0]]),
            (ClassicalDomain.type_iv(2), [np.inf, 0.0]),
            (ClassicalDomain.type_iv(3), [0.5, complex(0.0, -np.inf), np.nan]),
        ],
    )
    def test_infinite_entry_outside_without_warning(self, domain, point):
        # RuntimeWarnings are errors in this suite: the products must never run
        assert not contains(domain, point)

    @pytest.mark.parametrize(
        "domain, point",
        [
            (ClassicalDomain.type_ii(2), [[np.nan, 0.0], [0.0, 0.0]]),
            (ClassicalDomain.type_ii(2), [[0.0, np.nan], [np.nan, 0.0]]),
            (ClassicalDomain.type_iii(2), [[np.nan, 0.0], [0.0, 0.0]]),
            (ClassicalDomain.type_iii(2), [[0.0, np.nan], [np.nan, 0.0]]),
        ],
    )
    def test_nan_point_of_type_ii_or_iii_outside(self, domain, point):
        # a NaN equals the NaN at its mirror: the point is outside, not malformed
        assert contains(domain, point) is False

    def test_nan_does_not_excuse_asymmetry(self):
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_ii(2), [[np.nan, 1.0], [0.5, 0.0]])

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


def _mixed_stack(domain, rng, count=24):
    """Points of ``domain`` at scales 0.3 (inside) and 3 (outside), with a NaN
    and an infinite point placed where they keep any symmetry."""
    shape = domain.point_shape
    z = rng.standard_normal((count, *shape)) + 1j * rng.standard_normal((count, *shape))
    if domain.point_symmetry:
        z = z + z.swapaxes(-1, -2) if domain.point_symmetry > 0 else z - z.swapaxes(-1, -2)
    z *= np.where(np.arange(count) % 2, 0.3, 3.0).reshape(-1, *(1,) * len(shape)) / np.abs(z).max()
    for i, bad in ((5, np.nan), (8, np.inf)):
        if len(shape) == 1:
            z[i, 0] = bad
        else:
            z[i, 0, -1] = bad
            z[i, -1, 0] = bad if domain.point_symmetry >= 0 else -bad
    return z


class TestStackedMembership:
    """A stack of points gives, point by point, the one-point answer."""

    @pytest.mark.parametrize("token", ["typeI:1,1", "typeI:2,3", "typeII:3", "typeIII:4", "typeIV:3"])
    def test_mixed_stack_matches_one_point_calls(self, token):
        domain = ClassicalDomain.parse(token)
        stack = _mixed_stack(domain, np.random.default_rng(len(token)))
        inside = contains(domain, stack)
        assert inside.shape == (24,) and inside.dtype == bool
        one = [contains(domain, z) for z in stack]
        assert all(type(x) is bool for x in one)
        assert inside.tolist() == one
        assert 0 < inside.sum() < 22  # inside and outside points both present
        assert not inside[5] and not inside[8]
        grid = contains(domain, stack.reshape(4, 6, *domain.point_shape))
        assert grid.shape == (4, 6) and grid.ravel().tolist() == one

    def test_type_ii_tie_stays_inside_in_a_stack(self):
        domain = ClassicalDomain.type_ii(2)
        tie = np.array([[0.5, 0.5], [0.5, 0.5]])
        stack = np.array([tie, 2.0 * tie, 0.5 * tie, [[np.nan, 0.0], [0.0, 0.0]]])
        assert contains(domain, tie) is True
        assert contains(domain, stack).tolist() == [True, False, True, False]

    def test_wrong_trailing_shape(self):
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_i(2, 3), np.zeros((5, 3, 2)))
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_iv(3), np.zeros((5, 2)))
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_iv(3), 0.0)

    def test_one_asymmetric_matrix_refuses_the_stack(self):
        stack = np.zeros((4, 2, 2))
        stack[2, 0, 1] = 0.5
        with pytest.raises(ShapeMismatch):
            contains(ClassicalDomain.type_ii(2), stack)


class TestUniformBallPoints:
    @pytest.mark.parametrize(
        "dimension, count",
        [(0, 5), (-1, 5), (1.0, 5), (True, 5), ("2", 5), (2, -1), (2, 2.5), (2, True), (2, None)],
    )
    def test_bad_dimension_or_count_refused(self, dimension, count):
        with pytest.raises(DomainValidationError):
            uniform_ball_points(np.random.default_rng(0), dimension, count)

    def test_shape_and_radius(self):
        rng = np.random.default_rng(1)
        assert uniform_ball_points(rng, 3, 0).shape == (0, 3)
        z = uniform_ball_points(rng, np.int64(2), np.int64(50), 0.5)
        assert z.shape == (50, 2) and z.dtype == complex
        assert np.all(np.linalg.norm(z, axis=1) < 0.5)


class TestSandwichCheck:
    @pytest.mark.parametrize("r, s, samples, seed", [(1, 1, 200, 1), (2, 2, 300, 2), (2, 3, 1000, 3)])
    @pytest.mark.parametrize("bound", [math.inf, 1.5, 0.5], ids=["everything", "op-below-1.5", "op-below-0.5"])
    def test_wrong_membership_fails(self, monkeypatch, r, s, samples, seed, bound):
        # a membership test that accepts too much (everything, or ||Z||_op < 1.5)
        # breaks the outer inclusion; one that accepts too little breaks the inner
        monkeypatch.setattr(symmetric, "contains", lambda domain, z: np.linalg.norm(z, 2, axis=(-2, -1)) < bound)
        assert not sandwich_check_type_i(r, s, samples=samples, seed=seed)

    @pytest.mark.parametrize("samples", [0, -1, 1.5, 2.0, True, None, "3"])
    def test_samples_must_be_a_positive_integer(self, samples):
        with pytest.raises(DomainValidationError, match=f"samples must be a positive integer, got {samples!r}"):
            sandwich_check_type_i(1, 2, samples=samples)

    def test_samples_accepts_numpy_integers(self):
        assert sandwich_check_type_i(1, 2, samples=np.int64(5))


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


def rounds_inverse_sqrt(m: int, value: float) -> bool:
    """True iff ``value`` is m^{-1/2} rounded to nearest: the exact root lies
    strictly between the midpoints to value's two neighbours (m^{-1/2} is
    never such a midpoint, which has 54 significant bits)."""
    low = (Fraction(value) + Fraction(math.nextafter(value, 0.0))) / 2
    high = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
    return low * low * m < 1 < high * high * m


class TestHugeParameters:
    # past 2^1024, float(m) overflows; up to 2^2044 the constant is normal
    @staticmethod
    def huge_inverse_squares():
        rng = random.Random(3)
        edges = [2 ** 1024 - 1, 2 ** 1024, 2 ** 1024 + 1, 10 ** 400 - 1, 4 ** 600, 2 ** 2044 - 1, 2 ** 2044]
        draws = [rng.randrange(2 ** 1024, 2 ** 2044) for _ in range(200)]
        # beside the rounding midpoints (2 t + 1) 2^-(53 + e) of the constant
        for _ in range(100):
            mid = Fraction(2 * rng.randrange(2 ** 52, 2 ** 53) + 1, 2 ** (53 + rng.randrange(513, 1021)))
            m = int(1 / (mid * mid))
            draws += [m, m + 1]
        return edges + draws

    def test_constant_is_rounded_to_nearest(self):
        # the small m too: m ** -0.5 misses by one ulp at 188 of the first 200,000, from m = 1769
        for m in [*range(1, 20001), *self.huge_inverse_squares()]:
            value = kubota_constant(ClassicalDomain.type_ii(m)).value
            assert rounds_inverse_sqrt(m, value), m
        assert kubota_constant(ClassicalDomain.type_ii(1769)).value == 0.023775851718273705
        assert kubota_constant(ClassicalDomain.type_ii(4 ** 600)).value == 2.0 ** -600
        assert kubota_constant(ClassicalDomain.type_iii(2 ** 2045 + 1)).value == 2.0 ** -1022

    def test_float_path_keeps_its_bits(self):
        for m in (2 ** 1023, 2 ** 1024 - 2 ** 971, 10 ** 300 + 7):
            assert kubota_constant(ClassicalDomain.type_ii(m)).value == m ** -0.5

    def test_product_with_a_huge_factor(self):
        m = 10 ** 400 - 1
        pair = [ClassicalDomain.type_i(1, 1), ClassicalDomain.type_ii(m)]
        assert product_constant(pair).value == float(Fraction(1, 10 ** 200))
        # two factors below 2^1024 whose sum is not
        halves = [ClassicalDomain.type_ii(2 ** 1023), ClassicalDomain.type_ii(2 ** 1023 + 5)]
        assert rounds_inverse_sqrt(2 ** 1024 + 5, product_constant(halves).value)
        assert product_constant(halves).witness["inverse_square_sum"] == 2 ** 1024 + 5

    @pytest.mark.parametrize("constant", [
        lambda: kubota_constant(ClassicalDomain.type_ii(2 ** 2044 + 1)),
        lambda: kubota_constant(ClassicalDomain.type_i(10 ** 700, 10 ** 700)),
        lambda: product_constant([ClassicalDomain.type_iv(3), ClassicalDomain.type_ii(2 ** 2044 - 1)]),
    ])
    def test_subnormal_constant_refused(self, constant):
        with pytest.raises(DomainValidationError, match="below the least normal double"):
            constant()


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
