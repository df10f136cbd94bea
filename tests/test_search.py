import math
from fractions import Fraction

import numpy as np
import pytest

from squeezing import (
    Annulus,
    EmbeddingCandidate,
    InjectivityCertificate,
    annulus_lower_bound,
    annulus_minimum_value,
    injectivity_certificate,
    laurent_map,
    monotonicity_scan,
    objective,
    tier_a_bound,
    tier_b_search,
)
from squeezing import search
from squeezing.rouche import annulus_basis
from squeezing.errors import (
    DomainValidationError,
    ImageEscapesDisc,
    NotCertified,
    PointOutsideAnnulus,
)

QUARTER = Annulus(0.25)


class TestObjective:
    def test_inclusion_reproduces_closed_form(self):
        candidate = EmbeddingCandidate.mobius_inclusion()
        assert objective(candidate, QUARTER, 0.5) == pytest.approx(2.0 / 7.0, abs=1e-9)

    def test_reflection_branch_near_inner_circle(self):
        candidate = EmbeddingCandidate.mobius_reflection(QUARTER.r)
        value = objective(candidate, QUARTER, 0.3)
        assert value == pytest.approx(annulus_lower_bound(QUARTER, 0.3).value, abs=1e-9)

    def test_certified_identity_laurent_matches_inclusion(self):
        coefficients = np.array([0, 0, 1], dtype=complex)
        certificate = injectivity_certificate(laurent_map(coefficients), QUARTER, 16)
        candidate = EmbeddingCandidate.laurent(coefficients, certificate)
        assert candidate.status == "certified"
        inclusion = objective(EmbeddingCandidate.mobius_inclusion(), QUARTER, 0.5)
        assert objective(candidate, QUARTER, 0.5) == pytest.approx(inclusion, abs=1e-9)

    def test_uncertified_candidate_rejected(self):
        square = np.array([0, 0, 0, 0, 1], dtype=complex)
        certificate = injectivity_certificate(laurent_map(square), Annulus(0.5), 16)
        candidate = EmbeddingCandidate.laurent(square, certificate)
        assert candidate.status == "refuted"
        with pytest.raises(NotCertified):
            objective(candidate, Annulus(0.5), 0.7)

    def test_escaping_image_rejected(self):
        stamped = InjectivityCertificate(status="certified", min_boundary_modulus=float("inf"))
        candidate = EmbeddingCandidate.laurent(np.array([0, 0, 1.2], dtype=complex), stamped)
        with pytest.raises(ImageEscapesDisc):
            objective(candidate, QUARTER, 0.5)

    def test_point_must_be_in_annulus(self):
        with pytest.raises(PointOutsideAnnulus):
            objective(EmbeddingCandidate.mobius_inclusion(), QUARTER, 0.1)


class TestTierA:
    def test_golden_value(self):
        result = tier_a_bound(QUARTER, 0.5)
        assert result.best_value == pytest.approx(2.0 / 7.0, abs=1e-9)
        assert result.evaluations == 2

    def test_minimum_at_fold_point(self):
        result = tier_a_bound(QUARTER, math.sqrt(QUARTER.r))
        assert result.best_value == pytest.approx(annulus_minimum_value(QUARTER), abs=1e-9)

    def test_boundary_limit(self):
        assert tier_a_bound(QUARTER, 1.0 - 1e-8).best_value > 0.999

    def test_reflection_family_selected_near_inner_circle(self):
        result = tier_a_bound(QUARTER, 0.3)
        assert result.best_candidate.family == "mobius-reflection"

    def test_conjecture_value_reported(self):
        result = tier_a_bound(QUARTER, 0.5)
        assert result.conjecture_value == pytest.approx(2.0 / 7.0, abs=1e-9)

    def test_closed_form_at_complex_points(self):
        # exact oracle: the larger pseudo-hyperbolic distance (a - b)/(1 - ab)
        # of the inclusion and the reflection, in rational arithmetic at |p|
        gap = lambda a, b: (a - b) / (1 - a * b)  # noqa: E731
        rng = np.random.default_rng(29)
        for _ in range(200):
            annulus = Annulus(float(rng.uniform(0.05, 0.9)))
            p = complex(rng.uniform(annulus.r, 1.0) * np.exp(2j * np.pi * rng.random()))
            if not annulus.r < abs(p) < 1.0:
                continue
            result = tier_a_bound(annulus, p)
            assert result.best_value == annulus_lower_bound(annulus, p).value, p
            r, rho = Fraction(annulus.r), Fraction(abs(p))
            exact = max(gap(rho, r), gap(r / rho, r))
            assert result.best_value - exact <= 1e-15, p


class TestTierB:
    def test_degree_zero_collapses_to_tier_a(self):
        collapsed = tier_b_search(QUARTER, 0.5, degree=0, budget=10, seed=0)
        reference = tier_a_bound(QUARTER, 0.5)
        assert collapsed.best_value == reference.best_value
        assert collapsed.conjecture_value == reference.conjecture_value
        assert collapsed.best_candidate.family == reference.best_candidate.family
        assert collapsed.evaluations == 2

    def test_containment(self):
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=80, seed=1)
        assert result.best_value >= result.tier_a_value - 1e-9
        assert 0.0 < result.best_value < 1.0

    def test_winner_survives_reevaluation(self):
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=80, seed=1)
        if result.best_candidate.family == "laurent":
            again = objective(result.best_candidate, QUARTER, 0.5, samples=2 * 2048)
            assert again == pytest.approx(result.best_value, abs=1e-9)

    def test_budget_exhaustion_still_returns(self):
        result = tier_b_search(QUARTER, 0.5, degree=2, budget=5, seed=0)
        assert result.budget_exhausted
        assert result.best_value >= result.tier_a_value - 1e-9

    def test_budget_used_up_by_last_start_is_exhausted(self):
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=40, seed=1)
        assert result.evaluations == 40
        assert result.budget_exhausted

    def test_converged_starts_are_not_exhausted(self):
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=4000, seed=1, samples=256)
        assert result.evaluations < 4000
        assert not result.budget_exhausted

    def test_conjecture_gap_is_reported_not_asserted(self):
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=60, seed=1)
        assert result.conjecture_gap == result.best_value - result.conjecture_value

    def test_degree_cap(self):
        with pytest.raises(DomainValidationError):
            tier_b_search(QUARTER, 0.5, degree=5, budget=10, seed=0)
        with pytest.raises(DomainValidationError):
            tier_b_search(QUARTER, 0.5, degree=2, budget=0, seed=0)
        with pytest.raises(DomainValidationError, match="seed"):
            tier_b_search(QUARTER, 0.5, degree=1, budget=10, seed=-1)
        # r^{-2} overflows on the inner circle of this annulus
        with pytest.raises(DomainValidationError, match="annulus radius 1e-300"):
            tier_b_search(Annulus(1e-300), 0.5, degree=2, budget=10, seed=0)
        # a Laurent search evaluates z^{-1}, which overflows at a subnormal r
        with pytest.raises(DomainValidationError, match="annulus radius 5e-324"):
            tier_b_search(Annulus(5e-324), 0.5, degree=1, budget=10, seed=0)
        # degree 0 is tier A, the closed form, which needs no power of r
        collapsed = tier_b_search(Annulus(5e-324), 0.5, degree=0, budget=10, seed=0)
        assert collapsed.best_value == annulus_lower_bound(Annulus(5e-324), 0.5).value == 0.5
        assert collapsed.best_candidate.family == "mobius-inclusion"


    def test_power_bases_are_built_once_per_search(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return annulus_basis(*args)

        monkeypatch.setattr(search, "annulus_basis", counting)
        counts = []
        for budget in (20, 200):
            built.clear()
            result = tier_b_search(QUARTER, 0.5, degree=1, budget=budget, seed=1)
            assert result.evaluations == budget
            assert result.best_candidate.family == "laurent"
            counts.append(len(built))
        # the scan, the objective ring and the final re-evaluation; tier A samples nothing
        assert counts == [3, 3]


    @pytest.mark.parametrize("degree, budget, seed", [(0, 10, 0), (1, 60, 1), (2, 120, 42)])
    def test_certificate_attempts_count_every_certificate(self, monkeypatch, degree, budget, seed):
        statuses = []

        def recording(*args, **kwargs):
            certificate = injectivity_certificate(*args, **kwargs)
            statuses.append(certificate.status)
            return certificate

        monkeypatch.setattr(search, "injectivity_certificate", recording)
        result = tier_b_search(QUARTER, 0.5, degree=degree, budget=budget, seed=seed, samples=512)
        assert sum(result.certificates) == len(statuses)
        assert result.certificates._asdict() == {
            status: statuses.count(status) for status in ("certified", "refuted", "inconclusive")
        }


class TestMonotonicityScan:
    def test_endpoints(self):
        report = monotonicity_scan(QUARTER, grid=64)
        assert report.rho[0] == pytest.approx(math.sqrt(QUARTER.r), abs=0)
        assert report.values[0] == pytest.approx(annulus_minimum_value(QUARTER), abs=1e-9)
        assert report.values[-1] > report.values[0]

    def test_grid_floor(self):
        with pytest.raises(DomainValidationError):
            monotonicity_scan(QUARTER, grid=4)
