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

    @pytest.mark.parametrize("samples", [0, -3, 1.5, True, 63])
    def test_samples_refused_as_by_the_search(self, samples):
        with pytest.raises(DomainValidationError, match="samples must be an integer >= 64"):
            objective(EmbeddingCandidate.mobius_inclusion(), QUARTER, 0.5, samples=samples)
        with pytest.raises(DomainValidationError, match="samples must be an integer >= 64"):
            tier_b_search(QUARTER, 0.5, degree=1, budget=10, seed=0, samples=samples)

    def test_samples_counts_half_the_nodes_per_circle(self):
        # the inclusion's value is the minimum over 2 * samples nodes of each circle
        p = 0.4 * np.exp(2j * np.pi / 128)  # on a ray of the 128 nodes, between two of 64
        ring = np.exp(2j * np.pi * np.arange(128) / 128)
        w = np.concatenate([ring, QUARTER.r * ring])
        expected = np.abs((w - p) / (1 - np.conj(w) * p)).min()
        value = objective(EmbeddingCandidate.mobius_inclusion(), QUARTER, p, samples=64)
        assert value == pytest.approx(expected, rel=1e-13)


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

    @pytest.mark.parametrize("r, rho, degree, budget, seed, evaluations, exhausted, certificates, family, value", [
        (0.25, 0.5, 2, 500, 42, 500, True, (0, 9, 0), "mobius-inclusion", 0.2857142857142857),
        (0.25, 0.5, 1, 500, 42, 500, True, (11, 5, 13), "laurent", 0.3589047787711908),
        (0.5, 0.75, 2, 500, 0, 500, True, (5, 12, 0), "laurent", 0.4278081548728697),
        (0.1, 0.6, 1, 300, 3, 300, True, (4, 3, 2), "laurent", 0.5801394168230569),
        (0.25, 0.7, 1, 200, 1, 200, True, (11, 0, 1), "laurent", 0.5876969849890389),
        (0.25, 0.7, 3, 500, 1, 500, True, (2, 9, 0), "laurent", 0.6014334348023713),
    ])
    def test_search_decisions_are_pinned(
        self, r, rho, degree, budget, seed, evaluations, exhausted, certificates, family, value
    ):
        # every decision exactly; the value only to a relative 1e-12, since its
        # last bits follow the BLAS build's summation order
        result = tier_b_search(Annulus(r), rho, degree=degree, budget=budget, seed=seed)
        assert result.evaluations == evaluations
        assert result.budget_exhausted is exhausted
        assert tuple(result.certificates) == certificates
        assert result.best_candidate.family == family
        assert result.best_value == pytest.approx(value, rel=1e-12, abs=0)

    def test_containment(self):
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=80, seed=1)
        assert result.best_value >= result.tier_a_value - 1e-9
        assert 0.0 < result.best_value < 1.0

    def test_winner_survives_reevaluation(self):
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=80, seed=1)
        if result.best_candidate.family == "laurent":
            again = objective(result.best_candidate, QUARTER, 0.5, samples=2048)
            assert again == result.best_value

    @pytest.mark.parametrize("r, rho, degree, budget, seed", [
        (0.25, 0.5, 1, 200, 1), (0.5, 0.75, 2, 300, 0), (0.25, 0.7, 3, 300, 1),
    ])
    def test_winner_boundary_inside_disc_between_nodes(self, r, rho, degree, budget, seed):
        # the search scales by the peak over 2 * samples nodes, inflated for the
        # node step; four times finer nodes must still see the image inside
        result = tier_b_search(Annulus(r), rho, degree=degree, budget=budget, seed=seed, samples=256)
        assert result.best_candidate.family == "laurent"
        fine = annulus_basis(r, 8 * 256, degree) @ result.best_candidate.coefficients
        assert np.abs(fine).max() < 1.0

    @pytest.mark.parametrize("samples", [63, 2, 0, 64.0])
    def test_samples_floor(self, samples):
        with pytest.raises(DomainValidationError, match="samples"):
            tier_b_search(QUARTER, 0.5, degree=4, budget=10, seed=0, samples=samples)

    def test_numpy_integers_accepted_and_bools_refused(self):
        plain = tier_b_search(QUARTER, 0.5, degree=1, budget=40, seed=1, samples=256)
        numpy_ints = tier_b_search(QUARTER, 0.5, degree=np.int64(1), budget=40, seed=1, samples=np.int64(256))
        assert (numpy_ints.best_value, numpy_ints.evaluations, numpy_ints.certificates) == (
            plain.best_value, plain.evaluations, plain.certificates
        )
        assert numpy_ints.best_candidate.coefficients.tobytes() == plain.best_candidate.coefficients.tobytes()
        with pytest.raises(DomainValidationError, match=r"degree must be an integer in \[0, 4\]"):
            tier_b_search(QUARTER, 0.5, degree=True, budget=10, seed=0)
        with pytest.raises(DomainValidationError, match="samples must be an integer >= 64"):
            tier_b_search(QUARTER, 0.5, degree=1, budget=10, seed=0, samples=np.True_)

    def test_budget_and_seed_are_integers(self):
        plain = tier_b_search(QUARTER, 0.5, degree=1, budget=40, seed=1, samples=256)
        numpy_ints = tier_b_search(QUARTER, 0.5, degree=1, budget=np.int64(40), seed=np.int64(1), samples=256)
        assert (numpy_ints.best_value, numpy_ints.evaluations, numpy_ints.certificates, numpy_ints.seed) == (
            plain.best_value, plain.evaluations, plain.certificates, plain.seed
        )
        assert numpy_ints.best_candidate.coefficients.tobytes() == plain.best_candidate.coefficients.tobytes()
        # 10.5 ran 11 evaluations, True ran 1 and seed True was reported as True
        for budget in (10.5, True, np.True_, 40.0):
            with pytest.raises(DomainValidationError, match="budget must be at least 1"):
                tier_b_search(QUARTER, 0.5, degree=1, budget=budget, seed=0, samples=256)
        # 1.5 reached numpy's SeedSequence and raised TypeError there
        for seed in (1.5, True, np.False_, 0.0):
            with pytest.raises(DomainValidationError, match="seed must be a non-negative integer"):
                tier_b_search(QUARTER, 0.5, degree=1, budget=10, seed=seed, samples=256)

    def test_budget_exhaustion_still_returns(self):
        result = tier_b_search(QUARTER, 0.5, degree=2, budget=5, seed=0)
        assert result.budget_exhausted
        assert result.best_value >= result.tier_a_value - 1e-9

    def test_budget_used_up_by_last_start_is_exhausted(self):
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=40, seed=1)
        assert result.evaluations == 40
        assert result.budget_exhausted

    def test_converged_starts_are_not_exhausted(self):
        # all four simplexes shrink below 1e-11 within their 10,000-evaluation shares
        result = tier_b_search(Annulus(0.5), 0.75, degree=1, budget=40000, seed=0, samples=256)
        assert result.evaluations < 40000
        assert not result.budget_exhausted

    def test_budget_is_the_only_stop(self):
        # an iteration cap stopped every start of this search after 1,314 evaluations
        result = tier_b_search(QUARTER, 0.5, degree=1, budget=2000, seed=1, samples=256)
        assert result.evaluations == 2000
        assert result.budget_exhausted

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
        # one basis on the certificate's nodes serves every evaluation and the
        # reported value; tier A samples nothing
        assert counts == [1, 1]


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

    def test_grid_is_an_integer(self):
        # 10.5 ran an 11-point scan, 8.0 was accepted and '16' raised TypeError
        for grid in (10.5, 8.0, "16", True, np.True_):
            with pytest.raises(DomainValidationError, match="grid must be an integer >= 8"):
                monotonicity_scan(QUARTER, grid=grid)
        report = monotonicity_scan(QUARTER, grid=np.int64(8))
        assert len(report.values) == 8
        assert list(report.values) == [annulus_lower_bound(QUARTER, x).value for x in report.rho]
