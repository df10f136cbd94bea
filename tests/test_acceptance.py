"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from squeezing import (
    Annulus,
    CircleContour,
    ClassicalDomain,
    PuncturedBall,
    SampledMap,
    annulus_lower_bound,
    annulus_minimum_value,
    bounded_metric,
    euclidean_radius,
    injectivity_certificate,
    kobayashi_distance,
    kubota_constant,
    laurent_map,
    monotonicity_scan,
    poincare_distance,
    polynomial_map,
    product_constant,
    punctured_domain_upper_bound,
    rouche_dominates,
    sandwich_check_type_i,
    tier_b_search,
    uniform_ball_points,
    zero_count,
    zero_count_detailed,
)
from squeezing.checks import noninjective_corpus
from squeezing.cli import main


class _Criterion:
    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        state = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} {state} ({elapsed:6.2f}s / budget {self.budget}s): {self.label}")
        assert elapsed < self.budget, f"criterion {self.number} exceeded its runtime budget"
        return False


def test_criterion_01_kubota_table():
    with _Criterion(1, "classical constants and the product formula", 1.0):
        for r in range(1, 11):
            for s in range(r, 11):
                assert abs(kubota_constant(ClassicalDomain.type_i(r, s)).value - r ** -0.5) <= 1e-15
        for p in range(1, 11):
            assert abs(kubota_constant(ClassicalDomain.type_ii(p)).value - p ** -0.5) <= 1e-15
        for q in range(2, 11):
            assert abs(kubota_constant(ClassicalDomain.type_iii(q)).value - (q // 2) ** -0.5) <= 1e-15
        for n in range(2, 11):
            assert abs(kubota_constant(ClassicalDomain.type_iv(n)).value - 2 ** -0.5) <= 1e-15
        pair = [ClassicalDomain.type_iv(3), ClassicalDomain.type_iv(7)]
        assert product_constant(pair).value == 0.5


def test_criterion_02_punctured_ball_identity():
    with _Criterion(2, "punctured-ball upper bound equals the norm", 1.0):
        rng = np.random.default_rng(2024)
        for dimension in (2, 3):
            domain = PuncturedBall(dimension, (np.zeros(dimension),))
            for z in uniform_ball_points(rng, dimension, 100):
                value = punctured_domain_upper_bound(domain, z).value
                assert abs(value - np.linalg.norm(z)) <= 1e-12


def test_criterion_03_annulus_golden_value():
    with _Criterion(3, "annulus bound at the golden point and fold minima", 1.0):
        oracle = Fraction(9, 5)
        expected = (oracle - 1) / (oracle + 1)
        assert expected == Fraction(2, 7)
        value = annulus_lower_bound(Annulus(0.25), 0.5).value
        assert abs(value - float(expected)) <= 1e-12
        for r in (0.1, 0.25, 0.5, 0.81):
            annulus = Annulus(r)
            at_fold = annulus_lower_bound(annulus, math.sqrt(r)).value
            closed_form = math.tanh(math.log((1.0 + math.sqrt(r)) / math.sqrt(1.0 + r)))
            assert abs(at_fold - closed_form) <= 1e-12
            assert abs(annulus_minimum_value(annulus) - closed_form) <= 1e-12


def test_criterion_04_boundary_behavior():
    with _Criterion(4, "bound increases to 1 toward the outer boundary", 1.0):
        annulus = Annulus(0.25)
        values = [annulus_lower_bound(annulus, 1.0 - 10.0 ** -k).value for k in range(1, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999


def test_criterion_05_monotonicity_scan():
    with _Criterion(5, "tier-A radial scans have no inversions", 5.0):
        for r in (0.1, 0.25, 0.4, 0.6, 0.81):
            report = monotonicity_scan(Annulus(r), grid=256, tier="A")
            assert report.inversions == 0


def test_criterion_06_rouche_counter():
    with _Criterion(6, "argument-principle counts and dominance consistency", 5.0):
        for k in range(1, 9):
            f = SampledMap(lambda z, k=k: z ** k, lambda z, k=k: k * z ** (k - 1.0))
            for samples in (64, 256, 1024, 4096):
                detail = zero_count_detailed(f, CircleContour(samples=samples))
                assert detail.count == k
                assert detail.residual < 1e-8
        roots = np.roots([1.0, 0.0, 0.5, 0.0])
        assert np.all(np.abs(roots) < 1.0)
        assert zero_count(polynomial_map([0.0, 0.5, 0.0, 1.0]), CircleContour()) == 3
        contour = CircleContour()
        f = SampledMap(lambda z: z ** 3, lambda z: 3 * z ** 2)
        g = polynomial_map([0.0, 0.5])
        assert rouche_dominates(f, g, contour)
        assert zero_count(f, contour) == zero_count(polynomial_map([0.0, 0.5, 0.0, 1.0]), contour)
        assert not rouche_dominates(SampledMap(lambda z: z, lambda z: np.ones_like(z)),
                                    polynomial_map([0.0, 2.0]), contour)
        for name, candidate in noninjective_corpus():
            status = injectivity_certificate(candidate, 0.5, target_grid=16).status
            assert status in ("refuted", "inconclusive"), name


def test_criterion_07_injectivity_certification():
    with _Criterion(7, "identity/reflection certified, square refuted", 10.0):
        annulus = Annulus(0.5)
        assert injectivity_certificate(laurent_map([0, 0, 1]), annulus, 16).status == "certified"
        assert injectivity_certificate(laurent_map([0.5, 0, 0]), annulus, 16).status == "certified"
        assert injectivity_certificate(laurent_map([0, 0, 0, 0, 1]), annulus, 16).status == "refuted"


def test_criterion_08_search_containment(capsys):
    with _Criterion(8, "seeded search containment and byte-identical reruns", 60.0):
        result = tier_b_search(Annulus(0.25), 0.5, degree=2, budget=500, seed=42)
        assert result.best_value >= 2.0 / 7.0 - 1e-9
        assert result.best_value < 1.0
        assert result.best_value >= result.tier_a_value - 1e-9
        argv = ["search", "--annulus", "0.25", "--rho", "0.5",
                "--degree", "2", "--budget", "500", "--seed", "42"]
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second
        record = json.loads(first)
        assert record["best_value"] == result.best_value == 0.2857142857142857
        assert list(record)[-1] == "certificates"
        assert record["certificates"] == {"certified": 0, "refuted": 9, "inconclusive": 0}


def test_criterion_09_lipschitz_property():
    with _Criterion(9, "squeezing is 2-Lipschitz for the compressed metric", 1.0):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            x, y = uniform_ball_points(rng, 2, 2)
            if np.linalg.norm(x) == 0 or np.linalg.norm(y) == 0:
                continue
            gap = abs(np.linalg.norm(x) - np.linalg.norm(y))
            assert gap <= 2.0 * euclidean_radius(kobayashi_distance(x, y)) + 1e-12
            checked += 1


def test_criterion_10_sandwich_check():
    with _Criterion(10, "ball inside type-I domain inside scaled ball", 5.0):
        for r, s in ((1, 1), (2, 2), (2, 3)):
            assert sandwich_check_type_i(r, s, samples=1000, seed=r * 10 + s)


def test_criterion_11_metric_axiom_suite():
    with _Criterion(11, "compressed metric axioms and subadditivity", 1.0):
        rng = np.random.default_rng(11)
        triples = uniform_ball_points(rng, 1, 3000, 0.95)[:, 0].reshape(1000, 3)
        for a, b, c in triples:
            t_ab = bounded_metric(poincare_distance(a, b))
            t_ba = bounded_metric(poincare_distance(b, a))
            t_bc = bounded_metric(poincare_distance(b, c))
            t_ac = bounded_metric(poincare_distance(a, c))
            assert abs(t_ab - t_ba) <= 1e-12
            assert bounded_metric(poincare_distance(a, a)) == 0.0
            assert t_ac <= t_ab + t_bc + 1e-12
        for u, v in 10.0 * rng.random((1000, 2)):
            assert euclidean_radius(u + v) <= euclidean_radius(u) + euclidean_radius(v) + 1e-12
