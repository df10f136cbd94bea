"""Every function that takes a point of the disc, the ball or the annulus (or
the annulus radius) refuses a NaN, an infinite and a boundary point with its
own error, and emits no RuntimeWarning on the way."""

import math
import re
import warnings

import numpy as np
import pytest

from squeezing import (
    Annulus,
    EmbeddingCandidate,
    Excision,
    ExcisedDomain,
    PuncturedBall,
    annulus_conjectured_value,
    annulus_lower_bound,
    ball_mobius,
    boundary_distance,
    caratheodory_lower_estimate,
    disc_automorphism,
    hyperbolic_radius,
    injectivity_certificate,
    kobayashi_distance,
    laurent_map,
    mobius_circle_image,
    mobius_map,
    objective,
    poincare_distance,
    punctured_ball_squeezing,
    punctured_domain_upper_bound,
    tier_a_bound,
    tier_b_search,
    unit_annulus_contours,
)
from squeezing.errors import DomainValidationError, PointOutsideAnnulus, ShapeMismatch

QUARTER = Annulus(0.25)
ORIGIN_PUNCTURED = PuncturedBall(2, (np.zeros(2),))

CALLS = {
    "hyperbolic_radius": (hyperbolic_radius, DomainValidationError),
    "hyperbolic_radius[array]": (lambda x: hyperbolic_radius(np.array([0.5, x])), DomainValidationError),
    "mobius_map[a]": (lambda x: mobius_map(x, 0.0), DomainValidationError),
    "mobius_map[z]": (lambda x: mobius_map(0.5, x), DomainValidationError),
    "poincare_distance": (lambda x: poincare_distance(0.0, x), DomainValidationError),
    "disc_automorphism": (disc_automorphism, DomainValidationError),
    "mobius_circle_image": (lambda x: mobius_circle_image(x, 0.5), DomainValidationError),
    "ExcisedDomain": (lambda x: ExcisedDomain(0.2, 0.3, 0.45, (Excision(x, 0.25),)), DomainValidationError),
    "ball_mobius": (lambda x: ball_mobius([x, 0.0], np.zeros(2)), DomainValidationError),
    "kobayashi_distance": (lambda x: kobayashi_distance(np.zeros(2), [0.0, x]), DomainValidationError),
    "PuncturedBall": (lambda x: PuncturedBall(2, ([x, 0.0],)), DomainValidationError),
    "punctured_domain_upper_bound": (
        lambda x: punctured_domain_upper_bound(ORIGIN_PUNCTURED, [x, 0.0]),
        DomainValidationError,
    ),
    "punctured_ball_squeezing": (lambda x: punctured_ball_squeezing([x, 0.0]), DomainValidationError),
    "boundary_distance": (boundary_distance, DomainValidationError),
    "caratheodory_lower_estimate": (lambda x: caratheodory_lower_estimate(x, 0.5), DomainValidationError),
    "Annulus.point": (QUARTER.point, PointOutsideAnnulus),
    "Annulus.fold": (QUARTER.fold, PointOutsideAnnulus),
    "Annulus.boundary_distance": (QUARTER.boundary_distance, PointOutsideAnnulus),
    "boundary_distance[annulus]": (lambda x: boundary_distance(x, QUARTER), PointOutsideAnnulus),
    "caratheodory_lower_estimate[annulus]": (
        lambda x: caratheodory_lower_estimate(x, 0.5, QUARTER),
        PointOutsideAnnulus,
    ),
    "annulus_conjectured_value": (lambda x: annulus_conjectured_value(QUARTER, x), PointOutsideAnnulus),
    "annulus_lower_bound": (lambda x: annulus_lower_bound(QUARTER, x), PointOutsideAnnulus),
    "tier_a_bound": (lambda x: tier_a_bound(QUARTER, x), PointOutsideAnnulus),
    "tier_b_search": (lambda x: tier_b_search(QUARTER, x, degree=1, budget=10), PointOutsideAnnulus),
    "objective": (lambda x: objective(EmbeddingCandidate.mobius_inclusion(), QUARTER, x), PointOutsideAnnulus),
    "objective[stack]": (
        lambda x: objective(EmbeddingCandidate.mobius_inclusion(), QUARTER, np.array([[0.5, 0.6j], [x, -0.7]])),
        PointOutsideAnnulus,
    ),
    "Annulus[r]": (Annulus, DomainValidationError),
    "unit_annulus_contours[r]": (unit_annulus_contours, DomainValidationError),
    "injectivity_certificate[r]": (
        lambda x: injectivity_certificate(laurent_map([0.0, 0.0, 1.0]), x),
        DomainValidationError,
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 1.0], ids=["nan", "inf", "boundary"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_point_refused_by_its_domain(name, value):
    call, error = CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            call(value)


DISC_ARGUMENTS = {
    "Mobius map arguments": lambda x: mobius_map(0.0, x),
    "disc points": lambda x: poincare_distance(x, 0.0),
    "automorphism parameter": disc_automorphism,
    "Mobius parameter": lambda x: mobius_circle_image(x, 0.5),
    "excision parameter": lambda x: ExcisedDomain(0.2, 0.3, 0.45, (Excision(x, 0.25),)),
}


@pytest.mark.parametrize("what", sorted(DISC_ARGUMENTS))
def test_disc_message_names_the_argument(what):
    with pytest.raises(DomainValidationError, match=f"^{what} must lie in the open unit disc$"):
        DISC_ARGUMENTS[what](complex(0.0, math.nan))


# the disc points that must be one number; each refuses an array of any shape
SCALAR_ARGUMENTS = {
    "disc_automorphism": ("automorphism parameter", disc_automorphism),
    "mobius_circle_image": ("Mobius parameter", lambda x: mobius_circle_image(x, 0.5)),
    "Excision.circle_image": ("Mobius parameter", lambda x: Excision(x, 0.25).circle_image(0.5)),
    "ExcisedDomain": ("excision parameter", lambda x: ExcisedDomain(0.2, 0.3, 0.45, (Excision(x, 0.25),))),
    "boundary_distance": ("point", boundary_distance),
}


@pytest.mark.parametrize("shape", [(2,), (1,), (1, 1)])
@pytest.mark.parametrize("name", sorted(SCALAR_ARGUMENTS))
def test_disc_parameter_must_be_a_scalar(name, shape):
    what, call = SCALAR_ARGUMENTS[name]
    with pytest.raises(ShapeMismatch, match=f"^{what} must be a scalar, got shape {re.escape(str(shape))}$"):
        call(np.full(shape, 0.1 + 0.2j))
