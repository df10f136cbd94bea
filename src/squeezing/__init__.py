"""Squeezing-function values and certified bounds for special domains.

Exact values for the classical matrix domains, their products and punctured
balls; certified lower/upper bounds for annuli, excised discs and punctured
balls; argument-principle zero counting with numerical injectivity
certificates; and a deterministic search for improved annulus bounds over
certified embeddings.
"""

__version__ = "0.1.0"

from .certificates import BoundCertificate
from .hyperbolic import (
    MAX_RADIUS,
    TOLERANCE,
    ball_mobius,
    bounded_metric,
    euclidean_radius,
    hyperbolic_radius,
    kobayashi_distance,
    mobius_map,
    poincare_distance,
)
from .planar import (
    Annulus,
    CompletenessReport,
    Excision,
    ExcisedDomain,
    PuncturedBall,
    annulus_conjectured_value,
    annulus_lower_bound,
    annulus_minimum_value,
    boundary_distance,
    caratheodory_lower_estimate,
    completeness_criterion,
    excised_domain_lower_bound,
    excision_constant,
    lipschitz_check,
    mobius_circle_image,
    punctured_domain_upper_bound,
)
from .rouche import (
    CircleContour,
    CountResult,
    InjectivityCertificate,
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
from .search import (
    EmbeddingCandidate,
    MonotonicityReport,
    SearchResult,
    monotonicity_scan,
    objective,
    tier_a_bound,
    tier_b_search,
)
from .symmetric import (
    ClassicalDomain,
    contains,
    kubota_constant,
    product_constant,
    punctured_ball_squeezing,
    sandwich_check_type_i,
    uniform_ball_points,
)

__all__ = [
    "Annulus",
    "BoundCertificate",
    "CircleContour",
    "ClassicalDomain",
    "CompletenessReport",
    "CountResult",
    "EmbeddingCandidate",
    "Excision",
    "ExcisedDomain",
    "InjectivityCertificate",
    "MAX_RADIUS",
    "MonotonicityReport",
    "PuncturedBall",
    "SampledMap",
    "SearchResult",
    "TOLERANCE",
    "annulus_conjectured_value",
    "annulus_lower_bound",
    "annulus_minimum_value",
    "ball_mobius",
    "boundary_distance",
    "bounded_metric",
    "caratheodory_lower_estimate",
    "completeness_criterion",
    "contains",
    "euclidean_radius",
    "excised_domain_lower_bound",
    "excision_constant",
    "hyperbolic_radius",
    "injectivity_certificate",
    "kobayashi_distance",
    "kubota_constant",
    "laurent_basis",
    "laurent_map",
    "lipschitz_check",
    "mobius_circle_image",
    "mobius_map",
    "monotonicity_scan",
    "objective",
    "poincare_distance",
    "polynomial_map",
    "product_constant",
    "punctured_ball_squeezing",
    "punctured_domain_upper_bound",
    "rouche_dominates",
    "sandwich_check_type_i",
    "tier_a_bound",
    "tier_b_search",
    "uniform_ball_points",
    "unit_annulus_contours",
    "zero_count",
    "zero_count_detailed",
]
