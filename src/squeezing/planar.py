"""Certified squeezing bounds for planar domains.

Covers the annulus lower bound and its conjectured closed form, the
nested-radius excision constant, lower bounds on discs with excised
round holes, upper bounds on punctured balls, the Koebe-quarter estimate
for the Caratheodory norm, a metric-completeness criterion and the
Lipschitz property check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .certificates import BoundCertificate
from .errors import (
    BoundaryPoint,
    DomainValidationError,
    EmptyList,
    OutOfFundamentalRange,
    ParameterOrderViolation,
    PointNotInDomain,
    PointOutsideAnnulus,
    PunctureEvaluation,
    ShapeMismatch,
)
from .hyperbolic import (
    MAX_RADIUS,
    TOLERANCE,
    euclidean_radius,
    hyperbolic_radius,
    kobayashi_distance,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_DISJOINTNESS_MARGIN = 1e-10


@dataclass(frozen=True)
class Annulus:
    """The annulus {r < |z| < 1}."""

    r: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise DomainValidationError("annulus inner radius must lie in (0, 1)")

    def boundary_distance(self, z) -> float:
        rho = abs(complex(z))
        return min(1.0 - rho, rho - self.r)

    def fold(self, rho: float) -> float:
        """Reflect a radius into the fundamental range [sqrt(r), 1)."""
        return rho if rho >= math.sqrt(self.r) else self.r / rho


def _gap_value(rho: float, r: float) -> float:
    return float(euclidean_radius(hyperbolic_radius(rho) - hyperbolic_radius(r)))


def annulus_lower_bound(annulus: Annulus, z) -> BoundCertificate:
    """Lower bound max of the direct and reflected hyperbolic-disc inclusions.

    The hyperbolic disc centred at z that avoids the inner boundary circle
    has radius hyperbolic_radius(|z|) - hyperbolic_radius(r); recentring by a
    disc automorphism turns it into a round disc of Euclidean radius
    euclidean_radius(...) inside the image.  The reflection z -> r/z yields
    the second branch; the larger branch wins and tends to 1 toward either
    boundary circle.
    """
    rho = abs(complex(z))
    r = annulus.r
    if not r < rho < 1.0:
        raise PointOutsideAnnulus(f"|z| = {rho} is not in ({r}, 1)")
    direct = _gap_value(rho, r)
    reflected = _gap_value(r / rho, r)
    if direct >= reflected:
        value, branch, folded = direct, "direct", rho
    else:
        value, branch, folded = reflected, "reflected", r / rho
    return BoundCertificate(
        value=value,
        tag="lower",
        method="hyperbolic-disc-inclusion",
        witness={"r": r, "rho": rho, "branch": branch, "folded_rho": folded},
    )


def annulus_conjectured_value(annulus: Annulus, rho: float) -> BoundCertificate:
    """Closed form euclidean_radius(hyperbolic_radius(rho) - hyperbolic_radius(r)).

    Proven as a lower bound; conjectured to be the exact squeezing value on
    the fundamental range [sqrt(r), 1).  Radii below sqrt(r) must be folded
    by the reflection first.
    """
    r = annulus.r
    if rho >= 1.0:
        raise PointOutsideAnnulus(f"rho = {rho} is not below 1")
    if rho < math.sqrt(r):
        raise OutOfFundamentalRange(
            f"rho = {rho} is below sqrt(r) = {math.sqrt(r)}; fold by the reflection first"
        )
    return BoundCertificate(
        value=_gap_value(rho, r),
        tag="lower",
        method="conjectured-closed-form",
        witness={"r": r, "rho": rho},
    )


def annulus_minimum_value(annulus: Annulus) -> float:
    """Value of the conjectured closed form at its minimum rho = sqrt(r):
    tanh(log((1 + sqrt(r)) / sqrt(1 + r)))."""
    root = math.sqrt(annulus.r)
    return math.tanh(math.log((1.0 + root) / math.sqrt(1.0 + annulus.r)))


def excision_constant(u: float, v: float, w: float, grid: int = 1024) -> float:
    """inf over r in [u, v] of euclidean_radius(hyperbolic_radius(r/v) - hyperbolic_radius(r/w)).

    Computed by a dense grid scan followed by golden-section refinement of
    the best bracket down to interval width 1e-12.  Positive for all
    0 < u < v < w < 1.
    """
    if not 0.0 < u < v < w < 1.0:
        raise ParameterOrderViolation("parameters must satisfy 0 < u < v < w < 1")

    def objective(r):
        # at r = v the inner ratio reaches 1 and the value extends
        # continuously to 1; clamp to the largest representable radius
        ratio = np.minimum(np.asarray(r) / v, MAX_RADIUS)
        return euclidean_radius(hyperbolic_radius(ratio) - hyperbolic_radius(np.asarray(r) / w))

    rs = np.linspace(u, v, grid)
    values = objective(rs)
    best = int(np.argmin(values))
    lo = rs[max(best - 1, 0)]
    hi = rs[min(best + 1, grid - 1)]

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-12:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
    refined = objective(0.5 * (lo + hi))
    return float(min(values[best], refined))


def mobius_circle_image(a, rho: float) -> tuple[complex, float]:
    """Euclidean centre and radius of the image of |z| = rho under
    mobius_map(a, .) = (z - a)/(1 - conj(a) z).

    centre = a (rho^2 - 1) / (1 - rho^2 |a|^2),
    radius = rho (1 - |a|^2) / (1 - rho^2 |a|^2).
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise DomainValidationError("Mobius parameter must lie inside the unit disc")
    if not 0.0 < rho < 1.0:
        raise DomainValidationError("circle radius must lie in (0, 1)")
    denom = 1.0 - rho * rho * abs(a) ** 2
    center = a * (rho * rho - 1.0) / denom
    radius = rho * (1.0 - abs(a) ** 2) / denom
    return center, radius


@dataclass(frozen=True)
class Excision:
    """A round hole: the image of the closed disc |z| <= radius under the
    disc automorphism sending 0 to ``center_param``."""

    center_param: complex
    radius: float

    def circle_image(self, rho: float) -> tuple[complex, float]:
        """Image of |z| = rho under the excision automorphism."""
        return mobius_circle_image(-complex(self.center_param), rho)


@dataclass(frozen=True)
class ExcisedDomain:
    """The unit disc with finitely many pairwise-separated round holes.

    Hole radii live in (u, v) and the images of the closed disc of radius w
    under the hole automorphisms must be pairwise disjoint; the lower-bound
    constants depend only on (u, v, w), so truncating an infinite family of
    holes to the listed ones does not weaken the certificate for points of
    the truncated domain.
    """

    u: float
    v: float
    w: float
    excisions: tuple

    def __post_init__(self):
        if not 0.0 < self.u < self.v < self.w < 1.0:
            raise ParameterOrderViolation("radii must satisfy 0 < u < v < w < 1")
        if not self.excisions:
            raise EmptyList("excised domain requires at least one excision")
        object.__setattr__(self, "excisions", tuple(self.excisions))
        for exc in self.excisions:
            if not self.u < exc.radius < self.v:
                raise DomainValidationError(
                    f"excision radius {exc.radius} must lie in (u, v) = ({self.u}, {self.v})"
                )
            if not abs(complex(exc.center_param)) < 1.0:  # also rejects nan
                raise DomainValidationError("excision parameter must lie inside the unit disc")
        discs = [exc.circle_image(self.w) for exc in self.excisions]
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                ci, ri = discs[i]
                cj, rj = discs[j]
                if abs(ci - cj) < ri + rj + _DISJOINTNESS_MARGIN:
                    raise DomainValidationError(
                        f"excisions {i} and {j} overlap at separation radius w = {self.w}"
                    )

    @cached_property
    def near_constant(self) -> float:
        return excision_constant(self.u, 0.5 * (self.v + self.w), self.w)

    @cached_property
    def far_constant(self) -> float:
        return _gap_value(0.5 * (self.v + self.w), self.v)

    def contains(self, z) -> bool:
        point = complex(z)
        if abs(point) >= 1.0:
            return False
        for exc in self.excisions:
            center, radius = exc.circle_image(exc.radius)
            if abs(point - center) <= radius:
                return False
        return True


def excised_domain_lower_bound(domain: ExcisedDomain, z) -> BoundCertificate:
    """Two-case lower bound on an excised disc.

    Points inside some hole's enlarged collar (automorphism image of the open
    disc of radius (v+w)/2) get the excision constant c(u, (v+w)/2, w);
    points outside every collar are hyperbolically far from the boundary and
    get euclidean_radius(hyperbolic_radius((v+w)/2) - hyperbolic_radius(v)).
    """
    point = complex(z)
    if not domain.contains(point):
        raise PointNotInDomain(f"z = {point} is not in the excised domain")
    mid = 0.5 * (domain.v + domain.w)
    region = "far"
    for index, exc in enumerate(domain.excisions):
        center, radius = exc.circle_image(mid)
        if abs(point - center) < radius:
            region = "near"
            break
    if region == "near":
        value = domain.near_constant
        witness = {"region": "near", "excision": index, "u": domain.u, "v": domain.v, "w": domain.w}
    else:
        value = domain.far_constant
        witness = {"region": "far", "u": domain.u, "v": domain.v, "w": domain.w}
    return BoundCertificate(value=value, tag="lower", method="excised-disc-two-case", witness=witness)


@dataclass(frozen=True, eq=False)
class PuncturedBall:
    """The unit ball of the given complex dimension minus finitely many points."""

    dimension: int
    punctures: tuple

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainValidationError("dimension must be at least 1")
        if not self.punctures:
            raise EmptyList("at least one puncture is required")
        cleaned = []
        for p in self.punctures:
            vec = np.atleast_1d(np.asarray(p, dtype=complex))
            if vec.shape != (self.dimension,):
                raise ShapeMismatch(
                    f"puncture must be a complex {self.dimension}-vector, got shape {vec.shape}"
                )
            with np.errstate(over="ignore"):  # a norm that overflows to inf is >= 1
                outside = np.linalg.norm(vec) >= 1.0
            if outside:
                raise DomainValidationError("punctures must lie strictly inside the ball")
            cleaned.append(vec)
        for i in range(len(cleaned)):
            for j in range(i + 1, len(cleaned)):
                if np.array_equal(cleaned[i], cleaned[j]):
                    raise DomainValidationError("punctures must be pairwise distinct")
        object.__setattr__(self, "punctures", tuple(cleaned))


def punctured_domain_upper_bound(domain: PuncturedBall, z) -> BoundCertificate:
    """Upper bound euclidean_radius(min_p kobayashi_distance(z, p)).

    Removing a finite set does not change the ambient Kobayashi distance used
    here, and the bound vanishes as z approaches a puncture.  With a single
    puncture at the origin it collapses to ||z||, the exact value.
    """
    vec = np.atleast_1d(np.asarray(z, dtype=complex))
    if vec.shape != (domain.dimension,):
        raise ShapeMismatch(
            f"point must be a complex {domain.dimension}-vector, got shape {vec.shape}"
        )
    with np.errstate(over="ignore"):  # a norm that overflows to inf is >= 1
        outside = np.linalg.norm(vec) >= 1.0
    if outside:
        raise DomainValidationError("point must lie inside the unit ball")
    for p in domain.punctures:
        if np.array_equal(vec, p):
            raise PunctureEvaluation("the squeezing value is undefined at a puncture")
    distances = [kobayashi_distance(vec, p) for p in domain.punctures]
    nearest = int(np.argmin(distances))
    return BoundCertificate(
        value=float(euclidean_radius(distances[nearest])),
        tag="upper",
        method="ambient-kobayashi-to-puncture",
        witness={"nearest_puncture": nearest, "distance": distances[nearest]},
    )


def boundary_distance(z, annulus: Annulus | None = None) -> float:
    """Euclidean distance to the boundary: unit disc when ``annulus`` is None."""
    rho = abs(complex(z))
    if annulus is None:
        return 1.0 - rho
    return annulus.boundary_distance(z)


def caratheodory_lower_estimate(z, squeezing_lower: float, annulus: Annulus | None = None) -> float:
    """Certified lower bound squeezing_lower / (4 delta(z)) for the
    Caratheodory norm of d/dz, via the Koebe one-quarter theorem.

    ``squeezing_lower`` must be a valid lower bound for the squeezing value
    at z; delta is the closed-form boundary distance of the disc or annulus.
    The estimate diverges as z approaches the boundary.
    """
    if not 0.0 < squeezing_lower <= 1.0:
        raise DomainValidationError("squeezing lower bound must lie in (0, 1]")
    delta = boundary_distance(z, annulus)
    if delta <= 0.0:
        raise BoundaryPoint("boundary distance vanishes; the estimate diverges")
    return squeezing_lower / (4.0 * delta)


@dataclass(frozen=True)
class CompletenessReport:
    passed: bool
    worst_margin: float
    worst_point: complex

    def __bool__(self) -> bool:
        return self.passed


def completeness_criterion(
    bound_fn: Callable,
    boundary_distance_fn: Callable,
    constant: float,
    points: Iterable,
) -> CompletenessReport:
    """Check bound_fn(x) > constant / log(1 / delta(x)) on every sample.

    When the inequality holds with a positive constant for all points with
    delta < 1, the Caratheodory metric of the domain is complete.  The report
    carries the worst margin (most negative means worst violation).
    """
    if constant <= 0.0:
        raise DomainValidationError("the criterion constant must be positive")
    worst_margin = np.inf
    worst_point = None
    for point in points:
        delta = boundary_distance_fn(point)
        if not 0.0 < delta < 1.0:
            raise DomainValidationError("sample points must have boundary distance in (0, 1)")
        margin = bound_fn(point) - constant / math.log(1.0 / delta)
        if margin < worst_margin:
            worst_margin = margin
            worst_point = point
    if worst_point is None:
        raise EmptyList("at least one sample point is required")
    return CompletenessReport(bool(worst_margin > 0.0), float(worst_margin), worst_point)


def lipschitz_check(
    squeezing_fn: Callable,
    distance_fn: Callable,
    pairs: Iterable,
    tolerance: float = TOLERANCE,
) -> bool:
    """Check |s(x) - s(y)| <= 2 * euclidean_radius(distance(x, y)) + tolerance
    for every pair, i.e. the squeezing value is 2-Lipschitz with respect to
    the tanh-compressed invariant distance."""
    for x, y in pairs:
        gap = abs(squeezing_fn(x) - squeezing_fn(y))
        if gap > 2.0 * euclidean_radius(distance_fn(x, y)) + tolerance:
            return False
    return True
