"""Certified squeezing bounds for planar domains.

Covers the annulus lower bound and the paper's closed form for it, the
nested-radius excision constant, lower bounds on discs with excised
round holes, upper bounds on punctured balls, the Koebe-quarter estimate
for the Caratheodory norm, a metric-completeness criterion and the
Lipschitz property check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .certificates import BoundCertificate
from .errors import (
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
    TOLERANCE,
    _ball_point,
    _disc_parameter,
    _is_integer,
    euclidean_radius,
    kobayashi_distance,
)

_DISJOINTNESS_MARGIN = 1e-10


@dataclass(frozen=True)
class Annulus:
    """The annulus {r < |z| < 1}."""

    r: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise DomainValidationError("annulus inner radius must lie in (0, 1)")

    def point(self, z) -> complex:
        """``z`` as one complex number (``_plane_point``); raises
        PointOutsideAnnulus unless r < |z| < 1, so None (read as NaN) too."""
        point = _plane_point(z)
        if not self.r < abs(point) < 1.0:  # also rejects nan
            raise PointOutsideAnnulus(f"|z| = {abs(point)} is not in ({self.r}, 1)")
        return point

    def boundary_distance(self, z) -> float:
        rho = abs(self.point(z))
        return min(1.0 - rho, rho - self.r)

    def fold(self, rho: float) -> float:
        """Reflect the radius of a point into the fundamental range [sqrt(r), 1)."""
        rho = abs(self.point(rho))
        return rho if rho >= math.sqrt(self.r) else self.r / rho


def _gap_value(a: float, b: float) -> float:
    """euclidean_radius(hyperbolic_radius(a) - hyperbolic_radius(b)) = (a - b)/(1 - ab),
    the pseudo-hyperbolic distance, for 0 <= b < a < 1.  The denominator is
    summed as (1 - a) + a(1 - b), which keeps full relative accuracy as a and
    b approach 1, where 1 - ab cancels."""
    return float((a - b) / ((1.0 - a) + a * (1.0 - b)))


def annulus_lower_bound(annulus: Annulus, z) -> BoundCertificate:
    """Lower bound max of the direct and reflected hyperbolic-disc inclusions.

    The hyperbolic disc centred at z that avoids the inner boundary circle
    has radius hyperbolic_radius(|z|) - hyperbolic_radius(r); recentring by a
    disc automorphism turns it into a round disc of Euclidean radius
    euclidean_radius(...) inside the image.  The reflection z -> r/z yields
    the second branch; the larger branch wins and tends to 1 toward either
    boundary circle.
    """
    rho = abs(annulus.point(z))
    r = annulus.r
    direct = _gap_value(rho, r)
    # _gap_value(r / rho, r) multiplied through by rho, so no quotient is rounded
    reflected = r * (1.0 - rho) / ((rho - r) + r * (1.0 - r))
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

    A proven lower bound on the fundamental range [sqrt(r), 1), not the
    exact squeezing value: ``search.tier_b_search`` certifies Laurent
    embeddings above it (0.3589 > 2/7 at r = 0.25, rho = 0.5, degree 1,
    seed 42).  ``rho`` must lie in the annulus, and radii below sqrt(r)
    must be folded by the reflection first.
    """
    r = annulus.r
    annulus.point(rho)
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
    """Value of ``annulus_conjectured_value`` at its minimum rho = sqrt(r):
    (sqrt(r) - r)/(1 - r sqrt(r)) = sqrt(r)/(1 + sqrt(r) + r)."""
    root = math.sqrt(annulus.r)
    return root / (1.0 + root + annulus.r)


def excision_constant(u: float, v: float, w: float) -> float:
    """inf over r in [u, v] of euclidean_radius(hyperbolic_radius(r/v) - hyperbolic_radius(r/w)),
    rounded down, so it never exceeds the exact infimum.

    The infimum is the value at r = u.  With hyperbolic_radius(x) =
    log((1 + x)/(1 - x)), the bracket has derivative
    2 [v/(v^2 - r^2) - w/(w^2 - r^2)] in r, which is positive because
    t -> t/(t^2 - r^2) decreases for t > r and v < w; euclidean_radius
    increases, so the objective increases in r.  By ``_gap_value`` the value
    at r = u is q = u(w - v)/(vw - u^2) = ua/(va + bs), with a = w - v,
    b = v - u and s = v + u, and it is evaluated in that form.  Positive for
    all 0 < u < v < w < 1 (unless q underflows).

    Rounding budget.  For u >= 2^-480 every intermediate is normal (a and b
    are at least ulp(u) >= 2^-532 and s > u, so the products and the
    quotient exceed 2^-1013), so each operation returns x(1 + d) with
    |d| <= e = 2^-53.
    Sterbenz's lemma makes a exact when w <= 2v and b exact when v <= 2u.
    With a' = a(1 + d1), the computed quotient is
        q' = q (1 + d1)(1 + d4)(1 + d8) / (1 + d7) * (va + bs) / (va A + bs B),
    A = (1 + d1)(1 + d5), B = (1 + d2)(1 + d3)(1 + d6), from the roundings
    of a (d1), b (d2), s (d3), ua (d4), va (d5), bs (d6), the sum (d7) and
    the quotient (d8).  The last ratio is at most max(1/A, 1/B), so
    q'/q <= (1 - e)^-k with k = 5 + [w > 2v] + [v > 2u].  Hence
    q' - q <= q'(1 - (1 - e)^k) <= k e q' < k ulp(q'), since q' < 2^53 ulp(q'),
    and q' - k ulp(q'), which is exact, lies below q.  Below u = 2^-480 a
    product may be subnormal, where rounding is not relative, so the exact
    rational value is rounded down instead.
    """
    if not 0.0 < u < v < w < 1.0:
        raise ParameterOrderViolation("parameters must satisfy 0 < u < v < w < 1")
    if u < 2.0 ** -480:
        from fractions import Fraction  # only here: it loads decimal, 0.4 MB, on import

        exact = Fraction(u) * (Fraction(w) - Fraction(v)) / (Fraction(v) * Fraction(w) - Fraction(u) ** 2)
        value = float(exact)  # correctly rounded, so at most one step above
        return value if value <= exact else math.nextafter(value, 0.0)
    value = u * (w - v) / (v * (w - v) + (v - u) * (v + u))
    budget = 5 + (w > 2.0 * v) + (v > 2.0 * u)
    return value - budget * math.ulp(value)


def mobius_circle_image(a, rho: float) -> tuple[complex, float]:
    """Euclidean centre and radius of the image of |z| = rho under
    mobius_map(a, .) = (z - a)/(1 - conj(a) z).

    centre = a (rho^2 - 1) / (1 - rho^2 |a|^2),
    radius = rho (1 - |a|^2) / (1 - rho^2 |a|^2).
    """
    a = _disc_parameter("Mobius parameter", a)
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
        return mobius_circle_image(np.negative(self.center_param), rho)


@dataclass(frozen=True)
class ExcisedDomain:
    """The unit disc with finitely many pairwise-separated round holes.

    Hole radii live in (u, v) and the images of the closed disc of radius w
    under the hole automorphisms must be pairwise disjoint; the lower-bound
    constants depend only on (u, v, w), so truncating an infinite family of
    holes to the listed ones does not weaken the certificate for points of
    the truncated domain.

    ``hole_circles`` and ``collar_circles`` are the (centre, radius) images of
    the radii ``exc.radius`` and (v+w)/2, computed once at construction.
    """

    u: float
    v: float
    w: float
    excisions: tuple
    hole_circles: tuple = field(init=False, repr=False, compare=False)
    collar_circles: tuple = field(init=False, repr=False, compare=False)

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
            _disc_parameter("excision parameter", exc.center_param)
        discs = [exc.circle_image(self.w) for exc in self.excisions]
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                ci, ri = discs[i]
                cj, rj = discs[j]
                if abs(ci - cj) < ri + rj + _DISJOINTNESS_MARGIN:
                    raise DomainValidationError(
                        f"excisions {i} and {j} overlap at separation radius w = {self.w}"
                    )
        mid = 0.5 * (self.v + self.w)
        object.__setattr__(self, "hole_circles", tuple(exc.circle_image(exc.radius) for exc in self.excisions))
        object.__setattr__(self, "collar_circles", tuple(exc.circle_image(mid) for exc in self.excisions))

    @cached_property
    def near_constant(self) -> float:
        return excision_constant(self.u, 0.5 * (self.v + self.w), self.w)

    @cached_property
    def far_constant(self) -> float:
        return _gap_value(0.5 * (self.v + self.w), self.v)

    def contains(self, z):
        """Strict membership: |z| < 1 and z outside every closed hole.

        One point gives a ``bool``; a stack (an array of any shape) gives a
        bool array of its shape, each entry the one-point answer.  A NaN or
        infinite point is outside, and so is None, which numpy converts to NaN.
        """
        point = _plane_points(z)
        inside = _modulus(point) < 1.0  # also rejects nan
        for center, radius in self.hole_circles:
            inside = inside & (_modulus(point - center) > radius)  # the holes are closed
        return inside

    def collar(self, z):
        """Index of the first hole whose collar (the automorphism image of the
        open disc of radius (v+w)/2) holds z, or -1 when none does.

        One point gives an ``int``; a stack gives an int array of its shape,
        each entry the one-point answer.  This is the region test of
        ``excised_domain_lower_bound``: -1 is "far", any other index "near".
        """
        point = _plane_points(z)
        hits = [_modulus(point - center) < radius for center, radius in self.collar_circles]
        if isinstance(point, complex):
            return hits.index(True) if True in hits else -1
        return np.where(np.any(hits, axis=0), np.argmax(hits, axis=0), -1)


def _plane_points(z):
    """One point as a complex number, or a stack as a complex array;
    DomainValidationError for what numpy cannot read as complex numbers."""
    if isinstance(z, (int, float, complex)):  # numpy's float64 and complex128 too; skips np.asarray
        return complex(z)
    try:
        points = np.asarray(z, dtype=complex)
    except (TypeError, ValueError):
        raise DomainValidationError(f"points must be complex numbers, got {z!r}") from None
    return complex(points) if points.ndim == 0 else points


def _plane_point(z) -> complex:
    """One point as a complex number: ShapeMismatch for an array, and
    DomainValidationError for what is not a number; None reads as NaN."""
    point = _plane_points(z)
    if not isinstance(point, complex):
        raise ShapeMismatch(f"the point must be a scalar, got shape {point.shape}")
    return point


def _modulus(z):
    """|z| of a complex number, or of each entry of a complex array, with the
    bits of Python's ``abs`` (the C library's hypot).  ``np.abs`` of a complex
    array rounds otherwise: it differs from ``abs`` in the last bit on about a
    third of random points (numpy 2.4, x86-64)."""
    return abs(z) if isinstance(z, complex) else np.hypot(z.real, z.imag)


def excised_domain_lower_bound(domain: ExcisedDomain, z) -> BoundCertificate:
    """Two-case lower bound on an excised disc.

    Points inside some hole's enlarged collar (automorphism image of the open
    disc of radius (v+w)/2) get the excision constant c(u, (v+w)/2, w);
    points outside every collar are hyperbolically far from the boundary and
    get euclidean_radius(hyperbolic_radius((v+w)/2) - hyperbolic_radius(v)).
    The region is ``domain.collar(z)``.  ``z`` is one point: an array raises
    ShapeMismatch, and a point outside the domain PointNotInDomain.
    """
    point = _plane_point(z)
    if not domain.contains(point):
        raise PointNotInDomain(f"z = {point} is not in the excised domain")
    index = domain.collar(point)
    if index >= 0:
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
        if not _is_integer(self.dimension) or self.dimension < 1:
            raise DomainValidationError("dimension must be a positive integer")
        if not self.punctures:
            raise EmptyList("at least one puncture is required")
        cleaned = [_ball_point(p, self.dimension, "puncture") for p in self.punctures]
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
    vec = _ball_point(z, domain.dimension, "point")
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
    if annulus is not None:
        return annulus.boundary_distance(z)
    return 1.0 - abs(_disc_parameter("point", z))


def caratheodory_lower_estimate(z, squeezing_lower: float, annulus: Annulus | None = None) -> float:
    """Certified lower bound squeezing_lower / (4 delta(z)) for the
    Caratheodory norm of d/dz, via the Koebe one-quarter theorem.

    ``squeezing_lower`` must be a valid lower bound for the squeezing value
    at z; delta is the closed-form boundary distance of the disc or annulus,
    which refuses a z outside its domain.  The estimate diverges as z
    approaches the boundary.
    """
    if not 0.0 < squeezing_lower <= 1.0:
        raise DomainValidationError("squeezing lower bound must lie in (0, 1]")
    return squeezing_lower / (4.0 * boundary_distance(z, annulus))


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
    carries the worst margin (most negative means worst violation); a NaN
    margin fails the report at its point.
    """
    if not constant > 0.0:  # NaN fails too
        raise DomainValidationError("the criterion constant must be positive")
    worst_margin = np.inf
    worst_point = None
    for point in points:
        delta = boundary_distance_fn(point)
        if not 0.0 < delta < 1.0:
            raise DomainValidationError("sample points must have boundary distance in (0, 1)")
        margin = bound_fn(point) - constant / math.log(1.0 / delta)
        if math.isnan(margin):
            return CompletenessReport(False, math.nan, point)
        if worst_point is None or margin < worst_margin:
            worst_margin = margin
            worst_point = point
    if worst_point is None:
        raise EmptyList("at least one sample point is required")
    return CompletenessReport(bool(worst_margin > 0.0), float(worst_margin), worst_point)


def lipschitz_check(squeezing_fn: Callable, distance_fn: Callable, pairs: Iterable) -> bool:
    """Check |s(x) - s(y)| <= 2 * euclidean_radius(distance(x, y)) + TOLERANCE
    for every pair, i.e. the squeezing value is 2-Lipschitz with respect to
    the tanh-compressed invariant distance.

    The pairs are stacked once into an array of shape (k, 2, ...), and each
    function is called once on the stacks x and y of shape (k, ...):
    ``squeezing_fn`` must return k values or one that broadcasts, and so must
    ``distance_fn`` (the ball kernels take stacks).  Each point is a row of
    the stack, so disc points stack to shape (k,), which ``poincare_distance``
    takes point by point but a ball kernel would read as one k-vector; pass
    ball points as vectors.  A NaN gap fails.  No pairs raise EmptyList, and
    pairs that do not stack, or results that are not k values or one,
    ShapeMismatch.
    """
    try:
        stack = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
    except ValueError:
        raise ShapeMismatch("the pairs must be points of one shape") from None
    if stack.shape[:1] == (0,):
        raise EmptyList("at least one pair is required")
    if stack.ndim < 2 or stack.shape[1] != 2:
        raise ShapeMismatch(f"pairs must stack to shape (k, 2, ...), got {stack.shape}")
    x, y = stack[:, 0], stack[:, 1]
    gap = np.abs(squeezing_fn(x) - squeezing_fn(y))
    limit = 2.0 * euclidean_radius(distance_fn(x, y)) + TOLERANCE
    if {np.shape(gap), np.shape(limit)} - {(), (1,), (len(stack),)}:
        raise ShapeMismatch(f"the functions must give {len(stack)} values or one")
    return bool(np.all(gap <= limit))  # a NaN gap fails too
