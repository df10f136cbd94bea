"""Zero counting by the argument principle and injectivity certificates.

The count of zeros of a holomorphic map inside a circle (or inside an
annulus bounded by two circles) is the contour integral of f'/f divided by
2*pi*i, evaluated with the trapezoidal rule on equispaced samples, which is
spectrally accurate for analytic integrands.  Dominance |g| < |f| on the
contour forces f and f + g to enclose equally many zeros.  One kernel,
``_quadrature``, computes this sum one contour at a time.  The boundary
certificate of a Laurent map takes the same sum for f - w0 from the
boundary curves it samples anyway, at two resolutions from one evaluation
(the coarse sum reads the even-indexed nodes).

Injectivity on an annulus is certified by a proof chosen by the input
alone.  A disc automorphism (built by ``disc_automorphism``) is injective
on the whole closed disc, so it is certified without sampling.  A Laurent
map (one that carries its coefficients, as ``laurent_map`` builds it) is
certified from its two boundary curves: no critical point in the annulus
(located by ``np.roots``), and simple, disjoint image curves, each checked
against bounds computed from the coefficients (see
``injectivity_certificate``); its cost depends on the sample count only.
One sampler, ``annulus_basis``, builds the power table of both boundary
circles, here and in ``search``.  Any other map is inconclusive.
"inconclusive" is an allowed terminal state, reported with the test that
failed, and consumers must treat it as unusable, never as a certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainValidationError, GuardViolation, NonIntegerResidual
from .hyperbolic import _disc_points
from .planar import Annulus

#: Minimum allowed |f| (or |f - w|) at contour samples before a count is trusted.
GUARD_THRESHOLD = 1e-9

#: A quadrature value farther than this from an integer signals trouble
#: rather than being silently rounded.
SNAP_WINDOW = 0.1

#: Adaptive sample-doubling cap.
MAX_SAMPLES = 2 ** 16

_STABLE_TOL = 1e-10
_DOMINANCE_SAFETY = 1.05

#: Segment pairs the boundary certificate measures at once.
_PAIR_CHUNK = 1024


@dataclass(frozen=True)
class CircleContour:
    """An oriented circle; orientation +1 is counterclockwise."""

    center: complex = 0j
    radius: float = 1.0
    orientation: int = 1
    samples: int = 64

    def __post_init__(self):
        if not self.radius > 0.0:  # also rejects nan
            raise DomainValidationError("contour radius must be positive")
        if self.orientation not in (1, -1):
            raise DomainValidationError("orientation must be +1 or -1")
        n = self.samples
        if n < 64 or n & (n - 1):
            raise DomainValidationError("samples must be a power of two >= 64")


@dataclass(frozen=True)
class SampledMap:
    """A holomorphic map given by its evaluator and derivative evaluator."""

    evaluator: Callable
    derivative_evaluator: Callable

    @property
    def laurent_coefficients(self) -> np.ndarray | None:
        """c_{-m}..c_m when the evaluator is a Laurent polynomial built by
        ``laurent_map`` (or a ``functools.wraps`` wrapper of one), else None."""
        return getattr(self.evaluator, "laurent_coefficients", None)


@dataclass(frozen=True)
class CountResult:
    """Zero count with the pre-rounding quadrature residual exposed."""

    count: int
    residual: float
    samples: int


@dataclass(frozen=True)
class InjectivityCertificate:
    """Outcome of ``injectivity_certificate``.

    An inconclusive certificate names its failed test in ``reason``.  The
    boundary pass for Laurent maps fills the last three fields.
    ``min_boundary_modulus`` is min |f - w| over the boundary nodes and the
    target w counted (inf when none was).
    """

    status: str  # certified | refuted | inconclusive
    min_boundary_modulus: float
    reason: str | None = None  # set only when inconclusive
    samples: int | None = None  # the boundary curves have 2 * samples nodes each
    tube: float | None = None  # widest chord tube of the two boundary curves
    critical_points: int | None = None  # roots of z^{m+1} f' located in the annulus


def polynomial_map(coefficients) -> SampledMap:
    """Map for sum_k c_k z^k with ``coefficients`` in ascending order."""
    c = np.asarray(coefficients, dtype=complex)
    dc = c[1:] * np.arange(1, len(c))

    def f(z):
        return np.polyval(c[::-1], z)

    def df(z):
        return np.polyval(dc[::-1], z) if len(dc) else np.zeros_like(np.asarray(z))

    return SampledMap(f, df)


def laurent_basis(z, degree: int) -> np.ndarray:
    """Power table z[..., None] ** k for k = -degree..degree along a new last axis.

    A degree-m Laurent map with coefficients c_{-m}..c_m is
    ``laurent_basis(z, m) @ c``; callers that evaluate many coefficient
    vectors on fixed points build the table once and reuse it.
    """
    return np.asarray(z, dtype=complex)[..., None] ** np.arange(-degree, degree + 1)


def annulus_basis(inner_radius: float, samples: int, degree: int, *extra) -> np.ndarray:
    """``laurent_basis`` of equispaced samples of the unit circle, then of the
    circle |z| = inner_radius, then of any ``extra`` points; raises
    DomainValidationError when 1 / inner_radius**degree overflows."""
    # z^{-degree} on the inner circle must stay finite, or every evaluation is NaN
    if inner_radius ** degree == 0.0 or math.isinf(1.0 / inner_radius ** degree):
        raise DomainValidationError(
            f"annulus radius {inner_radius!r} is too small for degree {degree}: 1 / r**{degree} overflows"
        )
    theta = 2.0 * np.pi * np.arange(samples) / samples
    ring = np.exp(1j * theta)
    return laurent_basis(np.concatenate([ring, inner_radius * ring, extra]), degree)


def laurent_map(coefficients) -> SampledMap:
    """Map for sum_{k=-m}^{m} c_k z^k; ``coefficients`` has odd length 2m+1."""
    c = np.asarray(coefficients, dtype=complex)
    if len(c) % 2 == 0:
        raise DomainValidationError("Laurent coefficients must have odd length c_{-m}..c_m")
    m = len(c) // 2
    dc = c * np.arange(-m, m + 1)

    def f(z):
        return laurent_basis(z, m) @ c

    def df(z):
        # sum k c_k z^{k-1}: the powers -m-1..m-1 of the degree-(m+1) table
        return laurent_basis(z, m + 1)[..., :-2] @ dc

    f.laurent_coefficients = c
    return SampledMap(f, df)


def disc_automorphism(a) -> SampledMap:
    """Map for the disc automorphism z -> (z - a)/(1 - conj(a) z), |a| < 1.

    The evaluator carries ``a`` as ``automorphism_parameter``.  Unlike
    ``hyperbolic.mobius_map`` it also evaluates on and beyond |z| = 1, where
    contours lie.
    """
    a = complex(_disc_points("automorphism parameter", a)[0])
    conjugate = a.conjugate()

    def f(z):
        return (z - a) / (1.0 - conjugate * z)

    def df(z):
        return (1.0 - abs(a) ** 2) / (1.0 - conjugate * z) ** 2

    f.automorphism_parameter = a
    return SampledMap(f, df)


def unit_annulus_contours(inner_radius: float, samples: int = 64):
    """Oriented boundary of {inner_radius < |z| < 1}: outer ccw, inner cw."""
    return (
        CircleContour(0j, 1.0, 1, samples),
        CircleContour(0j, Annulus(float(inner_radius)).r, -1, samples),
    )


def _circle_nodes(contour: CircleContour, n: int):
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = contour.radius * np.exp(1j * theta)
    return contour.center + ring, ring


def _as_contours(contours) -> tuple[CircleContour, ...]:
    if isinstance(contours, CircleContour):
        return (contours,)
    return tuple(contours)


def _quadrature(f: SampledMap, contours: Sequence[CircleContour], n: int):
    """Argument-principle sum of f over the oriented contours at n samples per
    contour; raises GuardViolation when min |f| over the samples is at most
    GUARD_THRESHOLD (or NaN).

    The contours are evaluated one at a time, so only one contour's samples
    are alive at once.
    """
    total = 0j
    margin = np.inf
    for contour in contours:
        z, ring = _circle_nodes(contour, n)
        values = np.asarray(f.evaluator(z), dtype=complex)
        derivatives = np.asarray(f.derivative_evaluator(z), dtype=complex)
        del z
        # np.minimum, not min: a NaN margin must survive to fail the guard
        margin = np.minimum(margin, np.abs(values).min())
        # f vanishing on the contour gives a non-finite sum; the guard
        # rejects it, so the arithmetic may proceed silently
        with np.errstate(divide="ignore", invalid="ignore"):
            total += contour.orientation * (derivatives / values * ring).mean()
    if not margin > GUARD_THRESHOLD:  # a NaN margin fails too
        raise GuardViolation(f"|f| = {margin:.3e} <= guard {GUARD_THRESHOLD:.1e} on the contours")
    return total


def zero_count_detailed(f: SampledMap, contours) -> CountResult:
    """Zeros of f (with multiplicity) enclosed by the oriented contours.

    Sample counts are doubled adaptively until the quadrature value
    stabilises, capped at MAX_SAMPLES.  Raises GuardViolation if |f| dips to
    GUARD_THRESHOLD (or is NaN) at any evaluated sample and
    NonIntegerResidual if the settled value is farther than SNAP_WINDOW from
    an integer, or at once when a quadrature value is not finite.
    """
    contour_tuple = _as_contours(contours)
    n = max(c.samples for c in contour_tuple)
    value = _quadrature(f, contour_tuple, n)
    while np.isfinite(value) and n < MAX_SAMPLES:
        n *= 2
        refined = _quadrature(f, contour_tuple, n)
        stable = abs(refined - value) <= _STABLE_TOL
        value = refined
        if stable:
            break
    nearest = np.rint(value.real)
    residual = abs(value - nearest)
    if not residual <= SNAP_WINDOW:  # NaN fails too
        raise NonIntegerResidual(
            f"quadrature value {value:.6g} is {residual:.3g} from the nearest integer"
        )
    return CountResult(int(nearest), float(residual), n)


def zero_count(f: SampledMap, contours) -> int:
    return zero_count_detailed(f, contours).count


def rouche_dominates(f: SampledMap, g: SampledMap, contours) -> bool:
    """True iff max |g| * 1.05 < min |f| over the contour samples.

    When true, f and f + g enclose the same number of zeros.
    """
    contour_tuple = _as_contours(contours)
    n = max(c.samples for c in contour_tuple)
    min_f = np.inf
    max_g = 0.0
    for contour in contour_tuple:
        z, _ = _circle_nodes(contour, n)
        min_f = min(min_f, np.abs(np.asarray(f.evaluator(z))).min())
        max_g = max(max_g, np.abs(np.asarray(g.evaluator(z))).max())
    return bool(max_g * _DOMINANCE_SAFETY < min_f)


def _trusted_count(fine, coarse, margin) -> int | None:
    """The nearest count, trusted only when the guard margin holds and both
    resolutions snap to the same integer within the window; else None."""
    nearest = np.rint(fine.real)
    coarse_nearest = np.rint(coarse.real)
    if (
        margin > GUARD_THRESHOLD
        and abs(fine - nearest) <= SNAP_WINDOW
        and abs(coarse - coarse_nearest) <= SNAP_WINDOW
        and nearest == coarse_nearest
    ):
        return int(nearest)
    return None


def _segment_distances(p1, q1, p2, q2):
    """Distances between the segments p1->q1 and p2->q2 (complex endpoints),
    0 where they cross; NaN for a segment of length 0."""

    def to_segment(x, p, q):
        d = q - p
        t = np.clip(((x - p) * d.conj()).real / (d * d.conj()).real, 0.0, 1.0)
        return np.abs(x - p - t * d)

    def side(d, x):
        return (d.conj() * x).imag

    d1, d2 = q1 - p1, q2 - p2
    with np.errstate(divide="ignore", invalid="ignore"):
        distance = np.minimum(
            np.minimum(to_segment(p1, p2, q2), to_segment(q1, p2, q2)),
            np.minimum(to_segment(p2, p1, q1), to_segment(q2, p1, q1)),
        )
    crossing = (side(d1, p2 - p1) * side(d1, q2 - p1) < 0) & (side(d2, p1 - p2) * side(d2, q1 - p2) < 0)
    return np.where(crossing, 0.0, distance)


def _cell_entries(start, end, tube):
    """(key, segment) pairs, sorted by key, of the uniform cells that each
    segment's box, widened by its tube, overlaps; cells are a little wider
    than the widest box, so a box overlaps at most 2 x 2 of them."""
    sides = []  # per axis, each box's low and high side
    for a, b in ((start.real, end.real), (start.imag, end.imag)):
        low, high = np.minimum(a, b), np.maximum(a, b)
        low -= tube
        high += tube
        sides.append((low, high))
    cell = 1.001 * max((high - low).max() for low, high in sides)
    for low, high in sides:
        origin = low.min()
        for side in (low, high):  # now the index of the cell holding the side
            side -= origin
            side /= cell
            np.floor(side, out=side)
    (x0, x1), (y0, y1) = sides
    span = y1.max() + 1.0
    x0 *= span
    x1 *= span
    # keys x * span + y of the cells (x0, y0), (x0, y1), (x1, y0), (x1, y1):
    # equal cells give equal keys, and were two cells' keys to round
    # together, the walk over equal keys would only check more pairs
    keys = [x0 + y0, x0 + y1, x1 + y0, x1 + y1]
    del sides, x0, x1, y0, y1
    fresh = [keys[1] != keys[0], keys[2] != keys[0], (keys[3] != keys[1]) & (keys[3] != keys[2])]
    segments = np.arange(len(start), dtype=np.int32)
    keys = np.concatenate([keys[0], *(k[mask] for k, mask in zip(keys[1:], fresh))])
    segments = np.concatenate([segments, *(segments[mask] for mask in fresh)])
    order = np.argsort(keys)
    return keys[order], segments[order]


def _curves_apart(nodes, tubes) -> bool:
    """True iff the closed polygons through the rows of ``nodes`` keep every
    two of their segments farther apart than the sum of the segments' tubes,
    except a segment and its two neighbours on the same polygon.

    Segment j of row i runs from nodes[i, j] to nodes[i, j + 1 mod n] and has
    tube tubes[i].  A uniform-cell hash (``_cell_entries``) finds the
    candidate pairs: two segments closer than their tubes share a cell.
    Entries sorted by cell are paired at offsets 1, 2, ... within their
    cell, one offset per pass, and each pass measures its pairs in chunks of
    _PAIR_CHUNK, so memory stays O(nodes); the walk stops at the first chunk
    with a pair too close.
    """
    n = nodes.shape[1]
    start = nodes.ravel()
    end = np.roll(nodes, -1, axis=1).ravel()
    tube = np.repeat(tubes, n)
    keys, segments = _cell_entries(start, end, tube)
    active = np.arange(len(keys) - 1)
    offset = 0
    while len(active):
        offset += 1
        active = active[active + offset < len(keys)]
        active = active[keys[active + offset] == keys[active]]
        for chunk in range(0, len(active), _PAIR_CHUNK):
            pairs = active[chunk:chunk + _PAIR_CHUNK]
            a, b = segments[pairs], segments[pairs + offset]
            gap = (a - b) % n
            neighbours = (a // n == b // n) & ((gap == 1) | (gap == n - 1))
            a, b = a[~neighbours], b[~neighbours]
            distance = _segment_distances(start[a], end[a], start[b], end[b])
            # NaN (a degenerate segment) fails the test too
            if not np.all(distance > tube[a] + tube[b]):
                return False
    return True


#: Allowance, relative to sum |c_k| rho^k (and sum |k c_k| rho^k), for the
#: rounding of a boundary node's value (and derivative).
_ROUNDING = 1e-12


def _roots(p: np.ndarray) -> np.ndarray:
    """Roots of sum_j p_j z^j, the eigenvalues of its companion matrix
    (``np.roots``); none when that matrix is not finite.  A root is only a
    candidate: callers confirm each by a zero count."""
    try:
        return np.roots(p[::-1])
    except np.linalg.LinAlgError:  # a coefficient is inf or NaN, or a quotient overflows
        return np.zeros(0, dtype=complex)


def _boundary_certificate(c: np.ndarray, inner_radius: float, samples: int):
    """Boundary certificate of the Laurent map f = sum c_k z^k; see
    ``injectivity_certificate``."""
    m = len(c) // 2
    k = np.arange(-m, m + 1)

    def outcome(status, margin=np.inf, reason=None, tube=None, critical=None):
        return InjectivityCertificate(status, float(margin), reason, samples, tube, critical)

    # z^{m+1} f'(z) = sum_k k c_k z^{k+m} shares the zeros of f' in the annulus.
    # Its roots only locate them; a refutation needs a trusted count on a disc
    # inside the annulus, which settles at a few hundred samples however
    # close the root sits to a boundary circle
    critical_polynomial = polynomial_map(k * c)
    roots = _roots(k * c)
    inside = roots[(np.abs(roots) > inner_radius) & (np.abs(roots) < 1.0)]
    critical = len(inside)
    for root in inside:
        radius = 0.5 * min(abs(root) - inner_radius, 1.0 - abs(root))
        try:
            if zero_count_detailed(critical_polynomial, CircleContour(complex(root), radius)).count >= 1:
                return outcome("refuted", critical=critical)
        except (GuardViolation, NonIntegerResidual):
            continue
    if critical:
        return outcome("inconclusive", reason="critical points without a trusted count", critical=critical)

    n = 2 * samples
    basis = annulus_basis(inner_radius, n, m)
    nodes = (basis @ c).reshape(2, n)
    tangents = (basis @ (1j * k * c)).reshape(2, n)  # dT/dtheta = i z f'(z)
    del basis

    # preimages of w0 = f(sqrt r): the winding number of the outer curve about
    # w0 less that of the inner one; z f'(z) / (f(z) - w0) = T' / (i (T - w0))
    w0 = laurent_basis(math.sqrt(inner_radius), m) @ c
    margin = np.abs(nodes - w0).min()
    with np.errstate(divide="ignore", invalid="ignore"):  # T = w0 at a node fails the margin
        winding = tangents / (1j * (nodes - w0))
    fine, coarse = (winding[0, ::stride].mean() - winding[1, ::stride].mean() for stride in (1, 2))
    count = _trusted_count(fine, coarse, margin)
    if count is not None and count >= 2:
        return outcome("refuted", margin, critical=critical)
    if count != 1:
        count = "untrusted" if count is None else count
        return outcome("inconclusive", margin, f"preimages of f(sqrt r): {count}", critical=critical)

    step = 2.0 * np.pi / n
    radii = np.array([1.0, inner_radius])
    scale = np.abs(c) * radii[:, None] ** k  # |c_k| rho^k, one row per circle
    # T(theta) = f(rho e^{i theta}) and its derivatives are trigonometric
    # polynomials: |T''| <= sum k^2 |c_k| rho^k on the whole circle
    second = scale @ (k * k)
    tubes = step * step / 8.0 * second + _ROUNDING * scale.sum(axis=1)
    tube = float(tubes.max())
    speed = np.abs(tangents) - _ROUNDING * (scale @ np.abs(k))[:, None]
    if not np.all(speed - step * second[:, None] > 2.0 * step * second[:, None]):
        return outcome("inconclusive", margin, "boundary curves not locally injective", tube, critical)
    # each step turns the tangent by less than pi, so these are the exact turning numbers
    turning = np.rint(np.angle(np.roll(tangents, -1, axis=1) / tangents).sum(axis=1) / (2.0 * np.pi))
    if turning[0] != turning[1]:
        return outcome("inconclusive", margin, "turning numbers differ", tube, critical)
    if not _curves_apart(nodes, tubes):
        return outcome("inconclusive", margin, "boundary curves closer than their tubes", tube, critical)
    return outcome("certified", margin, tube=tube, critical=critical)


def injectivity_certificate(
    f: SampledMap,
    annulus,
    target_grid: int = 16,
    samples: int = 2048,
) -> InjectivityCertificate:
    """Injectivity check for f on the annulus {r < |z| < 1}.

    ``annulus`` may be the inner radius itself or any object with an ``r``
    attribute.  ``target_grid`` is not read; it stays in the signature for
    the callers that pass it.  The proof is chosen by the input alone, a
    refutation rests only on trusted counts, and "inconclusive" names the
    test that failed in ``reason``.  An r outside (0, 1) or ``samples`` below
    1 raises DomainValidationError.

    **Disc automorphisms** (built by ``disc_automorphism``): certified
    without sampling, and ``min_boundary_modulus`` is inf.  For |a| < 1 the
    pole 1/conj(a) of phi_a(z) = (z - a)/(1 - conj(a) z) lies outside the
    closed unit disc, |phi_a| = 1 on |z| = 1, and phi_{-a} inverts phi_a, so
    phi_a maps the closed disc bijectively onto itself and is injective on
    every annulus inside it.

    **Laurent maps** (``f.laurent_coefficients`` is set): the boundary pass.
    Refutations first, cheapest first:

    1. the roots of z^{m+1} f'(z) = sum_k k c_k z^{k+m}, found by
       ``np.roots`` (none when a coefficient is not finite), locate the
       critical points; for each one inside the annulus,
       ``zero_count_detailed`` counts the zeros on the disc around it of
       half its distance to the boundary circles, and a count >= 1 refutes
       (f is k-to-1 near a critical point).  When no such count is >= 1 (a
       guard violation, an unsettled count) the map is inconclusive;
    2. both image curves T(theta) = f(rho e^{i theta}), rho = 1 and r, and
       their tangents are sampled once, at 2*samples nodes with step h, from
       one ``annulus_basis`` (which rejects an r whose 1 / r**m overflows); the
       preimages of w0 = f(sqrt r) are the winding number of the outer curve
       about w0 less that of the inner one, summed over all nodes and again
       over the even nodes.  A trusted count >= 2 refutes, and any other
       count but 1 is inconclusive.

    Then the same samples give the proof.  T is a trigonometric polynomial,
    so |T''| <= M = sum k^2 |c_k| rho^k on the whole circle, and each arc
    between nodes lies within the tube h^2 M / 8 of its chord (plus a
    rounding allowance).  The map is certified only when
    (a) every node has |T'| - h M > 2 h M: T' then moves by at most h M
        within a step, T is injective on every two consecutive steps, and the
        tangent turns by less than pi per step, so the sampled turning
        numbers are exact, and they must agree;
    (b) every two segments that are not neighbours on one curve, and every
        pair across the two curves, lie farther apart than their two tubes
        (a uniform-cell hash walks the candidate pairs, O(samples) memory).
    A crossing found this way is only ever inconclusive, never a refutation.

    Why (a) and (b) prove injectivity: f - w has wind(T_1, w) - wind(T_r, w)
    zeros in the annulus for w off the curves.  The turning number of T_rho
    is 1 plus the winding of f' around |z| = rho, so agreeing turning numbers
    mean f' has no zero in the annulus; step 1 only ever refutes.  By (a) and
    (b) both curves are simple, regular, closed and disjoint; by the
    Umlaufsatz each turning number is the winding number, +-1, about every
    point the curve encloses and 0 outside, and both are the same sign e.
    Each winding number is 0 or e, so the difference is at most 1: no w off
    the curves has two preimages, and by the open mapping theorem neither
    has any w on them.

    **Other maps** are inconclusive: no proof applies to a bare evaluator.
    """
    inner_radius = Annulus(float(getattr(annulus, "r", annulus))).r
    if not samples >= 1:  # also rejects nan
        raise DomainValidationError(f"samples must be a positive integer, got {samples!r}")
    if getattr(f.evaluator, "automorphism_parameter", None) is not None:
        return InjectivityCertificate("certified", math.inf)
    coefficients = f.laurent_coefficients
    if coefficients is not None:
        return _boundary_certificate(coefficients, inner_radius, int(samples))
    return InjectivityCertificate(
        "inconclusive", math.inf, "no certificate for this map: build it with laurent_map or disc_automorphism"
    )
