"""Zero counting by the argument principle and injectivity certificates.

The count of zeros of a holomorphic map inside a circle (or inside an
annulus bounded by two circles) is the contour integral of f'/f divided by
2*pi*i, evaluated with the trapezoidal rule on equispaced samples, which is
spectrally accurate for analytic integrands.  Dominance |g| < |f| on the
contour forces f and f + g to enclose equally many zeros.  One kernel,
``_quadrature``, computes this sum one contour at a time; the nodes of one
level are the even nodes of the next, so each doubling evaluates only the
new odd nodes and interleaves them with the integrands it kept.  The
boundary certificate of a Laurent map counts windings without quadrature:
``_winding`` counts the chords of a sampled curve that cross a ray, and
trusts the count only when every node lies farther from the centre than
its curve's reach, which bounds each step; the certificate proves the
reach from the coefficients for all three of its counts, the zeros of f'
near each located critical point, the preimages of f(sqrt r) and the
turning numbers.

Injectivity on an annulus is certified by a proof chosen by the input
alone.  A disc automorphism (built by ``disc_automorphism``) is injective
on the whole closed disc, so it is certified without sampling.  A Laurent
map (one that carries its coefficients, as ``laurent_map`` builds it) is
certified from its two boundary curves: no critical point in the annulus
(located by ``np.roots``, confirmed by a winding count), and simple,
disjoint image curves, each checked against bounds computed from the
coefficients (see ``injectivity_certificate``).  The curves' separation
is decided from the coefficients in O(m) when one term, c_1 z or c_-1 / z,
dominates (``_curves_apart_by_coefficients``); otherwise the segment-pair
walk tests only the pairs whose tube-widened boxes overlap, each listed
once (``_curves_apart``), at a cost set by the sample count.  One sampler,
``annulus_basis``, builds the power table of both boundary circles, here and
in ``search``, one complex product per power (``laurent_basis``).  Any
other map is inconclusive.
"inconclusive" is an allowed terminal state, reported with the test that
failed, and consumers must treat it as unusable, never as a certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainValidationError, EmptyList, GuardViolation, NonIntegerResidual
from .hyperbolic import _disc_parameter, _is_integer
from .planar import Annulus

#: Minimum allowed |f| at the contour samples before ``zero_count_detailed`` trusts a count.
GUARD_THRESHOLD = 1e-9

#: A quadrature value farther than this from an integer signals trouble
#: rather than being silently rounded.
SNAP_WINDOW = 0.1

#: Adaptive sample-doubling cap.
MAX_SAMPLES = 2 ** 16

_STABLE_TOL = 1e-10
_DOMINANCE_SAFETY = 1.05

#: Segment pairs the boundary certificate builds and measures at once, unless
#: one segment alone overlaps more on x.
_PAIR_CHUNK = 2 ** 14

#: Offsets in x order that the boundary certificate tests over all segment
#: boxes at once; a box that overlaps more boxes on x goes on in blocks.
_OFFSETS = 6


@dataclass(frozen=True)
class CircleContour:
    """An oriented circle; orientation +1 is counterclockwise."""

    center: complex = 0j
    radius: float = 1.0
    orientation: int = 1
    samples: int = 64

    def __post_init__(self):
        if not (isinstance(self.center, (complex, float, int, np.number)) and np.isfinite(self.center)):
            raise DomainValidationError("contour centre must be a finite number")
        if not self.radius > 0.0:  # also rejects nan
            raise DomainValidationError("contour radius must be positive")
        if self.orientation not in (1, -1):
            raise DomainValidationError("orientation must be +1 or -1")
        n = self.samples
        if not _is_integer(n) or n < 64 or n & (n - 1):
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
    vectors on fixed points build the table once and reuse it.  The table
    is built power by power and returned as a view whose last axis has the
    largest stride (column-major for a vector z): each power is one
    contiguous run, which the matrix-vector product reads faster than rows
    of 2m+1 entries, and every caller shares that one layout, so equal
    inputs give equal bits.

    Each power is one complex product, z^k = z^(k-1) z and
    z^(-k) = z^(-(k-1)) z^(-1) with z^(-1) = 1 / z, so the error grows like
    |k| ulps, as with numpy's complex ``pow``: 3.2-3.6 |k| ulps against the
    exact powers of ``annulus_basis`` nodes up to degree 32, most of it the
    nodes' own rounding.  Out of range the products follow IEEE arithmetic:
    at 0 the negative powers are not finite (1 / 0 is inf + nan j); a power
    beyond the double range is inf and one below it is 0, so 1e200 gives
    z^-2 = 0; at inf the negative powers are 0 and z^2 is inf + nan j; NaN
    gives NaN in every power but z^0 = 1.
    """
    z = np.asarray(z, dtype=complex)
    table = np.empty((2 * degree + 1, *z.shape), dtype=complex)
    table[degree, ...] = 1.0
    if degree:
        table[degree + 1, ...] = z
        np.divide(1.0, z, out=table[degree - 1, ...])
    for k in range(2, degree + 1):
        np.multiply(table[degree + k - 1, ...], z, out=table[degree + k, ...])
        np.multiply(table[degree - k + 1, ...], table[degree - 1, ...], out=table[degree - k, ...])
    return np.moveaxis(table, 0, -1)


def annulus_basis(inner_radius: float, samples: int, degree: int, *extra) -> np.ndarray:
    """``laurent_basis`` of equispaced samples of the unit circle, then of the
    circle |z| = inner_radius, then of any ``extra`` points; raises
    DomainValidationError when 1 / inner_radius**degree overflows.

    The table is column-major, as ``laurent_basis`` builds it: one
    contiguous column per power, which ``table @ c`` over thousands of nodes
    reads faster than short rows, and it gives the same bits as
    ``laurent_map(c).evaluator`` on the same nodes.
    """
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
    a = _disc_parameter("automorphism parameter", a)
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


def _circle_nodes(contour: CircleContour, n: int, odd: bool = False):
    """The n equispaced nodes of the contour, or only its odd-indexed ones;
    node j has the bits of node j / 2 at n / 2 samples when j is even."""
    theta = 2.0 * np.pi * (np.arange(1, n, 2) if odd else np.arange(n)) / n
    ring = contour.radius * np.exp(1j * theta)
    return contour.center + ring, ring


def _as_contours(contours) -> tuple[tuple[CircleContour, ...], int]:
    """The contours as a tuple, and the most samples any of them asks for;
    raises EmptyList when there is none."""
    contour_tuple = (contours,) if isinstance(contours, CircleContour) else tuple(contours)
    if not contour_tuple:
        raise EmptyList("at least one contour is required")
    return contour_tuple, max(c.samples for c in contour_tuple)


def _quadrature(f: SampledMap, contours: Sequence[CircleContour], n: int, integrands: list):
    """Argument-principle sum of f over the oriented contours at n samples per
    contour; raises GuardViolation when min |f| over the new samples is at
    most GUARD_THRESHOLD (or NaN).

    ``integrands`` holds each contour's integrands f' / f * (z - center) of
    the previous level, n / 2 samples, whose nodes are the even nodes at n;
    only the odd nodes are evaluated and interleaved with them, and the list
    is refilled with the n integrands.  An empty list evaluates every node.
    The contours are evaluated one at a time, so one contour's samples, plus
    each contour's integrands of the previous level, are alive at once.
    """
    refine = bool(integrands)
    total = 0j
    margin = np.inf
    for i, contour in enumerate(contours):
        z, ring = _circle_nodes(contour, n, odd=refine)
        values = np.asarray(f.evaluator(z), dtype=complex)
        derivatives = np.asarray(f.derivative_evaluator(z), dtype=complex)
        del z
        # np.minimum, not min: a NaN margin must survive to fail the guard
        margin = np.minimum(margin, np.abs(values).min())
        # f vanishing on the contour gives a non-finite sum; the guard
        # rejects it, so the arithmetic may proceed silently
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = derivatives / values * ring
        del values, derivatives, ring
        if refine:
            full = np.empty(n, dtype=complex)
            full[0::2], full[1::2] = integrands[i], integrand
            integrands[i] = integrand = full
        else:
            integrands.append(integrand)
        total += contour.orientation * integrand.mean()
    if not margin > GUARD_THRESHOLD:  # a NaN margin fails too
        raise GuardViolation(f"|f| = {margin:.3e} <= guard {GUARD_THRESHOLD:.1e} on the contours")
    return total


def zero_count_detailed(f: SampledMap, contours) -> CountResult:
    """Zeros of f (with multiplicity) enclosed by the oriented contours.

    Sample counts are doubled adaptively until the quadrature value
    stabilises, capped at MAX_SAMPLES.  Each doubling keeps every contour's
    integrands and evaluates only the new odd nodes, so one contour's
    samples, plus each contour's integrands of the previous level, are alive
    at once; when f and f' compute each node alone (as ``polynomial_map``
    and elementwise maps do), every sum and margin has the bits of a fresh
    evaluation of all nodes.  Raises GuardViolation if |f| dips to
    GUARD_THRESHOLD (or is NaN) at any evaluated sample and
    NonIntegerResidual if the settled value is farther than SNAP_WINDOW from
    an integer, or at once when a quadrature value is not finite; EmptyList
    when no contour is given.
    """
    contour_tuple, n = _as_contours(contours)
    integrands = []
    value = _quadrature(f, contour_tuple, n, integrands)
    while np.isfinite(value) and n < MAX_SAMPLES:
        n *= 2
        refined = _quadrature(f, contour_tuple, n, integrands)
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

    When true, f and f + g enclose the same number of zeros.  No contour
    raises EmptyList.
    """
    contour_tuple, n = _as_contours(contours)
    min_f = np.inf
    max_g = 0.0
    for contour in contour_tuple:
        z, _ = _circle_nodes(contour, n)
        # np.minimum and np.maximum, not min and max: a NaN must fail the test
        min_f = np.minimum(min_f, np.abs(np.asarray(f.evaluator(z))).min())
        max_g = np.maximum(max_g, np.abs(np.asarray(g.evaluator(z))).max())
    return bool(max_g * _DOMINANCE_SAFETY < min_f)


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


def _segments(nodes):
    """The starts and ends of the segments of the closed polygons through the
    rows of ``nodes`` (segment j of row i runs from nodes[i, j] to
    nodes[i, j + 1 mod n]), flattened row by row; None when a segment's
    squared length is 0, infinite or NaN, so that it cannot be measured."""
    start = nodes.ravel()
    end = np.roll(nodes, -1, axis=1).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        squared = np.square(end.real - start.real) + np.square(end.imag - start.imag)
    if not np.all((squared > 0.0) & (squared < np.inf)):  # NaN fails too
        return None
    return start, end


def _curves_apart(nodes, tubes) -> bool:
    """True iff the closed polygons through the rows of ``nodes`` keep every
    two of their segments farther apart than the sum of the segments' tubes,
    except a segment and its two neighbours on the same polygon.

    Segment j of row i runs from nodes[i, j] to nodes[i, j + 1 mod n] and has
    tube tubes[i], a finite number >= 0.  A segment whose squared length is
    0, infinite or NaN cannot be measured (``_segments``), so it fails at
    once.  Two segments whose boxes, each widened by its own tube, are apart
    on x or on y are farther apart than their tubes; on the certificate's
    curves, rounding the box sides costs a few ulps of
    |T| <= sum |c_k| rho^k, far inside the rounding allowance that each tube
    already carries.

    The boxes are sorted once by their low x side.  In that order a box at
    position i overlaps on x a later box at i + d exactly when
    lx[i + d] <= hx[i] (the later box's low x side is at least lx[i]), and
    since lx only grows, the boxes it overlaps on x are those at offsets
    1..count[i], with no gap.  So every pair that overlaps on x is listed
    exactly once: offsets 1.._OFFSETS are tested over the whole order at
    once, each as two contiguous slices, and only the boxes that still
    overlap on x at offset _OFFSETS go on to their offsets
    _OFFSETS + 1..count[i], in blocks of at most _PAIR_CHUNK pairs (or of one
    box's pairs), so memory stays O(nodes).  Each listed pair apart on y is
    dropped, and so is each pair of curve neighbours: ``successor`` holds the
    position of the next segment on the same curve, and two segments are
    neighbours when either one is the other's successor.  The rest are
    measured; the walk stops at the first offset or block with a pair too
    close.
    """
    segments = _segments(nodes)
    if segments is None:
        return False
    start, end = segments
    rows, n = nodes.shape
    tube = np.repeat(tubes, n)
    boxes = []
    for a, b in ((start.real, end.real), (start.imag, end.imag)):
        boxes += [np.minimum(a, b) - tube, np.maximum(a, b) + tube]
    # any order by low x lists the same pairs; a stable sort is the fastest,
    # as the boxes arrive in a few monotone runs along each curve
    segment = np.argsort(boxes[0], kind="stable")
    lx, hx, ly, hy = (side[segment] for side in boxes)
    del boxes
    size = len(segment)
    position = np.arange(size)
    rank = np.empty_like(position)
    rank[segment] = position
    # successor[i]: the position of the segment after segment[i] on its curve
    successor = rank[np.roll(position.reshape(rows, n), -1, axis=1).ravel()[segment]]

    def apart(a, b, near):
        """Whether the pairs (a, b) of sorted positions (slices or arrays)
        that ``near`` marks, and that are neither apart on y nor neighbours,
        are farther apart than their tubes."""
        near &= ~((hy[a] < ly[b]) | (hy[b] < ly[a]))
        near &= (successor[a] != position[b]) & (successor[b] != position[a])
        p, q = segment[a][near], segment[b][near]
        return not len(p) or np.all(_segment_distances(start[p], end[p], start[q], end[q]) > tube[p] + tube[q])

    for d in range(1, min(_OFFSETS, size - 1) + 1):
        a, b = slice(0, size - d), slice(d, size)
        if not apart(a, b, lx[b] <= hx[a]):
            return False
    # the boxes that overlap on x the box _OFFSETS after them; the count[i]
    # pairs of busy[i] are its offsets _OFFSETS + 1.. in order, pair g of
    # the walk belongs to busy[i] with ends[i - 1] <= g < ends[i], and its
    # later box is g + shift[i]
    busy = np.flatnonzero(lx[_OFFSETS:] <= hx[: max(size - _OFFSETS, 0)])
    first = busy + _OFFSETS + 1
    count = np.searchsorted(lx, hx[busy], side="right") - first
    ends = np.cumsum(count)
    shift = first - (ends - count)
    box = done = 0
    while box < len(busy):
        # the pairs of busy[box:stop]: at most _PAIR_CHUNK, or one box's
        stop = max(box + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
        k = np.repeat(np.arange(box, stop), count[box:stop])
        b = np.arange(done, ends[stop - 1]) + shift[k]
        box, done = stop, ends[stop - 1]
        if not apart(busy[k], b, np.ones(len(b), dtype=bool)):
            return False
    return True


#: Allowance, relative to sum |c_k| rho^k (and sum |k c_k| rho^k), for the
#: rounding of a boundary node's value (and derivative), and relative to
#: sum |p_j| R^j for a value of p = z^{m+1} f' near a critical point.
_ROUNDING = 1e-12

#: Entries from which OpenBLAS hands a complex matrix-vector product to its
#: threads; a smaller product runs on the calling thread.
_SERIAL_ENTRIES = 4096


def _table_product(table: np.ndarray, vector: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``table @ vector`` for an (N, K) power table, written into ``out`` (a
    new array when None) and returned, in blocks of rows that each hold
    fewer than ``_SERIAL_ENTRIES`` entries, so the BLAS multiplies every
    block on the calling thread.

    Threads do not pay on a certificate's or a search's table: OpenBLAS's
    helper thread spins between products and holds a second core, and beside
    any other busy process each product waits for it (at two BLAS threads
    one such process cut the certificates' throughput by more than half).
    Where the threads split the rows, the last bit of a few values also
    depends on the thread count.  The BLAS kernel takes rows in fours and a
    remainder apart, and every block starts at a multiple of 4 rows, so each
    value has the bits that one single-threaded product of the whole table
    gives it.
    """
    n, k = table.shape
    rows = 4 * max(1, (_SERIAL_ENTRIES - 1) // (4 * k))
    whole = n - n % rows
    if out is None:
        out = np.empty(n, dtype=np.result_type(table, vector))
    np.matmul(table[:whole].reshape(-1, rows, k), vector, out=out[:whole].reshape(-1, rows))
    np.matmul(table[whole:], vector, out=out[whole:])
    return out


def _roots(p: np.ndarray) -> np.ndarray:
    """Roots of sum_j p_j z^j, the eigenvalues of its companion matrix
    (``np.roots``); none when that matrix is not finite.  A root is only a
    candidate: callers confirm each by a winding count (``_disc_has_zero``)."""
    try:
        return np.roots(p[::-1])
    except np.linalg.LinAlgError:  # a coefficient is inf or NaN, or a quotient overflows
        return np.zeros(0, dtype=complex)


def _winding(values: np.ndarray, reach):
    """Winding numbers about 0 of the closed polygons through the rows of
    ``values``, or None unless every node of each row lies farther from 0
    than that row's ``reach`` (a NaN fails); and each row's least |value|.

    A winding is the signed count of chords that cross the negative real
    axis (+1 from imag >= 0 to imag < 0), each on the side of its first
    node.  It is the winding number of every closed curve through the nodes
    whose step from each node a lies, with its chord, in a disc around a of
    radius below |a|: a chord there that changes the sign of imag meets the
    real axis at an x with |x - a| < |a|, so of the sign of Re a.  Only the
    signs of the parts are read, and rounding a difference keeps them.
    Callers bound each step and chord by the row's reach.
    """
    distance = np.abs(values).min(axis=1)
    if not np.all(distance > reach):
        return None, distance
    below = values.imag < 0.0
    crossing = (np.roll(below, -1, axis=1) != below) & (values.real < 0.0)
    return crossing.sum(axis=1) - 2 * (crossing & below).sum(axis=1), distance


def _disc_has_zero(p: np.ndarray, centre: complex, radius: float) -> bool:
    """True when p(z) = sum_j p_j z^j has a zero in |z - centre| < radius by a
    trusted count: the winding about 0 of p at n equispaced nodes of the
    circle, counted by ``_winding``, from n = 64 doubling up to MAX_SAMPLES
    until the count is trusted.  False when the count is 0 or never trusted.

    The count is trusted when every node value lies farther from 0 than the
    reach h rho L + e, with h = 2 pi / n, rho = radius, R = |centre| + rho,
    L = sum_j j |p_j| R^(j-1), S = sum_j |p_j| R^j and
    e = ``_ROUNDING`` max(1, d / 100) S, where d = len(p) - 1 bounds the
    degree of p.  Proof: on the circle P(theta) = p(centre + rho e^{i theta})
    has |P'| = rho |p'| <= rho L, so within a step P stays within h rho L of
    its value at the step's first node.  Each computed value is within e / 2
    of P at its node, whatever d is: the computed node lies within
    (4 pi + 5) u R of the exact one (u = 2^-53; the angle, the exponential,
    the product and the sum), which moves p by at most 18 u R L <= 18 d u S,
    and Horner's rule in complex arithmetic adds at most 4 d u S (Higham,
    products within sqrt(2) gamma_2); 22 d u S is at most e / 4.  The
    reach's own rounding takes less than the rest: its sum h rho L rounds
    within (d + 6) u of itself, and a trusted count puts it below
    |P| <= S, so within (d + 6) u S < e / 8.  So each step of P from a node,
    and the chord of the computed nodes, lie within h rho L + e of the
    computed value at the step's first node, which the trust test puts
    farther from 0: the crossing count is the winding of P, which is the
    number of zeros inside by the argument principle.  The reach and |p|
    both scale with p, so the outcome does not depend on the scale of p.
    """
    j = np.arange(len(p))
    scale = np.abs(p) * (abs(centre) + radius) ** j  # |p_j| R^j
    rounding = _ROUNDING * max(1.0, (len(p) - 1) / 100) * scale.sum()
    n = 64
    while n <= MAX_SAMPLES:
        step = 2.0 * np.pi / n
        values = np.polyval(p[::-1], centre + radius * np.exp(1j * step * np.arange(n)))
        zeros, _ = _winding(values[None], step * radius / (abs(centre) + radius) * (scale @ j) + rounding)
        if zeros is not None:
            return bool(zeros[0] >= 1)
        n *= 2
    return False


def _curves_apart_by_coefficients(scale: np.ndarray, step: float) -> bool:
    """True when the coefficients alone prove the predicate of
    ``_curves_apart`` for the boundary curves of ``_boundary_certificate``,
    sampled at 2 pi / step nodes each with tubes h^2 M / 8 + e (h = step),
    once their segments can be measured (``_segments``); False leaves the
    question to the segment-pair walk.

    ``scale`` holds a_k = |c_k| rho^k, k = -m..m (m >= 1), one row per
    circle, rho = 1 and r.  On each circle let S = sum a_k, L = sum |k| a_k,
    M = sum k^2 a_k, e = ``_ROUNDING`` S, D = max(a_-1, a_1), U = S - a_0
    and s = h^2 M / 2 + 4 e.  The test is
        2 (2D - L) sin(h / 2) > s on each circle, and
        max(2D_1 - U_1 - U_r, 2D_r - U_r - U_1) > s_1 + s_r.

    Proof.  T(theta) = sum c_k rho^k e^{ik theta}, and
    |e^{ik theta} - e^{ik phi}| <= |k| |e^{i theta} - e^{i phi}|, so the term
    p = +-1 with a_p = D gives |T(theta) - T(phi)| >=
    (2D - L) |e^{i theta} - e^{i phi}| and 2D - U <= |T - c_0| <= U.  Each
    node rounds within e / 2 while m <= 800 (about 3.6 |k| ulps per power,
    see ``laurent_basis``, plus the product's rounding), so a point of a
    computed segment lies within e / 2 of the exact chord, within
    h^2 M / 8 + e / 2 of the chord's arc (|T''| <= M), and within U + e / 2
    of c_0 (the chord lies in the disc).  Two segments of one curve that are
    not neighbours cover arcs at least h apart in angle, whose points lie at
    least 2 sin(h / 2) apart on the circle, so the segments lie farther
    apart than 2 (2D - L) sin(h / 2) - h^2 M / 4 - e > h^2 M / 4 + 3 e: both
    tubes and e.  Across the curves, when 2D_1 - U_1 > U_r, a point of an
    outer segment lies at least 2D_1 - U_1 - h^2 M_1 / 8 - e_1 / 2 from c_0
    and one of an inner segment at most U_r + e_r / 2, which leaves both
    tubes and 2.5 (e_1 + e_r); the other way round likewise.  The spare e
    covers the test's own rounding: each a_k rounds within 3 ulps and each
    sum within 2m + 5 ulps of its terms, and on acceptance L < 2D <= 2S, so
    the first test's sides move by at most h (8m + 40) u S, under 0.9 e
    while m <= 600 (u = 2^-53; the test fails at h = pi, since
    M >= D >= 2D - L, so h <= pi / 2), and the second's by less; the rest
    exceeds the walk's own rounding of a distance, a few ulps of S.  A NaN
    or infinite sum fails.
    """
    m = scale.shape[1] // 2
    k = np.arange(-m, m + 1)
    size = scale.sum(axis=1)
    slack = step * step / 2.0 * (scale @ (k * k)) + 4.0 * _ROUNDING * size
    double = 2.0 * np.maximum(scale[:, m - 1], scale[:, m + 1])  # 2D
    radius = size - scale[:, m]  # U >= |T - c_0|
    simple = 2.0 * math.sin(step / 2.0) * (double - scale @ np.abs(k)) > slack
    return bool(simple.all() and (double - radius.sum()).max() > slack.sum())


def _boundary_certificate(c: np.ndarray, inner_radius: float, samples: int):
    """Boundary certificate of the Laurent map f = sum c_k z^k; see
    ``injectivity_certificate``."""
    m = len(c) // 2
    k = np.arange(-m, m + 1)

    def outcome(status, margin=np.inf, reason=None, tube=None, critical=None):
        return InjectivityCertificate(status, float(margin), reason, samples, tube, critical)

    # z^{m+1} f'(z) = sum_k k c_k z^{k+m} shares the zeros of f' in the annulus.
    # Its roots only locate them; a refutation needs a trusted winding count
    # on a disc inside the annulus
    roots = _roots(k * c)
    inside = roots[(np.abs(roots) > inner_radius) & (np.abs(roots) < 1.0)]
    critical = len(inside)
    if any(_disc_has_zero(k * c, a, 0.5 * min(abs(a) - inner_radius, 1.0 - abs(a))) for a in inside):
        return outcome("refuted", critical=critical)
    if critical:
        return outcome("inconclusive", reason="critical points without a trusted count", critical=critical)

    n = 2 * samples
    basis = annulus_basis(inner_radius, n, m)
    nodes = _table_product(basis, c).reshape(2, n)
    tangents = _table_product(basis, 1j * k * c).reshape(2, n)  # dT/dtheta = i z f'(z)
    del basis

    step = 2.0 * np.pi / n
    radii = np.array([1.0, inner_radius])
    scale = np.abs(c) * radii[:, None] ** k  # |c_k| rho^k, one row per circle
    size = scale.sum(axis=1)  # >= |T| on each circle
    lipschitz = scale @ np.abs(k)  # >= |T'| on each circle
    # preimages of w0 = f(sqrt r): the winding number of the outer curve about
    # w0 less that of the inner one, exact when every node of each curve is
    # farther from w0 than that curve's reach (a NaN distance fails)
    w0 = laurent_basis(math.sqrt(inner_radius), m) @ c
    winding, distance = _winding(nodes - w0, step * lipschitz + _ROUNDING * (2.0 * size + size.max()))
    margin = distance.min()
    if winding is None:
        return outcome("inconclusive", margin, "preimages of f(sqrt r): untrusted", critical=critical)
    count = int(winding[0] - winding[1])
    if count >= 2:
        return outcome("refuted", margin, critical=critical)
    if count != 1:
        return outcome("inconclusive", margin, f"preimages of f(sqrt r): {count}", critical=critical)

    # T(theta) = f(rho e^{i theta}) and its derivatives are trigonometric
    # polynomials: |T''| <= sum k^2 |c_k| rho^k on the whole circle
    second = scale @ (k * k)
    tubes = step * step / 8.0 * second + _ROUNDING * size
    tube = float(tubes.max())
    # the turning number is the winding of T' about 0: within a step T'
    # stays within h M of its first node, which is above 3 h M (a NaN fails)
    turning, _ = _winding(tangents, 3.0 * step * second + _ROUNDING * lipschitz)
    if turning is None:
        return outcome("inconclusive", margin, "boundary curves not locally injective", tube, critical)
    if turning[0] != turning[1]:
        return outcome("inconclusive", margin, "turning numbers differ", tube, critical)
    # the coefficients decide most maps in O(m); the segment-pair walk takes
    # the rest, and either way every segment must be measurable
    by_coefficients = _curves_apart_by_coefficients(scale, step) and _segments(nodes) is not None
    if not (by_coefficients or _curves_apart(nodes, tubes)):
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
    test that failed in ``reason``.  An r outside (0, 1), or a ``samples``
    that is not an integer of at least 1 (a float or a bool is refused; numpy
    integers are accepted) raises DomainValidationError.

    **Disc automorphisms** (built by ``disc_automorphism``): certified
    without sampling, and ``min_boundary_modulus`` is inf.  For |a| < 1 the
    pole 1/conj(a) of phi_a(z) = (z - a)/(1 - conj(a) z) lies outside the
    closed unit disc, |phi_a| = 1 on |z| = 1, and phi_{-a} inverts phi_a, so
    phi_a maps the closed disc bijectively onto itself and is injective on
    every annulus inside it.

    **Laurent maps** (``f.laurent_coefficients`` is set): the boundary pass.
    Refutations first, cheapest first:

    1. the roots of p(z) = z^{m+1} f'(z) = sum_k k c_k z^{k+m}, found by
       ``np.roots`` (none when a coefficient is not finite), locate the
       critical points; for each root a inside the annulus, ``_winding``
       counts the zeros of p on the disc around a of radius
       min(|a| - r, 1 - |a|) / 2, from p at 64 to MAX_SAMPLES nodes of its
       circle, whatever ``samples`` is (``_disc_has_zero`` proves the reach
       that each count must clear).  A trusted count >= 1 refutes (f is
       k-to-1 near a critical point).  When none is (a count of 0, or a
       node within the reach at every node count) the map is inconclusive;
    2. both image curves T(theta) = f(rho e^{i theta}), rho = 1 and r, and
       their tangents are sampled once, at 2*samples nodes with step h, from
       one ``annulus_basis`` (which rejects an r whose 1 / r**m overflows); the
       preimages of w0 = f(sqrt r) are the winding number of the outer curve
       about w0 less that of the inner one, each counted by ``_winding`` on
       T - w0.  Every node of a curve must lie farther from w0 than
       R = h L + 2 e + e_w, with L = sum |k c_k| rho^k >= |T'|, the node
       rounding e = ``_ROUNDING`` sum |c_k| rho^k and e_w = ``_ROUNDING``
       max_rho sum |c_k| rho^k for w0 (the sum is log-convex in log rho).
       Then each step of T from a node a, and the chord of the computed
       nodes, lie within h L + e of a, which is farther than that from w0
       and its computed value, and within h L + 2 e < |T - w0| of the chord's
       first node: the crossing count is exact.  R and |T - w0| both scale
       with c.  A curve that fails (NaN too) leaves the count untrusted; a
       count >= 2 refutes, and any other count but 1 is inconclusive.

    Then the same samples give the proof.  T is a trigonometric polynomial,
    so |T''| <= M = sum k^2 |c_k| rho^k on the whole circle, and each arc
    between nodes lies within the tube h^2 M / 8 of its chord (plus a
    rounding allowance).  The map is certified only when
    (a) every node has |T'| > 3 h M plus the rounding allowance
        ``_ROUNDING`` L of T', the reach that ``_winding`` tests on the
        tangents: T' then moves by at most h M within a step, T is
        injective on every two consecutive steps, and the tangent turns by
        less than pi per step, so the turning numbers, the winding numbers
        of the tangents about 0 counted by ``_winding``, are exact, and they
        must agree;
    (b) every segment has a positive, finite squared length (``_segments``),
        and every two segments that are not neighbours on one curve, and
        every pair across the two curves, lie farther apart than their two
        tubes.  When one term dominates, the coefficients prove that in
        O(m): each curve is bi-Lipschitz to its circle, and the curves'
        radii about c_0 do not overlap (``_curves_apart_by_coefficients``
        proves that this implies the walk's predicate, so the outcome is
        the walk's).  Otherwise the segment-pair walk measures the pairs
        whose tube-widened boxes overlap, in O(samples) memory
        (``_curves_apart``).
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
    if not _is_integer(samples) or samples < 1:
        raise DomainValidationError(f"samples must be a positive integer, got {samples!r}")
    if getattr(f.evaluator, "automorphism_parameter", None) is not None:
        return InjectivityCertificate("certified", math.inf)
    coefficients = f.laurent_coefficients
    if coefficients is not None:
        return _boundary_certificate(coefficients, inner_radius, int(samples))
    return InjectivityCertificate(
        "inconclusive", math.inf, "no certificate for this map: build it with laurent_map or disc_automorphism"
    )
