"""Zero counting by the argument principle and numerical injectivity checks.

The count of zeros of a holomorphic map inside a circle (or inside an
annulus bounded by two circles) is the contour integral of f'/f divided by
2*pi*i, evaluated with the trapezoidal rule on equispaced samples, which is
spectrally accurate for analytic integrands.  Dominance |g| < |f| on the
contour forces f and f + g to enclose equally many zeros; applying that
fact to f - w over a grid of targets w yields a conservative, finite check
that a map hits no target twice inside an annulus, at two resolutions
taken from one evaluation at 2N samples (the N-sample count reads the
even-indexed nodes).  The certificate is a numerical statement only:
"inconclusive" is an allowed terminal state and consumers must treat it as
unusable, never as a certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainValidationError, GuardViolation, NonIntegerResidual

#: Minimum allowed |f| (or |f - w|) at contour samples before a count is trusted.
GUARD_THRESHOLD = 1e-9

#: A quadrature value farther than this from an integer signals trouble
#: rather than being silently rounded.
SNAP_WINDOW = 0.1

#: Adaptive sample-doubling cap.
MAX_SAMPLES = 2 ** 16

_STABLE_TOL = 1e-10
_DOMINANCE_SAFETY = 1.05


@dataclass(frozen=True)
class CircleContour:
    """An oriented circle; orientation +1 is counterclockwise."""

    center: complex = 0j
    radius: float = 1.0
    orientation: int = 1
    samples: int = 64

    def __post_init__(self):
        if self.radius <= 0.0:
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


@dataclass(frozen=True)
class CountResult:
    """Zero count with the pre-rounding quadrature residual exposed."""

    count: int
    residual: float
    samples: int


@dataclass(frozen=True)
class InjectivityCertificate:
    status: str  # certified | refuted | inconclusive
    grid_size: int
    min_boundary_modulus: float


def polynomial_map(coefficients) -> SampledMap:
    """Map for sum_k c_k z^k with ``coefficients`` in ascending order."""
    c = np.asarray(coefficients, dtype=complex)
    dc = c[1:] * np.arange(1, len(c))

    def f(z):
        return np.polyval(c[::-1], z)

    def df(z):
        return np.polyval(dc[::-1], z) if len(dc) else np.zeros_like(np.asarray(z))

    return SampledMap(f, df)


def laurent_map(coefficients) -> SampledMap:
    """Map for sum_{k=-m}^{m} c_k z^k; ``coefficients`` has odd length 2m+1."""
    c = np.asarray(coefficients, dtype=complex)
    if len(c) % 2 == 0:
        raise DomainValidationError("Laurent coefficients must have odd length c_{-m}..c_m")
    m = len(c) // 2
    powers = np.arange(-m, m + 1)

    def f(z):
        zz = np.asarray(z, dtype=complex)
        return (c * zz[..., None] ** powers).sum(axis=-1)

    def df(z):
        zz = np.asarray(z, dtype=complex)
        return (c * powers * zz[..., None] ** (powers - 1)).sum(axis=-1)

    return SampledMap(f, df)


def unit_annulus_contours(inner_radius: float, samples: int = 64):
    """Oriented boundary of {inner_radius < |z| < 1}: outer ccw, inner cw."""
    if not 0.0 < inner_radius < 1.0:
        raise DomainValidationError("inner radius must lie in (0, 1)")
    return (
        CircleContour(0j, 1.0, 1, samples),
        CircleContour(0j, float(inner_radius), -1, samples),
    )


def _circle_nodes(contour: CircleContour, n: int):
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = contour.radius * np.exp(1j * theta)
    return contour.center + ring, ring


def _as_contours(contours) -> tuple[CircleContour, ...]:
    if isinstance(contours, CircleContour):
        return (contours,)
    return tuple(contours)


def _argument_sums(f: SampledMap, contours: Sequence[CircleContour], targets, n: int):
    """Per-target argument-principle sums of f - w at n and at the even-indexed
    n/2 samples per contour, and the margins min |f - w|; f, f' evaluated once."""
    fine = np.zeros(len(targets), dtype=complex)
    coarse = np.zeros(len(targets), dtype=complex)
    margins = np.full(len(targets), np.inf)
    for contour in contours:
        z, ring = _circle_nodes(contour, n)
        values = np.broadcast_to(np.asarray(f.evaluator(z), dtype=complex), z.shape)
        derivatives = np.asarray(f.derivative_evaluator(z), dtype=complex)
        shifted = values[None, :] - targets[:, None]
        margins = np.minimum(margins, np.abs(shifted).min(axis=1))
        # targets touching the image curve produce non-finite rows; they are
        # rejected by the guard margin, so the division may proceed silently
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(derivatives, shifted, out=shifted)
            shifted *= ring
        fine += contour.orientation * shifted.mean(axis=1)
        coarse += contour.orientation * shifted[:, ::2].mean(axis=1)
    return fine, coarse, margins


def _quadrature(f: SampledMap, contours: Sequence[CircleContour], n: int, guard: float):
    total, _, margins = _argument_sums(f, contours, np.zeros(1), n)
    if margins[0] <= guard:
        raise GuardViolation(f"|f| = {margins[0]:.3e} <= guard {guard:.1e} on the contours")
    return total[0]


def zero_count_detailed(f: SampledMap, contours, guard: float = GUARD_THRESHOLD) -> CountResult:
    """Zeros of f (with multiplicity) enclosed by the oriented contours.

    Sample counts are doubled adaptively until the quadrature value
    stabilises, capped at MAX_SAMPLES.  Raises GuardViolation if |f| dips to
    the guard threshold at any evaluated sample and NonIntegerResidual if the
    settled value is farther than SNAP_WINDOW from an integer.
    """
    contour_tuple = _as_contours(contours)
    n = max(c.samples for c in contour_tuple)
    value = _quadrature(f, contour_tuple, n, guard)
    while n < MAX_SAMPLES:
        n *= 2
        refined = _quadrature(f, contour_tuple, n, guard)
        stable = abs(refined - value) <= _STABLE_TOL
        value = refined
        if stable:
            break
    nearest = round(value.real)
    residual = abs(value - nearest)
    if residual > SNAP_WINDOW:
        raise NonIntegerResidual(
            f"quadrature value {value:.6g} is {residual:.3g} from the nearest integer"
        )
    return CountResult(int(nearest), float(residual), n)


def zero_count(f: SampledMap, contours, guard: float = GUARD_THRESHOLD) -> int:
    return zero_count_detailed(f, contours, guard).count


def rouche_dominates(f: SampledMap, g: SampledMap, contours, samples: int | None = None) -> bool:
    """True iff max |g| * 1.05 < min |f| over the contour samples.

    When true, f and f + g enclose the same number of zeros.
    """
    contour_tuple = _as_contours(contours)
    n = samples or max(c.samples for c in contour_tuple)
    min_f = np.inf
    max_g = 0.0
    for contour in contour_tuple:
        z, _ = _circle_nodes(contour, n)
        min_f = min(min_f, np.abs(np.asarray(f.evaluator(z))).min())
        max_g = max(max_g, np.abs(np.asarray(g.evaluator(z))).max())
    return bool(max_g * _DOMINANCE_SAFETY < min_f)


def _range_box(f: SampledMap, inner_radius: float):
    radii = np.linspace(inner_radius, 1.0, 24)
    angles = np.exp(2j * np.pi * np.arange(128) / 128)
    values = np.asarray(f.evaluator(np.outer(radii, angles).ravel()))
    re_low, re_high = values.real.min(), values.real.max()
    im_low, im_high = values.imag.min(), values.imag.max()
    if re_high - re_low < 1e-12:
        re_low, re_high = re_low - 1e-6, re_high + 1e-6
    if im_high - im_low < 1e-12:
        im_low, im_high = im_low - 1e-6, im_high + 1e-6
    return re_low, re_high, im_low, im_high


def injectivity_certificate(
    f: SampledMap,
    annulus,
    target_grid: int = 16,
    samples: int = 2048,
    guard: float = GUARD_THRESHOLD,
) -> InjectivityCertificate:
    """Conservative injectivity check for f on the annulus {r < |z| < 1}.

    A cell-centred target_grid x target_grid grid of w values covers the
    sampled numerical range of f; for each w the zeros of f - w inside the
    annulus are counted at 2*samples and, on the even-indexed nodes of that
    one evaluation, at samples nodes per circle.  Any trustworthy count >= 2
    refutes injectivity; the certificate is "certified" only when every
    target yields a trustworthy count <= 1, and "inconclusive" otherwise
    (guard violations and unstable quadrature are never certified).

    ``annulus`` may be the inner radius itself or any object with an ``r``
    attribute.  A certificate over a finite grid is numerical evidence, not a
    proof of univalence.
    """
    inner_radius = float(getattr(annulus, "r", annulus))
    if not 0.0 < inner_radius < 1.0:
        raise DomainValidationError("annulus inner radius must lie in (0, 1)")
    grid = int(target_grid)
    if grid < 2:
        raise DomainValidationError("target_grid must be at least 2")

    re_low, re_high, im_low, im_high = _range_box(f, inner_radius)
    xs = re_low + (np.arange(grid) + 0.5) * (re_high - re_low) / grid
    ys = im_low + (np.arange(grid) + 0.5) * (im_high - im_low) / grid
    targets = (xs[:, None] + 1j * ys[None, :]).ravel()

    fine, coarse, margins = _argument_sums(
        f, unit_annulus_contours(inner_radius), targets, 2 * samples
    )

    nearest = np.rint(fine.real)
    residual = np.abs(fine - nearest)
    coarse_nearest = np.rint(coarse.real)
    coarse_residual = np.abs(coarse - coarse_nearest)
    # a count is trusted only when the guard margin holds and both
    # resolutions snap to the same integer within the window
    trustworthy = (
        (margins > guard)
        & (residual <= SNAP_WINDOW)
        & (coarse_residual <= SNAP_WINDOW)
        & (nearest == coarse_nearest)
    )
    counts = nearest.astype(int)

    min_margin = float(margins.min())
    if np.any(trustworthy & (counts >= 2)):
        status = "refuted"
    elif np.all(trustworthy) and np.all(counts <= 1):
        status = "certified"
    else:
        status = "inconclusive"
    return InjectivityCertificate(status, grid, min_margin)
