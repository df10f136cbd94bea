"""Hyperbolic distance kernel on the unit disc and the unit ball.

Conversions between Euclidean radii (measured from the centre of the disc)
and hyperbolic distances, the Poincare distance on the disc, the Kobayashi
distance on the ball, and the Mobius transports used by the rest of the
package.  Everything here is pure and stateless, and the scalar functions
accept numpy arrays in place of scalars.  In :func:`hyperbolic_radius` and
:func:`euclidean_radius` a Python or numpy float skips ``np.asarray`` and the
array-wide checks; both paths apply the same ufunc (``np.log1p``, ``np.tanh``)
and so give the same bits, which ``math.log1p`` and ``math.tanh`` do not on
some inputs.  The complex functions stay on array arithmetic, because numpy's
complex-scalar division does not round like its array loop.

The disc and the ball check their points in one place each for the whole
package, ``_disc_points`` and ``_ball_point`` (the annulus in
``planar.Annulus.point``); both test ``not ... < 1``, so a NaN or infinite
point raises ``DomainValidationError``.  A disc point that must be one
number (the parameter of an automorphism, of a Mobius circle image or of an
excision, and a boundary distance's point) goes through ``_disc_parameter``,
which refuses an array with ``ShapeMismatch``.  ``_is_integer`` is the
package's one test for an integer argument.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainValidationError, ShapeMismatch

#: Module-wide comparison tolerance for double precision property checks.
TOLERANCE = 1e-12

#: Largest Euclidean radius strictly below 1 that double precision can
#: represent; ``hyperbolic_radius(MAX_RADIUS)`` is about 37.43 and is the
#: largest radial distance the kernel produces.
MAX_RADIUS = 1.0 - 2.0 ** -53


def _as_scalar_or_array(x, out):
    if np.ndim(x) == 0:
        return float(out)
    return out


def hyperbolic_radius(r):
    """Distance from the disc centre to Euclidean radius r: log((1+r)/(1-r)).

    Strictly increasing on [0, 1).  Evaluated as log1p(2r/(1-r)) so radii up
    to MAX_RADIUS stay finite and small radii keep full relative accuracy.
    """
    if isinstance(r, float):
        if not 0.0 <= r < 1.0:  # also rejects nan
            raise DomainValidationError("Euclidean radius must lie in [0, 1)")
        return float(np.log1p(2.0 * r / (1.0 - r)))
    arr = np.asarray(r, dtype=float)
    if not np.all((arr >= 0.0) & (arr < 1.0)):
        raise DomainValidationError("Euclidean radius must lie in [0, 1)")
    return _as_scalar_or_array(r, np.log1p(2.0 * arr / (1.0 - arr)))


def euclidean_radius(w):
    """Inverse of :func:`hyperbolic_radius`: tanh(w/2) for w >= 0."""
    if isinstance(w, float):
        if not 0.0 <= w < np.inf:  # also rejects nan
            raise DomainValidationError("hyperbolic distance must be finite and >= 0")
        return float(np.tanh(0.5 * w))
    arr = np.asarray(w, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainValidationError("hyperbolic distance must be finite and >= 0")
    return _as_scalar_or_array(w, np.tanh(0.5 * arr))


def bounded_metric(distance):
    """Compress a distance into [0, 1): tanh(distance/2).

    Composing this with any distance function yields again a metric (the map
    is increasing, vanishes only at 0 and is subadditive), so e.g.
    ``bounded_metric(poincare_distance(a, b))`` is a bounded metric on the
    disc inducing the ordinary topology.
    """
    return euclidean_radius(distance)


def _is_integer(x) -> bool:
    """A Python int or a numpy integer; a bool is neither."""
    return type(x) is int or isinstance(x, np.integer)


def _disc_points(what, *points):
    """The points as complex arrays; raises unless every |z| < 1 (NaN fails)."""
    arrays = [np.asarray(z, dtype=complex) for z in points]
    for arr in arrays:
        if not np.all(np.abs(arr) < 1.0):
            raise DomainValidationError(f"{what} must lie in the open unit disc")
    return arrays


def _disc_parameter(what, a) -> complex:
    """The scalar a as a complex number; ShapeMismatch for an array, and
    DomainValidationError unless |a| < 1 (NaN fails)."""
    if np.ndim(a) != 0:
        raise ShapeMismatch(f"{what} must be a scalar, got shape {np.shape(a)}")
    return complex(_disc_points(what, a)[0])


def mobius_map(a, z):
    """Disc automorphism (z - a)/(1 - conj(a) z); sends a to 0.

    Its inverse is ``mobius_map(-a, .)`` up to no rotation:
    (w + a)/(1 + conj(a) w).
    """
    a_arr, z_arr = _disc_points("Mobius map arguments", a, z)
    out = (z_arr - a_arr) / (1.0 - np.conj(a_arr) * z_arr)
    if np.ndim(a) == 0 and np.ndim(z) == 0:
        return complex(out)
    return out


def poincare_distance(a, b):
    """Poincare distance on the unit disc.

    Equals ``hyperbolic_radius(|mobius_map(b, a)|)``; symmetric, zero exactly
    when a == b, and invariant under simultaneous disc automorphisms.
    """
    a_arr, b_arr = _disc_points("disc points", a, b)
    m = np.abs((a_arr - b_arr) / (1.0 - np.conj(b_arr) * a_arr))
    # rounding guard: the pseudo-hyperbolic modulus is < 1 in exact arithmetic
    m = np.minimum(m, MAX_RADIUS)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(hyperbolic_radius(float(m)))
    return hyperbolic_radius(m)


def _ball_point(z, dimension=None, what="ball point"):
    """The point as a 1-D complex vector (of ``dimension`` entries, when given)
    or ShapeMismatch; DomainValidationError unless ||z|| < 1 (NaN fails)."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.ndim != 1 or (dimension is not None and arr.shape != (dimension,)):
        size = "" if dimension is None else f"{dimension}-"
        raise ShapeMismatch(f"{what} must be a complex {size}vector, got shape {arr.shape}")
    with np.errstate(over="ignore"):  # a norm that overflows to inf is outside
        inside = np.linalg.norm(arr) < 1.0
    if not inside:
        raise DomainValidationError(f"{what} must lie in the open unit ball")
    return arr


def ball_mobius(a, z):
    """Involutive automorphism of the unit ball sending a to 0, applied to z.

    phi_a(z) = (a - P_a z - sqrt(1 - ||a||^2) Q_a z) / (1 - <z, a>), with P_a
    the orthogonal projection onto the span of a and Q_a = id - P_a.  For
    a = 0 this is z -> -z; in dimension one it reduces to the disc Mobius map
    (a - z)/(1 - conj(a) z).
    """
    a_vec = _ball_point(a)
    z_vec = _ball_point(z, a_vec.shape[0])
    norm_a_sq = np.vdot(a_vec, a_vec).real
    if norm_a_sq == 0.0:
        return -z_vec
    inner = np.vdot(a_vec, z_vec)  # <z, a>
    proj = (inner / norm_a_sq) * a_vec
    orth = z_vec - proj
    return (a_vec - proj - np.sqrt(1.0 - norm_a_sq) * orth) / (1.0 - inner)


def kobayashi_distance(a, b):
    """Kobayashi distance on the unit ball: hyperbolic_radius(||phi_a(b)||).

    Symmetric, reduces to ``hyperbolic_radius(||b||)`` when a = 0, and agrees
    with :func:`poincare_distance` in dimension one.
    """
    m = np.linalg.norm(ball_mobius(a, b))
    return float(hyperbolic_radius(min(m, MAX_RADIUS)))
