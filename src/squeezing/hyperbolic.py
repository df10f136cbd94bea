"""Hyperbolic distance kernel on the unit disc and the unit ball.

Conversions between Euclidean radii (measured from the centre of the disc)
and hyperbolic distances, the Poincare distance on the disc, the Kobayashi
distance on the ball, and the Mobius transports used by the rest of the
package.  Everything here is pure and stateless, and the scalar functions
accept numpy arrays in place of scalars.
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
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainValidationError("Euclidean radius must lie in [0, 1)")
    return _as_scalar_or_array(r, np.log1p(2.0 * arr / (1.0 - arr)))


def euclidean_radius(w):
    """Inverse of :func:`hyperbolic_radius`: tanh(w/2) for w >= 0."""
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


def mobius_map(a, z):
    """Disc automorphism (z - a)/(1 - conj(a) z); sends a to 0.

    Its inverse is ``mobius_map(-a, .)`` up to no rotation:
    (w + a)/(1 + conj(a) w).
    """
    a_arr = np.asarray(a, dtype=complex)
    z_arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(a_arr) >= 1.0) or np.any(np.abs(z_arr) >= 1.0):
        raise DomainValidationError("Mobius map arguments must lie inside the unit disc")
    out = (z_arr - a_arr) / (1.0 - np.conj(a_arr) * z_arr)
    if np.ndim(a) == 0 and np.ndim(z) == 0:
        return complex(out)
    return out


def poincare_distance(a, b):
    """Poincare distance on the unit disc.

    Equals ``hyperbolic_radius(|mobius_map(b, a)|)``; symmetric, zero exactly
    when a == b, and invariant under simultaneous disc automorphisms.
    """
    a_arr = np.asarray(a, dtype=complex)
    b_arr = np.asarray(b, dtype=complex)
    if np.any(np.abs(a_arr) >= 1.0) or np.any(np.abs(b_arr) >= 1.0):
        raise DomainValidationError("disc points must satisfy |z| < 1")
    m = np.abs((a_arr - b_arr) / (1.0 - np.conj(b_arr) * a_arr))
    # rounding guard: the pseudo-hyperbolic modulus is < 1 in exact arithmetic
    m = np.minimum(m, MAX_RADIUS)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(hyperbolic_radius(float(m)))
    return hyperbolic_radius(m)


def _ball_point(z):
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.ndim != 1:
        raise ShapeMismatch("ball points are one-dimensional complex vectors")
    with np.errstate(over="ignore"):  # a norm that overflows to inf is >= 1
        outside = np.linalg.norm(arr) >= 1.0
    if outside:
        raise DomainValidationError("ball points must satisfy ||z|| < 1")
    return arr


def ball_mobius(a, z):
    """Involutive automorphism of the unit ball sending a to 0, applied to z.

    phi_a(z) = (a - P_a z - sqrt(1 - ||a||^2) Q_a z) / (1 - <z, a>), with P_a
    the orthogonal projection onto the span of a and Q_a = id - P_a.  For
    a = 0 this is z -> -z; in dimension one it reduces to the disc Mobius map
    (a - z)/(1 - conj(a) z).
    """
    a_vec = _ball_point(a)
    z_vec = _ball_point(z)
    if a_vec.shape != z_vec.shape:
        raise ShapeMismatch("ball points must share one dimension")
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
