"""The four classical matrix/vector domains: membership and exact constants.

Types I-III are matrix domains defined by positive definiteness of
I - Z Z^H (Z rectangular, symmetric or skew-symmetric); type IV is the Lie
ball in C^n cut out by 1 + |zz'|^2 - 2||z||^2 > 0 and |zz'| < 1, where
zz' = sum z_j^2 is the non-conjugated quadratic form.  Their squeezing
values are the exact constants r^{-1/2}, p^{-1/2}, floor(q/2)^{-1/2} and
2^{-1/2}, with products combining as (sum s_i^{-2})^{-1/2}.

The table ``_KINDS`` is the one place that knows each kind: its token and
parameters, its dimension and constant, and the shape and symmetry of its points.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .certificates import BoundCertificate
from .errors import DomainValidationError, EmptyList, PunctureEvaluation, ShapeMismatch
from .hyperbolic import _ball_point, _dot, _inner, _is_integer


class _Kind(NamedTuple):
    """What the package knows about one kind; the callables take the params."""

    name: str  # the token prefix ``describe`` prints
    usage: str  # the error for a parameter tuple of the wrong length or order
    arity: int
    least: int  # smallest first parameter
    dimension: Callable[..., int]
    inverse_square: Callable[..., int]  # the integer m of the constant m^{-1/2}
    point_shape: Callable[..., tuple]
    point_symmetry: int  # +1 symmetric, -1 skew-symmetric, 0 none


_KINDS = {
    "I": _Kind("typeI", "type I takes (r, s) with r <= s", 2, 1,
               lambda r, s: r * s, lambda r, s: r, lambda r, s: (r, s), 0),
    "II": _Kind("typeII", "type II takes a single order p", 1, 1,
                lambda p: p * (p + 1) // 2, lambda p: p, lambda p: (p, p), 1),
    # q = 1 degenerates to a single point and floor(q/2) = 0 leaves
    # the squeezing constant undefined.
    "III": _Kind("typeIII", "type III takes a single order q >= 2", 1, 2,
                 lambda q: q * (q - 1) // 2, lambda q: q // 2, lambda q: (q, q), -1),
    # n = 1 degenerates to the unit disc, where the constant is 1,
    # not 2^{-1/2}.
    "IV": _Kind("typeIV", "type IV takes a single dimension n >= 2", 1, 2,
                lambda n: n, lambda n: 2, lambda n: (n,), 0),
}
KINDS = tuple(_KINDS)
_BY_NAME = {facts.name: kind for kind, facts in _KINDS.items()}


@dataclass(frozen=True)
class ClassicalDomain:
    """One of the four classical domains, tagged by kind and integer params."""

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainValidationError(f"kind must be one of {KINDS}")
        p = self.params
        if not all(type(v) is int and v >= 1 for v in p):  # the common case, without a call per value
            if not all(_is_integer(v) and v >= 1 for v in p):
                raise DomainValidationError("parameters must be positive integers")
            p = tuple(map(int, p))  # numpy integers are stored as Python ints
            object.__setattr__(self, "params", p)
        facts = _KINDS[self.kind]
        # p[0] > p[-1] is type I's r > s and never holds for one parameter
        if len(p) != facts.arity or p[0] < facts.least or p[0] > p[-1]:
            raise DomainValidationError(facts.usage)

    @classmethod
    def type_i(cls, r: int, s: int) -> "ClassicalDomain":
        return cls("I", (r, s))

    @classmethod
    def type_ii(cls, p: int) -> "ClassicalDomain":
        return cls("II", (p,))

    @classmethod
    def type_iii(cls, q: int) -> "ClassicalDomain":
        return cls("III", (q,))

    @classmethod
    def type_iv(cls, n: int) -> "ClassicalDomain":
        return cls("IV", (n,))

    @classmethod
    def parse(cls, token: str) -> "ClassicalDomain":
        """The domain whose ``describe()`` is ``token``, such as ``typeI:2,3``."""
        name, _, rest = token.partition(":")
        if name not in _BY_NAME:
            raise DomainValidationError(f"unknown domain kind {name!r}")
        texts = rest.split(",") if rest else []
        try:
            params = tuple(int(text) for text in texts)
        except ValueError:
            if all(re.fullmatch(r"\s*[+-]?\d+\s*", text) for text in texts):  # digits past the limit
                raise DomainValidationError(
                    f"a parameter has more than {sys.get_int_max_str_digits():,} digits, "
                    "Python's limit for reading an integer from text"
                ) from None
            raise DomainValidationError(f"parameters must be integers, got {rest!r}") from None
        return cls(_BY_NAME[name], params)

    @property
    def complex_dimension(self) -> int:
        return _KINDS[self.kind].dimension(*self.params)

    @property
    def inverse_square_constant(self) -> int:
        """The integer m with squeezing constant m^{-1/2}."""
        return _KINDS[self.kind].inverse_square(*self.params)

    @property
    def point_shape(self) -> tuple:
        """The array shape of a point: (r, s), (p, p), (q, q) or (n,)."""
        return _KINDS[self.kind].point_shape(*self.params)

    @property
    def point_symmetry(self) -> int:
        """+1 if points are symmetric matrices, -1 if skew-symmetric, else 0."""
        return _KINDS[self.kind].point_symmetry

    def describe(self) -> str:
        return _KINDS[self.kind].name + ":" + ",".join(map(str, self.params))


def _positive_definite(hermitian: np.ndarray):
    """LAPACK Cholesky factorisation of each matrix of a stack of shape
    (..., p, p); it fails at the first pivot <= 0.  A bool per matrix.

    numpy raises one LinAlgError when any matrix of a stack fails, so the
    whole stack is factored once, and only after that error is each matrix
    factored alone; a single matrix is factored once.  numpy's factorisation
    of a NaN or infinite matrix does not fail, but its last pivot is then NaN,
    so that pivot must be positive.  Exact boundary ties are decided by
    rounding (see ``contains``).
    """
    try:
        factor = np.linalg.cholesky(hermitian)
    except np.linalg.LinAlgError:
        if hermitian.ndim == 2:
            return np.False_
        matrices = hermitian.reshape(-1, *hermitian.shape[-2:])
        return np.array([_positive_definite(h) for h in matrices]).reshape(hermitian.shape[:-2])
    return factor[..., -1, -1][()].real > 0.0  # [()]: one matrix's pivot as a number, compared faster


def contains(domain: ClassicalDomain, point):
    """Strict membership of ``point`` in the given classical domain; exact
    boundary ties of types I-III are decided by rounding, not always outside
    (typeII(2) at [[0.5, 0.5], [0.5, 0.5]] has ||Z|| = 1 and is inside).
    A point with a NaN or infinite entry is outside.

    One point of ``domain.point_shape`` ((r, s), (p, p), (q, q) or (n,)) gives
    a bool; a stack of shape (..., *point_shape) gives a bool array of shape
    (...), each entry the one-point answer.  A wrong trailing shape, or a
    point of type II or III that is not exactly (skew-)symmetric (a NaN entry
    counts as equal to a NaN at its mirror), raises ShapeMismatch.
    """
    z = np.asarray(point, dtype=complex)
    shape, symmetry = domain.point_shape, domain.point_symmetry
    if z.shape[-len(shape):] != shape:
        what = f"a {shape[0]}x{shape[1]} matrix" if len(shape) == 2 else f"a complex {shape[0]}-vector"
        raise ShapeMismatch(f"type {domain.kind} point must be {what}, got shape {z.shape}")
    all_finite = np.isfinite(z).all()
    finite = all_finite or np.isfinite(z).all(axis=(-2, -1) if len(shape) == 2 else -1)  # per point
    if symmetry:
        # a NaN entry equals the NaN at its mirror (-nan is NaN): the point is
        # outside, not malformed.  z.T or -z.T: symmetry * z.T would warn on
        # an infinite entry (inf * 0)
        zt = z.swapaxes(-1, -2)
        if not np.array_equal(z, zt if symmetry > 0 else -zt, equal_nan=not all_finite):
            what = "symmetric" if symmetry > 0 else "skew-symmetric"
            raise ShapeMismatch(f"type {domain.kind} point must be exactly {what}")
    if not all_finite:  # zeros in their place before any product, where an infinite entry warns (inf * 0)
        z = np.where(finite[(..., *(None,) * len(shape))], z, 0.0)
    if domain.kind == "IV":
        quad = abs(_dot(z, z))  # |zz'|, zz' the non-conjugated sum z_j^2
        inside = (1.0 + quad ** 2 - 2.0 * _inner(z, z).real > 0.0) & (quad < 1.0)
    else:
        h = np.eye(shape[0], dtype=complex) - z @ z.conj().swapaxes(-1, -2)
        inside = _positive_definite(0.5 * (h + h.conj().swapaxes(-1, -2)))
    if z.ndim > len(shape):
        return inside.reshape(z.shape[:z.ndim - len(shape)]) & finite  # type IV keeps the summed axis
    return bool(inside & finite)


def _inverse_sqrt(m: int) -> float:
    """m^{-1/2} rounded to nearest, for an integer m >= 1 of any size.

    floor(2^k / sqrt(m)) = isqrt(floor(4^k / m)) holds exactly in integers,
    and k puts it in [2^55, 2^56], at least two bits beyond a double's 53.
    Setting its last bit when the root is inexact (rounding to odd) makes
    the one rounding to 53 bits in float() round the exact value to nearest.
    A value below the least normal double (m > 2^2044) is refused with
    DomainValidationError, as it would lose bits.
    """
    if m > 1 << 2044:
        raise DomainValidationError("the squeezing constant m^(-1/2) is below the least normal double: m > 2^2044")
    k = 55 + (m.bit_length() + 1) // 2
    scaled = 1 << 2 * k
    root = math.isqrt(scaled // m)
    if root * root * m != scaled:
        root |= 1
    return math.ldexp(float(root), -k)


def kubota_constant(domain: ClassicalDomain) -> BoundCertificate:
    """Exact squeezing value of a classical domain: m^{-1/2} with integer m.

    The value is m^{-1/2} rounded to nearest, computed from the integer (see
    ``_inverse_sqrt``, which refuses an m above 2^2044).
    """
    m = domain.inverse_square_constant
    return BoundCertificate(
        value=_inverse_sqrt(m),
        tag="exact",
        method="kubota",
        witness={"domain": domain.describe(), "inverse_square": m},
    )


def product_constant(domains: Sequence[ClassicalDomain]) -> BoundCertificate:
    """Exact squeezing value of a product: (sum s_i^{-2})^{-1/2}.

    The inverse squares are integers, so the sum is exact; the result is at
    most the smallest factor constant, strictly below it for two or more
    factors.  As in ``kubota_constant``, it is rounded to nearest from the
    integer, and a sum above 2^2044 is refused.
    """
    factors = list(domains)
    if not factors:
        raise EmptyList("product requires at least one factor domain")
    total = sum(d.inverse_square_constant for d in factors)
    return BoundCertificate(
        value=_inverse_sqrt(total),
        tag="exact",
        method="kubota-product",
        witness={
            "factors": [d.describe() for d in factors],
            "inverse_square_sum": total,
        },
    )


def punctured_ball_squeezing(z, dimension: int | None = None) -> BoundCertificate:
    """Exact squeezing value ||z|| of the punctured unit ball at z != 0."""
    vec = _ball_point(z, dimension, "point")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise PunctureEvaluation("the puncture itself is not a point of the domain")
    return BoundCertificate(
        value=norm,
        tag="exact",
        method="puncture-identity",
        witness={"dimension": int(vec.shape[0]), "norm": norm},
    )


def uniform_ball_points(rng: np.random.Generator, dimension: int, count: int, radius: float = 1.0):
    """``count`` uniform samples from the complex ``dimension``-ball of the given
    radius, as a complex array of shape (count, dimension).

    A ``dimension`` that is not an integer of at least 1, or a ``count`` that is
    not an integer of at least 0 (a bool is neither), raises
    DomainValidationError.
    """
    if not _is_integer(dimension) or dimension < 1:
        raise DomainValidationError(f"dimension must be a positive integer, got {dimension!r}")
    if not _is_integer(count) or count < 0:
        raise DomainValidationError(f"count must be a non-negative integer, got {count!r}")
    g = rng.standard_normal((count, dimension)) + 1j * rng.standard_normal((count, dimension))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    u = rng.random(count) ** (1.0 / (2 * dimension))
    return radius * g * u[:, None]


def sandwich_check_type_i(r: int, s: int, samples: int = 1000, seed: int = 0) -> bool:
    """Check B_{rs} inside D_I(r,s) inside sqrt(r) B_{rs}, sampling ``contains``;
    the inclusions give r^{-1/2} (Z -> Z/sqrt(r)), which must be the exact constant.

    ``samples`` unit-ball points reshaped to r x s must lie in the domain, and
    ``samples`` points on the sphere of radius sqrt(r) (1 + 1e-9) outside it:
    the domain is convex and holds 0, so it lies in sqrt(r) B exactly when that
    sphere lies outside it, and there ||Z||_op >= ||Z||_F / sqrt(r) > 1.  The
    margin 1e-9 keeps the samples off the boundary: for r = 1 the domain is the
    ball, and at radius sqrt(r) each sample would be a tie decided by rounding.
    A ``samples`` that is not an integer of at least 1 (a bool is not one)
    raises DomainValidationError.
    """
    if not _is_integer(samples) or samples < 1:
        raise DomainValidationError(f"samples must be a positive integer, got {samples!r}")
    domain = ClassicalDomain.type_i(r, s)
    if r * s > 16:
        raise DomainValidationError("sandwich check is desk-scale: require r*s <= 16")
    rng = np.random.default_rng(seed)
    dim = r * s

    if not contains(domain, uniform_ball_points(rng, dim, samples).reshape(-1, r, s)).all():
        return False

    sphere = rng.standard_normal((samples, dim)) + 1j * rng.standard_normal((samples, dim))
    sphere *= np.sqrt(r) * (1.0 + 1e-9) / np.linalg.norm(sphere, axis=1, keepdims=True)
    outside = not contains(domain, sphere.reshape(-1, r, s)).any()
    return outside and r ** -0.5 == kubota_constant(domain).value
