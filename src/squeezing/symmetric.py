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
from .hyperbolic import _ball_point, _is_integer


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


def _positive_definite(hermitian: np.ndarray) -> bool:
    """LAPACK Cholesky factorisation; it fails at the first pivot <= 0.

    numpy's factorisation of a NaN or infinite matrix does not fail, but its
    last pivot is then NaN, so that pivot must be positive.  Exact boundary
    ties are decided by rounding (see ``contains``).
    """
    try:
        factor = np.linalg.cholesky(hermitian)
    except np.linalg.LinAlgError:
        return False
    return bool(factor[-1, -1].real > 0.0)


def contains(domain: ClassicalDomain, point) -> bool:
    """Strict membership of ``point`` in the given classical domain; exact
    boundary ties of types I-III are decided by rounding, not always outside
    (typeII(2) at [[0.5, 0.5], [0.5, 0.5]] has ||Z|| = 1 and is inside).
    A point with a NaN or infinite entry is outside."""
    z = np.asarray(point, dtype=complex)
    shape, symmetry = domain.point_shape, domain.point_symmetry
    if z.shape != shape:
        what = f"a {shape[0]}x{shape[1]} matrix" if len(shape) == 2 else f"a complex {shape[0]}-vector"
        raise ShapeMismatch(f"type {domain.kind} point must be {what}, got shape {z.shape}")
    # z.T or -z.T: symmetry * z.T would warn on an infinite entry (inf * 0)
    if symmetry and not np.array_equal(z, z.T if symmetry > 0 else -z.T):
        what = "symmetric" if symmetry > 0 else "skew-symmetric"
        raise ShapeMismatch(f"type {domain.kind} point must be exactly {what}")
    if not np.isfinite(z).all():  # before any product, where an infinite entry warns (inf * 0)
        return False
    if domain.kind == "IV":
        quad = np.dot(z, z)  # non-conjugated sum z_j^2
        norm_sq = np.vdot(z, z).real
        return bool(1.0 + abs(quad) ** 2 - 2.0 * norm_sq > 0.0 and 1.0 - abs(quad) > 0.0)
    h = np.eye(z.shape[0], dtype=complex) - z @ z.conj().T
    h = 0.5 * (h + h.conj().T)
    return _positive_definite(h)


def _huge_inverse_sqrt(m: int) -> float:
    """m^{-1/2} rounded to nearest, for an integer m too large for a float.

    floor(2^k / sqrt(m)) = isqrt(floor(4^k / m)) holds exactly in integers,
    and k puts it in [2^62, 2^63].  Setting its last bit when the root is
    inexact (rounding to odd) makes the one rounding to 53 bits in float()
    round the exact value to nearest.  A value below the least normal double
    2^-1022 (m > 2^2044) is refused with DomainValidationError, as it would
    lose bits.
    """
    if m > 1 << 2044:
        raise DomainValidationError("the squeezing constant m^(-1/2) is below the least normal double: m > 2^2044")
    k = 62 + (m.bit_length() + 1) // 2
    root = math.isqrt((1 << 2 * k) // m)
    if root * root * m != 1 << 2 * k:
        root |= 1
    return math.ldexp(float(root), -k)


def kubota_constant(domain: ClassicalDomain) -> BoundCertificate:
    """Exact squeezing value of a classical domain: m^{-1/2} with integer m.

    The value is ``m ** -0.5`` wherever float(m) is finite (m below about
    1.8e308); beyond, it is m^{-1/2} rounded to nearest, computed from the
    integer (see ``_huge_inverse_sqrt``, which refuses an m above 2^2044).
    """
    m = domain.inverse_square_constant
    try:
        value = m ** -0.5
    except OverflowError:  # float(m) is infinite
        value = _huge_inverse_sqrt(m)
    return BoundCertificate(
        value=value,
        tag="exact",
        method="kubota",
        witness={"domain": domain.describe(), "inverse_square": m},
    )


def product_constant(domains: Sequence[ClassicalDomain]) -> BoundCertificate:
    """Exact squeezing value of a product: (sum s_i^{-2})^{-1/2}.

    The inverse squares are integers, so the sum is exact; the result is at
    most the smallest factor constant, strictly below it for two or more
    factors.  As in ``kubota_constant``, a sum too large for a float is
    computed from the integer, and one above 2^2044 is refused.
    """
    factors = list(domains)
    if not factors:
        raise EmptyList("product requires at least one factor domain")
    total = sum(d.inverse_square_constant for d in factors)
    try:
        value = total ** -0.5
    except OverflowError:  # float(total) is infinite
        value = _huge_inverse_sqrt(total)
    return BoundCertificate(
        value=value,
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
    """Uniform samples from the complex ``dimension``-ball of the given radius."""
    g = rng.standard_normal((count, dimension)) + 1j * rng.standard_normal((count, dimension))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    u = rng.random(count) ** (1.0 / (2 * dimension))
    return radius * g * u[:, None]


def sandwich_check_type_i(r: int, s: int, samples: int = 1000, seed: int = 0) -> bool:
    """Check B_{rs} inside D_I(r,s) inside sqrt(r) B_{rs} by sampling.

    Unit-ball samples reshaped to r x s matrices must belong to the domain;
    domain samples (rejection from the enclosing Frobenius ball, filtered by
    the membership predicate) must have Euclidean norm below sqrt(r).  The
    two inclusions give the lower bound r^{-1/2} realised by Z -> Z/sqrt(r),
    which must equal the exact constant.
    """
    domain = ClassicalDomain.type_i(r, s)
    if r * s > 16:
        raise DomainValidationError("sandwich check is desk-scale: require r*s <= 16")
    rng = np.random.default_rng(seed)
    dim = r * s

    for z in uniform_ball_points(rng, dim, samples):
        if not contains(domain, z.reshape(r, s)):
            return False

    accepted = 0
    rounds = 0
    while accepted < samples:
        rounds += 1
        if rounds > 200:
            raise RuntimeError("rejection sampling failed to populate the domain sample")
        batch = uniform_ball_points(rng, dim, max(4 * samples, 4096), np.sqrt(r)).reshape(-1, r, s)
        h = np.eye(r) - batch @ batch.conj().transpose(0, 2, 1)
        h = 0.5 * (h + h.conj().transpose(0, 2, 1))
        plausible = batch[np.linalg.eigvalsh(h)[:, 0] > 0.0]
        for z in plausible:
            if not contains(domain, z):
                continue
            if np.linalg.norm(z) >= np.sqrt(r):
                return False
            accepted += 1
            if accepted >= samples:
                break

    implied = r ** -0.5
    return implied == kubota_constant(domain).value
