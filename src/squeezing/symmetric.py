"""The four classical matrix/vector domains: membership and exact constants.

Types I-III are matrix domains defined by positive definiteness of
I - Z Z^H (Z rectangular, symmetric or skew-symmetric); type IV is the Lie
ball in C^n cut out by 1 + |zz'|^2 - 2||z||^2 > 0 and |zz'| < 1, where
zz' = sum z_j^2 is the non-conjugated quadratic form.  Their squeezing
values are the exact constants r^{-1/2}, p^{-1/2}, floor(q/2)^{-1/2} and
2^{-1/2}, with products combining as (sum s_i^{-2})^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certificates import BoundCertificate
from .errors import (
    DomainValidationError,
    EmptyList,
    PunctureEvaluation,
    ShapeMismatch,
)
from .hyperbolic import _ball_point

KINDS = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class ClassicalDomain:
    """One of the four classical domains, tagged by kind and integer params."""

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainValidationError(f"kind must be one of {KINDS}")
        p = self.params
        if not all(isinstance(v, int) and v >= 1 for v in p):
            raise DomainValidationError("parameters must be positive integers")
        if self.kind == "I":
            if len(p) != 2 or p[0] > p[1]:
                raise DomainValidationError("type I takes (r, s) with r <= s")
        elif self.kind == "II":
            if len(p) != 1:
                raise DomainValidationError("type II takes a single order p")
        elif self.kind == "III":
            # q = 1 degenerates to a single point and floor(q/2) = 0 leaves
            # the squeezing constant undefined.
            if len(p) != 1 or p[0] < 2:
                raise DomainValidationError("type III takes a single order q >= 2")
        else:
            # n = 1 degenerates to the unit disc, where the constant is 1,
            # not 2^{-1/2}.
            if len(p) != 1 or p[0] < 2:
                raise DomainValidationError("type IV takes a single dimension n >= 2")

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

    @property
    def complex_dimension(self) -> int:
        if self.kind == "I":
            r, s = self.params
            return r * s
        if self.kind == "II":
            (p,) = self.params
            return p * (p + 1) // 2
        if self.kind == "III":
            (q,) = self.params
            return q * (q - 1) // 2
        (n,) = self.params
        return n

    @property
    def inverse_square_constant(self) -> int:
        """The integer m with squeezing constant m^{-1/2}."""
        if self.kind == "I":
            return self.params[0]
        if self.kind == "II":
            return self.params[0]
        if self.kind == "III":
            return self.params[0] // 2
        return 2

    def describe(self) -> str:
        name = {"I": "typeI", "II": "typeII", "III": "typeIII", "IV": "typeIV"}[self.kind]
        return name + ":" + ",".join(str(v) for v in self.params)


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


def _matrix_point(domain: ClassicalDomain, point) -> np.ndarray:
    z = np.asarray(point, dtype=complex)
    if domain.kind == "I":
        r, s = domain.params
        if z.shape != (r, s):
            raise ShapeMismatch(f"type I point must be a {r}x{s} matrix, got shape {z.shape}")
    elif domain.kind == "II":
        (p,) = domain.params
        if z.shape != (p, p):
            raise ShapeMismatch(f"type II point must be a {p}x{p} matrix, got shape {z.shape}")
        if not np.array_equal(z, z.T):
            raise ShapeMismatch("type II point must be exactly symmetric")
    else:
        (q,) = domain.params
        if z.shape != (q, q):
            raise ShapeMismatch(f"type III point must be a {q}x{q} matrix, got shape {z.shape}")
        if not np.array_equal(z, -z.T):
            raise ShapeMismatch("type III point must be exactly skew-symmetric")
    return z


def contains(domain: ClassicalDomain, point) -> bool:
    """Strict membership of ``point`` in the given classical domain; exact
    boundary ties of types I-III are decided by rounding, not always outside
    (typeII(2) at [[0.5, 0.5], [0.5, 0.5]] has ||Z|| = 1 and is inside).
    A point with a NaN or infinite entry is outside."""
    if domain.kind == "IV":
        z = np.asarray(point, dtype=complex)
        (n,) = domain.params
        if z.shape != (n,):
            raise ShapeMismatch(f"type IV point must be a complex {n}-vector, got shape {z.shape}")
    else:
        z = _matrix_point(domain, point)
    if not np.isfinite(z).all():  # before any product, where an infinite entry warns (inf * 0)
        return False
    if domain.kind == "IV":
        quad = np.dot(z, z)  # non-conjugated sum z_j^2
        norm_sq = np.vdot(z, z).real
        return bool(1.0 + abs(quad) ** 2 - 2.0 * norm_sq > 0.0 and 1.0 - abs(quad) > 0.0)
    h = np.eye(z.shape[0], dtype=complex) - z @ z.conj().T
    h = 0.5 * (h + h.conj().T)
    return _positive_definite(h)


def kubota_constant(domain: ClassicalDomain) -> BoundCertificate:
    """Exact squeezing value of a classical domain: m^{-1/2} with integer m."""
    m = domain.inverse_square_constant
    return BoundCertificate(
        value=m ** -0.5,
        tag="exact",
        method="kubota",
        witness={"domain": domain.describe(), "inverse_square": m},
    )


def product_constant(domains: Sequence[ClassicalDomain]) -> BoundCertificate:
    """Exact squeezing value of a product: (sum s_i^{-2})^{-1/2}.

    The inverse squares are integers, so the sum is exact; the result is at
    most the smallest factor constant, strictly below it for two or more
    factors.
    """
    factors = list(domains)
    if not factors:
        raise EmptyList("product requires at least one factor domain")
    total = sum(d.inverse_square_constant for d in factors)
    return BoundCertificate(
        value=total ** -0.5,
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
