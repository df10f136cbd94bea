"""Lower bounds for annulus squeezing values by search over embeddings.

Any univalent map f of the annulus into the unit disc yields the lower bound
euclidean_radius(P(f(p), complement of image)), the pseudo-hyperbolic
distance from f(p) to the image boundary: the hyperbolic disc around f(p)
avoiding the image boundary can be recentred to a round disc.  The
objective below approximates it by the minimum pseudo-hyperbolic distance
|w - f(p)| / |1 - conj(w) f(p)| from f(p) to dense samples w of the two
boundary-circle images, so it is a valid bound up to the quoted sampling
resolution.

Tier A is the better of the two Mobius embeddings (the inclusion recentred
at the query point, and the reflection across the annulus).  Their distance
is the pseudo-hyperbolic one in closed form, so Tier A reads its value from
``planar.annulus_lower_bound`` and samples nothing.  That value is the
paper's closed form, a proven lower bound, reported next to every search
result as ``conjecture_value`` with its gap to the best found bound.  It is
not the exact squeezing value: certified Laurent embeddings exceed it (the
degree-1 search at r = 0.25, rho = 0.5, seed 42 certifies 0.3589 > 2/7).

Tier B perturbs Laurent coefficients around those seeds with a
deterministic multi-start Nelder-Mead simplex search (the min-over-samples
objective is nonsmooth, so derivative-free search is the right tool).
Search evaluations are advisory; a candidate is adopted only after its
injectivity certificate passes, and only adopted candidates are ever
reported.  Post-composition with a disc automorphism is value-neutral (the
objective is Mobius invariant), so candidates are stored unnormalised and
implicitly recentred at f(p).

The boundary curves of a degree-m Laurent map are trigonometric
polynomials, so a search builds one power basis ``rouche.annulus_basis``
per call, on 2 * samples nodes per circle plus the query point.  Those are
the nodes the injectivity certificate samples and the resolution of the
reported value, so the search, the certificate and the reported value share
them; each evaluation is one matrix-vector product of that basis with the
coefficient vector, run on the calling thread by ``rouche._table_product``,
so its bits do not depend on the BLAS thread count.  The product, its
rescaling and the pseudo-hyperbolic minimum write into buffers allocated
once per search call, so an evaluation allocates nothing the size of the
basis, and the simplex keeps its vertices in one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainValidationError, ImageEscapesDisc, NotCertified
from .hyperbolic import _is_integer
from .planar import Annulus, annulus_lower_bound
from .rouche import (
    InjectivityCertificate, _table_product, annulus_basis, injectivity_certificate, laurent_map
)

#: Default ``samples`` of a search: its objective, its injectivity
#: certificates and its reported value all read 2 * samples nodes per circle.
DEFAULT_SAMPLES = 2048

#: Candidates must beat the certified incumbent by this much before the
#: (expensive) injectivity certificate is attempted.
CERTIFY_MARGIN = 1e-6

_ESCAPE_SLACK = 1e-12
_DEGREE_CAP = 4
_SIMPLEX_STEP = 0.02
_SIMPLEX_ITERATIONS = 200


@dataclass(frozen=True, eq=False)
class EmbeddingCandidate:
    """A candidate embedding: a Laurent map c_{-m} z^{-m} + ... + c_m z^m.

    The two Mobius families are the exact Laurent maps z and r/z (injective
    by construction, hence auto-certified); free Laurent candidates carry the
    certificate produced for them.
    """

    family: str  # mobius-inclusion | mobius-reflection | laurent
    degree: int
    coefficients: np.ndarray
    status: str  # certified | refuted | inconclusive
    certificate: InjectivityCertificate | None = None

    @classmethod
    def mobius_inclusion(cls) -> "EmbeddingCandidate":
        return cls("mobius-inclusion", 1, np.array([0, 0, 1], dtype=complex), "certified")

    @classmethod
    def mobius_reflection(cls, r: float) -> "EmbeddingCandidate":
        return cls("mobius-reflection", 1, np.array([r, 0, 0], dtype=complex), "certified")

    @classmethod
    def laurent(cls, coefficients, certificate: InjectivityCertificate) -> "EmbeddingCandidate":
        c = np.asarray(coefficients, dtype=complex)
        return cls("laurent", len(c) // 2, c, certificate.status, certificate)


class CertificateAttempts(NamedTuple):
    """Injectivity certificates a search ran, counted by status."""

    certified: int = 0
    refuted: int = 0
    inconclusive: int = 0


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a search; ``budget_exhausted`` is True when at least one
    simplex start was cut off by its share of the evaluation budget, and
    False when every start stopped within its share: after
    ``_SIMPLEX_ITERATIONS`` iterations or, sooner, once its simplex shrank
    below 1e-11.  False does not mean that a start converged.
    ``certificates`` counts the injectivity certificates the search ran, by
    status."""

    best_value: float
    best_candidate: EmbeddingCandidate
    tier_a_value: float
    conjecture_value: float
    evaluations: int
    seed: int
    budget_exhausted: bool = False
    certificates: CertificateAttempts = CertificateAttempts()

    @property
    def conjecture_gap(self) -> float:
        return self.best_value - self.conjecture_value


def _scratch(n: int):
    """Buffers for ``_objective_value`` on evaluations of n boundary samples."""
    return np.empty(n, dtype=complex), np.empty(n, dtype=complex), np.empty(n)


def _objective_value(values: np.ndarray, scratch) -> float:
    """Minimum pseudo-hyperbolic distance from f(p), the last entry of a
    boundary evaluation, to the boundary samples before it; ``scratch`` is
    ``_scratch(len(values) - 1)``, overwritten."""
    numerator, denominator, modulus = scratch
    w, wp = values[:-1], values[-1]
    # |wp - w|^2 - |1 - conj(w) wp|^2 = (1 - |wp|^2)(|w|^2 - 1), so a sample
    # on or beyond the unit circle lies at pseudo-distance >= 1 and never wins
    np.subtract(wp, w, out=numerator)
    np.conjugate(w, out=denominator)
    denominator *= wp
    np.subtract(1.0, denominator, out=denominator)
    numerator /= denominator
    return float(np.abs(numerator, out=modulus).min())


def objective(candidate: EmbeddingCandidate, annulus: Annulus, p, samples: int = DEFAULT_SAMPLES) -> float:
    """Lower bound realised by a certified candidate at p.

    The minimum pseudo-hyperbolic distance from f(p) to the sampled images
    of both boundary circles.  Raises NotCertified for candidates without a
    passing certificate and ImageEscapesDisc when the boundary image leaves
    the closed unit disc beyond tolerance.
    """
    if candidate.status != "certified":
        raise NotCertified(f"candidate status is {candidate.status!r}")
    point = annulus.point(p)
    basis = annulus_basis(annulus.r, samples, len(candidate.coefficients) // 2, point)
    values = _table_product(basis, candidate.coefficients)
    escape = max(np.abs(values[:-1]).max() - 1.0, abs(values[-1]) - (1.0 - 1e-15))
    if escape >= _ESCAPE_SLACK:
        raise ImageEscapesDisc(f"boundary image modulus exceeds 1 by {escape:.3e}")
    return _objective_value(values, _scratch(len(values) - 1))


def tier_a_bound(annulus: Annulus, p) -> SearchResult:
    """Best of the two Mobius embeddings: ``annulus_lower_bound`` and its branch's family."""
    bound = annulus_lower_bound(annulus, p)
    if bound.witness["branch"] == "direct":
        best = EmbeddingCandidate.mobius_inclusion()
    else:
        best = EmbeddingCandidate.mobius_reflection(annulus.r)
    return SearchResult(
        best_value=bound.value,
        best_candidate=best,
        tier_a_value=bound.value,
        conjecture_value=bound.value,
        evaluations=2,
        seed=0,
    )


class _Exhausted(Exception):
    """Raised by the search objective once a start has used its evaluations."""


def _simplex_maximize(fn: Callable, x0: np.ndarray):
    """Deterministic Nelder-Mead ascent; fn may abort the run via _Exhausted."""
    dim = len(x0)
    points = np.tile(x0, (dim + 1, 1))  # one vertex per row
    points[1:][np.diag_indices(dim)] += _SIMPLEX_STEP
    values = np.array([fn(x) for x in points])

    for _ in range(_SIMPLEX_ITERATIONS):
        order = np.argsort(-values, kind="stable")
        points = points[order]
        values = values[order]
        if values[0] - values[-1] < 1e-11 and np.abs(points[1:] - points[0]).max() < 1e-11:
            break
        centroid = points[:-1].mean(axis=0)
        reflected = centroid + (centroid - points[-1])
        f_reflected = fn(reflected)
        if f_reflected > values[0]:
            expanded = centroid + 2.0 * (centroid - points[-1])
            f_expanded = fn(expanded)
            if f_expanded > f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
        elif f_reflected > values[-2]:
            points[-1], values[-1] = reflected, f_reflected
        else:
            contracted = centroid + 0.5 * (points[-1] - centroid)
            f_contracted = fn(contracted)
            if f_contracted > values[-1]:
                points[-1], values[-1] = contracted, f_contracted
            else:
                points[1:] = points[0] + 0.5 * (points[1:] - points[0])
                values[1:] = [fn(x) for x in points[1:]]


def _encode(coefficients: np.ndarray) -> np.ndarray:
    return np.concatenate([coefficients.real, coefficients.imag])


def _decode(x: np.ndarray) -> np.ndarray:
    half = len(x) // 2
    return x[:half] + 1j * x[half:]


def tier_b_search(
    annulus: Annulus,
    p,
    degree: int = 2,
    budget: int = 500,
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
) -> SearchResult:
    """Multi-start simplex search over certified Laurent embeddings.

    Starts from the Laurent representations of the two Mobius embeddings
    (c_1 = 1 and c_{-1} = r) plus seeded random perturbations.  Raw
    evaluations are advisory; a candidate must beat the certified incumbent
    (first Tier A) by CERTIFY_MARGIN and then pass the injectivity
    certificate before it may be reported.  Degree 0 has no usable free
    family and collapses to Tier A.  Exhausting the budget returns the best
    certified result so far; identical inputs reproduce identical outputs.
    """
    point = annulus.point(p)
    if not _is_integer(degree) or not 0 <= degree <= _DEGREE_CAP:
        raise DomainValidationError(f"degree must be an integer in [0, {_DEGREE_CAP}]")
    if not _is_integer(budget) or budget < 1:
        raise DomainValidationError("budget must be at least 1")
    if not _is_integer(seed) or seed < 0:
        raise DomainValidationError(f"seed must be a non-negative integer, got {seed}")
    if not _is_integer(samples) or samples < 64:  # the inflation below needs a fine node step
        raise DomainValidationError(f"samples must be an integer >= 64, got {samples!r}")

    tier_a = tier_a_bound(annulus, point)
    if degree == 0:
        return replace(tier_a, seed=seed)

    size = 2 * degree + 1
    seed_inclusion = np.zeros(size, dtype=complex)
    seed_inclusion[degree + 1] = 1.0
    seed_reflection = np.zeros(size, dtype=complex)
    seed_reflection[degree - 1] = annulus.r

    # one power basis, on the certificate's 2 * samples nodes per circle plus
    # the query point; every evaluation below is one matrix-vector product
    ring = annulus_basis(annulus.r, 2 * samples, degree, point)
    # Scalar multiples preserve univalence, so each vector is scored rescaled
    # to put its boundary image provably inside the disc.  A boundary curve T
    # is a trigonometric polynomial of degree m, so |T|^2 is a non-negative one
    # of degree 2m; by Szego's inequality |t'| <= 2m sqrt(M^2 - t^2) for such
    # a t with maximum M, it stays >= M cos(2m s) within s of its maximum.  Some
    # node at step h = pi / samples lies within h/2 of it, so max |T| <= max
    # over nodes |T| / sqrt(cos(m h)) <= that max * inflation: dividing by the
    # inflated peak keeps the image, and by maximum modulus f(p), in the disc.
    inflation = 1.0 / math.sqrt(1.0 - 0.5 * (degree * np.pi / samples) ** 2)
    incumbent_value = tier_a.best_value
    incumbent = None  # the adopted Laurent candidate; None -> Mobius fallback
    rejected_above = -np.inf

    rng = np.random.default_rng(seed)
    starts = [
        _encode(seed_inclusion),
        _encode(seed_reflection),
        _encode(seed_inclusion) + 0.02 * rng.standard_normal(2 * size),
        _encode(seed_reflection) + 0.02 * rng.standard_normal(2 * size),
    ]

    evaluations = 0
    stop = 0  # evaluation count at which the running start is cut off
    exhausted = False
    attempts = dict.fromkeys(CertificateAttempts._fields, 0)

    # evaluations write into buffers allocated here, once per search
    values = np.empty(len(ring), dtype=complex)
    scratch = _scratch(len(ring) - 1)

    def raw(x: np.ndarray) -> float:
        nonlocal evaluations, incumbent, incumbent_value, rejected_above
        if evaluations >= stop:
            raise _Exhausted
        evaluations += 1
        c = _decode(x)
        _table_product(ring, c, values)
        peak = np.abs(values[:-1], out=scratch[2]).max()
        if peak < 1e-12:
            return -1.0
        scale = (1.0 - 1e-12) / (peak * inflation)
        np.multiply(values, scale, out=values)
        value = _objective_value(values, scratch)
        if value > max(incumbent_value, rejected_above) + CERTIFY_MARGIN:
            coefficients = c * scale
            certificate = injectivity_certificate(laurent_map(coefficients), annulus, samples=samples)
            attempts[certificate.status] += 1
            if certificate.status == "certified":
                incumbent = EmbeddingCandidate.laurent(coefficients, certificate)
                incumbent_value = _objective_value(_table_product(ring, coefficients, values), scratch)
            else:
                rejected_above = value
        return value

    per_start = max(budget // len(starts), 2 * size + 2)
    for start in starts:
        stop = min(evaluations + per_start, budget)
        try:
            _simplex_maximize(raw, start)
        except _Exhausted:
            exhausted = True

    return SearchResult(
        best_value=incumbent_value,
        best_candidate=tier_a.best_candidate if incumbent is None else incumbent,
        tier_a_value=tier_a.best_value,
        conjecture_value=tier_a.conjecture_value,
        evaluations=evaluations,
        seed=seed,
        budget_exhausted=exhausted,
        certificates=CertificateAttempts(**attempts),
    )


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    rho: np.ndarray
    values: np.ndarray
    inversions: int


def monotonicity_scan(annulus: Annulus, grid: int = 256) -> MonotonicityReport:
    """Evaluate the Tier A bound on a radial grid over [sqrt(r), 1) and count
    adjacent decreases.

    Tier A tracks the closed-form bound, which is strictly increasing, so its
    inversion count must be 0.
    """
    if grid < 8:
        raise DomainValidationError("grid must be at least 8")
    root = math.sqrt(annulus.r)
    rho = root + (1.0 - root) * np.arange(grid) / grid
    values = np.array([tier_a_bound(annulus, x).best_value for x in rho])
    inversions = int(np.sum(values[1:] < values[:-1]))
    return MonotonicityReport(rho, values, inversions)
