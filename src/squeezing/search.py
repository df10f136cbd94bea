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
``planar.annulus_lower_bound`` and samples nothing.  That value is also the
conjectured squeezing value, reported next to every search result with its
gap to the best found bound, which is never asserted to have a sign.

Tier B perturbs Laurent coefficients around those seeds with a
deterministic multi-start Nelder-Mead simplex search (the min-over-samples
objective is nonsmooth, so derivative-free search is the right tool).
Search evaluations are advisory; a candidate is adopted only after its
injectivity certificate passes, and only adopted candidates are ever
reported.  Post-composition with a disc automorphism is value-neutral (the
objective is Mobius invariant), so candidates are stored unnormalised and
implicitly recentred at f(p).

The boundary curves of a degree-m Laurent map are trigonometric
polynomials on fixed sample rings, so a search builds the power basis
``rouche.annulus_basis`` of each ring (the normalising scan, and the
objective ring plus the query point) once per call; each evaluation is then
one matrix-vector product of that basis with the coefficient vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainValidationError,
    ImageEscapesDisc,
    NotCertified,
    PointOutsideAnnulus,
)
from .planar import Annulus, annulus_lower_bound
from .rouche import InjectivityCertificate, annulus_basis, injectivity_certificate, laurent_map

#: Default boundary samples per circle for objective evaluation; a Laurent
#: winner's reported value is re-evaluated at twice this resolution.
DEFAULT_SAMPLES = 2048

#: Candidates must beat the certified incumbent by this much before the
#: (expensive) injectivity certificate is attempted.
CERTIFY_MARGIN = 1e-6

#: Boundary samples per circle of the scan that bounds the image modulus.
_SCAN = 8192

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
    False when every start converged within its share.  ``certificates``
    counts the injectivity certificates the search ran, by status."""

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


def _check_point(annulus: Annulus, p) -> complex:
    point = complex(p)
    if not annulus.r < abs(point) < 1.0:
        raise PointOutsideAnnulus(f"|p| = {abs(point)} is not in ({annulus.r}, 1)")
    return point


def _objective_value(coefficients: np.ndarray, basis: np.ndarray, strict: bool) -> float:
    """Sampled objective on an ``annulus_basis`` whose last row is the query
    point; with strict=False an escaping image yields a negative penalty
    instead of an exception (used inside the search)."""
    values = basis @ coefficients
    w, wp = values[:-1], values[-1]
    escape = max(np.abs(w).max() - 1.0, abs(wp) - (1.0 - 1e-15))
    if escape >= _ESCAPE_SLACK:
        if strict:
            raise ImageEscapesDisc(f"boundary image modulus exceeds 1 by {escape:.3e}")
        return -1.0 - escape
    # |wp - w|^2 - |1 - conj(w) wp|^2 = (1 - |wp|^2)(|w|^2 - 1), so a sample
    # on or beyond the unit circle lies at pseudo-distance >= 1 and never wins
    return float(np.abs((wp - w) / (1.0 - np.conj(w) * wp)).min())


def _normalized(coefficients: np.ndarray, scan: np.ndarray) -> np.ndarray | None:
    """Rescale a coefficient vector so the boundary image provably stays
    inside the unit disc.

    Scalar multiples preserve univalence, so the search works on normalised
    representatives and feasibility walls disappear.  A boundary curve T is a
    trigonometric polynomial of the Laurent degree m, so |T|^2 is a
    non-negative one of degree 2m; by Szego's inequality
    |t'| <= 2m sqrt(M^2 - t^2) for such a t with maximum M, it stays
    >= M cos(2m s) within s of its maximum.  Some node at angular step h
    lies within h/2 of it, so
    max |T| <= max_nodes |T| / sqrt(cos(m h)) <= max_nodes |T| / sqrt(1 - (m h)^2 / 2),
    and dividing by that inflated peak keeps the rescaled image strictly
    inside the disc at every resolution.
    ``scan`` is the ``annulus_basis`` at _SCAN samples per circle.
    Degenerate (near-zero) vectors yield None.
    """
    degree = len(coefficients) // 2
    peak = np.abs(scan @ coefficients).max()
    if peak < 1e-12:
        return None
    step = 2.0 * np.pi / _SCAN
    inflation = 1.0 / math.sqrt(1.0 - 0.5 * (degree * step) ** 2)
    return coefficients * ((1.0 - 1e-12) / (peak * inflation))


def objective(candidate: EmbeddingCandidate, annulus: Annulus, p, samples: int = DEFAULT_SAMPLES) -> float:
    """Lower bound realised by a certified candidate at p.

    The minimum pseudo-hyperbolic distance from f(p) to the sampled images
    of both boundary circles.  Raises NotCertified for candidates without a
    passing certificate and ImageEscapesDisc when the boundary image leaves
    the closed unit disc beyond tolerance.
    """
    if candidate.status != "certified":
        raise NotCertified(f"candidate status is {candidate.status!r}")
    point = _check_point(annulus, p)
    basis = annulus_basis(annulus.r, samples, len(candidate.coefficients) // 2, point)
    return _objective_value(candidate.coefficients, basis, strict=True)


def tier_a_bound(annulus: Annulus, p) -> SearchResult:
    """Best of the two Mobius embeddings: ``annulus_lower_bound`` and its branch's family."""
    point = _check_point(annulus, p)
    bound = annulus_lower_bound(annulus, point)
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
    points = [np.array(x0, dtype=float)]
    for i in range(dim):
        shifted = np.array(x0, dtype=float)
        shifted[i] += _SIMPLEX_STEP
        points.append(shifted)
    values = [fn(x) for x in points]

    for _ in range(_SIMPLEX_ITERATIONS):
        order = sorted(range(dim + 1), key=lambda i: -values[i])
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        spread = max(np.max(np.abs(p - points[0])) for p in points[1:])
        if values[0] - values[-1] < 1e-11 and spread < 1e-11:
            break
        centroid = np.mean(points[:-1], axis=0)
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
                points = [points[0]] + [points[0] + 0.5 * (p - points[0]) for p in points[1:]]
                values = [values[0]] + [fn(p) for p in points[1:]]


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
    point = _check_point(annulus, p)
    if not isinstance(degree, int) or not 0 <= degree <= _DEGREE_CAP:
        raise DomainValidationError(f"degree must be an integer in [0, {_DEGREE_CAP}]")
    if budget < 1:
        raise DomainValidationError("budget must be at least 1")
    if seed < 0:
        raise DomainValidationError(f"seed must be a non-negative integer, got {seed}")

    tier_a = tier_a_bound(annulus, point)
    if degree == 0:
        return replace(tier_a, seed=seed)

    size = 2 * degree + 1
    seed_inclusion = np.zeros(size, dtype=complex)
    seed_inclusion[degree + 1] = 1.0
    seed_reflection = np.zeros(size, dtype=complex)
    seed_reflection[degree - 1] = annulus.r

    # the power bases of the normalising scan and of the objective ring are
    # built once here; every evaluation below is one matrix-vector product
    scan = annulus_basis(annulus.r, _SCAN, degree)
    ring = annulus_basis(annulus.r, samples, degree, point)
    incumbent_value = tier_a.best_value
    incumbent = None  # (coefficients, raw value, certificate); None -> Mobius fallback
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

    def raw(x: np.ndarray) -> float:
        nonlocal evaluations, incumbent, incumbent_value, rejected_above
        if evaluations >= stop:
            raise _Exhausted
        evaluations += 1
        coefficients = _normalized(_decode(x), scan)
        if coefficients is None:
            return -1.0
        value = _objective_value(coefficients, ring, strict=False)
        if value > max(incumbent_value, rejected_above) + CERTIFY_MARGIN:
            certificate = injectivity_certificate(laurent_map(coefficients), annulus, samples=samples)
            attempts[certificate.status] += 1
            if certificate.status == "certified":
                incumbent = (coefficients.copy(), value, certificate)
                incumbent_value = value
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

    best_value = tier_a.best_value
    best_candidate = tier_a.best_candidate
    if incumbent is not None:
        coefficients, raw_value, certificate = incumbent
        try:
            basis = annulus_basis(annulus.r, 2 * samples, degree, point)
            final_value = _objective_value(coefficients, basis, strict=True)
        except ImageEscapesDisc:
            final_value = None
        # resolution disagreement invalidates the candidate
        if (
            final_value is not None
            and abs(final_value - raw_value) <= CERTIFY_MARGIN
            and final_value > best_value
        ):
            best_value = final_value
            best_candidate = EmbeddingCandidate.laurent(coefficients, certificate)

    return SearchResult(
        best_value=best_value,
        best_candidate=best_candidate,
        tier_a_value=tier_a.best_value,
        conjecture_value=tier_a.conjecture_value,
        evaluations=evaluations,
        seed=seed,
        budget_exhausted=exhausted,
        certificates=CertificateAttempts(**attempts),
    )


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    tier: str
    rho: np.ndarray
    values: np.ndarray
    inversions: int


def monotonicity_scan(
    annulus: Annulus,
    grid: int = 256,
    tier: str = "A",
    degree: int = 2,
    budget: int = 120,
    seed: int = 0,
) -> MonotonicityReport:
    """Evaluate the chosen tier's bound on a radial grid over [sqrt(r), 1)
    and count adjacent decreases.

    Tier A tracks the closed-form bound, which is strictly increasing, so its
    inversion count must be 0.  Tier B counts are reported, not asserted:
    budget-limited searches are noisy.
    """
    if grid < 8:
        raise DomainValidationError("grid must be at least 8")
    if tier not in ("A", "B"):
        raise DomainValidationError("tier must be 'A' or 'B'")
    root = math.sqrt(annulus.r)
    rho = root + (1.0 - root) * np.arange(grid) / grid
    if tier == "A":
        values = np.array([tier_a_bound(annulus, x).best_value for x in rho])
    else:
        values = np.array(
            [
                tier_b_search(annulus, x, degree=degree, budget=budget, seed=seed).best_value
                for x in rho
            ]
        )
    inversions = int(np.sum(values[1:] < values[:-1]))
    return MonotonicityReport(tier, rho, values, inversions)
