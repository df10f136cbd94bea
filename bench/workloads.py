"""Seeded op decks, oracles and correctness gates for the four workloads.

A workload is a list of decks; a deck is a short list of ops whose mix is
the same in every deck, so a run that stops at a deck boundary always has
the same mix.  Decks are generated from the seed with numpy alone: every
label and reference value here is computed without calling ``squeezing``,
so a wrong program result cannot also corrupt its own reference.

Every workload exposes
  ``decks``            the pre-generated deck pool (cycled if a run uses more),
  ``prepare(sq)``      binds the imported program and builds fixtures,
  ``execute(op)``      one call into the program, returning a plain outcome,
  ``verify(op, out)``  None when the outcome agrees with the reference,
                       otherwise a one-line reason (the op counts as failed),
  ``summary(results)`` workload-specific tallies for the record.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Absolute tolerance for closed-form oracles evaluated in double precision.
CLOSED_FORM_TOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One unit of work: a kind, its inputs and the reference it must meet."""

    kind: str
    params: dict = field(default_factory=dict)
    expect: object = None


def _rng(seed: int, workload: str, stream: int) -> np.random.Generator:
    tag = int.from_bytes(workload.encode(), "little") % (2 ** 32)
    return np.random.default_rng([seed, tag, stream + 1])


def _polar(rng, low, high) -> complex:
    return complex(rng.uniform(low, high) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def radial_gap(a: float, b: float) -> float:
    """tanh((sigma(a) - sigma(b)) / 2) for radii 0 <= b <= a < 1, in closed form."""
    return (a - b) / (1.0 - a * b)


def annulus_bound_oracle(r: float, rho: float) -> float:
    """Best of the direct and reflected hyperbolic-disc inclusions."""
    return max(radial_gap(rho, r), radial_gap(r / rho, r))


def excision_oracle(u: float, v: float, w: float) -> float:
    """(r/v - r/w) / (1 - r^2/(v w)) increases in r, so its infimum is at r = u."""
    return u * (w - v) / (v * w - u * u)


def run_cli(cli_module, argv) -> tuple:
    """Call the CLI entry point in-process; return (code, stdout, stderr, exception name)."""
    out, err = io.StringIO(), io.StringIO()
    exc_name = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main(list(argv))
    except SystemExit as stop:  # argparse rejects a request by exiting
        code = stop.code
    except Exception as exc:  # an uncaught exception is what a user sees as a traceback
        code, exc_name = None, type(exc).__name__
    return code, out.getvalue(), err.getvalue(), exc_name


def _cli_failure(outcome, expect_code: int) -> str | None:
    code, _, err, exc_name = outcome
    if exc_name is not None or "Traceback" in err:
        return f"traceback ({exc_name})"
    if code not in (0, 2):
        return f"exit code {code}"
    if code != expect_code:
        return f"exit code {code}, expected {expect_code}"
    if code == 2 and not err.strip():
        return "exit 2 without a message"
    return None


class Workload:
    """Defaults shared by the workloads; ``prepare`` binds the program."""

    seeded = True
    #: Whether op times are scaled by the calibration kernel (see worker.py).
    #: Only interpreter-bound workloads are: the machine's speed swings move
    #: the kernel's interpreter loop far more than vector or memory-bound
    #: numpy, so scaling such work would add the swing instead of removing it.
    calibrated = False

    def prepare(self, sq) -> None:
        """Bind the imported program and build fixtures (part of set-up)."""
        self.sq = sq

    def gate_ops(self, ops) -> list:
        """Extra ops the gates need beyond those the timed phase ran."""
        return []

    def gates(self, results) -> list:
        """Failures of properties that span several ops."""
        return []

    def summary(self, results) -> dict:
        """Workload-specific tallies for the record."""
        return {}


# --------------------------------------------------------------------------
# search


#: Fractional parts of the golden ratio, sqrt(2) and sqrt(3): the Weyl steps.
WEYL = np.array([0.6180339887498949, 0.4142135623730951, 0.7320508075688772])

README_ARGV = ("search", "--annulus", "0.25", "--rho", "0.5", "--degree", "2",
               "--budget", "500", "--seed", "42")
README_PROBLEM = {"r": 0.25, "rho": 0.5, "degree": 2, "budget": 500, "seed": 42}


class SearchWorkload(Workload):
    """The README problem, in-process and through the CLI, plus one drawn problem per deck.

    One op is one search.  Drawn problems cycle the degree 1, 2, 3 and take
    r, rho and the budget from a Weyl sequence shifted by the seed, so the
    few a run holds cover each range evenly.  Their cost still varies about
    fourfold with the number of certificate attempts, so the fixed README
    problem makes up two thirds of the ops to keep runs comparable.
    """

    name = "search"
    tail_percentile = 50.0  # a run holds about twelve searches: too few for a higher tail
    pool = 32

    def __init__(self, seed: int):
        self.seed = seed
        rng = _rng(seed, self.name, -1)
        self._shift = rng.random(3)
        self._seeds = [int(x) for x in rng.integers(0, 2 ** 31 - 1, self.pool)]
        self.decks = [self._deck(k) for k in range(self.pool)]

    def _deck(self, k: int) -> list:
        u = (self._shift + k * WEYL) % 1.0
        r = 0.1 + 0.5 * float(u[0])
        root = math.sqrt(r)
        return [
            Op("readme-cli", {"argv": README_ARGV}),
            Op("search", {
                "r": r,
                "rho": root + (1.0 - 0.05 * (1.0 - root) - root) * float(u[1]),
                "degree": 1 + k % 3,
                "budget": 300 + int(round(200 * float(u[2]))),
                "seed": self._seeds[k],
            }),
            Op("search", README_PROBLEM, expect="readme"),
        ]

    def execute(self, op: Op):
        sq = self.sq
        if op.kind == "readme-cli":
            return run_cli(sq.cli, op.params["argv"])
        p = op.params
        result = sq.search.tier_b_search(
            sq.planar.Annulus(p["r"]), p["rho"], degree=p["degree"], budget=p["budget"], seed=p["seed"]
        )
        return {
            "best_value": result.best_value,
            "tier_a_value": result.tier_a_value,
            "evaluations": result.evaluations,
        }

    @staticmethod
    def record(op: Op, outcome) -> dict:
        """The search record of an op, from the library result or the CLI line."""
        if op.kind == "readme-cli":
            return json.loads(outcome[1])
        return outcome

    def verify(self, op: Op, outcome) -> str | None:
        if op.kind == "readme-cli":
            failure = _cli_failure(outcome, 0)
            if failure:
                return failure
        record = self.record(op, outcome)
        if (op.kind == "readme-cli" or op.expect == "readme") and \
                abs(record["tier_a_value"] - 2.0 / 7.0) > CLOSED_FORM_TOL:
            return f"README tier A value {record['tier_a_value']!r} is not 2/7"
        if not record["tier_a_value"] - 1e-9 <= record["best_value"] < 1.0:
            return f"best value {record['best_value']!r} outside [tier A - 1e-9, 1)"
        return None

    def gate_ops(self, ops) -> list:
        """The byte-identical rerun gate needs two README runs."""
        runs = sum(op.kind == "readme-cli" for op in ops)
        return [Op("readme-cli", {"argv": README_ARGV})] * max(0, 2 - runs)

    def gates(self, results) -> list:
        """Every README run prints the same bytes and finds the same value in-process."""
        failures = []
        outputs = {out[1] for op, out, err, _ in results if op.kind == "readme-cli" and err is None}
        if len(outputs) > 1:
            failures.append("README search output differs between CLI runs")
        values = {out["best_value"] for op, out, err, _ in results if op.expect == "readme" and err is None}
        values |= {json.loads(text)["best_value"] for text in outputs if text}
        if len(values) > 1:
            failures.append(f"README search best values differ: {sorted(values)}")
        return failures

# --------------------------------------------------------------------------
# certify


CERT_GRIDS = (8, 16, 32)
CERT_SAMPLES = (512, 1024, 2048)

#: Families of Laurent maps: (name, injective?).  "joukowski-near" sits just
#: past the injectivity threshold |lambda| = r^2, where the grid certificate
#: is known to certify non-injective maps; it is kept to count that defect.
FAMILIES = (
    ("identity", True),
    ("reflection", True),
    ("quadratic", True),
    ("joukowski-injective", True),
    ("joukowski-near", False),
    ("joukowski-far", False),
    ("power", False),
)


def laurent_values(coefficients, z):
    """sum_k c_k z^k for coefficients c_{-m}..c_m (reference evaluator)."""
    c = np.asarray(coefficients, dtype=complex)
    m = len(c) // 2
    return sum(c[k + m] * np.asarray(z, dtype=complex) ** k for k in range(-m, m + 1))


def _laurent_case(rng, family: str, r: float) -> tuple:
    """Coefficients c_{-m}..c_m and the witness that labels the map: the
    quantity an injectivity argument bounds, or a colliding pair."""
    if family == "identity":
        return [0j, 0j, 1 + 0j], {}
    if family == "reflection":
        c = _polar(rng, 0.5 * r, r)
        return [c, 0j, 0j], {"c_abs": abs(c)}
    if family == "quadratic":
        eps = _polar(rng, 0.05, 0.45)
        # Re f'(z) = Re(1 + 2 eps z) > 0 on the unit disc (Noshiro-Warschawski)
        return [0j, 0j, 0j, 1 + 0j, eps], {"eps_abs": abs(eps)}
    if family == "joukowski-injective":
        lam = _polar(rng, 0.1 * r * r, 0.9 * r * r)
        # f(z1) = f(z2) with z1 != z2 forces z1 z2 = lambda, but |z1 z2| > r^2
        return [lam, 0j, 1 + 0j], {"lambda_abs": abs(lam)}
    if family in ("joukowski-near", "joukowski-far"):
        if family == "joukowski-near":
            modulus = r * r * (1.0 + rng.uniform(0.005, 0.05))
        else:
            modulus = rng.uniform(1.2 * r * r, 0.9)
        lam = complex(modulus * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        t = rng.uniform(0.5, 2.5)
        root = np.sqrt(lam)
        pair = (complex(root * np.exp(1j * t)), complex(root * np.exp(-1j * t)))
        return [lam, 0j, 1 + 0j], {"pair": pair}
    k = int(rng.integers(2, 5))
    coefficients = [0j] * (2 * k + 1)
    coefficients[2 * k] = 1 + 0j
    z1 = complex(rng.uniform(r + 0.05 * (1 - r), 1 - 0.05 * (1 - r)) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    # z^k identifies points that differ by a k-th root of unity
    return coefficients, {"pair": (z1, z1 * np.exp(2j * np.pi / k))}


def _polynomial_case(rng, annulus: bool) -> tuple:
    """Seeded roots kept at least 0.08 away from the contour(s); the label is
    the number of np.roots of the expanded polynomial inside."""
    degree = int(rng.integers(3, 9))
    if annulus:
        inner = float(rng.uniform(0.2, 0.6))
        center, radius = 0j, 1.0
        radii = (inner, 1.0)
    else:
        center, radius = _polar(rng, 0.0, 0.3), float(rng.uniform(0.5, 1.0))
        radii = (radius,)
    roots = []
    while len(roots) < degree:
        z = _polar(rng, 0.0, 1.5)
        distance = abs(z - center)
        if all(abs(distance - rho) >= 0.08 for rho in radii):
            roots.append(z)
    descending = np.poly(roots)
    found = np.abs(np.roots(descending) - center)
    if annulus:
        label = int(np.sum((found > radii[0]) & (found < 1.0)))
    else:
        label = int(np.sum(found < radius))
    params = {
        "coefficients": [complex(c) for c in descending[::-1]],
        "roots": [complex(z) for z in roots],
        "samples": int(rng.choice((64, 128, 256))),
    }
    if annulus:
        params["inner"] = radii[0]
    else:
        params["center"], params["radius"] = center, radius
    return params, label


class CertifyWorkload(Workload):
    """Injectivity certificates on labelled Laurent maps, mixed with zero counts.

    Each deck holds one certificate per (grid, samples) pair, each on a
    fresh r in [0.2, 0.6], plus four zero counts.  Families rotate across
    decks, so seven decks cover every family at every pair.
    """

    name = "certify"
    tail_percentile = 95.0
    pool = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.decks = [self._deck(k) for k in range(self.pool)]

    def _deck(self, k: int) -> list:
        rng = _rng(self.seed, self.name, k)
        pairs = [(g, s) for g in CERT_GRIDS for s in CERT_SAMPLES]
        ops = []
        for i, (grid, samples) in enumerate(pairs):
            family, injective = FAMILIES[(k * len(pairs) + i) % len(FAMILIES)]
            r = float(rng.uniform(0.2, 0.6))
            coefficients, witness = _laurent_case(rng, family, r)
            ops.append(Op("certificate", {
                "family": family, "r": r, "grid": grid, "samples": samples,
                "coefficients": coefficients, "witness": witness,
            }, expect=injective))
        for annulus in (False, True, False, True):
            params, label = _polynomial_case(rng, annulus)
            ops.append(Op("count-annulus" if annulus else "count-circle", params, expect=label))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def execute(self, op: Op):
        p = op.params
        rouche = self.sq.rouche
        if op.kind == "certificate":
            f = rouche.laurent_map(p["coefficients"])
            return rouche.injectivity_certificate(f, p["r"], target_grid=p["grid"], samples=p["samples"]).status
        f = rouche.polynomial_map(p["coefficients"])
        if op.kind == "count-annulus":
            contours = rouche.unit_annulus_contours(p["inner"], p["samples"])
        else:
            contours = rouche.CircleContour(p["center"], p["radius"], 1, p["samples"])
        return rouche.zero_count_detailed(f, contours).count

    def verify(self, op: Op, outcome) -> str | None:
        if op.kind == "certificate":
            if outcome not in ("certified", "refuted", "inconclusive"):
                return f"unknown certificate status {outcome!r}"
            if op.expect and outcome == "refuted":
                return f"{op.params['family']} map refuted although injective"
            return None
        if outcome != op.expect:
            return f"zero count {outcome} != {op.expect} np.roots inside"
        return None

    def summary(self, results) -> dict:
        injective = [out for op, out, err, _ in results if op.kind == "certificate" and op.expect and err is None]
        noninjective = [(op.params["family"], out) for op, out, err, _ in results
                        if op.kind == "certificate" and not op.expect and err is None]
        unsound = {}
        for family, out in noninjective:
            unsound.setdefault(family, [0, 0])
            unsound[family][0] += out == "certified"
            unsound[family][1] += 1
        return {
            "certified_ratio": injective.count("certified") / len(injective) if injective else 0.0,
            "unsound_ratio": (sum(out == "certified" for _, out in noninjective) / len(noninjective)
                              if noninjective else 0.0),
            "unsound_by_family": {k: {"certified": v[0], "of": v[1]} for k, v in unsound.items()},
        }


# --------------------------------------------------------------------------
# queries


#: Known defect: a NaN coordinate passes the norm test and ends in an
#: uncaught ValueError.  Counted, not failed, while it stays this way.
KNOWN_DEFECT_ARGV = ("exact", "--domain", "punctured-ball:2", "--point", "nan,0")

MALFORMED = (
    ("exact", "--domain", "typeV:3"),
    ("exact", "--domain", "typeI:3,2"),
    ("exact", "--domain", "typeIII:1"),
    ("exact", "--domain", "punctured-ball:2", "--point", "0,0"),
    ("bound", "--annulus", "1.5", "--rho", "0.5"),
    ("bound", "--annulus", "0.25"),
    ("bound", "--annulus", "0.25", "--rho", "0.2"),
    ("bound", "--annulus", "abc"),
    ("bound", "--c-constant", "0.5,0.3,0.6"),
    ("table", "--annulus", "0.25", "--samples", "1"),
)

#: Ops per deck, by kind; a quarter go through the CLI.
QUERY_MIX = (
    ("annulus_lower_bound", 5),
    ("annulus_golden", 1),
    ("annulus_conjectured_value", 4),
    ("caratheodory_lower_estimate", 2),
    ("excised_domain_lower_bound", 3),
    ("excision_constant", 2),
    ("punctured_domain_upper_bound", 3),
    ("contains", 6),
    ("kubota_constant", 2),
    ("product_constant", 2),
    ("cli-exact", 3),
    ("cli-bound", 3),
    ("cli-table", 1),
    ("cli-malformed", 2),
    ("cli-known-defect", 1),
)

_TWO_HOLE = {"u": 0.2, "v": 0.3, "w": 0.45, "holes": ((0.5 + 0j, 0.25), (-0.5 + 0j, 0.25))}


def _fmt(x: float) -> str:
    return format(x, ".17g")


def circle_image(a: complex, rho: float) -> tuple:
    """Centre and radius of the image of |z| = rho under z -> (z + a)/(1 + conj(a) z)."""
    denom = 1.0 - rho * rho * abs(a) ** 2
    return a * (1.0 - rho * rho) / denom, rho * (1.0 - abs(a) ** 2) / denom


def _classical(rng) -> tuple:
    kind = ("I", "II", "III", "IV")[int(rng.integers(0, 4))]
    if kind == "I":
        r = int(rng.integers(1, 4))
        params = (r, int(rng.integers(r, 4)))
        m = r
    elif kind == "II":
        params = (int(rng.integers(1, 4)),)
        m = params[0]
    elif kind == "III":
        params = (int(rng.integers(2, 6)),)
        m = params[0] // 2
    else:
        params = (int(rng.integers(2, 6)),)
        m = 2
    return kind, params, m


def _classical_point(rng, kind: str, params: tuple, scale: float) -> np.ndarray:
    """A point whose domain norm is exactly ``scale`` up to rounding: largest
    singular value for types I-III, the Lie norm for type IV."""
    def gauss(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "IV":
        z = gauss(params[0])
        norm_sq = np.vdot(z, z).real
        lie = math.sqrt(norm_sq + math.sqrt(max(norm_sq ** 2 - abs(np.dot(z, z)) ** 2, 0.0)))
        return (scale / lie) * z
    if kind == "I":
        z = gauss(params)
    elif kind == "II":
        g = gauss((params[0], params[0]))
        z = g + g.T
    else:
        g = gauss((params[0], params[0]))
        z = g - g.T
    return (scale / np.linalg.norm(z, 2)) * z


def _ball_point(rng, dimension: int, low: float, high: float) -> np.ndarray:
    g = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
    return rng.uniform(low, high) * g / np.linalg.norm(g)


def _ball_text(rng) -> tuple:
    """(dimension, CLI point text, its norm) for a point of the unit ball."""
    n = int(rng.integers(1, 4))
    reals = [x for c in _ball_point(rng, n, 0.05, 0.95) for x in (c.real, c.imag)]
    # the text round-trips exactly, so the norm of the parsed point is the reference
    return n, ",".join(_fmt(x) for x in reals), float(np.linalg.norm(reals))


def _token(domain: tuple) -> str:
    kind, params, _ = domain
    return f"type{kind}:" + ",".join(str(p) for p in params)


def _nested_radii(rng) -> tuple:
    """0 < u < v < w < 1 with gaps of at least 0.02."""
    while True:
        u, v, w = sorted(float(x) for x in rng.uniform(0.05, 0.95, 3))
        if v - u > 0.02 and w - v > 0.02:
            return u, v, w


class QueriesWorkload(Workload):
    """Closed-form and certified-bound queries, a quarter of them through the CLI.

    Every op has a reference computed here in closed form.  The malformed
    CLI requests must exit 2 with a message; the NaN-point request is the
    known traceback defect and is tallied separately.
    """

    name = "queries"
    tail_percentile = 99.0
    calibrated = True
    pool = 48

    def __init__(self, seed: int):
        self.seed = seed
        self.decks = [self._deck(k) for k in range(self.pool)]

    def _deck(self, k: int) -> list:
        rng = _rng(self.seed, self.name, k)
        ops = [self._op(rng, kind) for kind, count in QUERY_MIX for _ in range(count)]
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _op(self, rng, kind: str) -> Op:
        if kind == "annulus_golden":
            return Op("annulus_lower_bound", {"r": 0.25, "rho": 0.5}, 2.0 / 7.0)
        if kind in ("annulus_lower_bound", "annulus_conjectured_value", "caratheodory_lower_estimate"):
            r = float(rng.uniform(0.05, 0.8))
            root = math.sqrt(r)
            if kind == "annulus_conjectured_value":
                rho = float(rng.uniform(root, 0.999))
                return Op(kind, {"r": r, "rho": rho}, radial_gap(rho, r))
            rho = float(rng.uniform(r + 1e-3, 0.999))
            lower = annulus_bound_oracle(r, rho)
            if kind == "annulus_lower_bound":
                return Op(kind, {"r": r, "rho": rho}, lower)
            delta = min(1.0 - rho, rho - r)
            return Op(kind, {"r": r, "rho": rho, "lower": lower}, lower / (4.0 * delta))
        if kind == "excision_constant":
            u, v, w = _nested_radii(rng)
            return Op(kind, {"u": u, "v": v, "w": w}, excision_oracle(u, v, w))
        if kind == "excised_domain_lower_bound":
            return self._excised_op(rng)
        if kind == "punctured_domain_upper_bound":
            n = int(rng.integers(1, 4))
            z = _ball_point(rng, n, 0.05, 0.95)
            return Op(kind, {"dimension": n, "point": [complex(x) for x in z]}, float(np.linalg.norm(z)))
        if kind == "contains":
            domain = _classical(rng)
            scale = float(rng.uniform(0.05, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 1.6))
            point = _classical_point(rng, domain[0], domain[1], scale)
            return Op(kind, {"kind": domain[0], "params": domain[1], "point": point.tolist()}, scale < 1.0)
        if kind == "kubota_constant":
            domain = _classical(rng)
            return Op(kind, {"kind": domain[0], "params": domain[1]}, domain[2] ** -0.5)
        if kind == "product_constant":
            factors = [_classical(rng) for _ in range(int(rng.integers(2, 4)))]
            total = sum(f[2] for f in factors)
            return Op(kind, {"factors": [(f[0], f[1]) for f in factors]}, total ** -0.5)
        return self._cli_op(rng, kind)

    def _excised_op(self, rng) -> Op:
        u, v, w = _TWO_HOLE["u"], _TWO_HOLE["v"], _TWO_HOLE["w"]
        mid = 0.5 * (v + w)
        while True:
            z = _polar(rng, 0.0, 0.999)
            holes = [circle_image(a, radius) for a, radius in _TWO_HOLE["holes"]]
            collars = [circle_image(a, mid) for a, _ in _TWO_HOLE["holes"]]
            if any(abs(z - c) <= rad + 1e-9 for c, rad in holes):
                continue
            if any(abs(abs(z - c) - rad) < 1e-9 for c, rad in collars):
                continue
            break
        near = any(abs(z - c) < rad for c, rad in collars)
        value = excision_oracle(u, mid, w) if near else radial_gap(mid, v)
        return Op("excised_domain_lower_bound", {"point": z}, value)

    def _cli_op(self, rng, kind: str) -> Op:
        if kind == "cli-known-defect":
            return Op("cli", {"argv": KNOWN_DEFECT_ARGV}, {"code": 2, "known_defect": True})
        if kind == "cli-malformed":
            return Op("cli", {"argv": MALFORMED[int(rng.integers(0, len(MALFORMED)))]}, {"code": 2})
        if kind == "cli-table":
            r = float(rng.uniform(0.05, 0.8))
            samples = int(rng.integers(2, 6))
            rhos = [float(x) for x in np.linspace(math.sqrt(r), 1.0 - 1e-6, samples)]
            rows = [(x, annulus_bound_oracle(r, x), radial_gap(x, r)) for x in rhos]
            return Op("cli", {"argv": ("table", "--annulus", _fmt(r), "--samples", str(samples))},
                      {"code": 0, "rows": rows})
        if kind == "cli-exact":
            choice = int(rng.integers(0, 3))
            if choice == 0:
                domain = _classical(rng)
                argv, value = ("exact", "--domain", _token(domain)), domain[2] ** -0.5
            elif choice == 1:
                factors = [_classical(rng) for _ in range(2)]
                argv = ("exact", "--domain", "product:" + "+".join(_token(f) for f in factors))
                value = sum(f[2] for f in factors) ** -0.5
            else:
                n, text, value = _ball_text(rng)
                argv = ("exact", "--domain", f"punctured-ball:{n}", f"--point={text}")
            return Op("cli", {"argv": argv}, {"code": 0, "value": value})
        choice = int(rng.integers(0, 4))
        r = float(rng.uniform(0.05, 0.8))
        rho = float(rng.uniform(r + 1e-3, 0.999))
        expect = {"code": 0, "value": annulus_bound_oracle(r, rho)}
        argv = ("bound", "--annulus", _fmt(r), "--rho", _fmt(rho))
        if choice == 1:
            argv += ("--caratheodory",)
            expect["value"] /= 4.0 * min(1.0 - rho, rho - r)
        elif choice == 2:
            n, text, expect["value"] = _ball_text(rng)
            argv = ("bound", "--punctured-ball", str(n), "--punctures", ",".join(["0"] * n), f"--point={text}")
        elif choice == 3:
            u, v, w = _nested_radii(rng)
            argv = ("bound", "--c-constant", f"{_fmt(u)},{_fmt(v)},{_fmt(w)}")
            expect.update(value=excision_oracle(u, v, w), tol=1e-9)
        return Op("cli", {"argv": argv}, expect)

    # -- execution --------------------------------------------------------

    def prepare(self, sq) -> None:
        """Bind the program and build the domain objects the ops share."""
        self.sq = sq
        holes = tuple(sq.planar.Excision(a, radius) for a, radius in _TWO_HOLE["holes"])
        self.excised = sq.planar.ExcisedDomain(_TWO_HOLE["u"], _TWO_HOLE["v"], _TWO_HOLE["w"], holes)
        self.punctured = {n: sq.planar.PuncturedBall(n, (np.zeros(n),)) for n in (1, 2, 3)}

    def execute(self, op: Op):
        sq, p, kind = self.sq, op.params, op.kind
        if kind == "cli":
            return run_cli(sq.cli, p["argv"])
        planar, symmetric = sq.planar, sq.symmetric
        if kind == "annulus_lower_bound":
            return planar.annulus_lower_bound(planar.Annulus(p["r"]), p["rho"]).value
        if kind == "annulus_conjectured_value":
            return planar.annulus_conjectured_value(planar.Annulus(p["r"]), p["rho"]).value
        if kind == "caratheodory_lower_estimate":
            return planar.caratheodory_lower_estimate(p["rho"], p["lower"], planar.Annulus(p["r"]))
        if kind == "excision_constant":
            return planar.excision_constant(p["u"], p["v"], p["w"])
        if kind == "excised_domain_lower_bound":
            return planar.excised_domain_lower_bound(self.excised, p["point"]).value
        if kind == "punctured_domain_upper_bound":
            ball = self.punctured[p["dimension"]]
            return planar.punctured_domain_upper_bound(ball, np.array(p["point"])).value
        if kind == "contains":
            domain = symmetric.ClassicalDomain(p["kind"], p["params"])
            return symmetric.contains(domain, np.array(p["point"]))
        if kind == "kubota_constant":
            return symmetric.kubota_constant(symmetric.ClassicalDomain(p["kind"], p["params"])).value
        domains = [symmetric.ClassicalDomain(k, params) for k, params in p["factors"]]
        return symmetric.product_constant(domains).value

    def verify(self, op: Op, outcome) -> str | None:
        if op.kind != "cli":
            if op.kind == "contains":
                return None if outcome == op.expect else f"contains returned {outcome}, expected {op.expect}"
            tol = 1e-9 if op.kind in ("excision_constant", "excised_domain_lower_bound") else CLOSED_FORM_TOL
            if not abs(outcome - op.expect) <= tol:
                return f"{op.kind} = {outcome!r}, reference {op.expect!r}"
            return None
        expect = op.expect
        if expect.get("known_defect") and outcome[3] == "ValueError":
            return None
        failure = _cli_failure(outcome, expect["code"])
        if failure or expect["code"] == 2:
            return failure and f"{' '.join(op.params['argv'])}: {failure}"
        stdout = outcome[1]
        if "rows" in expect:
            lines = stdout.strip().splitlines()
            if lines[0] != "rho,lower_bound,conjecture" or len(lines) != len(expect["rows"]) + 1:
                return "table has the wrong shape"
            for line, row in zip(lines[1:], expect["rows"]):
                got = [float(x) for x in line.split(",")]
                if max(abs(a - b) for a, b in zip(got, row)) > CLOSED_FORM_TOL:
                    return f"table row {line} differs from {row}"
            return None
        value = json.loads(stdout)["value"]
        if not abs(value - expect["value"]) <= expect.get("tol", CLOSED_FORM_TOL):
            return f"{' '.join(op.params['argv'])}: value {value!r}, reference {expect['value']!r}"
        return None

    def summary(self, results) -> dict:
        probes = [out for op, out, err, _ in results if op.kind == "cli" and op.expect.get("known_defect")]
        return {
            "cli_ops": sum(op.kind == "cli" for op, *_ in results),
            "known_defect_probes": len(probes),
            "known_defect_tracebacks": sum(out is not None and out[3] is not None for out in probes),
        }


# --------------------------------------------------------------------------
# check


SUITES = ("metrics", "rouche", "symmetric", "planar", "search")

#: Invariants per suite at the time the benchmark was written (39 in all);
#: a suite may grow, never shrink.
SUITE_SIZES = {"metrics": 7, "rouche": 9, "symmetric": 6, "planar": 12, "search": 5}


class CheckWorkload(Workload):
    """``squeeze check --suite all`` as five ops, one per suite.

    The suites fix their own seeds, so ``--seed`` changes nothing here.
    """

    name = "check"
    seeded = False
    calibrated = True
    tail_percentile = 50.0  # five ops per deck: too few for a higher tail
    pool = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.decks = [[Op("suite", {"name": name}) for name in SUITES]]

    def execute(self, op: Op):
        return [(r.module, r.invariant, r.passed) for r in self.sq.checks.run_suite(op.params["name"])]

    def verify(self, op: Op, outcome) -> str | None:
        name = op.params["name"]
        failed = [f"{m}.{inv}" for m, inv, passed in outcome if not passed]
        if failed:
            return f"suite {name}: failed {', '.join(failed)}"
        if len(outcome) < SUITE_SIZES[name]:
            return f"suite {name}: {len(outcome)} invariants, expected at least {SUITE_SIZES[name]}"
        return None

    def summary(self, results) -> dict:
        return {"invariants": sum(len(out) for op, out, err, _ in results if err is None)}


WORKLOADS = {w.name: w for w in (SearchWorkload, CertifyWorkload, QueriesWorkload, CheckWorkload)}
