"""Command-line front end: JSON records and CSV sweep tables.

Subcommands: exact, bound, search, table, check.  Scalar queries default to
JSON (one record per line, fixed key order, 17-significant-digit floats so
values round-trip losslessly); tables default to CSV with the same digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .certificates import BoundCertificate
from .checks import SUITE_NAMES, run_suite
from .errors import SqueezingError
from .planar import (
    Annulus,
    Excision,
    ExcisedDomain,
    PuncturedBall,
    annulus_conjectured_value,
    annulus_lower_bound,
    caratheodory_lower_estimate,
    excised_domain_lower_bound,
    excision_constant,
    punctured_domain_upper_bound,
)
from .search import DEFAULT_SAMPLES, tier_b_search
from .symmetric import (
    ClassicalDomain,
    kubota_constant,
    product_constant,
    punctured_ball_squeezing,
)

_RECORD_KEYS = ("domain", "point", "value", "tag", "method", "witness", "tool_version")


class CLIError(Exception):
    """User input error: message printed to stderr, exit status 2."""


def _format_float(value) -> str:
    number = float(value)
    if number == 0.0:
        number = 0.0  # normalise -0.0
    return format(number, ".17g")


def _encode_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_encode_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        body = ", ".join(f"{json.dumps(str(k))}: {_encode_json(v)}" for k, v in obj.items())
        return "{" + body + "}"
    raise TypeError(f"cannot encode {type(obj)!r}")


def _emit_record(record: dict, out: str) -> None:
    if out == "json":
        print(_encode_json(record))
        return
    keys = [k for k in _RECORD_KEYS if k not in ("witness", "tool_version")]
    writer = csv.writer(sys.stdout)
    writer.writerow(keys)
    cells = []
    for key in keys:
        value = record[key]
        if value is None:
            cells.append("")
        elif isinstance(value, (list, tuple)):
            cells.append(" ".join(_format_float(v) for v in value))
        elif isinstance(value, (float, np.floating)):
            cells.append(_format_float(value))
        else:
            cells.append(str(value))
    writer.writerow(cells)


def _record(domain: str, point, certificate) -> dict:
    return {
        "domain": domain,
        "point": point,
        "value": certificate.value,
        "tag": certificate.tag,
        "method": certificate.method,
        "witness": certificate.witness,
        "tool_version": __version__,
    }


def _parse_positive_int(text: str, token: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise CLIError(f"expected an integer in {token!r}, got {text!r}")
    if value < 1:
        raise CLIError(f"expected a positive integer in {token!r}, got {text!r}")
    return value


_CLASSICAL = {
    "typeI": (ClassicalDomain.type_i, 2),
    "typeII": (ClassicalDomain.type_ii, 1),
    "typeIII": (ClassicalDomain.type_iii, 1),
    "typeIV": (ClassicalDomain.type_iv, 1),
}


def _parse_classical(token: str) -> ClassicalDomain:
    name, _, rest = token.partition(":")
    if name not in _CLASSICAL:
        raise CLIError(f"unknown domain kind {name!r} in {token!r}")
    factory, arity = _CLASSICAL[name]
    parts = rest.split(",") if rest else []
    if len(parts) != arity:
        raise CLIError(f"domain {name!r} takes {arity} integer parameter(s), got {rest!r}")
    try:
        return factory(*(_parse_positive_int(p, token) for p in parts))
    except SqueezingError as exc:
        raise CLIError(f"invalid parameters in {token!r}: {exc}")


def _parse_point(text: str, dimension: int) -> np.ndarray:
    parts = text.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise CLIError(f"point {text!r} must be a comma-separated list of reals")
    if not all(math.isfinite(v) for v in values):
        raise CLIError(f"point {text!r} must have finite components")
    if len(values) == 2 * dimension:
        flat = values
    elif len(values) == dimension:
        flat = []
        for v in values:
            flat.extend((v, 0.0))
    else:
        raise CLIError(
            f"point {text!r} must have {dimension} or {2 * dimension} components for dimension {dimension}"
        )
    reals = np.array(flat[0::2])
    imags = np.array(flat[1::2])
    return reals + 1j * imags


def _serialize_point(vector: np.ndarray) -> list:
    flat = []
    for value in np.atleast_1d(vector):
        flat.extend((float(np.real(value)), float(np.imag(value))))
    return flat


def _env_samples() -> int:
    raw = os.environ.get("SQUEEZE_SAMPLES")
    if raw is None:
        return DEFAULT_SAMPLES
    try:
        value = int(raw)
    except ValueError:
        raise CLIError(f"SQUEEZE_SAMPLES must be an integer, got {raw!r}")
    if value < 64:
        raise CLIError("SQUEEZE_SAMPLES must be at least 64")
    return value


# --------------------------------------------------------------------------
# subcommands


#: Options that some `exact` or `bound` modes read and others do not.
_MODE_OPTIONS = ("rho", "caratheodory", "punctures", "point")


def _reject_unread(args, reads, mode: str) -> None:
    """Exit 2 naming any of _MODE_OPTIONS given to a mode that does not read it."""
    for name in _MODE_OPTIONS:
        value = getattr(args, name, None)
        if name not in reads and value is not None and value is not False:
            raise CLIError(f"--{name} is not read by {mode}")


def cmd_exact(args) -> int:
    token = args.domain
    _reject_unread(args, ("point",) if token.startswith("punctured-ball:") else (), f"--domain {token}")
    if token.startswith("product:"):
        factors = token[len("product:"):].split("+")
        if not factors or factors == [""]:
            raise CLIError(f"empty product in {token!r}")
        certificate = product_constant([_parse_classical(f) for f in factors])
        _emit_record(_record(token, None, certificate), args.out)
        return 0
    if token.startswith("ball:"):
        n = _parse_positive_int(token[len("ball:"):], token)
        certificate = BoundCertificate(1.0, "exact", "unit-ball", {"dimension": n})
        _emit_record(_record(token, None, certificate), args.out)
        return 0
    if token.startswith("punctured-ball:"):
        n = _parse_positive_int(token[len("punctured-ball:"):], token)
        if args.point is None:
            raise CLIError("punctured-ball requires --point")
        point = _parse_point(args.point, n)
        certificate = punctured_ball_squeezing(point, n)
        _emit_record(_record(token, _serialize_point(point), certificate), args.out)
        return 0
    certificate = kubota_constant(_parse_classical(token))
    _emit_record(_record(token, None, certificate), args.out)
    return 0


#: The options each `bound` mode reads besides its own.
_BOUND_READS = {
    "annulus": ("rho", "caratheodory"),
    "punctured_ball": ("punctures", "point"),
    "excised": ("point",),
    "c_constant": (),
}


def cmd_bound(args) -> int:
    modes = [mode for mode in _BOUND_READS if getattr(args, mode) is not None]
    if len(modes) != 1:
        raise CLIError("choose exactly one of --annulus, --punctured-ball, --excised, --c-constant")
    _reject_unread(args, _BOUND_READS[modes[0]], "--" + modes[0].replace("_", "-"))

    if args.annulus is not None:
        if args.rho is None:
            raise CLIError("--annulus requires --rho")
        annulus = Annulus(args.annulus)
        certificate = annulus_lower_bound(annulus, args.rho)
        if args.caratheodory:
            # hand-built: s/(4 delta) may exceed 1, which a BoundCertificate rejects
            delta = annulus.boundary_distance(args.rho)
            estimate = caratheodory_lower_estimate(args.rho, certificate.value, annulus)
            record = {
                "domain": f"annulus:{_format_float(annulus.r)}",
                "point": [args.rho, 0.0],
                "value": estimate,
                "tag": "lower",
                "method": "koebe-quarter",
                "witness": {"squeezing_lower": certificate.value, "delta": delta},
                "tool_version": __version__,
            }
            _emit_record(record, args.out)
            return 0
        _emit_record(
            _record(f"annulus:{_format_float(annulus.r)}", [args.rho, 0.0], certificate), args.out
        )
        return 0

    if args.punctured_ball is not None:
        n = args.punctured_ball
        if args.point is None or args.punctures is None:
            raise CLIError("--punctured-ball requires --punctures and --point")
        punctures = tuple(_parse_point(p, n) for p in args.punctures.split(";"))
        domain = PuncturedBall(n, punctures)
        point = _parse_point(args.point, n)
        certificate = punctured_domain_upper_bound(domain, point)
        _emit_record(_record(f"punctured-ball:{n}", _serialize_point(point), certificate), args.out)
        return 0

    if args.excised is not None:
        if args.point is None:
            raise CLIError("--excised requires --point")
        try:
            with open(args.excised) as handle:
                config = json.load(handle)
            excisions = tuple(
                Excision(complex(e["a_re"], e["a_im"]), float(e["r"])) for e in config["excisions"]
            )
            domain = ExcisedDomain(float(config["u"]), float(config["v"]), float(config["w"]), excisions)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise CLIError(f"invalid excised-domain config {args.excised!r}: {exc}")
        point = _parse_point(args.point, 1)[0]
        certificate = excised_domain_lower_bound(domain, point)
        _emit_record(_record("excised-disc", [point.real, point.imag], certificate), args.out)
        return 0

    parts = args.c_constant.split(",")
    if len(parts) != 3:
        raise CLIError(f"--c-constant takes u,v,w, got {args.c_constant!r}")
    try:
        u, v, w = (float(p) for p in parts)
    except ValueError:
        raise CLIError(f"--c-constant takes three reals, got {args.c_constant!r}")
    certificate = BoundCertificate(
        excision_constant(u, v, w), "lower", "nested-radius-infimum", {"u": u, "v": v, "w": w}
    )
    _emit_record(_record("excised-disc-family", None, certificate), args.out)
    return 0


def cmd_search(args) -> int:
    annulus = Annulus(args.annulus)
    samples = _env_samples()
    result = tier_b_search(
        annulus,
        args.rho,
        degree=args.degree,
        budget=args.budget,
        seed=args.seed,
        samples=samples,
    )
    candidate = result.best_candidate
    certificate = candidate.certificate  # None for the Mobius families
    record = {
        "best_value": result.best_value,
        "tier_a_value": result.tier_a_value,
        "conjecture_value": result.conjecture_value,
        "conjecture_gap": result.conjecture_gap,
        "seed": result.seed,
        "evaluations": result.evaluations,
        "tag": "lower",
        "method": f"tier-b-{candidate.family}",
        "tool_version": __version__,
        "budget_exhausted": result.budget_exhausted,
        "witness": {
            "family": candidate.family,
            "coefficients": [[c.real, c.imag] for c in candidate.coefficients],
            "samples": samples,
            "grid_size": None if certificate is None else certificate.grid_size,
            "min_boundary_modulus": None if certificate is None else certificate.min_boundary_modulus,
        },
        "certificates": result.certificates._asdict(),
    }
    print(_encode_json(record))
    return 0


def cmd_table(args) -> int:
    if args.samples < 2:
        raise CLIError("--samples must be at least 2")
    annulus = Annulus(args.annulus)
    rhos = np.linspace(math.sqrt(annulus.r), 1.0 - 1e-6, args.samples)
    rows = [
        (rho, annulus_lower_bound(annulus, rho).value, annulus_conjectured_value(annulus, rho).value)
        for rho in rhos
    ]
    if args.out == "csv":
        print("rho,lower_bound,conjecture")
        for rho, lower, conjecture in rows:
            print(",".join(_format_float(v) for v in (rho, lower, conjecture)))
    else:
        for rho, lower, conjecture in rows:
            print(_encode_json({"rho": rho, "lower_bound": lower, "conjecture": conjecture}))
    return 0


def cmd_check(args) -> int:
    if args.suite not in SUITE_NAMES:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 2
    samples = _env_samples()
    if samples & (samples - 1):
        # the suites build contours from it, and contours need a power of two
        raise CLIError(f"SQUEEZE_SAMPLES must be a power of two for check, got {samples}")
    results = run_suite(args.suite, None if samples == DEFAULT_SAMPLES else samples)
    failures = 0
    for result in results:
        state = "PASS" if result.passed else "FAIL"
        line = f"{state} {result.module} {result.invariant}"
        if result.witness and not result.passed:
            line += f" [{result.witness}]"
        print(line)
        failures += 0 if result.passed else 1
    print(f"{len(results) - failures}/{len(results)} invariants passed")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeeze",
        description="Squeezing-function values and certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exact = sub.add_parser("exact", help="exact values for classical domains, balls, products")
    exact.add_argument("--domain", required=True,
                       help="typeI:r,s | typeII:p | typeIII:q | typeIV:n | ball:n | "
                            "punctured-ball:n | product:<desc>+<desc>+...")
    exact.add_argument("--point", help="comma-separated reals (re,im pairs or bare reals)")
    exact.add_argument("--out", choices=("json", "csv"), default="json")
    exact.set_defaults(func=cmd_exact)

    bound = sub.add_parser("bound", help="certified lower/upper bounds")
    bound.add_argument("--annulus", type=float, help="inner radius r of {r < |z| < 1}")
    bound.add_argument("--rho", type=float, help="query radius for the annulus bound")
    bound.add_argument("--caratheodory", action="store_true",
                       help="emit the Caratheodory-norm estimate s/(4 delta) instead")
    bound.add_argument("--punctured-ball", type=int, help="complex dimension of the punctured ball")
    bound.add_argument("--punctures", help="semicolon-separated points")
    bound.add_argument("--point", help="query point")
    bound.add_argument("--excised", help="path to an excised-domain JSON config")
    bound.add_argument("--c-constant", help="u,v,w for the nested-radius infimum")
    bound.add_argument("--out", choices=("json", "csv"), default="json")
    bound.set_defaults(func=cmd_bound)

    srch = sub.add_parser("search", help="lower-bound search over certified embeddings")
    srch.add_argument("--annulus", type=float, required=True)
    srch.add_argument("--rho", type=float, required=True)
    srch.add_argument("--degree", type=int, default=2)
    srch.add_argument("--budget", type=int, default=500)
    srch.add_argument("--seed", type=int, default=0)
    srch.set_defaults(func=cmd_search)

    table = sub.add_parser("table", help="radial sweep table for an annulus")
    table.add_argument("--annulus", type=float, required=True)
    table.add_argument("--samples", type=int, required=True)
    table.add_argument("--out", choices=("csv", "json"), default="csv")
    table.set_defaults(func=cmd_table)

    check = sub.add_parser("check", help="run bundled invariant suites")
    check.add_argument("--suite", required=True,
                       help="metrics | rouche | symmetric | planar | search | all")
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SqueezingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
