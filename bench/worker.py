"""One benchmark run in a fresh interpreter; started by ``run.py``.

Set-up (import ``squeezing``, generate the seeded decks, build fixtures)
ends by printing ``ready`` on stdout.  The timed phase then runs whole
decks, closed loop with one caller, until ``--seconds`` have passed; the
outcomes are checked against their references after timing stops.  The
result goes to ``--out`` as JSON.

With ``--trace 1`` the worker first runs untraced for half the time, then
installs the span wrappers and replays exactly the same decks, so the
traced and untraced walls cover identical work.

Right after set-up, and then before a deck whenever a second has passed,
the worker times a fixed calibration kernel that does not touch the
program.  ``run.py`` scales set-up times, and the op times of workloads
marked ``calibrated``, by the kernel's speed, so a run on a machine that
is momentarily slower reads the same.  Calibration time is outside every
timed interval.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import types
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CALIBRATE_EVERY_S = 1.0
CALIBRATION_REPEATS = 3


def calibration_kernel() -> float:
    """Seconds taken by fixed work of the kinds the program does: vector
    numpy on 8192 points, scalar numpy calls and an interpreter loop."""
    start = time.perf_counter()
    z = np.exp(2j * np.pi * np.arange(8192) / 8192)
    for _ in range(12):
        float(np.abs(z ** 3 + 0.1 / z).max())
    x = 0.3
    for _ in range(500):
        x = 0.2 + 0.5 * float(np.tanh(0.5 * np.log1p(2.0 * x / (1.0 - x))))
    total = 0
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate() -> list:
    return [calibration_kernel() for _ in range(CALIBRATION_REPEATS)]


def timed_phase(workload, seconds: float, calibration: list, decks: int | None = None, tracer=None):
    """Run whole decks until ``seconds`` of deck time pass (or exactly ``decks`` decks).

    Appends calibration samples to ``calibration``.  Returns (results, deck
    walls in s); a result is (op, outcome, error, latency in ns).
    """
    results, deck_walls = [], []
    clock = time.perf_counter_ns
    pool = workload.decks
    last_calibration = clock()
    k = 0
    while True:
        if clock() - last_calibration >= CALIBRATE_EVERY_S * 1e9:
            calibration += calibrate()
            last_calibration = clock()
        deck_start = clock()
        for op in pool[k % len(pool)]:
            t0 = clock()
            try:
                if tracer is None:
                    outcome = workload.execute(op)
                else:
                    outcome = tracer.op(len(results), workload.execute, op)
                error = None
            except Exception as exc:  # an op that raises counts as failed
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            results.append((op, outcome, error, clock() - t0))
        deck_walls.append((clock() - deck_start) * 1e-9)
        k += 1
        if (decks is not None and k >= decks) or (decks is None and sum(deck_walls) >= seconds):
            break
    calibration += calibrate()
    return results, deck_walls


def check(workload, results) -> tuple[list, int]:
    """Verify every outcome, then the cross-op gates (one more attempt).

    Returns ((op kind, reason) per failure, attempts beyond ``results``).
    """
    extra = []
    for op in workload.gate_ops([r[0] for r in results]):
        try:
            extra.append((op, workload.execute(op), None, 0))
        except Exception as exc:
            extra.append((op, None, f"{type(exc).__name__}: {exc}", 0))
    failures = []
    for index, (op, outcome, error, _) in enumerate(results + extra):
        try:
            reason = error or workload.verify(op, outcome)
        except Exception as exc:  # e.g. a CLI record that does not parse
            reason = f"unreadable outcome: {type(exc).__name__}: {exc}"
        if reason:
            failures.append((op.kind, f"op {index}: {reason}"))
    try:
        gate_failures = workload.gates(results + extra)
    except Exception as exc:
        gate_failures = [f"gate could not be evaluated: {type(exc).__name__}: {exc}"]
    failures += [("gate", reason) for reason in gate_failures]
    return failures, len(extra) + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    package = importlib.import_module("squeezing")
    sq = types.SimpleNamespace(**{name: importlib.import_module(f"squeezing.{name}") for name in LAYERS})
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare(sq)
    print("ready", flush=True)
    calibration = calibrate()  # the speed at set-up, for this interpreter's set-up time
    if args.setup_only:
        print(json.dumps(calibration), flush=True)
        return 0

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    setup_calibration = list(calibration)
    results, deck_walls = timed_phase(workload, untraced_seconds, calibration)
    wall = sum(deck_walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_applies": workload.seeded,
        "calibrated": workload.calibrated,
        "decks": len(deck_walls),
        "deck_walls_s": deck_walls,
        "phase_wall_s": wall,
        "latencies_ns": [r[3] for r in results],
        "tail_percentile": workload.tail_percentile,
        "peak_rss_mb": peak_rss_mb,
        "setup_calibration_s": setup_calibration,
        "calibration_s": calibration,
    }
    all_results = list(results)
    if args.trace:
        tracer = Tracer()
        out["patched_names"] = tracer.install(package)
        traced, traced_walls = timed_phase(workload, 0.0, [], decks=len(deck_walls), tracer=tracer)
        traced_wall = sum(traced_walls)
        all_results += traced
        layers = tracer.layer_metrics(traced_wall)
        layers["trace.overhead_ratio"] = traced_wall / wall
        out["layers"] = layers
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)

    failures, gate_count = check(workload, all_results)
    out["attempted"] = len(all_results) + gate_count
    out["failed"] = len(failures)
    out["failed_by_kind"] = dict(Counter(kind for kind, _ in failures))
    out["failures"] = [f"{kind}: {reason}" for kind, reason in failures[:20]]
    out["summary"] = workload.summary(all_results)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
