"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds nothing: the program is imported from
``src/`` by a fresh child interpreter (``worker.py``) with the thread
variables pinned and ``SQUEEZE_SAMPLES`` cleared.  Set-up time is the
median over several fresh interpreters that each import ``squeezing`` and
generate the inputs.  Prints one line per metric with its unit and sample
count, then, as the last line, the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The full record, with
the environment, goes to ``bench/out/``; ``--trace 1`` also writes the spans
there.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402

ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("search", "certify", "queries", "check")

#: Fresh interpreters timed for set-up, counting the measured worker itself.
SETUP_SAMPLES = 7

#: Every run ends within this many seconds; the child is killed after it.
DEADLINE_S = 170.0

#: Median time of the worker's calibration kernel on the reference machine
#: (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6) in its faster periods.
#: Times are reported as if the run had that speed: raw time multiplied by
#: this constant over the run's own median kernel time.
REFERENCE_CALIBRATION_S = 0.0045

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)


class BenchError(Exception):
    """The run could not produce a result."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SQUEEZE_SAMPLES", None)  # the CLI reads it; the benchmark fixes the defaults
    threads = str(nproc())
    for name in THREAD_VARIABLES:
        env[name] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seed_applies: bool) -> dict:
    script = ("import json, numpy\n"
             "try:\n"
              "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
              "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
              "except Exception:\n"
              "    blas = 'unknown'\n"
              "print(json.dumps({'numpy': numpy.__version__, 'blas': blas}))\n")
    try:
        info = json.loads(subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                         env=child_env(), timeout=60, check=True).stdout)
    except (subprocess.SubprocessError, ValueError):
        info = {"numpy": "unknown", "blas": "unknown"}
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "blas": info["blas"],
        "cpu": cpu,
        "nproc": nproc(),
        "threads": {name: env[name] for name in THREAD_VARIABLES},
        "squeeze_samples": "cleared",
        "git_commit": git_commit(),
        "seed": seed,
        "seed_applies": seed_applies,
    }


def start_worker(args, extra: list) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it with its set-up time."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], 120.0)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup


def probe(args) -> tuple[float, list]:
    """Set-up time of one fresh interpreter that stops after set-up, with its calibration."""
    proc, setup = start_worker(args, ["--setup-only"])
    try:
        line = proc.stdout.readline()
    finally:
        finish(proc, 60.0)
    return setup, json.loads(line)


def speed(calibration: list) -> float:
    """Factor that scales a time measured beside these kernel samples to the reference speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibration)


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the deadline")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(result: dict, setups: list) -> dict:
    """Metric -> (value at reference speed, details with the raw value)."""
    factor = speed(result["calibration_s"]) if result["calibrated"] else 1.0
    latencies_ms = [x * 1e-6 for x in result["latencies_ns"]]
    p = result["tail_percentile"]
    tail = percentile(latencies_ms, p)
    beyond = sum(x > tail for x in latencies_ms)
    n_ops = len(latencies_ms)
    raw = {
        "wall_s": (statistics.median(result["deck_walls_s"]), {"n": result["decks"], "of": "deck"}),
        "ops_per_s": (n_ops / result["phase_wall_s"], {"n": n_ops}),
        "op_p50_ms": (statistics.median(latencies_ms), {"n": n_ops}),
        "op_tail_ms": (tail, {"n": n_ops, "percentile": p, "beyond": beyond}),
    }
    metrics = {
        "setup_s": (statistics.median(s * speed(c) for s, c in setups),
                    {"n": len(setups), "raw": statistics.median(s for s, _ in setups)}),
        "peak_rss_mb": (result["peak_rss_mb"], {"n": 1}),
    }
    for name, (value, meta) in raw.items():
        scaled = value / factor if name == "ops_per_s" else value * factor
        metrics[name] = (scaled, {**meta, "raw": value})
    return metrics


def per_layer(result: dict) -> dict:
    layers = dict(result["layers"])
    summary = result["summary"]
    layers["search.evals_per_s"] = layers["search.evaluations"] / layers["trace.wall_s"]
    layers["rouche.certified_ratio"] = summary.get("certified_ratio", 0.0)
    layers["rouche.unsound_ratio"] = summary.get("unsound_ratio", 0.0)
    layers["cli.known_defect_tracebacks"] = summary.get("known_defect_tracebacks", 0)
    layers["checks.failed"] = result["failed_by_kind"].get("suite", 0)
    layers["bench.failed_ratio"] = result["failed"] / result["attempted"]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "squeezing" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'squeezing'} is missing", file=sys.stderr)
        return 2

    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{stem}.result.json"
    spans_path = OUT / f"{stem}.spans.jsonl"
    result_path.unlink(missing_ok=True)
    try:
        # set-up probes go half before and half after the measured run, so the
        # median samples the machine at more than one moment
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [probe(args) for _ in range(probes // 2)]
        extra = ["--out", str(result_path)] + (["--spans", str(spans_path)] if args.trace else [])
        proc, setup = start_worker(args, extra)
        finish(proc, DEADLINE_S - (time.perf_counter() - started))
        setups += [probe(args) for _ in range(probes - probes // 2)]
        result = json.loads(result_path.read_text())
        setups.append((setup, result["setup_calibration_s"]))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {"environment": environment(args.seed, result["seed_applies"]),
              "setups": [{"setup_s": s, "calibration_s": c} for s, c in setups], "worker": result}
    if args.trace:
        metrics = per_layer(result)
        units = {name: unit for name, unit, _ in PER_LAYER}
        shown = {name: (value, {"n": result["spans"], "of": "span"}) for name, value in metrics.items()}
    else:
        shown = end_to_end(result, setups)
        units = dict(END_TO_END)
    record["metrics"] = {name: {"value": value, "unit": units[name], **meta} for name, (value, meta) in shown.items()}
    result_path.write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} decks={result['decks']} "
          f"attempted={result['attempted']} failed={result['failed']} record={result_path.relative_to(ROOT)}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for name, (value, meta) in shown.items():
        detail = " ".join(f"{k}={v}" for k, v in meta.items())
        print(f"{name} {value:.6g} {units[name]} ({detail})")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in shown.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
