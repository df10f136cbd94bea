"""Tests of the benchmark itself: seeded inputs, witness labels, names, contract.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import LAYERS, PER_LAYER, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FAMILIES,
    WORKLOADS,
    CertifyWorkload,
    QueriesWorkload,
    laurent_values,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEEDED = [name for name, workload in WORKLOADS.items() if workload.seeded]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert WORKLOADS[name](7).decks == WORKLOADS[name](7).decks


@pytest.mark.parametrize("name", SEEDED)
def test_different_seed_gives_different_inputs(name):
    assert WORKLOADS[name](7).decks != WORKLOADS[name](8).decks


def test_only_check_ignores_the_seed():
    assert SEEDED == ["search", "certify", "queries"]
    assert WORKLOADS["check"](7).decks == WORKLOADS["check"](8).decks


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certify_witness_labels_hold(seed):
    families = dict(FAMILIES)
    seen = set()
    for deck in CertifyWorkload(seed).decks:
        for op in deck:
            p = op.params
            if op.kind != "certificate":
                roots = np.array(p["roots"])
                center = p.get("center", 0j)
                distance = np.abs(roots - center)
                inside = (distance > p["inner"]) & (distance < 1.0) if "inner" in p else distance < p["radius"]
                assert op.expect == int(np.sum(inside))
                continue
            r, witness = p["r"], p["witness"]
            seen.add(p["family"])
            assert op.expect is families[p["family"]]
            if "pair" in witness:
                z1, z2 = witness["pair"]
                assert r < abs(z1) < 1.0 and r < abs(z2) < 1.0
                assert abs(z1 - z2) > 1e-3
                assert abs(laurent_values(p["coefficients"], z1) - laurent_values(p["coefficients"], z2)) < 1e-12
            elif p["family"] == "joukowski-injective":
                assert witness["lambda_abs"] < r * r
            elif p["family"] == "quadratic":
                assert witness["eps_abs"] < 0.5
            elif p["family"] == "reflection":
                assert witness["c_abs"] <= r
            if p["family"] == "joukowski-near":
                assert r * r < abs(p["coefficients"][0]) <= 1.05 * r * r
    assert seen == set(families)


def test_certify_decks_cover_every_grid_and_sample_count():
    deck = CertifyWorkload(3).decks[0]
    pairs = {(op.params["grid"], op.params["samples"]) for op in deck if op.kind == "certificate"}
    assert len(pairs) == 9


def test_query_references_agree_with_the_program():
    workload = QueriesWorkload(5)
    workload.prepare(SimpleNamespace(**{m: importlib.import_module(f"squeezing.{m}") for m in LAYERS}))
    for deck in workload.decks[:4]:
        for op in deck:
            assert workload.verify(op, workload.execute(op)) is None, op


def test_contains_points_sit_off_the_boundary():
    for deck in QueriesWorkload(9).decks:
        for op in deck:
            if op.kind != "contains":
                continue
            z = np.array(op.params["point"])
            if op.params["kind"] == "IV":
                norm_sq = np.vdot(z, z).real
                norm = np.sqrt(norm_sq + np.sqrt(norm_sq ** 2 - abs(np.dot(z, z)) ** 2))
            else:
                norm = np.linalg.norm(z, 2)
            assert abs(norm - 1.0) >= 0.05 - 1e-12
            assert op.expect == (norm < 1.0)


def test_metric_names_are_valid_and_listed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [name for name, _ in run.END_TO_END]
    per_layer = [name for name, _, _ in PER_LAYER]
    for name in end_to_end + per_layer + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    assert [m["name"] for m in spec["end_to_end"]] == end_to_end
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, u, _ in PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_layer_metrics_cover_every_name_without_spans():
    layers = Tracer().layer_metrics(1.0)
    layers["trace.overhead_ratio"] = 1.0
    result = {"layers": layers, "summary": {}, "failed_by_kind": {}, "failed": 0, "attempted": 1}
    assert set(run.per_layer(result)) == {name for name, _, _ in PER_LAYER}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_names_match_the_spec(trace):
    done = _run(ROOT, "--workload", "queries", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if trace == "1":
        accounted = line["metrics"]["trace.accounted_ratio"]["value"]
        assert 0.5 < accounted <= 1.0


def test_fails_without_the_program(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
