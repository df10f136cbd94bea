import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from squeezing.cli import _env_samples, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_type_i(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--domain", "typeI:2,3")
        record = json.loads(out)
        assert code == 0
        assert record["value"] == 0.7071067811865476
        assert record["tag"] == "exact"
        assert list(record)[:5] == ["domain", "point", "value", "tag", "method"]

    def test_product(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--domain", "product:typeIV:3+typeIV:7")
        assert code == 0
        assert json.loads(out)["value"] == 0.5

    def test_punctured_ball(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--domain", "punctured-ball:2", "--point", "0.3,0")
        record = json.loads(out)
        assert code == 0
        assert record["value"] == 0.3
        assert record["point"] == [0.3, 0.0, 0.0, 0.0]

    def test_unit_ball(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--domain", "ball:3")
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_parse_error_names_token(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--domain", "typeV:2")
        assert code == 2
        assert "typeV" in err

    def test_boundary_parameter_error(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--domain", "typeI:3,2")
        assert code == 2
        assert "typeI:3,2" in err

    def test_csv_agrees_with_json(self, capsys):
        _, json_out, _ = run_cli(capsys, "exact", "--domain", "typeI:2,3")
        _, csv_out, _ = run_cli(capsys, "exact", "--domain", "typeI:2,3", "--out", "csv")
        json_value = json_out.split('"value": ')[1].split(",")[0]
        rows = list(csv.reader(io.StringIO(csv_out)))
        csv_value = rows[1][rows[0].index("value")]
        assert json_value == csv_value


class TestBound:
    def test_annulus(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--annulus", "0.25", "--rho", "0.5")
        record = json.loads(out)
        assert code == 0
        assert record["value"] == pytest.approx(0.2857142857142857, abs=1e-15)
        assert record["tag"] == "lower"

    def test_punctured_ball(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--punctured-ball", "2", "--punctures", "0,0", "--point", "0.25,0"
        )
        record = json.loads(out)
        assert code == 0
        assert record["value"] == pytest.approx(0.25, abs=1e-12)
        assert record["tag"] == "upper"

    def test_excised_config(self, capsys, tmp_path):
        config = tmp_path / "holes.json"
        config.write_text(
            json.dumps(
                {
                    "u": 0.2,
                    "v": 0.3,
                    "w": 0.45,
                    "excisions": [
                        {"a_re": 0.5, "a_im": 0.0, "r": 0.25},
                        {"a_re": -0.5, "a_im": 0.0, "r": 0.25},
                    ],
                }
            )
        )
        code, out, _ = run_cli(capsys, "bound", "--excised", str(config), "--point", "0,0")
        record = json.loads(out)
        assert code == 0
        assert record["tag"] == "lower"
        assert record["witness"]["region"] == "far"

    def test_excised_rejects_overlapping_config(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(
            json.dumps(
                {
                    "u": 0.2,
                    "v": 0.3,
                    "w": 0.45,
                    "excisions": [
                        {"a_re": 0.1, "a_im": 0.0, "r": 0.25},
                        {"a_re": 0.15, "a_im": 0.0, "r": 0.25},
                    ],
                }
            )
        )
        code, _, err = run_cli(capsys, "bound", "--excised", str(config), "--point", "0,0")
        assert code == 2
        assert "overlap" in err

    def test_c_constant(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--c-constant", "0.2,0.3,0.6")
        record = json.loads(out)
        assert code == 0
        assert record["value"] > 0.0

    def test_caratheodory(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--annulus", "0.25", "--rho", "0.5", "--caratheodory")
        record = json.loads(out)
        assert code == 0
        assert record["value"] == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert record["method"] == "koebe-quarter"

    def test_requires_one_mode(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--rho", "0.5")
        assert code == 2


class TestSearch:
    def test_degree_zero_matches_tier_a(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--annulus", "0.25", "--rho", "0.5", "--degree", "0",
            "--budget", "10", "--seed", "0",
        )
        record = json.loads(out)
        assert code == 0
        assert record["best_value"] == record["tier_a_value"]
        assert list(record)[:6] == [
            "best_value", "tier_a_value", "conjecture_value", "conjecture_gap", "seed", "evaluations",
        ]

    def test_repeat_is_byte_identical(self, capsys):
        argv = ["search", "--annulus", "0.25", "--rho", "0.5", "--degree", "1",
                "--budget", "40", "--seed", "7"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_containment(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--annulus", "0.25", "--rho", "0.5", "--degree", "1",
            "--budget", "40", "--seed", "3",
        )
        record = json.loads(out)
        assert record["best_value"] >= record["tier_a_value"] - 1e-9


class TestTable:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--annulus", "0.25", "--samples", "5")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "rho,lower_bound,conjecture"
        assert len(lines) == 6

    def test_first_row_is_fold_point(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--annulus", "0.25", "--samples", "5")
        first = out.strip().splitlines()[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_last_row_near_one(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--annulus", "0.25", "--samples", "5")
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[1]) > 0.99

    def test_monotone_rho_column(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--annulus", "0.25", "--samples", "12")
        rho = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert rho == sorted(rho)

    def test_json_rows_agree_with_csv(self, capsys):
        _, csv_out, _ = run_cli(capsys, "table", "--annulus", "0.25", "--samples", "4")
        _, json_out, _ = run_cli(capsys, "table", "--annulus", "0.25", "--samples", "4", "--out", "json")
        csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        json_rows = json_out.strip().splitlines()
        for cells, line in zip(csv_rows, json_rows):
            record = json.loads(line)
            assert cells[0] in line and cells[1] in line and cells[2] in line
            assert record["rho"] == float(cells[0])

    def test_grid_floor(self, capsys):
        code, _, err = run_cli(capsys, "table", "--annulus", "0.25", "--samples", "1")
        assert code == 2


class TestCheck:
    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "check", "--suite", "bogus")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("suite", ["metrics", "rouche", "symmetric", "planar", "search"])
    def test_suite_passes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "check", "--suite", suite)
        assert code == 0
        assert "FAIL" not in out


class TestEnvironment:
    def test_default_samples(self, monkeypatch):
        monkeypatch.delenv("SQUEEZE_SAMPLES", raising=False)
        assert _env_samples() == 2048

    def test_override(self, monkeypatch):
        monkeypatch.setenv("SQUEEZE_SAMPLES", "512")
        assert _env_samples() == 512

    def test_invalid_value_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SQUEEZE_SAMPLES", "not-a-number")
        code, _, err = run_cli(
            capsys, "search", "--annulus", "0.25", "--rho", "0.5", "--degree", "0",
            "--budget", "1",
        )
        assert code == 2
        assert "SQUEEZE_SAMPLES" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "squeezing", "exact", "--domain", "typeI:1,1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--domain", "punctured-ball:2", "--point", "nan,0"),
        ("bound", "--punctured-ball", "1", "--punctures", "0", "--point", "1e-320"),
        # r^{-2} overflows on the inner circle: rejected before any evaluation
        ("search", "--annulus", "1e-300", "--rho", "0.5", "--budget", "5"),
    ],
)
def test_invalid_input_exits_two_without_traceback(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "squeezing", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert proc.stderr.strip()
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    if argv[0] == "search":
        assert "annulus" in proc.stderr


def test_float_formatting_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "exact", "--domain", "typeIII:5")
    record = json.loads(out)
    assert record["value"] == 2 ** -0.5
    assert "0.70710678118654757" in out
