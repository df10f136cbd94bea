import contextlib
import csv
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezing import Annulus, EmbeddingCandidate, InjectivityCertificate, objective
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

    def test_readme_search_reports_certificate_outcomes(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--annulus", "0.25", "--rho", "0.5", "--degree", "2",
            "--budget", "500", "--seed", "42",
        )
        record = json.loads(out)
        assert code == 0
        assert record["best_value"] == 0.37674501101886787
        assert list(record)[-1] == "certificates"
        assert record["certificates"] == {"certified": 1, "refuted": 6, "inconclusive": 2}

    # at rho = 0.7 the Laurent winner's value changes with the sample count
    @pytest.mark.parametrize("degree, rho, family", [(0, 0.5, "mobius-inclusion"), (1, 0.7, "laurent")])
    def test_witness_reproduces_best_value(self, capsys, degree, rho, family):
        code, out, _ = run_cli(
            capsys, "search", "--annulus", "0.25", "--rho", str(rho), "--degree", str(degree),
            "--budget", "40", "--seed", "1",
        )
        record = json.loads(out)
        assert code == 0
        assert list(record)[9:] == ["budget_exhausted", "witness", "certificates"]
        witness = record["witness"]
        assert witness["family"] == family
        coefficients = np.array([complex(re, im) for re, im in witness["coefficients"]])
        if family == "laurent":
            certificate = InjectivityCertificate(
                "certified", witness["grid_size"], witness["min_boundary_modulus"]
            )
            candidate = EmbeddingCandidate.laurent(coefficients, certificate)
        else:
            assert witness["grid_size"] is None and witness["min_boundary_modulus"] is None
            candidate = EmbeddingCandidate(family, 1, coefficients, "certified")
        value = objective(candidate, Annulus(0.25), rho, samples=2 * witness["samples"])
        assert value == record["best_value"]


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

    @pytest.mark.parametrize("suite", ["rouche", "all"])
    def test_check_names_a_samples_value_that_is_not_a_power_of_two(self, suite):
        proc = subprocess.run(
            [sys.executable, "-m", "squeezing", "check", "--suite", suite],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "SQUEEZE_SAMPLES": "100"},
        )
        assert proc.returncode == 2
        assert "SQUEEZE_SAMPLES" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_search_accepts_samples_that_are_not_a_power_of_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SQUEEZE_SAMPLES", "100")
        code, out, _ = run_cli(
            capsys, "search", "--annulus", "0.25", "--rho", "0.5", "--degree", "1",
            "--budget", "10", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["witness"]["samples"] == 100


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
        ("search", "--annulus", "5e-324", "--rho", "0.5", "--degree", "0", "--budget", "1"),
        # options the mode does not read are named, not ignored
        ("exact", "--domain", "typeI:2,3", "--point", "nan"),
        ("bound", "--annulus", "0.25", "--rho", "0.5", "--point", "x"),
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
    unread = _unread_option(argv)
    if unread:
        assert unread in proc.stderr


def test_float_formatting_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "exact", "--domain", "typeIII:5")
    record = json.loads(out)
    assert record["value"] == 2 ** -0.5
    assert "0.70710678118654757" in out


# the input contract over the argument space: every argv either yields a
# record (exit 0) or names the bad token (exit 2), never a traceback
_RADII = st.floats(0.05, 0.95).map(repr)
_NUMBERS = st.one_of(
    _RADII,
    _RADII,
    st.sampled_from(["1e300", "-1e200", "1e-300", "5e-324"]),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1", "1e-320", "0.25", "0.5", "0.9", "", "x",
                     "0x1", "1,2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_POINTS = st.one_of(
    _NUMBERS,
    st.lists(_NUMBERS, min_size=1, max_size=4).map(",".join),
)
_DOMAINS = st.one_of(
    st.sampled_from(["typeI:2,3", "typeII:4", "typeIII:5", "typeIV:3", "typeIII:0", "typeIV:x",
                     "typeV:1", "ball:3", "ball:-1", "product:", "product:typeIV:3+typeI:1,1",
                     "product:typeI:1+", "punctured-ball:1", "punctured-ball:2", "punctured-ball:0", ""]),
    st.text(max_size=12),
)


def _option(name, values, present=3):
    """[name, value] in ``present`` draws out of ``present + 1``, else nothing."""
    return st.one_of(st.just([]), *[values.map(lambda v: [name, v])] * present)


def _flatten(parts):
    return [token for part in parts for token in part]


# mostly an annulus radius (tiny, near 1 or moderate) and a query radius inside it
_ANNULUS_RHO = st.tuples(
    st.one_of(st.floats(0.05, 0.9), st.sampled_from([1e-300, 1e-12, 0.999999])),
    st.floats(0.01, 0.99),
).map(lambda ru: ["--annulus", repr(ru[0]), "--rho", repr(ru[0] + (1.0 - ru[0]) * ru[1])])
_ANNULUS_ARGS = st.one_of(
    _ANNULUS_RHO,
    _ANNULUS_RHO,
    st.tuples(_option("--annulus", _NUMBERS), _option("--rho", _NUMBERS)).map(_flatten),
)
_EXACT = st.tuples(
    st.just(["exact"]), _option("--domain", _DOMAINS), _option("--point", _POINTS, 2),
    _option("--out", st.sampled_from(["json", "csv", "xml"]), 1),
)
_BOUND = st.tuples(
    st.just(["bound"]),
    st.one_of(
        st.tuples(_ANNULUS_ARGS, st.sampled_from([[], ["--caratheodory"]]), _option("--point", _POINTS, 1)),
        st.tuples(_option("--punctured-ball", st.sampled_from(["1", "2", "0", "-3", "1.5", "x"])),
                  _option("--punctures", st.lists(_POINTS, min_size=1, max_size=2).map(";".join)),
                  _option("--point", _POINTS),
                  st.sampled_from([[], [], ["--caratheodory"]])),
        st.tuples(_option("--c-constant", _POINTS), _option("--rho", _NUMBERS, 1)),
    ).map(_flatten),
    _option("--out", st.sampled_from(["json", "csv"]), 1),
)


def _ball_point(n):
    """n bare reals or n re,im pairs."""
    return st.sampled_from([n, 2 * n]).flatmap(
        lambda k: st.lists(_NUMBERS, min_size=k, max_size=k).map(",".join)
    )


_BALL = st.integers(1, 2).flatmap(lambda n: st.one_of(
    st.tuples(st.just(["exact", "--domain", f"punctured-ball:{n}", "--point"]), _ball_point(n).map(lambda p: [p])),
    st.tuples(
        st.just(["bound", "--punctured-ball", str(n), "--punctures"]),
        st.lists(_ball_point(n), min_size=1, max_size=2).map(lambda ps: [";".join(ps)]),
        st.just(["--point"]),
        _ball_point(n).map(lambda p: [p]),
    ),
))
_SEARCH = st.tuples(
    st.just(["search"]),
    _ANNULUS_ARGS,
    st.sampled_from([["--degree", "0"], ["--degree", "1"]]),
    st.one_of(st.integers(1, 10), st.integers(1, 10), st.integers(-1, 0)).map(lambda b: ["--budget", str(b)]),
    _option("--seed", st.sampled_from(["0", "7", "-1", "x"])),
)
_ARGV = st.one_of(_EXACT, _BOUND, _BALL, _SEARCH).map(_flatten)

# options each bound mode reads besides its own flag
_BOUND_READS = {
    "--annulus": {"--rho", "--caratheodory"},
    "--punctured-ball": {"--punctures", "--point"},
    "--c-constant": set(),
}


def _unread_option(argv):
    """The first option in ``argv`` that its exact/bound mode does not read."""
    if argv[0] == "exact" and "--domain" in argv:
        punctured = argv[argv.index("--domain") + 1].startswith("punctured-ball:")
        unread = set() if punctured else {"--point"}
    elif argv[0] == "bound":
        modes = [flag for flag in _BOUND_READS if flag in argv]
        if len(modes) != 1:
            return None
        unread = {"--rho", "--caratheodory", "--punctures", "--point"} - _BOUND_READS[modes[0]]
    else:
        return None
    return next((flag for flag in argv if flag in unread), None)


@settings(max_examples=120, deadline=None)
@given(argv=_ARGV)
def test_cli_input_contract(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(list(argv))  # an escaping exception is the traceback a user would see
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2), (argv, code, stderr.getvalue())
    if _unread_option(argv):
        assert code == 2, argv
    assert "Traceback" not in stderr.getvalue()
    assert "RuntimeWarning" not in stderr.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught[0].message)
    if code == 0:
        lines = stdout.getvalue().splitlines()
        assert lines
        if "csv" not in argv:
            record = json.loads(lines[0])
            assert isinstance(record, dict)
        else:
            header, row = csv.reader(lines)
            assert len(header) == len(row)
    else:
        assert stderr.getvalue().strip()
