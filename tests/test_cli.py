import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squeezing import Annulus, EmbeddingCandidate, InjectivityCertificate, checks, objective
from squeezing.cli import main
from squeezing.errors import SqueezingError

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

    @pytest.mark.parametrize("domain, named", [
        ("typeI:2", "typeI:2"), ("typeII:", "typeII:"), ("typeII:x", "typeII:x"), ("typeI:1,2,3", "typeI:1,2,3"),
        ("typeIII:1", "typeIII:1"), ("product:typeIV:3+typeI:1", "typeI:1"),
        # constants below the least normal double
        ("typeII:" + str(2 ** 2044 + 1),) * 2,
        ("product:typeIV:3+typeII:" + str(2 ** 2044 - 1),) * 2,
    ])
    def test_malformed_classical_token_named(self, capsys, domain, named):
        code, out, err = run_cli(capsys, "exact", "--domain", domain)
        assert (code, out) == (2, "")
        assert repr(named) in err

    @pytest.mark.parametrize("domain, inverse_square", [
        ("typeII:" + "9" * 400, 10 ** 400 - 1),
        ("product:typeI:1,1+typeII:" + "9" * 400, 10 ** 400),
        ("typeIII:" + str(2 ** 2045), 2 ** 2044),  # the least normal double, 2^-1022
    ])
    def test_parameters_past_float_range(self, capsys, domain, inverse_square):
        for out in ("json", "csv"):
            code, text, err = run_cli(capsys, "exact", "--domain", domain, "--out", out)
            assert (code, err) == (0, "")
            if out == "csv":
                rows = list(csv.reader(io.StringIO(text)))
                value = float(rows[1][rows[0].index("value")])
            else:
                value = json.loads(text)["value"]
            # the exact m^{-1/2} lies strictly between value's midpoints to its neighbours
            low = (Fraction(value) + Fraction(math.nextafter(value, 0.0))) / 2
            high = (Fraction(value) + Fraction(math.nextafter(value, 1.0))) / 2
            assert low * low * inverse_square < 1 < high * high * inverse_square, out

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

    @pytest.mark.parametrize("dimension", ["0", "-1"])
    def test_punctured_ball_dimension_names_the_option(self, capsys, dimension):
        code, _, err = run_cli(
            capsys, "bound", "--punctured-ball", dimension, "--punctures", "0", "--point", "0"
        )
        assert code == 2
        assert f"--punctured-ball must be a positive integer, got {dimension}" in err

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

    # at rho = 0.6 the Laurent winner reads another minimum on half the nodes
    @pytest.mark.parametrize("degree, rho, family", [
        (0, 0.5, "mobius-inclusion"), (1, 0.7, "laurent"), (1, 0.6, "laurent"),
    ])
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
        assert list(witness)[-2:] == ["tube", "critical_points"]
        if family == "laurent":
            # grid_size is always null; the boundary certificate finds no critical point
            assert witness["grid_size"] is None and witness["critical_points"] == 0
            assert 0.0 < witness["tube"] < 1e-3
            certificate = InjectivityCertificate("certified", witness["min_boundary_modulus"])
            candidate = EmbeddingCandidate.laurent(coefficients, certificate)
            value = objective(candidate, Annulus(0.25), rho, samples=witness["samples"])
            assert value == record["best_value"]
        else:
            assert witness["grid_size"] is None and witness["min_boundary_modulus"] is None
            assert witness["tube"] is None and witness["critical_points"] is None
            # a Mobius winner reports the closed form, which its sampled objective meets
            _, bound, _ = run_cli(capsys, "bound", "--annulus", "0.25", "--rho", str(rho))
            assert record["best_value"] == json.loads(bound)["value"]
            candidate = EmbeddingCandidate(family, 1, coefficients, "certified")
            value = objective(candidate, Annulus(0.25), rho, samples=witness["samples"])
            assert value == pytest.approx(record["best_value"], abs=1e-12)


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
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--suite", "bogus"])
        assert exit_info.value.code == 2
        assert "bogus" in capsys.readouterr().err

    def test_failing_invariant_exits_one(self, capsys, monkeypatch):
        for name in checks._SUITES:
            monkeypatch.setitem(checks._SUITES, name, lambda name=name: [checks.CheckResult(name, "holds", True)])
        planted = checks.CheckResult("planar", "planted", False, "rho 0.5")
        monkeypatch.setitem(checks._SUITES, "planar", lambda: [planted])
        code, out, _ = run_cli(capsys, "check", "--suite", "all")
        assert code == 1
        assert "FAIL planar planted [rho 0.5]" in out.splitlines()
        assert out.endswith("4/5 invariants passed\n")

    def test_raising_suite_fails_and_the_others_still_run(self, capsys, monkeypatch):
        for name in checks._SUITES:
            monkeypatch.setitem(checks._SUITES, name, lambda name=name: [checks.CheckResult(name, "holds", True)])

        def raising():
            raise SqueezingError("z = 0.6 is not in the excised domain")

        monkeypatch.setitem(checks._SUITES, "planar", raising)
        code, out, err = run_cli(capsys, "check", "--suite", "all")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL planar suite_planar [SqueezingError: z = 0.6 is not in the excised domain]" in lines
        assert [line for line in lines if line.startswith("PASS")] == [
            f"PASS {name} holds" for name in ("metrics", "rouche", "symmetric", "search")
        ]
        assert out.endswith("4/5 invariants passed\n")
        assert err == ""

    @pytest.mark.parametrize("suite", ["metrics", "rouche", "symmetric", "planar", "search"])
    def test_suite_passes(self, capsys, suite):
        code, out, _ = run_cli(capsys, "check", "--suite", suite)
        assert code == 0
        assert "FAIL" not in out


class TestEnvironment:
    def test_squeeze_samples_is_ignored(self):
        search = ["search", "--annulus", "0.25", "--rho", "0.5", "--degree", "1", "--budget", "10", "--seed", "1"]

        def run(argv, **environ):
            proc = subprocess.run(
                [sys.executable, "-m", "squeezing", *argv],
                capture_output=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", **environ},
            )
            return proc.returncode, proc.stdout

        for argv in (search, ["check", "--suite", "rouche"]):
            unset = run(argv)
            assert unset[0] == 0
            for value in ("512", "abc"):
                assert run(argv, SQUEEZE_SAMPLES=value) == unset, (argv[0], value)
            if argv is search:
                assert json.loads(unset[1])["witness"]["samples"] == 2048


    def test_search_is_byte_identical_at_any_blas_thread_count(self):
        # a problem whose best value moved by an ulp when the BLAS threaded
        # the search's matrix-vector products
        argv = ["search", "--annulus", "0.22376170950406263", "--rho", "0.9423533046844299",
                "--degree", "3", "--budget", "322", "--seed", "1352359263"]
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "squeezing", *argv],
                capture_output=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "squeezing", "exact", "--domain", "typeI:1,1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 1.0


def test_closed_stdout_exits_141_without_traceback():
    # as `squeeze table ... | head -1`: the reader closes the pipe after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "squeezing", "table", "--annulus", "0.25", "--samples", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.stdout.readline() == b"rho,lower_bound,conjecture\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_degree_zero_search_at_subnormal_radius(capsys):
    # degree 0 is the closed form, as for bound --annulus: no power of r is formed
    code, out, _ = run_cli(
        capsys, "search", "--annulus", "5e-324", "--rho", "0.5", "--degree", "0", "--budget", "1",
    )
    record = json.loads(out)
    assert code == 0
    assert record["best_value"] == record["tier_a_value"] == 0.5
    assert record["tag"] == "lower" and record["method"] == "tier-b-mobius-inclusion"


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--domain", "punctured-ball:2", "--point", "nan,0"),
        ("bound", "--punctured-ball", "1", "--punctures", "0", "--point", "1e-320"),
        # r^{-2} overflows on the inner circle: rejected before any evaluation
        ("search", "--annulus", "1e-300", "--rho", "0.5", "--budget", "5"),
        # the Laurent search evaluates z^{-1}, which overflows at a subnormal r
        ("search", "--annulus", "5e-324", "--rho", "0.5", "--degree", "1", "--budget", "1"),
        # options the mode does not read are named, not ignored
        ("exact", "--domain", "typeI:2,3", "--point", "nan"),
        ("bound", "--annulus", "0.25", "--rho", "0.5", "--point", "x"),
        # constants below the least normal double
        ("exact", "--domain", "typeII:" + str(2 ** 2044 + 1)),
        ("exact", "--domain", "product:typeIV:3+typeII:" + str(2 ** 2044 - 1)),
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


@pytest.mark.parametrize("argv, message", [
    (("exact", "--domain", "ball:x"), "expected an integer in 'ball:x', got 'x'"),
    (("exact", "--domain", "ball:0"), "expected a positive integer in 'ball:0', got '0'"),
    (("exact", "--domain", "product:"), "empty product in 'product:'"),
    (("exact", "--domain", "punctured-ball:2"), "punctured-ball requires --point"),
    (("exact", "--domain", "punctured-ball:2", "--point", "a,b"),
     "point 'a,b' must be a comma-separated list of reals"),
    (("exact", "--domain", "punctured-ball:2", "--point", "1,2,3"),
     "point '1,2,3' must have 2 or 4 components for dimension 2"),
    (("bound", "--excised", "holes.json"), "--excised requires --point"),
    (("bound", "--c-constant", "0.2,x,0.3"), "--c-constant takes three reals, got '0.2,x,0.3'"),
    # the constant rounds down to 0, which no lower-bound certificate holds
    (("bound", "--c-constant", "5e-324,0.5,0.5000000001"), "certificate value must lie in (0, 1], got 0.0"),
])
def test_error_line_names_the_bad_token(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "domain", ["typeIV:" + "9" * 4301, "product:typeIV:3+typeIV:" + "9" * 4301], ids=["classical", "product"]
)
def test_parameter_past_the_digit_limit_named(capsys, domain):
    code, out, err = run_cli(capsys, "exact", "--domain", domain)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid domain {'typeIV:' + '9' * 4301!r}: ")
    assert f"more than {sys.get_int_max_str_digits():,} digits" in err


@pytest.mark.parametrize("argv", [
    ("exact", "--domain", "typeI:2,3"),
    ("exact", "--domain", "product:typeIV:3+typeIV:7"),
    ("exact", "--domain", "ball:3"),
    ("exact", "--domain", "punctured-ball:2", "--point", "0.3,0"),
    ("bound", "--annulus", "0.25", "--rho", "0.5"),
    ("bound", "--annulus", "0.25", "--rho", "0.5", "--caratheodory"),
    ("bound", "--punctured-ball", "2", "--punctures", "0,0", "--point", "0.25,0"),
    ("bound", "--c-constant", "0.2,0.3,0.6"),
    ("table", "--annulus", "0.25", "--samples", "5"),
])
def test_csv_lines_end_in_lf(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--out", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[-1] == "" and len(lines) >= 3
    assert "\r" not in out
    rows = list(csv.reader(lines[:-1]))
    assert len({len(row) for row in rows}) == 1


def test_list_valued_csv_cell(capsys):
    code, out, _ = run_cli(capsys, "exact", "--domain", "punctured-ball:2", "--point", "0.3,0", "--out", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["domain", "point", "value", "tag", "method"],
        ["punctured-ball:2", "0.29999999999999999 0 0 0", "0.29999999999999999", "exact", "puncture-identity"],
    ]


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
# table sample counts stay small, apart from one that no machine can allocate
_TABLE = st.tuples(
    st.just(["table"]),
    _option("--annulus", st.one_of(
        st.floats(0.05, 0.9).map(repr), st.sampled_from(["1e-300", "1e-12", "0.999999"]), _NUMBERS,
    )),
    _option("--samples", st.one_of(
        st.integers(2, 20).map(str), st.sampled_from(["0", "1", "-1", "1.5", "x", "10000000000000000000"]),
    )),
    _option("--out", st.sampled_from(["csv", "json"]), 1),
)
_ARGV = st.one_of(_EXACT, _BOUND, _BALL, _SEARCH, _TABLE).map(_flatten)

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
@example(argv=["table", "--annulus", "0.999999", "--samples", "5"])
@example(argv=["table", "--annulus", "0.25", "--samples", "10000000000000000000"])
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
        if "csv" in argv or (argv[0] == "table" and "json" not in argv):  # a table defaults to CSV
            header, *records = csv.reader(lines)
            assert all(len(record) == len(header) for record in records)
        else:
            records = [json.loads(line) for line in lines]
            assert all(isinstance(record, dict) for record in records)
        assert records and (argv[0] == "table" or len(records) == 1)  # only a table prints several rows
    else:
        assert stderr.getvalue().strip()
        if argv[0] == "table":
            assert any(flag in stderr.getvalue() for flag in ("--annulus", "--samples", "--out")), argv
