"""End-to-end CLI behavior: formats, determinism, exit codes."""

import contextlib
import csv
import importlib
import io
import json
import os
import pkgutil
import re
import signal
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import etainv
from etainv import cli, invariants
from etainv.cli import CSV_COLUMNS, build_parser, main
from etainv.coeffcore import UniPoly
from etainv.cohring import CohClass


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_json(capsys):
    code, out, _ = run_cli(capsys, "compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3")
    assert code == 0
    d = json.loads(out)
    assert d == {
        "k": 2,
        "c": 1,
        "s": 2,
        "t": 3,
        "a_value": "7/8",
        "eta_rel": "-7/4",
        "A0": "1/8",
        "A1": "-1/4",
        "sign_convention": "PLUS",
    }


def test_compute_approx_adds_decimals(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3", "--approx"
    )
    d = json.loads(out)
    assert d["eta_rel"] == "-7/4"
    assert d["eta_rel_approx"] == -1.75


# k = 64 at s = 1024 gives |a_value| above 10^320, past the largest float (about 1.8e308)
OVERFLOW_ARGV = [
    ["compute", "-k", "64", "-c", "1", "-s", "1024", "-t", "3"],
    ["family", "-k", "64", "-c", "1", "-s", "1024", "--t-min", "1", "--t-max", "5"],
]


@pytest.mark.parametrize("argv", OVERFLOW_ARGV)
def test_approx_outside_float_range_exit_1(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    code, out, err = run_cli(capsys, *argv, "--approx")
    assert (code, out) == (1, "")
    assert err == "error: --approx: a_value is outside float range; omit --approx for the exact value\n"


@pytest.mark.parametrize("argv", [
    ["compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3", "--format", "csv"],
    ["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "9", "--format", "csv"],
    ["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "9", "--format", "text"],
    *[[*argv, "--format", "csv"] for argv in OVERFLOW_ARGV],
])
def test_approx_is_ignored_by_csv_and_family_text(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--approx") == (0, out, "")


def test_compute_csv_column_order(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_COLUMNS
    assert rows[1] == ["2", "1", "2", "3", "7/8", "-7/4", "1/8", "-1/4", "PLUS"]


def test_compute_invalid_params_exit_1(capsys):
    code, _, err = run_cli(capsys, "compute", "-k", "2", "-c", "1", "-s", "2", "-t", "2")
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "compute", "-k", "2", "-c", "2", "-s", "2", "-t", "1")
    assert code == 1


def test_determinism(capsys):
    args = ("family", "-k", "2", "-c", "1", "-s", "2",
            "--t-min", "1", "--t-max", "9", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_family_csv(capsys):
    code, out, _ = run_cli(
        capsys, "family", "-k", "2", "-c", "1", "-s", "2",
        "--t-min", "1", "--t-max", "7", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["t"] for r in rows] == ["1", "3", "5", "7"]
    assert [r["eta_rel"] for r in rows] == ["-3/4", "-7/4", "-11/4", "-15/4"]
    assert [r["error"] for r in rows] == ["", "", "", ""]
    assert [r["distinct_count"] for r in rows] == ["4", "4", "4", "4"]
    code, out, _ = run_cli(
        capsys, "family", "-k", "2", "-c", "1", "-s", "2",
        "--t-min", "1", "--t-max", "5", "--t-step", "1", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "k,c,s,t,a_value,eta_rel,A0,A1,sign_convention,error,distinct_count"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["t"] for r in rows] == ["1", "2", "3", "4", "5"]
    assert [r["eta_rel"] for r in rows] == ["-3/4", "", "-7/4", "", "-11/4"]
    for r in rows[1::2]:
        assert r["error"] == f"t must be odd (standing assumption), got t={r['t']}"
        assert all(r[key] == "" for key in r if key not in ("t", "error", "distinct_count"))
    assert all(r["error"] == "" for r in rows[::2])
    assert [r["distinct_count"] for r in rows] == ["3"] * 5


def test_family_reports_distinct_count(capsys):
    code, out, _ = run_cli(
        capsys, "family", "-k", "2", "-c", "1", "-s", "2",
        "--t-min", "1", "--t-max", "9",
    )
    d = json.loads(out)
    assert d["distinct_count"] == 5


@pytest.mark.parametrize("k, c, s", [(1, 1, 2), (2, 2, 2), (2, 1, 3)])
def test_family_invalid_k_c_s_exit_1_like_compute(capsys, k, c, s):
    code, _, compute_err = run_cli(
        capsys, "compute", "-k", str(k), "-c", str(c), "-s", str(s), "-t", "1",
    )
    assert code == 1
    assert compute_err.startswith("error: ")
    for fmt in ("json", "csv", "text"):
        code, out, family_err = run_cli(
            capsys, "family", "-k", str(k), "-c", str(c), "-s", str(s),
            "--t-min", "1", "--t-max", "5", "--format", fmt,
        )
        assert code == 1
        assert out == ""
        assert family_err == compute_err


def test_family_empty_range_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "family", "-k", "2", "-c", "1", "-s", "2",
        "--t-min", "5", "--t-max", "1",
    )
    assert code == 1


@pytest.mark.parametrize("bounds", [
    ["--t-min", "5", "--t-max", "1"],
    ["--t-min", "1", "--t-max", "5"],
])
def test_family_step_below_1_exit_1(capsys, monkeypatch, bounds):
    # t runs upward only: a step below 1 is refused before the range is read
    for name in SERIES_WORK:
        monkeypatch.setattr(invariants, name, _refuse)
    argv = ["family", "-k", "2", "-c", "1", "-s", "2", *bounds, "--t-step", "-2"]
    assert run_cli(capsys, *argv) == (1, "", "error: --t-step must be >= 1\n")


def test_a1_poly_json(capsys):
    code, out, _ = run_cli(capsys, "a1-poly", "-k", "2")
    d = json.loads(out)
    assert d == {"k": 2, "variable": "s", "coeffs": ["0/1", "-1/48", "0/1", "-5/192"]}


def test_a1_poly_small_k_exit_1(capsys):
    code, out, err = run_cli(capsys, "a1-poly", "-k", "1")
    assert code == 1
    assert out == ""
    assert err == "error: k must be >= 2 (standing assumption), got k=1\n"


def test_find_s(capsys):
    code, out, _ = run_cli(capsys, "find-s", "-k", "2", "--s-candidates", "2,4,-2")
    d = json.loads(out)
    assert d["good_s"] == [2, 4, -2]
    code, _, err = run_cli(capsys, "find-s", "-k", "2", "--s-candidates", "2,x")
    assert code == 1


def test_cohomology_json(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "-k", "2", "-s", "2")
    d = json.loads(out)
    assert d["h4_quotient_order"] == 16
    assert [g["torsion"] for g in d["table"]] == [
        [], [], [], [], [4], [], [4], [], [], [],
    ]
    assert [g["free_rank"] for g in d["table"]] == [1, 0, 1, 0, 0, 0, 0, 1, 0, 1]


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "compute", "-k", "2", "-c", "1", "-s", "2", "-t", "1",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    d = json.loads(target.read_text())
    assert d["eta_rel"] == "-3/4"


def test_output_unwritable_path_exit_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(
        capsys, "compute", "-k", "2", "-c", "1", "-s", "2", "-t", "1",
        "--output", str(target),
    )
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


COMPUTE_ARGV = ["compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3"]
COMPUTE = {
    "k": 2, "c": 1, "s": 2, "t": 3, "a_value": "7/8", "eta_rel": "-7/4",
    "A0": "1/8", "A1": "-1/4", "sign_convention": "PLUS",
}
COMPUTE_APPROX = dict(COMPUTE, a_value_approx=0.875, eta_rel_approx=-1.75)
# t = 3 is not coprime to s = 6; t = 2 and 4 (with --t-step 1) are even
FAMILY_ARGV = ["family", "-k", "2", "-c", "1", "-s", "6", "--t-min", "1", "--t-max", "5"]
FAMILY_ROWS = [
    {"k": 2, "c": 1, "s": 6, "t": t, "a_value": a, "eta_rel": eta, "A0": "69/8", "A1": "-23/4",
     "sign_convention": "PLUS"}
    for t, a, eta in ((1, "115/8", "-115/4"), (5, "299/8", "-299/4"))
]
NOT_COPRIME = "s and t must be coprime (standing assumption), got gcd(6,3)=3"
COHOMOLOGY_TABLE = [(1, []), (0, []), (1, []), (0, []), (0, [4]), (0, []), (0, [4]), (1, []),
                    (0, []), (1, [])]

# The full stdout of every command in every format, byte for byte; a JSON
# case is given as its value, printed with indent=2 and a final newline.
GOLDEN = [
    (COMPUTE_ARGV + ["--format", "json"], COMPUTE),
    (COMPUTE_ARGV + ["--format", "json", "--approx"], COMPUTE_APPROX),
    (COMPUTE_ARGV + ["--format", "csv", "--approx"],
     "k,c,s,t,a_value,eta_rel,A0,A1,sign_convention\n2,1,2,3,7/8,-7/4,1/8,-1/4,PLUS\n"),
    (COMPUTE_ARGV + ["--format", "text"], "".join(f"{k} = {v}\n" for k, v in COMPUTE.items())),
    (COMPUTE_ARGV + ["--format", "text", "--approx"],
     "".join(f"{k} = {v}\n" for k, v in COMPUTE_APPROX.items())),
    (FAMILY_ARGV + ["--format", "json"],
     {"rows": [FAMILY_ROWS[0], {"t": 3, "error": NOT_COPRIME}, FAMILY_ROWS[1]],
      "distinct_count": 2}),
    (FAMILY_ARGV + ["--format", "json", "--approx"],
     {"rows": [dict(FAMILY_ROWS[0], a_value_approx=14.375, eta_rel_approx=-28.75),
               {"t": 3, "error": NOT_COPRIME},
               dict(FAMILY_ROWS[1], a_value_approx=37.375, eta_rel_approx=-74.75)],
      "distinct_count": 2}),
    (FAMILY_ARGV + ["--format", "csv", "--t-step", "1"],
     "k,c,s,t,a_value,eta_rel,A0,A1,sign_convention,error,distinct_count\n"
     "2,1,6,1,115/8,-115/4,69/8,-23/4,PLUS,,2\n"
     ',,,2,,,,,,"t must be odd (standing assumption), got t=2",2\n'
     f',,,3,,,,,,"{NOT_COPRIME}",2\n'
     ',,,4,,,,,,"t must be odd (standing assumption), got t=4",2\n'
     "2,1,6,5,299/8,-299/4,69/8,-23/4,PLUS,,2\n"),
    (FAMILY_ARGV + ["--format", "text"],
     f"t=1: eta_rel = -115/4\nt=3: INVALID ({NOT_COPRIME})\nt=5: eta_rel = -299/4\n"
     "distinct_count = 2\n"),
    (FAMILY_ARGV + ["--format", "text", "--t-step", "1", "--approx"],
     "t=1: eta_rel = -115/4\nt=2: INVALID (t must be odd (standing assumption), got t=2)\n"
     f"t=3: INVALID ({NOT_COPRIME})\nt=4: INVALID (t must be odd (standing assumption), got t=4)\n"
     "t=5: eta_rel = -299/4\ndistinct_count = 2\n"),
    (["a1-poly", "-k", "2", "--format", "json"],
     {"k": 2, "variable": "s", "coeffs": ["0/1", "-1/48", "0/1", "-5/192"]}),
    (["a1-poly", "-k", "2", "--format", "csv"], "degree,coeff\n0,0/1\n1,-1/48\n2,0/1\n3,-5/192\n"),
    (["a1-poly", "-k", "2", "--format", "text"],
     "k = 2\nvariable = s\ncoeffs = ['0/1', '-1/48', '0/1', '-5/192']\n"),
    (["find-s", "-k", "2", "--s-candidates", "2,4,-2", "--format", "json"],
     {"k": 2, "candidates": [2, 4, -2], "good_s": [2, 4, -2]}),
    (["find-s", "-k", "2", "--s-candidates", "2,4,-2", "--format", "csv"],
     "s,a1_nonzero\n2,true\n4,true\n-2,true\n"),
    (["find-s", "-k", "2", "--s-candidates", "2,4,-2", "--format", "text"],
     "k = 2\ncandidates = [2, 4, -2]\ngood_s = [2, 4, -2]\n"),
    (["cohomology", "-k", "2", "-s", "2", "--format", "json"],
     {"k": 2, "s": 2, "h4_quotient_order": 16,
      "table": [{"free_rank": r, "torsion": t} for r, t in COHOMOLOGY_TABLE]}),
    (["cohomology", "-k", "2", "-s", "2", "--format", "csv"],
     "degree,free_rank,torsion\n0,1,\n1,0,\n2,1,\n3,0,\n4,0,4\n5,0,\n6,0,4\n7,1,\n8,0,\n9,1,\n"),
    (["cohomology", "-k", "2", "-s", "2", "--format", "text"],
     "H^0 = Z\nH^1 = 0\nH^2 = Z\nH^3 = 0\nH^4 = Z_4\nH^5 = 0\nH^6 = Z_4\nH^7 = Z\nH^8 = 0\n"
     "H^9 = Z\n|H^4(quotient)| = 16\n"),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output(capsys, tmp_path, argv, expected):
    if not isinstance(expected, str):
        expected = json.dumps(expected, indent=2) + "\n"
    assert run_cli(capsys, *argv) == (0, expected, "")
    target = tmp_path / "out"
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode()


def _refuse(*args, **kwargs):
    raise AssertionError("series or ring work started before the input was checked")


SERIES_WORK = (
    "ahat_Bc", "_sech_factor", "ps_exp", "_ahat_factor", "_inv_two_cosh", "_ahat_power",
    "_a1_poly", "_t_factor", "_ring_moments", "_moments_at",
)


@pytest.mark.parametrize("argv", [
    ["compute", "-k", "2", "-c", "1", "-s", "2", "-t", "1"],
    ["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "9"],
])
def test_order_option_refused(capsys, monkeypatch, argv):
    # every series is truncated at u^{2k}, past which the ring is zero, so
    # there is no truncation option to pass
    for name in SERIES_WORK:
        monkeypatch.setattr(invariants, name, _refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--order", "20"])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.endswith("\netainv: error: unrecognized arguments: --order 20\n")
    assert "Traceback" not in captured.err


K_LIMIT = "error: k must be <= 64 (work limit), got "
# the smallest |c|, |s| or |t| refused, and the largest accepted values
BOUND = 2**63
BIG_ODD, BIG_EVEN = str(BOUND - 1), str(BOUND - 2)


def _bound_err(name, value):
    bits = abs(value).bit_length()
    return f"error: |{name}| must be < 2^63 (work limit), got a {bits}-bit {name}\n"


@pytest.mark.parametrize("argv, err", [
    (["compute", "-k", "65", "-c", "1", "-s", "2", "-t", "1"], K_LIMIT + "k=65\n"),
    (["compute", "-k", "2000", "-c", "1", "-s", "2", "-t", "1"], K_LIMIT + "k=2000\n"),
    (["family", "-k", "65", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "3"],
     K_LIMIT + "k=65\n"),
    (["a1-poly", "-k", "65"], K_LIMIT + "k=65\n"),
    (["a1-poly", "-k", "3000"], K_LIMIT + "k=3000\n"),
    (["find-s", "-k", "65", "--s-candidates", "2"], K_LIMIT + "k=65\n"),
    (["cohomology", "-k", "65", "-s", "2"], K_LIMIT + "k=65\n"),
    (["cohomology", "-k", "100000", "-s", "2"], K_LIMIT + "k=100000\n"),
    # past both limits, k is reported first
    (["family", "-k", "65", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "2001"],
     K_LIMIT + "k=65\n"),
    # the t limit counts every requested t, invalid ones included
    (["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "0", "--t-max", "1000",
      "--t-step", "1"],
     "error: at most 1000 t values per scan (work limit), got 1001\n"),
    (["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "2001"],
     "error: at most 1000 t values per scan (work limit), got 1001\n"),
    (["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "200000000",
      "--t-step", "1"],
     "error: at most 1000 t values per scan (work limit), got 200000000\n"),
    # |c|, |s| and |t| < 2^63: a 4001-digit s used to do all its work, then fail on output
    (["compute", "-k", "64", "-c", "1", "-s", "2" + "0" * 4000, "-t", "3"],
     _bound_err("s", 2 * 10**4000)),
    (["compute", "-k", "2", "-c", "1", "-s", str(BOUND), "-t", "3"], _bound_err("s", BOUND)),
    (["compute", "-k", "2", "-c", str(-BOUND), "-s", "2", "-t", "3"], _bound_err("c", BOUND)),
    (["compute", "-k", "2", "-c", "1", "-s", "2", "-t", str(BOUND + 1)],
     _bound_err("t", BOUND)),
    # the t bound refuses the whole family before its certificate, like the t count
    (["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", str(BOUND + 1),
      "--t-step", str(BOUND)],
     _bound_err("t", BOUND)),
    (["family", "-k", "2", "-c", "1", "-s", str(-BOUND), "--t-min", "1", "--t-max", "3"],
     _bound_err("s", BOUND)),
    (["find-s", "-k", "2", "--s-candidates", f"2,{BOUND}"], _bound_err("s", BOUND)),
    (["cohomology", "-k", "2", "-s", str(BOUND)], _bound_err("s", BOUND)),
    # at most 1000 find-s candidates, counted before A1(s) is built
    (["find-s", "-k", "2", "--s-candidates", ",".join(["2"] * 1001)],
     "error: at most 1000 s candidates (work limit), got 1001\n"),
    (["find-s", "-k", "64", "--s-candidates", ",".join(str(2 * i) for i in range(1, 20001))],
     "error: at most 1000 s candidates (work limit), got 20000\n"),
    # |t| < 2^63 at both ends, yet more t values than len() of a range can count
    (["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", str(1 - BOUND), "--t-max", BIG_ODD,
      "--t-step", "1"],
     f"error: at most 1000 t values per scan (work limit), got {2 * BOUND - 1}\n"),
    (["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", str(10**29),
      "--t-step", "1"],
     f"error: at most 1000 t values per scan (work limit), got {10**29}\n"),
])
def test_work_limits_exit_1(capsys, monkeypatch, argv, err):
    for name in SERIES_WORK:
        monkeypatch.setattr(invariants, name, _refuse)
    assert run_cli(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("argv", [
    ["compute", "-k", "64", "-c", "1", "-s", "2", "-t", "1"],
    # k and t limits at once: the largest accepted family request
    ["family", "-k", "64", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "1999"],
    # 1000 t values, half of them invalid rows
    ["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "1000",
     "--t-step", "1"],
    ["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "1999"],
    ["a1-poly", "-k", "64"],
    ["find-s", "-k", "64", "--s-candidates", "2"],
    ["cohomology", "-k", "64", "-s", "2"],
    # 1000 candidates, the most find-s accepts
    ["find-s", "-k", "2", "--s-candidates", ",".join(str(2 * i) for i in range(1, 1001))],
    # |c|, |s|, |t| = 2^63 - 1 or 2^63 - 2 at k = 64: the longest values printed
    # (A1(s), 2403 digits) stay inside the 4300-digit int-to-string limit
    ["compute", "-k", "64", "-c", BIG_ODD, "-s", BIG_EVEN, "-t", BIG_ODD],
    ["compute", "-k", "64", "-c", "-" + BIG_ODD, "-s", "-" + BIG_EVEN, "-t", "-" + BIG_ODD],
    ["family", "-k", "64", "-c", BIG_ODD, "-s", BIG_EVEN, "--t-min", str(BOUND - 5),
     "--t-max", BIG_ODD],
    ["find-s", "-k", "64", "--s-candidates", f"{BIG_EVEN},-{BIG_EVEN}"],
    ["cohomology", "-k", "64", "-s", "-" + BIG_EVEN],
])
def test_work_limit_boundaries_accepted(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


def _break_univariate_a1(monkeypatch):
    a1_poly_in_s = invariants.a1_poly_in_s

    def broken(k):
        poly = a1_poly_in_s(k)
        return UniPoly("s", (poly.nums[0] + poly.den,) + poly.nums[1:], poly.den)

    monkeypatch.setattr(invariants, "a1_poly_in_s", broken)


def _break_ring_integral(monkeypatch):
    # shift the slope Z(s) of the per-k certificate by 1, cold or warm
    moments = invariants._ring_moments

    def shifted(k):
        Y, Z = moments(k)
        return Y, UniPoly("s", (Z.nums[0] + Z.den,) + Z.nums[1:], Z.den)

    monkeypatch.setattr(invariants, "_ring_moments", shifted)


def _break_ahat_class(monkeypatch):
    # add the top class to A-hat(B_c); only a cold certificate build sees it
    ahat_Bc = invariants.ahat_Bc

    def broken(spec):
        top = CohClass(spec, (), (0,) * (2 * spec.k - 1) + (1,))
        return ahat_Bc(spec) + top

    monkeypatch.setattr(invariants, "ahat_Bc", broken)


def _break_series_eval(monkeypatch):
    # scale every series evaluation inside ahat_Bc; again cold only
    coh_eval_series = invariants.coh_eval_series
    monkeypatch.setattr(invariants, "coh_eval_series", lambda f, x: coh_eval_series(f, x).scale(2))


@pytest.mark.parametrize("breaker", [
    _break_univariate_a1, _break_ring_integral, _break_ahat_class, _break_series_eval,
])
@pytest.mark.parametrize("argv", [
    ["compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3"],
    ["family", "-k", "3", "-c", "-1", "-s", "4", "--t-min", "1", "--t-max", "9"],
])
def test_internal_consistency_failure_exit_2(capsys, monkeypatch, cold_caches, breaker, argv):
    # the per-k caches sit below the first two breakers: each must fail a
    # request with k's caches cold, and again once a clean request has warmed
    # them.  The ring certificate is built once per k, so a breaker of the
    # ring products it is built from can only fail a request with k cold.
    cold_only = breaker in (_break_ahat_class, _break_series_eval)
    for warm in (False,) if cold_only else (False, True):
        if warm:
            assert run_cli(capsys, *argv)[0] == 0
        with monkeypatch.context() as patch:
            breaker(patch)
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("internal consistency failure: ring integral ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


VERIFY_PAPER_STDOUT = """\
PASS  gysin_cokernel_orders: SNF = (1, s^2) for all k in {2,3,4}, (s,t) pairs, l in [1, 2k-2]
PASS  h4_order: |H^4| = 4s^2 for s in {2,4,6}
PASS  cohomology_table_k2_s2: cohomology table (k=2, s=2) = [Z, 0, Z, 0, Z_4, 0, Z_4, Z, 0, Z]
PASS  a1_three_way_agreement: a1_direct = a1_residue = affine A1 on {2,3} x {2,4,6} x {1,3}
PASS  s2_closed_form: a1_direct(k,2) = (-1)^(k-1) k/2^(k+1) for k = 2..5
PASS  affinity_in_t: local datum affine in t over t in {1,3,5,7} at (k,c,s)=(2,1,2)
PASS  family_distinctness: 25 pairwise distinct eta values, eta = -2a in every row
PASS  a1_polynomial_structure: A1 polynomial odd of degree <= 2k-1, matches a1_direct on s in {2,4,6}
PASS  series_engine: series engine: A-hat factor, reversion, compose/revert round trips
PASS  ring_engine: ring engine: defining relations and randomized associativity/commutativity
"""


def test_verify_exit_0(capsys):
    # the default verify output is pinned line for line
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper")
    assert code == 0
    assert out == VERIFY_PAPER_STDOUT
    assert len(out.splitlines()) == 10


def test_every_name_in_each_all_resolves():
    # a stale __all__ entry would break `from <module> import *`
    modules = ["etainv"] + [f"etainv.{m.name}" for m in pkgutil.iter_modules(etainv.__path__)]
    for name in modules:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)


# the console script's entry point is etainv.cli:main
CONSOLE_SCRIPT = "import sys; from etainv.cli import main; sys.exit(main())"


@pytest.mark.parametrize("entry", [["-m", "etainv.cli"], ["-c", CONSOLE_SCRIPT]])
@pytest.mark.parametrize("value", ["bogus", "gmpy2"])
def test_rational_env_var_is_ignored(entry, value):
    # Fraction is the only rational type; no environment variable selects another
    src = str(Path(etainv.__file__).resolve().parents[1])
    env = {key: v for key, v in os.environ.items() if key != "ETAINV_RATIONAL"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, *entry, "compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3"]
    plain = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    env["ETAINV_RATIONAL"] = value
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (plain.returncode, plain.stderr) == (0, "")
    assert '"eta_rel": "-7/4"' in plain.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, plain.stdout, "")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["verify"],
    # about 270 KB of JSON, past any pipe or stdout buffer
    ["family", "-k", "64", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "1999"],
    ["compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3"],
    ["a1-poly", "-k", "3"],
    ["find-s", "-k", "2", "--s-candidates", "2,4"],
    ["cohomology", "-k", "2", "-s", "2"],
    # help is written to stdout by the parser, before any command runs
    ["--help"],
    ["compute", "-h"],
])
def test_closed_stdout_exits_1_with_one_error_line(argv, unbuffered):
    # the reader of stdout is gone before the child writes, as in `etainv verify | true`;
    # a buffered stdout first meets the closed pipe when it is flushed
    src = str(Path(etainv.__file__).resolve().parents[1])
    env = {key: v for key, v in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT, *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


VALID = ["-c", "1", "-s", "2", "-t", "3"]
PARSE_CORPUS = [
    ["compute", "-k", "2", *VALID, "--approx", "--output", "out.json"],
    ["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "9", "--t-step", "4"],
    ["verify"],
    [], ["-h"], ["--help"], ["bogus"], ["compute", "-h"], ["family", "--help"],
    # a missing required option, and a value that is not an int
    ["compute", "-k", "2", "-c", "1", "-s", "2"],
    ["compute", "-k", "x", *VALID],
    # leftovers are refused by the top-level parser, a bad choice by the subparser
    ["compute", "-k", "2", *VALID, "--order", "20"],
    ["compute", "-k", "2", *VALID, "stray"],
    ["compute", "-k", "2", *VALID, "--format", "xml"],
    ["compute", "-k2", *VALID, "--format=csv"],
    ["compute", "-k", "2", "-c", "-5", "-s", "-2", "-t", "-3"],
    ["compute", "-k", "2", *VALID, "--form", "csv", "--appr"],
    ["family", "-k", "2", "-c", "1", "-s", "2", "--t-m", "1", "--t-max", "5"],
    ["find-s", "-k", "2", "--s-cand=-2,4"],
    ["--", "compute", "-k", "2", *VALID],
    ["compute", "-k", "2", "--", *VALID],
    ["compute", "-k", "2", *VALID, "--"],
    ["compute", "-k", "2", *VALID, "-t", "5"],
    ["verify", "extra"],
    ["verify", "--suite", "other"],
    ["compute", "-k", "2", *VALID, "--output"],
    ["compute", "-k", "2", *VALID, "-x"],
    ["compute", "-k", "2", *VALID, "-h"],
]


def _parse_outcome(capsys, parse, argv):
    try:
        outcome = vars(parse(list(argv)))
    except SystemExit as exc:
        outcome = exc.code
    return (outcome, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=[" ".join(a) or "empty" for a in PARSE_CORPUS])
def test_parse_is_parse_args(capsys, monkeypatch, argv):
    # main sends a known command straight to its subparser; the namespace, or
    # the exit code and messages of a refused argv, are those of parse_args
    monkeypatch.setenv("COLUMNS", "80")
    expected = _parse_outcome(capsys, build_parser().parse_args, argv)
    assert _parse_outcome(capsys, cli._parse, argv) == expected


_json_strings = st.one_of(st.text(), st.text(st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\U0001f600ab')))
_json_values = st.recursive(
    st.one_of(
        _json_strings,
        st.integers(),
        st.integers(-10**4000, 10**4000),
        st.booleans(),
        st.none(),
        st.floats(),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    ),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(_json_strings, children),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_json_is_json_dumps_indent_2(value):
    assert cli._json(value, "") == json.dumps(value, indent=2)


def test_missing_subcommand_usage_error(capsys):
    # usage errors exit 1 like any bad input; 2 is kept for internal failures
    for argv in ([], ["compute", "-k", "x", "-c", "1", "-s", "2", "-t", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_reused_parser_carries_nothing_between_calls(capsys, monkeypatch, tmp_path):
    # main reuses one parser per process; each call must read as the same call
    # made first in a fresh interpreter: no option, default or --output carries over
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(etainv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    calls = [
        ["compute", "-k", "2"],
        ["compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3", "--format", "csv", "--approx",
         "--output", "{out}"],
        ["compute", "-k", "2", "-c", "1", "-s", "2", "-t", "3"],
        ["family", "-k", "2", "-c", "1", "-s", "2", "--t-min", "1", "--t-max", "5"],
        ["verify", "--suite", "paper"],
    ]
    for i, call in enumerate(calls):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        try:
            code = main([a.format(out=here) for a in call])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT, *[a.format(out=fresh) for a in call]],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        assert here.exists() == fresh.exists()
        if here.exists():
            assert here.read_bytes() == fresh.read_bytes()
    assert code == 0 and out.count("PASS") == 10


# -- the error contract, fuzzed ------------------------------------------------

_ODD_TOKENS = st.sampled_from([
    "x", "", "1.5", "0x10", "1e3", " 3", "٣", "-", "--", "9" * 40, "-" + "9" * 40,
    str(BOUND), str(-BOUND), BIG_ODD, BIG_EVEN, "-" + BIG_EVEN,
])


def _ints(*usual):
    """A usual value most often, then any small int, then a token that may be no int at all."""
    usual = st.sampled_from(usual)
    return st.one_of(usual, usual, st.integers(-9, 9).map(str), _ODD_TOKENS)


# k stays mostly small, so the fuzzer adds a few seconds at most
_KS = st.one_of(
    st.sampled_from(["2", "3", "4"]), st.sampled_from(["1", "0", "-3", "64", "65", "x", str(BOUND)])
)
_FORMATS = st.sampled_from(["json", "csv", "text"] * 5 + ["xml", ""])
_CANDIDATES = st.lists(_ints("2", "-4", "6"), max_size=4).map(",".join)
_OUTPUT = object()  # stands for an --output path under tmp_path
_FLAG = None  # an option that takes no value
_OPTIONS = {
    "compute": {"-k": _KS, "-c": _ints("1", "-3"), "-s": _ints("2", "-6"), "-t": _ints("3", "-1")},
    "family": {"-k": _KS, "-c": _ints("1", "-3"), "-s": _ints("2", "-6"), "--t-min": _ints("1", "-3"),
               "--t-max": _ints("9", "5"), "--t-step": _ints("2", "1", "3")},
    "a1-poly": {"-k": _KS},
    "find-s": {"-k": _KS, "--s-candidates": _CANDIDATES},
    "cohomology": {"-k": _KS, "-s": _ints("2", "-6")},
    "verify": {"--suite": st.sampled_from(["paper", "other"])},
}
for _command in ("compute", "family", "a1-poly", "find-s", "cohomology"):
    _OPTIONS[_command].update({"--format": _FORMATS, "--output": _OUTPUT})
for _command in ("compute", "family"):
    _OPTIONS[_command]["--approx"] = _FLAG


# hypothesis favours the ends of a list, so the rare shapes sit inside it
_SHAPES = st.sampled_from(["given"] * 20 + ["left out"] + ["given"] * 20 + ["without its value", "given"])


@st.composite
def _argv(draw, tmp_path):
    """A command and its options in any order, some left out, some without their value."""
    # verify runs the whole suite, so it is drawn less often
    command = draw(st.sampled_from(["compute", "family", "a1-poly", "find-s", "cohomology"] * 3
                                   + ["verify"]))
    options = _OPTIONS[command]
    argv = [command]
    for option in draw(st.permutations(sorted(options))):
        shape = draw(_SHAPES)
        if shape == "left out":
            continue
        argv.append(option)
        value = options[option]
        if value is _FLAG or shape == "without its value":
            continue
        if value is _OUTPUT:
            # a writable file, a directory, a missing directory, a path through a file
            name = draw(st.sampled_from(["out", ".", "missing/out", "file/out"]))
            argv.append(str(tmp_path / name))
        else:
            argv.append(draw(value))
    extra = draw(st.sampled_from([[]] * 15 + [["stray"], ["--order"], ["-x"], ["-k"], ["-h"]]))
    return argv + extra


def _hang(signum, frame):
    # not an OSError or ValueError, which main would turn into exit 1
    pytest.fail("one fuzzed argv ran for 20 s")


@settings(max_examples=300, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_keeps_the_error_contract(tmp_path, monkeypatch, data):
    # exit 0, 1 or 2 and never a traceback; past parsing a failure is one
    # stderr line, and a usage error keeps argparse's usage lines before its one error line
    # (an --output that lost its value takes the word "stray" as a relative path, so the
    # example runs in tmp_path and writes nothing into the working directory)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").touch()
    argv = data.draw(_argv(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(20)  # the deadline above fails a slow example; this fails one that never ends
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, usage = main(argv), False
            except SystemExit as exc:
                code, usage = exc.code, True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "", argv
    elif usage:
        lines = err.splitlines()
        assert lines[0].startswith("usage: etainv"), (argv, err)
        assert re.match(r"etainv( \S+)?: error: ", lines[-1]), (argv, err)
        assert sum(": error: " in line for line in lines) == 1, (argv, err)
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
