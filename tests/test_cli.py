"""End-to-end command-line behavior: schemas, determinism, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from warpcsc import ModelParams, derive_constants
from warpcsc.cli import _render, doc_to_profile, main, profile_to_doc
from warpcsc.errors import DomainError
from warpcsc.period import period_curve

T0_N3 = derive_constants(ModelParams(3, 2.0, 2.0)).T0
T0_N4 = derive_constants(ModelParams(4, 2.0, 2.0)).T0
T0_N5 = derive_constants(ModelParams(5, 2.0, 2.0)).T0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_threshold_text_output(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--n", "3", "--R", "2", "--Rt", "2")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert lines["n"] == "3"
    assert float(lines["T0"]) == T0_N3
    assert float(lines["omega"]) == 1.0
    assert float(lines["c_min"]) == pytest.approx(-0.75)


def test_threshold_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--n", "5", "--R", "3.7", "--Rt", "1.3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    consts = derive_constants(ModelParams(5, 3.7, 1.3))
    # 17 significant digits reproduce the doubles exactly
    assert doc["T0"] == consts.T0
    assert doc["x_star"] == consts.x_star
    assert doc["c_crit"] == 0.0


def test_single_energy_period_csv(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--n", "3", "--R", "2", "--Rt", "2", "--energy", "-0.225"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "c,a,b,T,amplitude"
    c, a, b, T, amp = (float(v) for v in row.split(","))
    assert c == -0.225
    assert T == pytest.approx(5.8985046008834841, rel=1e-12)
    assert amp == pytest.approx(b - a, rel=1e-15)


# stdout as the adaptive Gauss quadrature in x produced it.  Columns that do
# not depend on the period integral (the closed-form constants, the
# energy asked for, the circle-period grid, wrap counts and per-wrap
# periods) stay byte for byte; the integral's own columns move in their
# last digits, by at most 1e-12 relative.
PINNED_STDOUT = [
    (("threshold", "--n", "3", "--R", "2", "--Rt", "2"),
     "n = 3\nR = 2\nRt = 2\nf_star = 1\nx_star = 1\nomega = 1\n"
     "T0 = 6.2831853071795862\nc_min = -0.74999999999999978\nc_crit = 0\n",
     None),
    (("period", "--n", "3", "--R", "2", "--Rt", "2", "--energy", "-0.225"),
     "c,a,b,T,amplitude\n"
     "-0.22500000000000001,0.091313656401387791,2.0652376254858007,"
     "5.8985046008834843,1.9739239690844128\n",
     1),
    (("bifurcate", "--n", "3", "--R", "2", "--Rt", "2", "--tmax", "20", "--grid", "16"),
     "T,k,tau,c,amplitude,f_min,f_max\n"
     "11.426990816987242,2,5.7134954084936211,-0.099917535100142008,"
     "2.1622557325562055,0.089050980470007507,1.6858075534759454\n"
     "12.284291735288518,2,6.1421458676442588,-0.49777290996116169,"
     "1.4000434266094233,0.47912834372433388,1.4420502377692392\n"
     "16.570796326794898,3,5.5235987755982991,-0.019805347721925992,"
     "2.2596821243258325,0.017606572826026391,1.7231804047472097\n"
     "17.428097245096172,3,5.8093657483653907,-0.1580347603255291,"
     "2.0797964308697665,0.14141808615298934,1.6570064119917347\n"
     "18.285398163397449,3,6.0951327211324831,-0.43206515834396336,"
     "1.5645893481721431,0.40643799993528357,1.4926896397168357\n",
     3),
]


@pytest.mark.parametrize("argv, pinned, exact_columns", PINNED_STDOUT,
                         ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_stdout_matches_pinned_output(capsys, argv, pinned, exact_columns):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if exact_columns is None:
        assert out == pinned
        return
    lines, ref_lines = out.splitlines(), pinned.splitlines()
    assert out.endswith("\n") and len(lines) == len(ref_lines)
    assert lines[0] == ref_lines[0]
    for line, ref in zip(lines[1:], ref_lines[1:]):
        fields, ref_fields = line.split(","), ref.split(",")
        assert fields[:exact_columns] == ref_fields[:exact_columns]
        for value, ref_value in zip(fields[exact_columns:], ref_fields[exact_columns:]):
            assert float(value) == pytest.approx(float(ref_value), rel=1e-12, abs=0.0)


def test_scan_csv_shape_and_determinism(capsys):
    args = ("period", "--n", "5", "--R", "2", "--Rt", "2", "--scan", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 8
    assert all(len(line.split(",")) == 5 for line in lines)


def test_scan_band_option(capsys):
    # the value must be glued to the flag or argparse reads it as an option
    code, out, _ = run_cli(
        capsys, "period", "--n", "3", "--R", "2", "--Rt", "2",
        "--scan", "5", "--band=-0.6,-0.2",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert float(rows[0][0]) == -0.6
    assert float(rows[-1][0]) == -0.2


def test_scan_reports_failed_point_and_keeps_the_rest(capsys):
    # the first point lies below c_min = -0.75
    code, out, err = run_cli(
        capsys, "period", "--n", "3", "--R", "2", "--Rt", "2",
        "--scan", "5", "--band=-0.8,-0.2",
    )
    assert code == 0
    assert err.startswith("# point 0 at c = -0.80000000000000004 failed: ")
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 4
    assert float(rows[0].split(",")[0]) == -0.65


def test_solve_writes_verifiable_profile(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    code, _, _ = run_cli(
        capsys, "solve", "--n", "5", "--R", "2", "--Rt", "2",
        "--period", repr(1.05 * T0_N5), "--samples", "512",
        "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["columns"] == ["t", "x", "v", "f", "fp", "fpp"]
    assert len(doc["samples"]) == 512

    code, out, _ = run_cli(capsys, "verify", "--in", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["curvature"]["passed"] is True
    assert report["conformal"]["squared_convention_ok"] is True
    assert report["conformal"]["linear_convention_ok"] is False
    assert report["audit"]["ok"] is True


def test_verify_rejects_tampered_profile(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    run_cli(
        capsys, "solve", "--n", "5", "--R", "2", "--Rt", "2",
        "--period", repr(1.05 * T0_N5), "--samples", "512",
        "--out", str(out_file),
    )
    doc = json.loads(out_file.read_text())
    doc["samples"][40][3] *= 1.02
    out_file.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--in", str(out_file))
    assert code == 3
    report = json.loads(out)
    assert report["passed"] is False
    assert report["audit"]["flagged_index"] == 40


def test_solve_refuses_a_profile_verify_would_reject(tmp_path, capsys):
    # 512 uniform samples miss the dip of this orbit (f_min/f_star = 0.002)
    out_file = tmp_path / "profile.json"
    code, out, err = run_cli(
        capsys, "solve", "--n", "5", "--R", "2", "--Rt", "2",
        "--period", "9.93", "--out", str(out_file),
    )
    assert code == 2
    assert out == ""
    assert not out_file.exists()
    assert err.startswith("error: 512 samples do not resolve")
    assert "fd_sup" in err and "tolerance" in err


@pytest.mark.parametrize("period, samples, code, message", [
    # the finite-difference audit passes, the recovered curvature does not
    ("9.83", "2048", 4, "curvature max_dev"),
    # the samples satisfy the audit but not the squared-fiber convention check
    ("8.9", "64", 4, "fails verify on conformal"),
    # too few samples for verify's curvature check
    ("8.9", "48", 2, "need at least 64 samples"),
], ids=["curvature", "conformal", "few-samples"])
def test_solve_refuses_what_verify_rejects(tmp_path, capsys, period, samples, code, message):
    out_file = tmp_path / "profile.json"
    got, out, err = run_cli(
        capsys, "solve", "--n", "5", "--R", "2", "--Rt", "2",
        "--period", period, "--samples", samples, "--out", str(out_file),
    )
    assert got == code
    assert out == ""
    assert not out_file.exists()
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("n", [5, 8])
def test_every_profile_solve_writes_passes_verify(tmp_path, capsys, n):
    params = ModelParams(n, 2.0, 2.0)
    T0 = derive_constants(params).T0
    lo, hi = period_curve(n, 1e-10).band
    written = 0
    for share in (0.5, 0.99):
        period = T0 * (lo + share * (hi - lo))
        for samples in (512, 2048):
            out_file = tmp_path / f"profile_{share}_{samples}.json"
            code, _, _ = run_cli(
                capsys, "solve", "--n", str(n), "--R", "2", "--Rt", "2",
                "--period", repr(period), "--samples", str(samples),
                "--out", str(out_file),
            )
            assert code in (0, 2, 4)
            assert out_file.exists() == (code == 0)
            if code == 0:
                written += 1
                assert run_cli(capsys, "verify", "--in", str(out_file))[0] == 0
    assert written > 0


def test_verify_passes_the_constant_warp(tmp_path, capsys):
    # its conformal reference is finfo.tiny; verify still writes true
    params = ModelParams(5, 2.0, 2.0)
    consts = derive_constants(params)
    t = np.linspace(0.0, 1.1 * consts.T0, 129)
    doc = {
        "params": {"n": 5, "R": 2.0, "Rt": 2.0},
        "T": float(t[-1]),
        "c": consts.c_min,
        "samples": [[ti, consts.x_star, 0.0, consts.f_star, 0.0, 0.0] for ti in t.tolist()],
    }
    in_file = tmp_path / "constant.json"
    in_file.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--in", str(in_file))
    assert code == 0
    assert '"squared_convention_ok": true,\n    "linear_convention_ok": true\n' in out
    assert json.loads(out)["passed"] is True


RENDERED = (
    '{\n'
    '  "floats": [0, -0, 4.9406564584124654e-324, 0.33333333333333331, 1e+22, '
    '0.10000000000000001],\n'
    '  "constants": [true, false, null, 42, "a \\"quoted\\" name"],\n'
    '  "empty_list": [],\n'
    '  "empty_dict": {},\n'
    '  "nested": [\n'
    '    [1.5, -2],\n'
    '    [\n'
    '      []\n'
    '    ],\n'
    '    [\n'
    '      [0.25],\n'
    '      [3]\n'
    '    ]\n'
    '  ],\n'
    '  "scalar": 0.33333333333333331\n'
    '}'
)


def test_render_writes_the_pinned_bytes():
    doc = {
        "floats": [0.0, -0.0, 5e-324, 1 / 3, 1e22, np.float64(0.1)],
        "constants": [True, False, None, 42, 'a "quoted" name'],
        "empty_list": [],
        "empty_dict": {},
        "nested": [[1.5, -2], [[]], [[0.25], [3]]],
        "scalar": 1 / 3,
    }
    assert _render(doc) == RENDERED


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_render_refuses_non_finite_floats(value):
    with pytest.raises(DomainError, match="non-finite"):
        _render(value)
    with pytest.raises(DomainError, match="non-finite"):
        _render({"nested": [[1.0], [2.0, value]]})


def test_render_refuses_what_json_cannot_write():
    with pytest.raises(TypeError):
        _render(object())
    with pytest.raises(TypeError):
        _render({"a": [1.0, object()]})


def test_solve_reports_step_counters_on_stderr_only(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    code, out, err = run_cli(
        capsys, "solve", "--n", "5", "--R", "2", "--Rt", "2",
        "--period", repr(1.05 * T0_N5), "--out", str(out_file),
    )
    assert code == 0 and out == ""
    assert err.startswith("# profile: dt ")
    assert "substeps 1," in err and err.endswith("force evaluations 3577\n")
    doc = json.loads(out_file.read_text())
    assert list(doc) == [
        "params", "T", "c", "root_count", "residual_sup", "closure_error",
        "columns", "samples",
    ]


def test_profile_doc_does_not_carry_integration_counters(profile3):
    assert profile3.force_evals > 0
    back = doc_to_profile(profile_to_doc(profile3))
    assert (back.dt, back.substeps, back.force_evals) == (0.0, 0, 0)


def test_profile_doc_round_trip(profile3):
    doc = profile_to_doc(profile3)
    back = doc_to_profile(doc)
    assert back.params == profile3.params
    assert back.T == profile3.T
    assert back.c == profile3.c
    assert np.array_equal(back.samples, profile3.samples)


def test_bifurcate_outputs_rows_and_points(tmp_path, capsys):
    points = tmp_path / "points.csv"
    code, out, err = run_cli(
        capsys, "bifurcate", "--n", "3", "--R", "2", "--Rt", "2",
        "--tmax", repr(2.2 * T0_N3), "--grid", "120",
        "--points", str(points),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "T,k,tau,c,amplitude,f_min,f_max"
    assert len(lines) > 10
    point_lines = points.read_text().strip().splitlines()
    assert point_lines[0] == "k,T"
    ks = [int(line.split(",")[0]) for line in point_lines[1:]]
    assert 2 in ks
    assert "threshold T0" in err
    # the curve's counters go to stderr only
    assert "; period curve: 96 quadratures, err_est " in err
    assert err.rstrip().endswith(" nodes")
    assert "quadratures" not in out and "nodes" not in out


def test_bifurcate_flags_isochronous_case(capsys):
    code, out, err = run_cli(
        capsys, "bifurcate", "--n", "4", "--R", "2", "--Rt", "2",
        "--tmax", repr(2.0 * T0_N4), "--grid", "40",
    )
    assert code == 0
    assert "isochronous degenerate case" in err
    assert out.strip().splitlines() == ["T,k,tau,c,amplitude,f_min,f_max"]


def test_exit_code_2_on_domain_errors(capsys):
    code, _, err = run_cli(capsys, "threshold", "--n", "2", "--R", "1", "--Rt", "1")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        capsys, "period", "--n", "3", "--R", "2", "--Rt", "2", "--energy", "0.5"
    )
    assert code == 2


def test_exit_code_2_on_usage_errors(capsys):
    assert run_cli(capsys, "threshold", "--n", "3")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "period", "--n", "3", "--R", "2", "--Rt", "2")[0] == 2


def test_exit_code_3_below_threshold(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--n", "3", "--R", "2", "--Rt", "2",
        "--period", repr(0.5 * T0_N3),
    )
    assert code == 3 and "error:" in err


def test_exit_code_4_when_no_bracket_exists(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--n", "3", "--R", "2", "--Rt", "2",
        "--period", repr(1.5 * T0_N3),
    )
    assert code == 4 and "error:" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "warpcsc.cli", "threshold",
         "--n", "3", "--R", "2", "--Rt", "2", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["T0"] == T0_N3
    # output bytes end with exactly one newline
    assert proc.stdout.endswith("}\n") and not proc.stdout.endswith("\n\n")
