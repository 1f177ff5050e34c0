"""End-to-end command-line behavior: schemas, determinism, exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcsc import (
    ModelParams,
    NonPositiveWarp,
    TooFewSamples,
    audit_profile,
    conformal_field_check,
    curvature_audit,
    derive_constants,
    profile_from_energy,
    solve_period,
)
from warpcsc import period as period_mod
from warpcsc.cli import (
    CURVATURE_TOL,
    _render,
    _verdict,
    build_parser,
    doc_to_profile,
    main,
    profile_to_doc,
)
from warpcsc import cli
from warpcsc import errors as errors_mod
from warpcsc.errors import DomainError
from warpcsc.period import period_curve

T0_N3 = derive_constants(ModelParams(3, 2.0, 2.0)).T0
T0_N4 = derive_constants(ModelParams(4, 2.0, 2.0)).T0
T0_N5 = derive_constants(ModelParams(5, 2.0, 2.0)).T0
T0_N30 = derive_constants(ModelParams(30, 2.0, 2.0)).T0


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


@pytest.mark.parametrize("n, period, samples, code, message, enough", [
    # the finite-difference audit passes, the recovered curvature does not
    ("5", "9.83", "2048", 4, "curvature max_dev", None),
    # the samples satisfy the audit but not the squared-fiber convention check
    ("5", "8.9", "64", 4, "fails verify on conformal", "128"),
    # too few samples for verify's curvature check
    ("5", "8.9", "48", 2, "need at least 64 samples", None),
    # the default samples fail the conformal check alone, by 1.26 of its tolerance
    ("30", repr(1.6 * T0_N30), "512", 4, "fails verify on conformal", "1024"),
], ids=["curvature", "conformal", "few-samples", "conformal-n30"])
def test_solve_refuses_what_verify_rejects(tmp_path, capsys, n, period, samples, code, message,
                                           enough):
    out_file = tmp_path / "profile.json"
    args = ["solve", "--n", n, "--R", "2", "--Rt", "2", "--period", period,
            "--out", str(out_file)]
    got, out, err = run_cli(capsys, *args, "--samples", samples)
    assert got == code
    assert out == ""
    assert not out_file.exists()
    assert err.startswith("error: ") and message in err
    if enough is not None:
        # a refusal on sampling alone names the knob, and turning it is enough
        assert "sup_fiber_sq" in err and err.endswith("; raise --samples\n")
        assert run_cli(capsys, *args, "--samples", enough)[0] == 0
        assert run_cli(capsys, "verify", "--in", str(out_file))[0] == 0


def test_solve_refuses_an_orbit_that_misses_its_period(tmp_path, capsys, monkeypatch):
    period_curve(5, 1e-10)  # built before the kernel is skewed
    real_kernel = period_mod._period_kernel

    def skewed_kernel(*args):
        periods = real_kernel(*args)
        return periods._replace(ratio=periods.ratio * (1.0 + 1e-6))

    monkeypatch.setattr(period_mod, "_period_kernel", skewed_kernel)
    out_file = tmp_path / "profile.json"
    code, out, err = run_cli(
        capsys, "solve", "--n", "5", "--R", "2", "--Rt", "2",
        "--period", repr(1.05 * T0_N5), "--out", str(out_file),
    )
    assert code == 4
    assert out == ""
    assert not out_file.exists()
    assert err.startswith("error: period inversion at tau/T0 = ")
    assert err.endswith("loosen --rtol\n")


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


def _render_by_element(obj, level=0):
    """The element rule, one scalar at a time: a float with 17 significant
    digits, refusing non-finite ones, and json.dumps for the rest."""
    def scalar(v):
        if isinstance(v, float):
            if not math.isfinite(v):
                raise DomainError(f"cannot serialize non-finite value {v}")
            return format(v, ".17g")
        return json.dumps(v)

    ind, nxt = "  " * level, "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{nxt}{json.dumps(str(k))}: {_render_by_element(v, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + ind + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if not any(isinstance(v, (dict, list)) for v in obj):
            return "[" + ", ".join(scalar(v) for v in obj) + "]"
        parts = [f"{nxt}{_render_by_element(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + ind + "]"
    return scalar(obj)


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e22, 1 / 3, 1.7976931348623157e308,
                     2.2250738585072014e-308, 1e-300, 123456789012345678.0]),
)
FLOAT_MATRICES = st.integers(1, 7).flatmap(
    lambda k: st.lists(st.lists(FINITE, min_size=k, max_size=k), min_size=1, max_size=24))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrix=FLOAT_MATRICES, flat=st.lists(FINITE, min_size=1, max_size=24))
def test_render_of_float_rows_is_the_element_rule(matrix, flat):
    for obj in (matrix, flat, {"samples": matrix, "flat": flat, "nested": [[matrix], flat]}):
        assert _render(obj) == _render_by_element(obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (255, 3), (511, 5)])
def test_render_refuses_a_non_finite_float_anywhere_in_a_sample_matrix(value, where):
    matrix = np.linspace(-1.0, 1.0, 512 * 6).reshape(512, 6).tolist()
    matrix[where[0]][where[1]] = value
    message = re.escape(f"cannot serialize non-finite value {value}")
    for obj in (matrix, {"samples": matrix}, matrix[where[0]]):
        with pytest.raises(DomainError, match=message):
            _render(obj)


@pytest.mark.parametrize("rows", [
    [[np.float64(0.1), np.float64(-0.0)], [np.float64(1e22), np.float64(1 / 3)]],
    [[True, False], [False, True]],
    [[1, -2, 3], [4, 5, 6]],
    [[0.5, 1], [2.0, 3.0]],
    [[0.5, True], [None, 1.5]],
    [[0.5, 1.5, 2.5], [3.5]],
    [[0.5], [[1.5]]],
    [[], []],
    [[0.25, 0.5], 0.75],
], ids=["float64", "bool", "int", "mixed-int", "bool-none", "ragged", "nested", "empty", "row-scalar"])
def test_render_of_other_rows_is_unchanged(rows):
    assert _render(rows) == _render_by_element(rows)
    assert _render({"samples": rows}) == _render_by_element({"samples": rows})
    assert _render(rows[0]) == _render_by_element(rows[0])


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    profile = str(tmp_path / "profile.json")
    report = str(tmp_path / "report.json")
    calls = [
        ("solve", "--n", "5", "--R", "2", "--Rt", "2", "--period", repr(1.05 * T0_N5),
         "--out", profile),
        ("solve", "--n", "5", "--R", "2", "--Rt", "2"),
        ("verify", "--in", profile, "--out", report),
        ("threshold", "--n", "5", "--R", "3.7", "--Rt", "1.3", "--json"),
        ("solve", "--n", "6", "--R", "1", "--Rt", "3", "--period",
         repr(1.07 * derive_constants(ModelParams(6, 1.0, 3.0)).T0), "--samples", "256"),
        ("--help",),
        ("solve", "--help"),
    ]

    def run_all(fresh):
        for path in (profile, report):
            Path(path).unlink(missing_ok=True)
        seen = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code, out, err = run_cli(capsys, *argv)
            files = [Path(path).read_text() if Path(path).exists() else None
                     for path in (profile, report)]
            seen.append((code, out, err, files))
        return seen

    build_parser.cache_clear()
    shared = run_all(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert shared == run_all(fresh=True)
    codes = [code for code, *_ in shared]
    assert codes == [0, 2, 0, 0, 0, 0, 0]
    assert "the following arguments are required: --period" in shared[1][2]
    assert shared[5][1] == build_parser.__wrapped__().format_help()


def test_solve_reports_its_fit_on_stderr_only(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    code, out, err = run_cli(
        capsys, "solve", "--n", "5", "--R", "2", "--Rt", "2",
        "--period", repr(1.05 * T0_N5), "--out", str(out_file),
    )
    assert code == 0 and out == ""
    # err_est is a roundoff draw of the fit's last doubling: its line and
    # degree are pinned, its value only bounded
    line = re.fullmatch(r"# profile: degree 64, err_est (\S+)\n", err)
    assert line and float(line[1]) <= 4.0 * np.finfo(float).eps
    doc = json.loads(out_file.read_text())
    assert list(doc) == [
        "params", "T", "c", "root_count", "residual_sup", "closure_error",
        "columns", "samples",
    ]


def test_profile_doc_does_not_carry_integration_counters(profile3):
    assert profile3.degree > 0 and profile3.err_est > 0.0
    back = doc_to_profile(profile_to_doc(profile3))
    assert (back.degree, back.err_est) == (0, 0.0)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(5, 12), where=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_solve_in_the_band_writes_what_passes_verify_or_exits_typed(n, where):
    """Inside the closed-form band 1 < T/T0 < sqrt(n)/2, solve either writes
    a profile that passes verify's checks or raises a typed error, which
    main turns into exit code 2, 3 or 4; any other exception propagates."""
    T = (1.0 + where * (math.sqrt(n) / 2.0 - 1.0)) * derive_constants(ModelParams(n, 2.0, 2.0)).T0
    with tempfile.TemporaryDirectory() as tmp:
        out_file = Path(tmp) / "profile.json"
        code = main(["solve", "--n", str(n), "--R", "2", "--Rt", "2",
                     "--period", repr(T), "--out", str(out_file)])
        if code:
            assert code in (2, 3, 4)
            return
        profile = doc_to_profile(json.loads(out_file.read_text()))
    assert _verdict(profile, CURVATURE_TOL)[3] == ()


def _verdict_case(case, profile3, profile5):
    """A profile for the verdict tests: solved for n = 3, 5, 6 or 12, or
    profile5 with one f sample scaled, negated, or at 63 samples."""
    if case == "n3":
        return profile3
    if case == "n5":
        return profile5
    if case == "n6":
        params = ModelParams(6, 1.0, 3.0)
        return solve_period(1.07 * derive_constants(params).T0, params)
    if case == "n12":
        params = ModelParams(12, 2.0, 2.0)
        return solve_period(1.2 * derive_constants(params).T0, params)
    profile = solve_period(1.05 * T0_N5, profile5.params, 63) if "63" in case else profile5
    samples = profile.samples.copy()
    if "corrupted" in case:
        samples[37, 3] *= 1.001
    if "f <= 0" in case:
        samples[5, 3] = -samples[5, 3]
    return dataclasses.replace(profile, samples=samples)


def _assert_same_fields(report, public):
    for field in dataclasses.fields(public):
        got, want = getattr(report, field.name), getattr(public, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), field.name
        else:
            assert type(got) is type(want) and repr(got) == repr(want), field.name


@pytest.mark.parametrize("case", ["n3", "n5", "n6", "n12", "corrupted"])
def test_the_verdict_differences_once_and_matches_the_public_checks(profile3, profile5, case):
    profile = _verdict_case(case, profile3, profile5)
    curvature, conformal, audit, failed = _verdict(profile, CURVATURE_TOL)
    _assert_same_fields(curvature, curvature_audit(profile, rel_tol=CURVATURE_TOL))
    _assert_same_fields(conformal, conformal_field_check(profile))
    _assert_same_fields(audit, audit_profile(profile))
    assert bool(failed) == (case == "corrupted")


@pytest.mark.parametrize("case, error", [
    ("f <= 0", NonPositiveWarp), ("63 samples", TooFewSamples),
    ("63 samples, f <= 0", NonPositiveWarp),
])
def test_the_verdict_raises_what_the_first_public_check_raises(profile3, profile5, case,
                                                              error):
    profile = _verdict_case(case, profile3, profile5)
    with pytest.raises(error) as public:
        curvature_audit(profile, rel_tol=CURVATURE_TOL)
    with pytest.raises(error, match=re.escape(str(public.value))):
        _verdict(profile, CURVATURE_TOL)


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
    assert "; period curve: 88 quadratures, " in err
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


@pytest.mark.parametrize("tmax, grid", [("1e7", "16"), ("20", "1000000000")])
def test_bifurcate_refuses_a_scan_too_large_to_list(capsys, tmax, grid):
    """The pair count is bounded before anything is allocated for it."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "bifurcate", "--n", "3", "--R", "2", "--Rt", "2",
            "--tmax", tmax, "--grid", grid,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "(--tmax, --grid)" in err and "above the limit of 1000000" in err
    assert peak < 50e6


@pytest.mark.parametrize("argv, message", [
    (("period", "--n", "3", "--R", "2", "--Rt", "2", "--scan", "2000000000"),
     "error: grid size 2000000000 (--scan) is above the limit of 1000000; lower it\n"),
    (("period", "--n", "3", "--R", "2", "--Rt", "2", "--scan", "2000000000", "--band=-0.3,-0.1"),
     "error: grid size 2000000000 (--scan) is above the limit of 1000000; lower it\n"),
    (("solve", "--n", "5", "--R", "2", "--Rt", "2", "--period", "9.5", "--samples", "2000000000"),
     "error: n_samples = 2000000000 (--samples) is above the limit of 1048576; lower it\n"),
], ids=["scan", "band-scan", "samples"])
def test_scan_and_sample_sizes_are_bounded_before_allocation(capsys, argv, message):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", message)
    assert peak < 50e6


def test_library_size_bounds_sit_at_their_floors():
    from warpcsc.solver import MAX_SAMPLES, profile_from_energy

    assert period_mod.MAX_SCAN_POINTS >= 10**6 and MAX_SAMPLES >= 2**20
    params = ModelParams(3, 2.0, 2.0)
    with pytest.raises(DomainError, match="--scan"):
        period_mod.energy_grid(params, period_mod.MAX_SCAN_POINTS + 1)
    with pytest.raises(DomainError, match="--samples"):
        profile_from_energy(-0.225, params, MAX_SAMPLES + 1)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_verify_rejects_a_bad_tol_before_checking(tmp_path, capsys, tol):
    """A tolerance that is not positive and finite is a usage error, not
    a failed or passed verification."""
    out_file = tmp_path / "profile.json"
    run_cli(capsys, "solve", "--n", "5", "--R", "2", "--Rt", "2",
            "--period", repr(1.05 * T0_N5), "--out", str(out_file))
    code, out, err = run_cli(capsys, "verify", "--in", str(out_file), f"--tol={tol}")
    assert (code, out) == (2, "")
    assert f"argument --tol: tol must be positive and finite, got '{tol}'" in err


def test_exit_code_2_on_usage_errors(capsys):
    assert run_cli(capsys, "threshold", "--n", "3")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "period", "--n", "3", "--R", "2", "--Rt", "2")[0] == 2
    # --band sets a scan's interval; next to --energy it is refused, not dropped
    code, out, err = run_cli(capsys, "period", "--n", "3", "--R", "2", "--Rt", "2",
                             "--energy", "-0.225", "--band=-0.8,-0.2")
    assert code == 2 and out == "" and "--scan" in err


@pytest.mark.parametrize("size", ["-1", "0"])
def test_band_scan_below_one_point_is_a_domain_error(capsys, size):
    code, out, err = run_cli(
        capsys, "period", "--n", "3", "--R", "2", "--Rt", "2",
        "--scan", size, "--band=-0.3,-0.1",
    )
    assert code == 2 and out == ""
    assert err == f"error: --scan must be >= 1 with --band, got {size}\n"


@pytest.mark.parametrize("document, message", [
    (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    ("{bad", "{path} is not valid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
    ("rows of 5", "samples must be rows of 6 numbers, got shape (512, 5)"),
    ("columns", "unexpected column layout ['t', 'f', 'x', 'v', 'fp', 'fpp']"),
    ("[1, 2]", "malformed profile document: the top level must be a JSON object, got list"),
    ("params list", "malformed profile document: params must be a JSON object, got list"),
], ids=["missing", "not-json", "rows-of-5", "columns", "list", "params-list"])
def test_verify_refuses_a_document_it_cannot_read(tmp_path, capsys, profile5, document,
                                                   message):
    path = tmp_path / "profile.json"
    doc = profile_to_doc(profile5)
    if document == "rows of 5":
        doc["samples"] = [row[:5] for row in doc["samples"]]
    elif document == "columns":
        doc["columns"] = ["t", "f", "x", "v", "fp", "fpp"]
    elif document == "params list":
        doc["params"] = [5, 2.0, 2.0]
    if document in ("rows of 5", "columns", "params list"):
        path.write_text(json.dumps(doc))
    elif document is not None:
        path.write_text(document)
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == "error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize("argv, message", [
    (("--scan", "4", "--band", "0.2,0.1"), "error: band must be lo < hi, got 0.2, 0.1\n"),
    (("--scan", "4", "--band", "x"), "argument --band: band must be 'lo,hi', got 'x'"),
    (("--energy", "-0.225", "--rtol", "abc"), "argument --rtol: invalid float value: 'abc'"),
], ids=["band-order", "band-text", "rtol-text"])
def test_period_refuses_a_bad_band_or_rtol(capsys, argv, message):
    code, out, err = run_cli(capsys, "period", "--n", "3", "--R", "2", "--Rt", "2", *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_a_scan_whose_every_point_fails_exits_4(capsys):
    code, out, err = run_cli(capsys, "period", "--n", "5", "--R", "2", "--Rt", "2",
                             "--scan", "3", "--rtol", "1e-16")
    assert (code, out) == (4, "")
    assert err.count("failed: ") == 3
    assert err.endswith("error: every point of the period scan failed\n")


def test_a_scan_whose_every_energy_is_out_of_band_exits_2(capsys):
    """Like a single --energy outside the band: a domain error, not a
    failure to converge."""
    code, out, err = run_cli(capsys, "period", "--n", "3", "--R", "2", "--Rt", "2",
                             "--scan", "5", "--band", "0.1,0.2")
    assert (code, out) == (2, "")
    assert err.count("failed: energy ") == 5
    assert err.endswith("error: every point of the period scan failed: each energy lies "
                        "outside the clamped band\n")


@pytest.mark.parametrize("rtol", ["-1", "0", "nan", "inf"])
def test_period_rejects_a_bad_rtol(capsys, rtol):
    code, out, err = run_cli(
        capsys, "period", "--n", "3", "--R", "2", "--Rt", "2",
        "--energy", "-0.225", "--rtol", rtol,
    )
    assert code == 2 and out == ""
    assert f"argument --rtol: rtol must be positive and finite, got '{rtol}'" in err


def test_solve_rejects_a_bad_rtol(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--n", "3", "--R", "2", "--Rt", "2",
        "--period", repr(1.05 * T0_N3), "--rtol", "0",
    )
    assert code == 2 and out == ""
    assert "argument --rtol: rtol must be positive and finite, got '0'" in err


def test_bifurcate_rejects_a_bad_rtol(capsys):
    code, out, err = run_cli(
        capsys, "bifurcate", "--n", "3", "--R", "2", "--Rt", "2",
        "--tmax", repr(3.0 * T0_N3), "--rtol", "nan",
    )
    assert code == 2 and out == ""
    assert "argument --rtol: rtol must be positive and finite, got 'nan'" in err


def test_unreachable_rtol_still_exits_4(capsys, tmp_path):
    """A positive rtol below what the kernel can meet is non-convergence.

    `period --energy` fails in its scan; `solve` and `bifurcate` fail
    while building the period curve, which names the first node orbit
    the kernel could not certify.
    """
    params = ["--n", "3", "--R", "2", "--Rt", "2"]
    for argv, orbit in [
        (["period", *params, "--energy", "-0.225"], "at u = 0.20277939461513025 "),
        (["solve", "--n", "5", "--R", "2", "--Rt", "2", "--period", "9.33"],
         "at u = 0.9996173408004115 "),
        (["bifurcate", *params, "--tmax", "20"], "at u = 0.049456921102972166 "),
    ]:
        out_file = tmp_path / f"{argv[0]}.out"
        code, out, err = run_cli(capsys, *argv, "--rtol", "1e-16", "--out", str(out_file))
        assert code == 4 and out == "" and not out_file.exists(), argv
        assert "did not meet rtol = 1e-16" in err and orbit in err, argv


PARAMS_ARGV = ("--n", "5", "--R", "2", "--Rt", "2")
# every output file a subcommand writes, as (argv before the path, option)
OUTPUTS = [
    (("threshold", *PARAMS_ARGV), "--out"),
    (("period", *PARAMS_ARGV, "--energy", "-0.1"), "--out"),
    (("period", *PARAMS_ARGV, "--scan", "8"), "--out"),
    (("solve", *PARAMS_ARGV, "--period", repr(1.05 * T0_N5)), "--out"),
    (("bifurcate", *PARAMS_ARGV, "--tmax", repr(2.0 * T0_N5), "--grid", "16"), "--out"),
    (("bifurcate", *PARAMS_ARGV, "--tmax", repr(2.0 * T0_N5), "--grid", "16"), "--points"),
    # --out names a file that does not exist yet, and is opened first
    (("bifurcate", *PARAMS_ARGV, "--tmax", repr(2.0 * T0_N5), "--grid", "16", "--out", "NEW"),
     "--points"),
    (("verify", "--in", "PROFILE"), "--out"),
]


@pytest.mark.parametrize("argv, option", OUTPUTS,
                         ids=["threshold", "period-energy", "period-scan", "solve",
                              "bifurcate", "bifurcate-points", "bifurcate-new-out", "verify"])
def test_an_unwritable_output_is_a_domain_error(tmp_path, capsys, profile5, argv, option):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(profile_to_doc(profile5)))
    new = tmp_path / "new.csv"
    argv = [{"PROFILE": str(profile), "NEW": str(new)}.get(arg, arg) for arg in argv]
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, option, str(target))
    assert code == 2
    assert f"error: cannot write {target}: " in err
    assert "No such file or directory" in err
    assert out == ""
    assert not target.parent.exists()
    # a file the command created before the failing open is gone again
    assert sorted(path.name for path in tmp_path.iterdir()) == ["profile.json"]


def test_bifurcate_writes_no_rows_when_its_points_file_fails(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("stale\n")
    target = tmp_path / "missing" / "points.csv"
    code, out, err = run_cli(capsys, "bifurcate", *PARAMS_ARGV, "--tmax", repr(2.0 * T0_N5),
                             "--grid", "16", "--out", str(rows), "--points", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    # the rows file was opened first, but is left as it was
    assert rows.read_text() == "stale\n"


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_two_outputs_that_are_one_file_are_refused(tmp_path, capsys, link):
    rows = tmp_path / "rows.csv"
    points = tmp_path / "points.csv" if link else rows
    if link:
        points.symlink_to(rows)
    argv = ("bifurcate", *PARAMS_ARGV, "--tmax", repr(2.0 * T0_N5), "--grid", "16")
    message = f"error: cannot write {points}: another output of this command is the same file\n"
    # a file the command created is removed again
    code, out, err = run_cli(capsys, *argv, "--out", str(rows), "--points", str(points))
    assert (code, out, err) == (2, "", message)
    assert not rows.exists()
    # an existing file keeps its bytes
    rows.write_text("stale\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(rows), "--points", str(points))
    assert (code, out, err) == (2, "", message)
    assert rows.read_text() == "stale\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted({rows.name, points.name})
    # a device is no regular file: two writes to it are allowed
    code, out, _ = run_cli(capsys, *argv, "--out", os.devnull, "--points", os.devnull)
    assert (code, out) == (0, "")


@pytest.mark.parametrize("points_ok", [False, True], ids=["points-fail", "points-written"])
def test_an_output_through_a_dangling_link_creates_its_target(tmp_path, capsys, points_ok):
    """Writing through a dangling link creates the link's target, which
    counts as a file the command created: a later failing output removes
    it again."""
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target)
    points = tmp_path / "points.csv" if points_ok else tmp_path / "missing" / "points.csv"
    argv = ("bifurcate", *PARAMS_ARGV, "--tmax", "20", "--grid", "16")
    code, out, err = run_cli(capsys, *argv, "--out", str(link), "--points", str(points))
    assert link.is_symlink()
    if points_ok:
        assert (code, out) == (0, "")
        rows = run_cli(capsys, *argv, "--points", str(tmp_path / "again.csv"))[1]
        assert rows.count("\n") > 1 and target.read_text() == rows
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {points}: ")
        assert not target.exists()


def test_an_output_file_is_replaced_and_a_device_is_not_truncated(tmp_path, capsys):
    expected = run_cli(capsys, "threshold", *PARAMS_ARGV)[1]
    out_file = tmp_path / "constants.txt"
    out_file.write_text("a stale text longer than the constants " * 40)
    assert run_cli(capsys, "threshold", *PARAMS_ARGV, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == expected
    assert run_cli(capsys, "threshold", *PARAMS_ARGV, "--out", os.devnull) == (0, "", "")


@pytest.mark.parametrize("field, value", [
    ("T", math.nan), ("T", math.inf), ("c", math.nan), ("c", -math.inf),
    ("residual_sup", math.nan), ("closure_error", math.inf),
    ("samples", math.nan), ("samples", math.inf),
    ("root_count", math.inf), ("root_count", 2.5),
])
def test_a_non_finite_number_makes_a_document_malformed(tmp_path, capsys, profile5, field,
                                                        value):
    doc = profile_to_doc(profile5)
    if field == "samples":
        doc["samples"][7][4] = value
        message = f"malformed profile document: samples row 7 holds {value} in column fp"
    elif field == "root_count":
        doc[field] = value
        message = (f"malformed profile document: root_count is {value}, "
                   "not a finite whole number >= 1")
    else:
        doc[field] = value
        message = f"malformed profile document: {field} is {value}, not a finite number"
    with pytest.raises(DomainError, match=re.escape(message)):
        doc_to_profile(doc)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("field", ["T", "c", "root_count", "residual_sup", "samples",
                                   "params.R", "params.n"])
def test_an_integer_too_large_for_a_float_makes_a_document_malformed(tmp_path, capsys,
                                                                     profile5, field):
    doc = profile_to_doc(profile5)
    # a 401-digit JSON integer, which Python reads but no float holds
    big = 10**400
    if field == "samples":
        doc["samples"][7][4] = big
        message = ("malformed profile document: samples row 7 column fp is an integer "
                   "too large for a float")
    elif field == "params.R":
        doc["params"]["R"] = big
        message = "R must be a positive finite number, got an integer too large for a float"
    elif field == "params.n":
        doc["params"]["n"] = big
        message = "dimension n must be an integer >= 3, got an integer too large for a float"
    else:
        doc[field] = big
        message = f"malformed profile document: {field} is an integer too large for a float"
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_dimension_too_large_for_a_float_is_refused(capsys):
    code, out, err = run_cli(capsys, "threshold", "--n", str(10**400), "--R", "2", "--Rt", "2")
    assert (code, out, err) == (
        2, "", "error: dimension n must be an integer >= 3, got an integer too large for a "
               "float\n")


@pytest.mark.parametrize("R, Rt, n", [("3", "1", "10000"), ("1", "3", "100000")])
def test_parameters_whose_energy_scale_leaves_the_float_range_are_refused(capsys, R, Rt, n):
    # once an OverflowError traceback (exit 1), and once x_star = 0, c_min = 0 (exit 0)
    code, out, err = run_cli(capsys, "threshold", "--n", n, "--R", R, "--Rt", Rt)
    assert (code, out) == (2, "")
    assert err == (f"error: x_star^2 = (R/Rt)^(n/2) leaves the float range for n = {n}, "
                   f"R = {float(R)}, Rt = {float(Rt)}; bring R/Rt closer to 1 or lower n\n")


@pytest.mark.parametrize("content, reason", [
    # 5000 digits: past the limit of Python's integer-string conversion
    (b'{"T": ' + b"7" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    (b'{"T": "\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
], ids=["5000-digits", "not-utf-8"])
def test_a_document_json_cannot_load_is_refused(tmp_path, capsys, content, reason):
    path = tmp_path / "profile.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "verify", "--in", str(path))
    assert (code, out) == (2, "") and err.startswith(f"error: {path} is not valid JSON: {reason}")


# the exit code cli.main documents for each typed error
DOCUMENTED_EXIT = {
    "DomainError": 2, "EnergyOutOfBand": 2, "TooFewSamples": 2, "NonPositiveWarp": 2,
    "ThresholdViolation": 3,
    "NoBracket": 4, "QuadratureNonConvergence": 4, "BudgetExceeded": 4,
    "PositivityViolation": 4,
}
HANDLERS = {
    "cmd_threshold": ("threshold", *PARAMS_ARGV),
    "cmd_period": ("period", *PARAMS_ARGV, "--energy", "-0.1"),
    "cmd_solve": ("solve", *PARAMS_ARGV, "--period", "9.0"),
    "cmd_bifurcate": ("bifurcate", *PARAMS_ARGV, "--tmax", "20"),
    "cmd_verify": ("verify", "--in", "profile.json"),
}


@pytest.fixture
def fresh_parser():
    """A parser built in the test, with the handlers bound at that time."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


@pytest.mark.parametrize("handler", sorted(HANDLERS))
@pytest.mark.parametrize("error", [*sorted(set(errors_mod.__all__) - {"ToolkitError"}),
                                   "unwritable"])
def test_main_maps_every_failure_to_its_exit_code(monkeypatch, capsys, tmp_path, fresh_parser,
                                                  handler, error):
    """Every typed error but the base class, raised by any handler, and an
    output file that cannot be written, exit 2, 3 or 4 as documented,
    never 1 by a traceback; a typed error with no documented code fails."""
    target = tmp_path / "missing" / "out.txt"
    if error == "unwritable":
        expected, message = 2, f"cannot write {target}"

        def raiser(args):
            cli._emit("text", str(target))
    else:
        expected, message = DOCUMENTED_EXIT[error], f"raised {error} on purpose"

        def raiser(args):
            raise getattr(errors_mod, error)(message)
    monkeypatch.setattr(cli, handler, raiser)
    code, out, err = run_cli(capsys, *HANDLERS[handler])
    assert code == expected
    assert out == "" and err.startswith(f"error: {message}")


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
