"""Command-line interface.

Subcommands: threshold (closed-form constants), period (orbit period at
one energy or over a scan), solve (profile of prescribed period),
bifurcate (branch diagram scan), verify (recheck a stored profile).

Output is deterministic byte for byte: floats are rendered with 17
significant digits, every other scalar as json.dumps writes it,
newlines are always "\\n", and scan orders are fixed.  Exit codes: 0
success, 2 usage or domain errors, 3 threshold violations and failed
verification, 4 numerical non-convergence.  solve and verify judge a
profile by one verdict, `_verdict`, which calls the public checks of
`geometry` and `solver`; solve writes nothing that fails it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

from .bifurcation import GRID_SIZE, scan_branches
from .errors import (
    BudgetExceeded,
    DomainError,
    EnergyOutOfBand,
    NoBracket,
    PositivityViolation,
    QuadratureNonConvergence,
    ThresholdViolation,
    ToolkitError,
    TooFewSamples,
)
from .geometry import CURVATURE_TOL, conformal_field_check, curvature_audit
from .model import ModelParams, derive_constants
from .period import (
    KERNEL_RTOL,
    _check_scan_size,
    energy_grid,
    period_curve,
    period_quadrature,
    period_scan,
)
from .solver import PROFILE_SAMPLES, SAMPLE_COLUMNS, SolutionProfile, audit_profile, solve_period

__all__ = ["main"]


def _scalar(v) -> str:
    """One JSON scalar: a float (numpy's included) with 17 significant digits."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise DomainError(f"cannot serialize non-finite value {v}")
        return format(v, ".17g")
    return json.dumps(v)


def _floats(obj: list, level: int) -> str | None:
    """`_render(obj, level)` for a list of equal-length rows of floats,
    such as a profile's samples, in one %-formatting pass; None for any
    other list.

    '%.17g' % x is format(x, ".17g").  Only inf and nan put an "n" in the
    text; None then leaves them to the element rule, whose DomainError
    names the value.
    """
    if set(map(type, obj)) != {list} or len(set(map(len, obj))) != 1:
        return None
    values = tuple(itertools.chain.from_iterable(obj))
    if set(map(type, values)) != {float}:
        return None
    row = "  " * (level + 1) + "[" + ", ".join(["%.17g"] * len(obj[0])) + "]"
    text = ("[\n" + ",\n".join([row] * len(obj)) + "\n" + "  " * level + "]") % values
    return None if "n" in text else text


def _render(obj, level: int = 0) -> str:
    """Recursive JSON renderer with fixed float formatting."""
    ind = "  " * level
    nxt = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{nxt}{json.dumps(str(k))}: {_render(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + ind + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        fast = _floats(obj, level)
        if fast is not None:
            return fast
        if not any(isinstance(v, (dict, list)) for v in obj):
            return "[" + ", ".join(_scalar(v) for v in obj) + "]"
        parts = [f"{nxt}{_render(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + ind + "]"
    return _scalar(obj)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_scalar(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None, *more: tuple[str, str | None]) -> None:
    """Write text to out_path, or to stdout when it is None, and each
    further (text, path) pair to its file, if path is not None.  Every
    file is opened without truncating it before any is truncated or
    written, and stdout last, so a file that cannot be opened leaves no
    text written anywhere, every existing file as it was, and no file
    this call created, a dangling link's target included.  Two paths to
    one regular file, by name or through a link, fail the same way.
    Only a regular file is truncated: a device such as /dev/null cannot
    be."""
    files, created = [], []
    try:
        for body, path in ((text, out_path), *more):
            if path:
                try:
                    fh = open(path, "x", encoding="utf-8", newline="")
                    created.append(path)
                except FileExistsError:
                    # "a" through a dangling link creates the link's target
                    dangling = not os.path.exists(path)
                    fh = open(path, "a", encoding="utf-8", newline="")
                    if dangling:
                        created.append(os.path.realpath(path))
                st = os.fstat(fh.fileno())
                same = any(os.path.samestat(st, other) for *_, other in files)
                files.append((body, fh, st))
                if same and stat.S_ISREG(st.st_mode):
                    raise OSError("another output of this command is the same file")
    except OSError as err:
        for _, fh, _ in files:
            fh.close()
        for new in created:
            os.remove(new)
        raise DomainError(f"cannot write {path}: {err}") from err
    try:
        for body, fh, st in files:
            path = fh.name
            with fh:
                if stat.S_ISREG(st.st_mode):
                    fh.truncate(0)
                fh.write(body if body.endswith("\n") else body + "\n")
    except OSError as err:
        raise DomainError(f"cannot write {path}: {err}") from err
    finally:
        for _, fh, _ in files:
            fh.close()
    if not out_path:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _params(args) -> ModelParams:
    return ModelParams(n=args.n, R=args.R, Rt=args.Rt)


def _params_doc(params: ModelParams) -> dict:
    """The n, R, Rt block every document opens with, in that order."""
    return {"n": params.n, "R": params.R, "Rt": params.Rt}


def _verdict(profile: SolutionProfile, tol: float):
    """Judge a profile by verify's checks, in verify's order.

    Returns the reports of `curvature_audit`, `conformal_field_check`
    and `audit_profile` and the names of the failed checks: "curvature",
    "conformal" and the audit's breaches.  Errors propagate, so the
    first is the curvature check's: NonPositiveWarp, then TooFewSamples
    below 64 samples or DomainError for a layout that is not uniform.
    """
    curvature = curvature_audit(profile, tol)
    conformal = conformal_field_check(profile)
    audit = audit_profile(profile)
    failed = [] if curvature.passed else ["curvature"]
    if not conformal.squared_convention_ok:
        failed.append("conformal")
    return curvature, conformal, audit, (*failed, *audit.breaches)


def profile_to_doc(profile: SolutionProfile) -> dict:
    """JSON document for a solved profile; the inverse of doc_to_profile."""
    return {
        "params": _params_doc(profile.params),
        "T": profile.T,
        "c": profile.c,
        "root_count": profile.root_count,
        "residual_sup": profile.residual_sup,
        "closure_error": profile.closure_error,
        "columns": list(SAMPLE_COLUMNS),
        "samples": profile.samples.tolist(),
    }


def _number(name: str, value) -> float:
    """float(value), naming the field when a JSON integer overflows it."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"malformed profile document: {name} is an integer too large "
                          "for a float") from None


def _check_sample_shape(shape: tuple[int, ...]) -> None:
    """Refuse samples that are not rows of one number per sample column."""
    if len(shape) != 2 or shape[1] != len(SAMPLE_COLUMNS):
        raise DomainError(f"samples must be rows of {len(SAMPLE_COLUMNS)} numbers, "
                          f"got shape {shape}")


def doc_to_profile(doc: dict) -> SolutionProfile:
    """The profile of a document; the inverse of profile_to_doc.  A
    malformed document, one with a non-finite number, an integer too
    large for a float or a root_count that is not a whole number >= 1
    included, raises DomainError naming the field."""
    try:
        if not isinstance(doc, dict):
            raise DomainError("malformed profile document: the top level must be a JSON "
                              f"object, got {type(doc).__name__}")
        raw = doc["params"]
        if not isinstance(raw, dict):
            raise DomainError("malformed profile document: params must be a JSON object, "
                              f"got {type(raw).__name__}")
        params = ModelParams(n=raw["n"], R=raw["R"], Rt=raw["Rt"])
        try:
            samples = np.asarray(doc["samples"], dtype=float)
        except OverflowError:
            # only the error path checks the shape first and searches for
            # the sample to name
            _check_sample_shape(np.asarray(doc["samples"], dtype=object).shape)
            for row, values in enumerate(doc["samples"]):
                if isinstance(values, list):
                    for column, value in zip(SAMPLE_COLUMNS, values):
                        _number(f"samples row {row} column {column}", value)
            raise DomainError("malformed profile document: samples hold an integer too "
                              "large for a float") from None
        _check_sample_shape(samples.shape)
        columns = doc.get("columns")
        if columns is not None and list(columns) != list(SAMPLE_COLUMNS):
            raise DomainError(f"unexpected column layout {columns}")
        scalars = {"T": _number("T", doc["T"]), "c": _number("c", doc["c"]),
                   "residual_sup": _number("residual_sup", doc.get("residual_sup", 0.0)),
                   "closure_error": _number("closure_error", doc.get("closure_error", 0.0))}
        for name, value in scalars.items():
            if not math.isfinite(value):
                raise DomainError(f"malformed profile document: {name} is {value}, "
                                  "not a finite number")
        root_count = _number("root_count", doc.get("root_count", 1))
        if not (root_count >= 1.0 and root_count.is_integer()):
            raise DomainError(f"malformed profile document: root_count is {root_count}, "
                              "not a finite whole number >= 1")
        bad = np.argwhere(~np.isfinite(samples))
        if bad.size:
            row, col = bad[0].tolist()
            raise DomainError(f"malformed profile document: samples row {row} holds "
                              f"{samples[row, col]} in column {SAMPLE_COLUMNS[col]}")
        return SolutionProfile(params=params, samples=samples,
                               root_count=int(root_count), **scalars)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        if isinstance(err, DomainError):
            raise
        raise DomainError(f"malformed profile document: {err}") from err


def cmd_threshold(args) -> int:
    params = _params(args)
    consts = derive_constants(params)
    doc = {
        **_params_doc(params),
        "f_star": consts.f_star,
        "x_star": consts.x_star,
        "omega": consts.omega,
        "T0": consts.T0,
        "c_min": consts.c_min,
        "c_crit": consts.c_crit,
    }
    if args.json:
        _emit(_render(doc), args.out)
    else:
        _emit("\n".join(f"{k} = {_scalar(v)}" for k, v in doc.items()), args.out)
    return 0


def cmd_period(args) -> int:
    params = _params(args)
    header = ["c", "a", "b", "T", "amplitude"]
    if args.energy is not None:
        if args.band is not None:
            raise DomainError("--band sets the interval of a --scan; use it with --scan, "
                              "not with --energy")
        spec = period_quadrature(args.energy, params, rtol=args.rtol)
        _emit(_csv(header, [(spec.c, spec.a, spec.b, spec.T, spec.amplitude)]), args.out)
        return 0
    size = args.scan
    if args.band is not None:
        if size < 1:
            raise DomainError(f"--scan must be >= 1 with --band, got {size}")
        _check_scan_size(size)
        lo, hi = args.band
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"band must be lo < hi, got {lo}, {hi}")
        grid = np.linspace(lo, hi, size)
    else:
        grid = energy_grid(params, size, mode="log")
    scan = period_scan(grid, params, rtol=args.rtol)
    for idx, err in scan.failures:
        print(f"# point {idx} at c = {_scalar(grid[idx])} failed: {err}", file=sys.stderr)
    rows = [
        (s.c, s.a, s.b, s.T, s.amplitude) for s in scan.entries if s is not None
    ]
    if not rows:
        if all(isinstance(err, EnergyOutOfBand) for _, err in scan.failures):
            raise EnergyOutOfBand("every point of the period scan failed: each energy "
                                  "lies outside the clamped band")
        raise QuadratureNonConvergence("every point of the period scan failed")
    _emit(_csv(header, rows), args.out)
    return 0


def cmd_solve(args) -> int:
    params = _params(args)
    profile = solve_period(args.period, params, args.samples, quad_rtol=args.rtol)
    curvature, conformal, audit, failed = _verdict(profile, CURVATURE_TOL)
    if "finite_difference" in failed:
        raise TooFewSamples(
            f"{args.samples} samples do not resolve the profile of period {args.period}: "
            f"fd_sup {_scalar(audit.fd_sup)} exceeds the tolerance "
            f"{_scalar(audit.fd_tol_abs)}; raise --samples"
        )
    if failed:
        detail = ""
        if not curvature.passed:
            detail = (f"; curvature max_dev {_scalar(curvature.max_dev)} exceeds "
                      f"tol_abs {_scalar(curvature.tol_abs)}")
        elif failed == ("conformal",):
            # the finite-difference residual falls about 16x per doubling of the samples
            detail = (f"; sup_fiber_sq {_scalar(conformal.sup_fiber_sq)} exceeds the tolerance "
                      f"{_scalar(conformal.rel_tol * conformal.reference)}; raise --samples")
        raise BudgetExceeded(f"solved profile fails verify on {', '.join(failed)}{detail}")
    print(
        f"# profile: degree {profile.degree}, err_est {_scalar(profile.err_est)}",
        file=sys.stderr,
    )
    _emit(_render(profile_to_doc(profile)), args.out)
    return 0


def cmd_bifurcate(args) -> int:
    params = _params(args)
    diagram = scan_branches(args.tmax, params, args.grid, quad_rtol=args.rtol)
    rows = [
        (r.T, r.k, r.tau, r.c, r.amplitude, r.f_min, r.f_max) for r in diagram.rows
    ]
    points = [(bp.k, bp.T) for bp in diagram.branch_points]
    _emit(_csv(["T", "k", "tau", "c", "amplitude", "f_min", "f_max"], rows), args.out,
          (_csv(["k", "T"], points), args.points))
    lo, hi = diagram.band
    curve = period_curve(params.n, args.rtol)
    print(
        f"# attained per-wrap periods: [{_scalar(lo)}, {_scalar(hi)}]; "
        f"threshold T0 = {_scalar(diagram.T0)}; "
        f"{len(diagram.rows)} rows, {len(diagram.branch_points)} branch points, "
        f"{len(diagram.failures)} misses"
        + ("; isochronous degenerate case" if diagram.degenerate_isochronous else "")
        + f"; period curve: {curve.quadratures} quadratures, {curve.nodes} nodes",
        file=sys.stderr,
    )
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise DomainError(f"cannot read {args.infile}: {err}") from err
    except ValueError as err:
        # JSONDecodeError, bytes that are not UTF-8, or an integer past
        # Python's limit for converting digits
        raise DomainError(f"{args.infile} is not valid JSON: {err}") from err
    profile = doc_to_profile(doc)
    curvature, conformal, audit, failed = _verdict(profile, args.tol)
    report = {
        "params": _params_doc(profile.params),
        "T": profile.T,
        "c": profile.c,
        "curvature": {
            "max_dev": curvature.max_dev,
            "max_at": curvature.max_at,
            "tol_abs": curvature.tol_abs,
            "passed": curvature.passed,
        },
        "conformal": {
            "sup_tt": conformal.sup_tt,
            "sup_fiber_sq": conformal.sup_fiber_sq,
            "sup_fiber_lin": conformal.sup_fiber_lin,
            "reference": conformal.reference,
            "squared_convention_ok": conformal.squared_convention_ok,
            "linear_convention_ok": conformal.linear_convention_ok,
        },
        "audit": {
            "chain_sup": audit.chain_sup,
            "fd_sup": audit.fd_sup,
            "energy_sup": audit.energy_sup,
            "breaches": list(audit.breaches),
            "flagged_index": audit.flagged_index,
            "ok": audit.ok,
        },
        "passed": not failed,
    }
    _emit(_render(report), args.out)
    return 3 if failed else 0


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="total dimension, >= 3")
    parser.add_argument("--R", type=float, required=True, help="fiber scalar curvature, > 0")
    parser.add_argument("--Rt", type=float, required=True, help="target scalar curvature, > 0")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _band(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"band must be 'lo,hi', got {text!r}") from err
    return lo, hi


def _positive(name: str):
    """An argparse type for a tolerance: a finite float above 0.  Text
    that is no float gets argparse's own message for type=float."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from err
        if not (math.isfinite(value) and value > 0.0):
            raise argparse.ArgumentTypeError(f"{name} must be positive and finite, got {text!r}")
        return value

    return parse


_rtol, _tol = _positive("rtol"), _positive("tol")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="warpcsc",
        description="Constant-scalar-curvature warped metrics on the circle",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rtol = dict(type=_rtol, default=KERNEL_RTOL, help="quadrature relative tolerance")

    p_thr = sub.add_parser("threshold", help="closed-form constants and the period threshold")
    _add_params(p_thr)
    p_thr.add_argument("--json", action="store_true", help="emit JSON instead of text lines")
    _add_out(p_thr)
    p_thr.set_defaults(handler=cmd_threshold)

    p_per = sub.add_parser("period", help="orbit period at one energy or over a scan")
    _add_params(p_per)
    which = p_per.add_mutually_exclusive_group(required=True)
    which.add_argument("--energy", type=float, default=None, help="single energy c")
    which.add_argument("--scan", type=int, default=None, metavar="N",
                       help="scan N energies (default spacing: log across the band)")
    p_per.add_argument("--band", type=_band, default=None, metavar="LO,HI",
                       help="with --scan: scan this energy interval linearly instead; "
                            "energies are negative, so write --band=LO,HI")
    p_per.add_argument("--rtol", **rtol)
    _add_out(p_per)
    p_per.set_defaults(handler=cmd_period)

    p_sol = sub.add_parser("solve", help="solve for a profile with the prescribed period")
    _add_params(p_sol)
    p_sol.add_argument("--period", type=float, required=True, help="target circle period T")
    p_sol.add_argument("--samples", type=int, default=PROFILE_SAMPLES,
                       help="samples per period; verify needs at least 64")
    p_sol.add_argument("--rtol", **rtol)
    _add_out(p_sol)
    p_sol.set_defaults(handler=cmd_solve)

    p_bif = sub.add_parser("bifurcate", help="branch diagram over circle periods")
    _add_params(p_bif)
    p_bif.add_argument("--tmax", type=float, required=True, help="largest circle period scanned")
    p_bif.add_argument("--grid", type=int, default=GRID_SIZE, help="number of grid points above T0")
    p_bif.add_argument("--rtol", **rtol)
    p_bif.add_argument("--points", default=None, metavar="FILE",
                       help="also write the branch points k*T0 as CSV to FILE")
    _add_out(p_bif)
    p_bif.set_defaults(handler=cmd_bifurcate)

    p_ver = sub.add_parser("verify", help="recheck a stored profile document")
    p_ver.add_argument("--in", dest="infile", required=True, help="profile JSON file")
    p_ver.add_argument("--tol", type=_tol, default=CURVATURE_TOL,
                       help="curvature tolerance relative to Rt")
    _add_out(p_ver)
    p_ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  A ToolkitError
    prints one "error: ..." line and exits 3 for ThresholdViolation, 4
    for a numerical failure and 2 for any other."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2
    try:
        return args.handler(args)
    except ToolkitError as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, ThresholdViolation):
            return 3
        numerical = (NoBracket, QuadratureNonConvergence, BudgetExceeded, PositivityViolation)
        return 4 if isinstance(err, numerical) else 2


if __name__ == "__main__":
    sys.exit(main())
