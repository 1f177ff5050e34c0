"""One round of a workload, in a fresh interpreter.

Usage (run by run.py, with src/ of the checkout on PYTHONPATH):

    python3 benchmark/worker.py ROUND_SPEC.json OUT.json [--trace SPANS.npz]
    python3 benchmark/worker.py --setup-only

The first thing this process does is import warpcsc and warpcsc.cli;
the CLOCK_MONOTONIC reading right after those imports goes into the
output, so the parent can time interpreter start plus package import.
Then it answers the round's questions one after another, timing each
with perf_counter and reading a speed gauge (`reference_s`) before the
first and after each one, and writes the answers for the oracles to
OUT.json.
Nothing here checks an answer: the parent does, outside the timings.
Every question runs with the package defaults, so `workers` stays 1.
"""

import time

import warpcsc
import warpcsc.cli

T_READY = time.monotonic()

import numpy as np  # noqa: E402  (already loaded by warpcsc)

import contextlib  # noqa: E402  (after the timed imports on purpose)
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from warpcsc import ModelParams  # noqa: E402


def _ask_scan(q):
    p = ModelParams(q["n"], q["R"], q["Rt"])
    T0 = warpcsc.derive_constants(p).T0
    return warpcsc.scan_branches(q["tmax_T0"] * T0, p, q["grid"])


def _ask_counts(q):
    p = ModelParams(q["n"], q["R"], q["Rt"])
    return [warpcsc.count_solutions(T, p) for T in q["T"]]


def _ask_solve_verify(q, workdir, idx):
    # the two subcommands a user runs, in-process, with the profile
    # handed from one to the other in a file
    prof = os.path.join(workdir, f"profile-{idx}.json")
    rep = os.path.join(workdir, f"report-{idx}.json")
    base = ["--n", str(q["n"]), "--R", repr(q["R"]), "--Rt", repr(q["Rt"])]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc_solve = warpcsc.cli.main(["solve", *base, "--period", repr(q["T"]), "--out", prof])
        rc_verify = None
        if rc_solve == 0:
            rc_verify = warpcsc.cli.main(["verify", "--in", prof, "--out", rep])
    return {"solve_rc": rc_solve, "verify_rc": rc_verify, "stderr": err.getvalue(),
            "profile": prof, "report": rep}


def _ask_route_scan(q):
    p = ModelParams(q["n"], q["R"], q["Rt"])
    grid = warpcsc.energy_grid(p, q["size"], mode="symlog", s_lo=q["s_lo"], s_hi=q["s_hi"])
    scan = warpcsc.period_scan(grid, p)
    rm = [None if spec is None else warpcsc.period_return_map(spec.c, p) for spec in scan.entries]
    k = warpcsc.derive_constants(p)
    slope = warpcsc.period_quadrature(k.c_min + q["s_slope"] * abs(k.c_min), p)
    return scan, rm, slope


def _ask_profile(q):
    p = ModelParams(q["n"], q["R"], q["Rt"])
    k = warpcsc.derive_constants(p)
    return warpcsc.profile_from_energy(k.c_min + q["s"] * abs(k.c_min), p)


def _ask_drift(q):
    p = ModelParams(q["n"], q["R"], q["Rt"])
    k = warpcsc.derive_constants(p)
    c = k.c_min + q["s"] * abs(k.c_min)
    return c, warpcsc.energy_drift(c, p, k.T0 / q["steps_per_T0"], q["steps"])


def ask(q, workdir, idx):
    kind = q["kind"]
    if kind == "scan":
        return _ask_scan(q)
    if kind == "counts":
        return _ask_counts(q)
    if kind == "solve_verify":
        return _ask_solve_verify(q, workdir, idx)
    if kind == "route_scan":
        return _ask_route_scan(q)
    if kind == "profile":
        return _ask_profile(q)
    if kind == "drift":
        return _ask_drift(q)
    raise ValueError(f"unknown question kind {kind!r}")


def answer_doc(q, raw):
    """Plain-JSON form of an answer, made after the round's timings."""
    kind = q["kind"]
    if isinstance(raw, Exception):
        return {"error": f"{type(raw).__name__}: {raw}"}
    if kind == "scan":
        return {
            "rows": [[r.T, r.k, r.tau, r.c, r.amplitude, r.f_min, r.f_max] for r in raw.rows],
            "branch_points": [[bp.k, bp.T] for bp in raw.branch_points],
            "isochronous": raw.degenerate_isochronous,
        }
    if kind == "counts":
        return {"counts": raw}
    if kind == "solve_verify":
        raw = dict(raw)
        raw["bytes_out"] = sum(
            os.path.getsize(path) for path in (raw["profile"], raw["report"])
            if os.path.exists(path)
        )
        return raw
    if kind == "route_scan":
        scan, rm, slope = raw
        return {
            "c": [None if s is None else s.c for s in scan.entries],
            "T": [None if s is None else s.T for s in scan.entries],
            "T_return_map": rm,
            "failures": [f"{type(e).__name__}: {e}" for _, e in scan.failures],
            "slope_c": slope.c,
            "slope_T": slope.T,
        }
    if kind == "profile":
        return {"c": raw.c, "T": raw.T, "f": raw.f.tolist(), "x": raw.x.tolist(),
                "closure_error": raw.closure_error}
    if kind == "drift":
        c, rep = raw
        return {"c": c, "max_rel": rep.max_rel, "secular_rel": rep.secular_rel,
                "n_steps": rep.n_steps}
    raise ValueError(kind)


GAUGE_REPEATS = 40


def reference_s() -> float:
    """Seconds for a fixed piece of work, the speed gauge for this moment.

    The work mimics the package's hot paths (a scalar leapfrog loop and
    numpy calls on 48-element arrays) and never touches warpcsc.  The
    median of 40 ~1 ms repeats, scaled to five repeats, is kept: it
    follows the machine's typical speed, and one interruption does not
    move it.  Forty repeats read the speed over ~40 ms; with five, the
    spread of the rescaled diagram times was about 1.4 times as wide.
    """
    times = []
    grid = np.linspace(0.1, 1.0, 48)
    for _ in range(GAUGE_REPEATS):
        t0 = time.perf_counter()
        x, v = 1.0, 0.0
        for _ in range(12_000):
            v -= 1e-3 * x
            x += 1e-3 * v
        for _ in range(80):
            np.sqrt(np.expm1(np.log1p(grid)) * (1.0 + x * x))
        times.append(time.perf_counter() - t0)
    return 5.0 * sorted(times)[GAUGE_REPEATS // 2]


def run_round(spec_path, out_path, spans_path=None):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    questions = spec["questions"]
    workdir = os.path.dirname(os.path.abspath(out_path))
    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    times = []
    answers = []
    # gauge readings before the first question and after each one, kept
    # out of the question and round timings
    gauge = [reference_s()]
    start = time.perf_counter()
    for idx, q in enumerate(questions):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.open_question(idx)
        try:
            raw = ask(q, workdir, idx)
        except Exception as err:  # a failed question, reported with its reason
            raw = err
        finally:
            if tracer is not None:
                tracer.close_question()
        times.append(time.perf_counter() - t0)
        answers.append(raw)
        g0 = time.perf_counter()
        gauge.append(reference_s())
        start += time.perf_counter() - g0
    round_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        tracer.save(spans_path)
    doc = {
        "t_ready": T_READY,
        "round_s": round_s,
        "question_s": times,
        "peak_rss_mb": peak_kb / 1024.0,
        "gauge_s": gauge,
        "answers": [answer_doc(q, raw) for q, raw in zip(questions, answers)],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv):
    if argv[:1] == ["--setup-only"]:
        sys.stdout.write(f"{T_READY!r} {reference_s()!r}\n")
        return 0
    spans = None
    if len(argv) == 4 and argv[2] == "--trace":
        spans = argv[3]
    elif len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    run_round(argv[0], argv[1], spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
