"""warpcsc benchmark: time-to-answer for three kinds of user question.

    python3 benchmark/run.py --workload {diagram,solve_verify,routes}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.
Rounds (one pass over the workload's questions, see questions.py) run
one after another, each in a fresh interpreter, until S seconds have
gone by; the round that crosses S is finished, so every run is made of
whole rounds.  A fresh interpreter per round keeps any cache the
package builds from carrying over from one round to the next.

Question and round times are reported in ref_s: wall seconds rescaled
by the speed gauge the worker reads between questions (see README.md).
The answers are checked against the oracles in oracles.py after the
timed part.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (setup_s, question_s, run_s,
peak_rss_mb); with --trace 1 each pair of rounds asks the same
questions once untraced and once traced (tracing.py), and the metrics
are the per-layer ones plus the tracing overhead.  Progress, failure
reasons and the per-module attribution go to stderr.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import oracles
import questions
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".benchmark_out"
SETUP_SAMPLES = 9      # fresh interpreters timed for setup_s per run, at least
IMPORTTIME_RUNS = 3    # -X importtime runs per traced run
CHILD_TIMEOUT = 150.0  # seconds; a round that takes longer fails the run
IMPORT_MODULES = (
    "numpy", "scipy.optimize", "warpcsc", "warpcsc.errors", "warpcsc.model",
    "warpcsc.period", "warpcsc.integrator", "warpcsc.solver", "warpcsc.geometry",
    "warpcsc.bifurcation", "warpcsc.cli",
)
# what the worker's speed gauge (worker.reference_s) read on the machine
# the bounds were set on; ref_s are seconds rescaled to that speed, and
# setup_s is rescaled the same way
GAUGE_NOMINAL_S = 0.007


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Checkout:
    """The checkout being measured and the scratch space inside it."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))

    def child(self, args: list[str]) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc

    def setup_sample(self) -> float:
        """Set-up time of one import-only interpreter, rescaled by its gauge."""
        t0 = time.monotonic()
        proc = self.child([WORKER, "--setup-only"])
        t_ready, gauge = (float(v) for v in proc.stdout.split())
        return (t_ready - t0) * GAUGE_NOMINAL_S / gauge

    def run_round(self, qs: list[dict], tag: str, traced: bool) -> dict:
        spec = os.path.join(self.work, f"{tag}-spec.json")
        out = os.path.join(self.work, f"{tag}-out.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"questions": qs}, fh)
        args = [WORKER, spec, out]
        spans = os.path.join(self.work, f"{tag}-spans.npz") if traced else None
        if traced:
            args += ["--trace", spans]
        t0 = time.monotonic()
        self.child(args)
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)
        # rescaled by the gauge read right after the imports
        res["setup_s"] = (res["t_ready"] - t0) * GAUGE_NOMINAL_S / res["gauge_s"][0]
        res["spans"] = spans
        # read the profile documents now: the next round reuses the names
        for q, ans in zip(qs, res["answers"]):
            if q["kind"] == "solve_verify" and ans.get("verify_rc") == 0:
                with open(ans["profile"], encoding="utf-8") as fh:
                    ans["doc"] = json.load(fh)
                with open(ans["report"], encoding="utf-8") as fh:
                    ans["report_doc"] = json.load(fh)
        return res

    def import_times(self) -> dict[str, float]:
        """Cumulative import seconds per module from python -X importtime."""
        proc = self.child(["-X", "importtime", "-c", "import warpcsc, warpcsc.cli"])
        found = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
            if m and m.group(2) in IMPORT_MODULES:
                found[m.group(2)] = int(m.group(1)) * 1e-6
        return found

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def check_round(qs, res, rng, problems, failures) -> None:
    for q, ans in zip(qs, res["answers"]):
        kind = q["kind"]
        if "error" in ans:
            failures.append(f"{kind}: {ans['error']}")
            continue
        if kind == "scan":
            problems += oracles.check_scan(q, ans, rng)
        elif kind == "counts":
            problems += oracles.check_counts(q, ans)
        elif kind == "solve_verify":
            why = oracles.solve_verify_failure(q, ans)
            if why is not None:
                tag = f"{q['fault']} " if q["fault"] else ""
                failures.append(f"{tag}solve n={q['n']} R={q['R']} Rt={q['Rt']}: {why}")
                continue
            problems += oracles.check_solve_verify(q, ans, ans["doc"], ans["report_doc"])
        elif kind == "route_scan":
            problems += oracles.check_route_scan(q, ans)
        elif kind == "profile":
            problems += oracles.check_profile(q, ans)
        elif kind == "drift":
            problems += oracles.check_drift(q, ans)


def rescaled(res: dict) -> list[float]:
    """Question times of one round in ref_s: each wall time is divided by
    the mean of the gauge readings just before and just after it."""
    g = res["gauge_s"]
    return [GAUGE_NOMINAL_S * t / (0.5 * (g[i] + g[i + 1])) for i, t in enumerate(res["question_s"])]


def end_to_end(rounds, checkout: Checkout) -> dict[str, float]:
    setups = [res["setup_s"] for _, res in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(checkout.setup_sample())
    log(f"# wall clock: question {statistics.median(t for _, r in rounds for t in r['question_s']):.4f} s, "
        f"round {statistics.median(r['round_s'] for _, r in rounds):.4f} s; speed gauge "
        f"{1e3 * statistics.median(g for _, r in rounds for g in r['gauge_s']):.3f} ms "
        f"(nominal {1e3 * GAUGE_NOMINAL_S:g} ms)")
    return {
        "setup_s": statistics.median(setups),
        # each question's median over the rounds, then the median over the
        # round's questions: the pooled median would sit on the gap between
        # two kinds of question and jump with the draws
        "question_s": statistics.median(
            statistics.median(col) for col in zip(*(rescaled(res) for _, res in rounds))
        ),
        "run_s": statistics.median(sum(rescaled(res)) for _, res in rounds),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for _, res in rounds),
    }


def per_layer(plain, traced, checkout: Checkout, workload: str) -> dict[str, float]:
    tables = [tracing.span_table(res["spans"]) for _, res in traced]
    figures = [tracing.layer_metrics(t) for t in tables]
    out = {name: statistics.fmean(f[name] for f in figures) for name in figures[0]}
    out["cli.bytes_out"] = statistics.fmean(
        sum(ans.get("bytes_out", 0) for ans in res["answers"]) for _, res in traced
    )
    # in ref_s: the raw difference drowns in the machine's speed drift
    out["trace.overhead_s"] = (statistics.median(sum(rescaled(res)) for _, res in traced)
                               - statistics.median(sum(rescaled(res)) for _, res in plain))
    samples = [checkout.import_times() for _ in range(IMPORTTIME_RUNS)]
    for mod in IMPORT_MODULES:
        out[f"setup.import.{mod}_s"] = statistics.median(s.get(mod, 0.0) for s in samples)
    # attribution of the traced round time to modules, for the log
    round_s = statistics.fmean(res["round_s"] for _, res in traced)
    log(f"# self time by module, mean of {len(traced)} traced round(s) of {round_s:.3f} s:")
    for mod in (*tracing.MODULES, "question"):
        s = out[f"{mod}.self_s"]
        log(f"#   {mod:<12} {s:9.4f} s  {100.0 * s / round_s:5.1f} %")
    keep = os.path.join(checkout.root, OUT_DIR, f"trace-{workload}.npz")
    shutil.copyfile(traced[-1][1]["spans"], keep)
    log(f"# spans of the last traced round: {os.path.relpath(keep, checkout.root)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=questions.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "warpcsc", "__init__.py")):
        log("error: run from the root of a warpcsc checkout (src/warpcsc not found)")
        return 2
    # the metrics this mode reports, with their units, as BENCHMARK.json declares them
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    checkout = Checkout(root)
    try:
        rng = random.Random(args.seed)
        plain, traced = [], []
        start = time.monotonic()
        while not plain or time.monotonic() - start < args.seconds:
            qs = questions.draw_round(args.workload, rng)
            tag = f"r{len(plain)}"
            plain.append((qs, checkout.run_round(qs, tag, traced=False)))
            if args.trace:
                traced.append((qs, checkout.run_round(qs, tag + "t", traced=True)))
        measured = time.monotonic() - start

        check_rng = random.Random(args.seed + 1)
        problems: list[str] = []
        failures: list[str] = []
        for qs, res in plain + traced:
            check_round(qs, res, check_rng, problems, failures)
        attempted = sum(len(qs) for qs, _ in plain + traced)

        if args.trace:
            metrics = per_layer(plain, traced, checkout, args.workload)
        else:
            metrics = end_to_end(plain, checkout)
    finally:
        checkout.close()

    log(f"# {args.workload} seed {args.seed}: {len(plain)} round(s)"
        f"{' + as many traced' if args.trace else ''} in {measured:.1f} s; "
        f"{attempted} questions attempted, {len(failures)} failed")
    for reason, times in sorted(collections.Counter(failures).items()):
        log(f"#   failed x{times}: {reason}")
    for msg in problems:
        log(f"# WRONG: {msg}")
    for name, unit in units.items():
        log(f"#   {name:<36} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
