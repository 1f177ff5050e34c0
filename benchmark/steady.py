"""Run every workload repeatedly and report how steady each metric is.

    python3 benchmark/steady.py [--runs N] [--first-seed S]
                                [--save FILE] [--against FILE]

Run from the root of a checkout.  It reads BENCHMARK.json, runs its
command N times per workload (seeds S, S+1, ...; workloads interleaved,
so a slow spell of the machine hits all of them alike) and prints, per
workload, every metric by name with its unit: the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) as a
share of the median, and the metric's bound.  With the default of one
run it simply prints every metric once, with the questions attempted
and failed.

--save writes the raw results to FILE.  --against FILE compares this set
with a saved one: each end-to-end metric's median may not be worse by
more than its bound, and the share of failed questions must be equal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(config, workload: str, seed: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", "0"]
    if cmd[0] in ("python3", "python"):
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        wrong = [ln for ln in proc.stderr.splitlines() if ln.startswith("# WRONG")]
        print(f"{workload} seed {seed}: outputs NOT correct", *wrong, sep="\n  ", file=sys.stderr)
    return result


def summarize(results: list[dict], specs: dict[str, dict]) -> list[str]:
    lines = []
    attempted = [r["attempted"] for r in results]
    failed = [r["failed"] for r in results]
    shares = sorted({f / a for f, a in zip(failed, attempted)})
    lines.append(f"  questions: attempted {min(attempted)}..{max(attempted)} per run, "
                 f"failed share {', '.join(f'{s:.6f}' for s in shares)}"
                 f"{'' if len(shares) == 1 else '  (NOT the same in every run)'}; "
                 f"correct in {sum(r['correct'] for r in results)} of {len(results)} runs")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        bound = specs[name]["bound"]
        if len(values) < 2:
            lines.append(f"  {name:<36} {med:.6g} {unit}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else "within bound, over a third"
        lines.append(f"  {name:<36} median {med:<11.6g} {unit:<5} Q1 {q1:<11.6g} Q3 {q3:<11.6g} "
                     f"spread {spread:.4f}  bound {bound:g}: {verdict}")
    return lines


def compare(now: dict, before: dict, specs: dict[str, dict]) -> list[str]:
    lines = []
    for workload, results in now.items():
        old = before.get(workload)
        if not old:
            continue
        share_now = {r["failed"] / r["attempted"] for r in results}
        share_old = {r["failed"] / r["attempted"] for r in old}
        lines.append(f"{workload}: failed share {sorted(share_now)} vs {sorted(share_old)}"
                     f"{'' if share_now == share_old else '  DIFFERENT'}")
        for name, spec in specs.items():
            m_now = statistics.median(r["metrics"][name]["value"] for r in results)
            m_old = statistics.median(r["metrics"][name]["value"] for r in old)
            change = (m_now - m_old) / m_old if spec["better"] == "lower" else (m_old - m_now) / m_old
            lines.append(f"  {name:<20} {m_old:.6g} -> {m_now:.6g}  worse by {change:+.4f} "
                         f"(bound {spec['bound']:g}){'  REGRESSED' if change > spec['bound'] else ''}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args(argv)
    if not os.path.isfile("BENCHMARK.json"):
        print("error: run from the root of the checkout (BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        config = json.load(fh)
    workloads = [w["name"] for w in config["workloads"]]
    specs = {m["name"]: m for m in config["end_to_end"]}
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            results[w].append(run_once(config, w, args.first_seed + i))
            print(f"  done {w} seed {args.first_seed + i}", file=sys.stderr, flush=True)
    for w in workloads:
        print(f"{w}  ({args.runs} run(s) of {config['run_seconds']} s)")
        print("\n".join(summarize(results[w], specs)))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(results, fh)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            print("\n".join(compare(results, json.load(fh), specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
