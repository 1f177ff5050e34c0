"""Single-question reference timings quoted in benchmark/README.md.

    python3 benchmark/reference.py [--seed N]

Run from the root of a checkout.  It draws one round of every workload
(questions.py) and asks each question once through worker.ask, as a
benchmark round does, timing it in wall seconds with the package
defaults (workers = 1).  The import is the median of three fresh
interpreters timed from outside.  These are spot figures for
orientation; the benchmark proper is run.py.
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import questions  # noqa: E402
import worker  # noqa: E402  (imports warpcsc from ./src)


def label(q: dict) -> str:
    text = f"{q['kind']} n={q['n']} R={q['R']:g} Rt={q['Rt']:g}"
    if "T" in q and not isinstance(q["T"], list):
        text += f" T={q['T'] / questions.threshold_period(q['n'], q['Rt']):.4f} T0"
    if q.get("fault"):
        text += f" ({q['fault']})"
    if "s" in q:
        text += f" s={q['s']:g}"
    return text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import warpcsc, warpcsc.cli"], env=env, check=True)
        imports.append(time.perf_counter() - t0)
    print(f"{'import warpcsc, warpcsc.cli (fresh interpreter)':<50} {statistics.median(imports):.3f} s")

    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        for workload in questions.WORKLOADS:
            for idx, q in enumerate(questions.draw_round(workload, rng)):
                t0 = time.perf_counter()
                try:
                    worker.ask(q, workdir, idx)
                except Exception as err:  # a fault question; its time still counts
                    print(f"  ({type(err).__name__}: {err})")
                print(f"{workload:<13} {label(q):<50} {time.perf_counter() - t0:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
