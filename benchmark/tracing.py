"""Spans around the calls into each warpcsc module, recorded from outside.

`Tracer.install` replaces every function a module lists in `__all__`
with a wrapper, in every warpcsc namespace that binds it: `solver`, for
one, binds `period_quadrature` and `turning_points` from `period`, and
the package re-exports nearly everything.  Each call then records a span
(name, start, end, parent) in plain lists; nothing is written until the
round ends and `save` dumps the lists to one .npz file.  Private helpers
(`_acc`, `_check_band`, ...) are not wrapped, so their time counts as
self time of the public function that calls them, and the leapfrog hot
loops carry no per-step cost.

`period` also binds scipy's `brentq`.  It is not a span; its wrapper
counts the function evaluations each call makes and books them on the
span that called it, which gives the root-polish evaluations inside
`energy_roots`.

`span_table` reads the saved spans back: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

MODULES = ("model", "period", "integrator", "solver", "geometry", "bifurcation", "cli")


# a number to keep per call, read from the result outside the span
RESULT_COUNTS = {
    "period.energy_roots": len,                         # roots returned
    "bifurcation.scan_branches": lambda d: len(d.rows),  # diagram rows
    "integrator.energy_drift": lambda r: r.n_steps,      # leapfrog steps
}


class Tracer:
    """In-memory span recorder for one round."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.count: list[float] = []
        self.evals: list[int] = []
        self.stack: list[int] = [-1]
        self._rebound: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(0.0)
        self.evals.append(0)
        self.stack.append(idx)
        return idx

    def span_wrapper(self, fn, name: str):
        nid = self._intern(name)
        count_of = RESULT_COUNTS.get(name)
        open_span = self._open
        stack = self.stack
        starts, ends, counts = self.start, self.end, self.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count_of is not None:
                counts[idx] = count_of(result)
            return result

        return wrapper

    def counting_root_solver(self, solver):
        stack = self.stack
        evals = self.evals

        @functools.wraps(solver)
        def wrapper(f, a, b, *args, **kwargs):
            owner = stack[-1]
            calls = [0]

            def counted(x, *fargs):
                calls[0] += 1
                return f(x, *fargs)

            try:
                return solver(counted, a, b, *args, **kwargs)
            finally:
                if owner >= 0:
                    evals[owner] += calls[0]

        return wrapper

    def _rebind_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "warpcsc" and not modname.startswith("warpcsc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebound.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import importlib

        for short in MODULES:
            module = importlib.import_module(f"warpcsc.{short}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    self._rebind_everywhere(fn, self.span_wrapper(fn, f"{short}.{name}"))
        period = importlib.import_module("warpcsc.period")
        original = period.brentq
        self._rebound.append((period, "brentq", original))
        period.brentq = self.counting_root_solver(original)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def open_question(self, index: int) -> None:
        idx = self._open(self._intern("question"))
        self.count[idx] = index
        self.start[idx] = time.perf_counter()

    def close_question(self) -> None:
        idx = self.stack.pop()
        self.end[idx] = time.perf_counter()

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.asarray(self.names, dtype=str),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            count=np.asarray(self.count, dtype=float),
            evals=np.asarray(self.evals, dtype=np.int64),
        )


def span_table(path: str) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, count, evals."""
    with np.load(path) as z:
        names = list(z["names"])
        name_id, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        count, evals = z["count"], z["evals"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    table = {}
    for nid, name in enumerate(names):
        sel = name_id == nid
        table[name] = {
            "calls": float(np.count_nonzero(sel)),
            "s": float(dur[sel].sum()),
            "self_s": float(self_s[sel].sum()),
            "count": float(count[sel].sum()),
            "evals": float(evals[sel].sum()),
        }
    table["*"] = {"spans": float(dur.size)}
    return table


def _get(table, name, key):
    return table.get(name, {}).get(key, 0.0)


def layer_metrics(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer figures of one traced round, by the names BENCHMARK.json uses."""
    g = functools.partial(_get, table)
    out = {}
    for short in MODULES:
        rows = [v for k, v in table.items() if k.startswith(short + ".")]
        if short == "model":
            out["model.calls"] = sum(r["calls"] for r in rows)
        out[f"{short}.self_s"] = sum(r["self_s"] for r in rows)
    for key, name in (("quadrature", "period_quadrature"), ("turning_points", "turning_points"),
                      ("roots", "energy_roots")):
        out[f"period.{key}.calls"] = g(f"period.{name}", "calls")
        out[f"period.{key}.self_s"] = g(f"period.{name}", "self_s")
    out["period.root_evals"] = g("period.energy_roots", "evals")
    out["period.roots.returned"] = g("period.energy_roots", "count")
    returned = out["period.roots.returned"]
    out["period.quad_per_root"] = out["period.quadrature.calls"] / returned if returned else 0.0
    out["period.table.calls"] = g("period.period_table", "calls")
    out["period.table.s"] = g("period.period_table", "s")
    out["period.scan.s"] = g("period.period_scan", "s")
    out["integrator.return_map.calls"] = g("integrator.period_return_map", "calls")
    out["integrator.return_map.s"] = g("integrator.period_return_map", "s")
    drift_s = g("integrator.energy_drift", "s")
    out["integrator.drift.steps_per_s"] = (
        g("integrator.energy_drift", "count") / drift_s if drift_s else 0.0
    )
    out["solver.solve.self_s"] = g("solver.solve_period", "self_s")
    out["solver.profile.calls"] = g("solver.profile_from_energy", "calls")
    out["solver.profile.self_s"] = g("solver.profile_from_energy", "self_s")
    out["solver.audit.s"] = g("solver.audit_profile", "s")
    out["geometry.curvature_audit.s"] = g("geometry.curvature_audit", "s")
    out["geometry.conformal.s"] = g("geometry.conformal_field_check", "s")
    out["bifurcation.scan.self_s"] = g("bifurcation.scan_branches", "self_s")
    out["bifurcation.count.self_s"] = g("bifurcation.count_solutions", "self_s")
    out["bifurcation.rows"] = g("bifurcation.scan_branches", "count")
    out["question.self_s"] = g("question", "self_s")
    out["trace.spans"] = table["*"]["spans"]
    return out
