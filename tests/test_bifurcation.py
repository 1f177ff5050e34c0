"""Branch diagrams, branch points and solution counting."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpcsc.bifurcation as bifurcation
import warpcsc.period as period_mod
from warpcsc import (
    BranchPoint,
    DomainError,
    ModelParams,
    count_solutions,
    derive_constants,
    period_curve,
    period_quadrature,
    scan_branches,
    solve_period,
)

# Counts under the documented contract: wrap k is counted only when
# T/k exceeds the threshold T0 AND the scan brackets a root there.  For
# n=3 the attainable per-orbit band lies below T0, so every contract
# count is 0 even where wrapped solutions exist; the diagram rows carry
# those.  Reference counts from exact band membership with edges T0 and
# sqrt(n)/2*T0 (see the attainable column for what the rows realize).
FROZEN_COUNTS = {
    3: [(1.9, 0), (2.6, 0), (3.4, 0), (5.9, 0), (13.0, 0), (20.0, 0)],
    5: [(1.01, 1), (1.05, 1), (2.1, 1), (2.3, 0), (4.4, 1)],
    6: [(1.1, 1), (1.21, 1), (2.35, 1), (3.6, 1)],
}

# wrap counts whose orbits realize the circle period, by band membership
FROZEN_ATTAINABLE_WRAPS = {
    (3, 1.9): [2],
    (3, 2.6): [3],
    (3, 3.4): [],
    (3, 13.0): [14, 15],
}


@pytest.mark.parametrize("n", sorted(FROZEN_COUNTS))
def test_count_solutions_matches_contract_reference(n):
    params = ModelParams(n, 2.0, 2.0)
    k = derive_constants(params)
    for ratio, expected in FROZEN_COUNTS[n]:
        got = count_solutions(ratio * k.T0, params)
        assert got == expected, f"n={n}, T={ratio}*T0: {got} != {expected}"


@pytest.mark.parametrize("T", [math.inf, math.nan])
def test_count_solutions_refuses_a_period_that_is_not_finite(p5, T):
    with pytest.raises(DomainError, match=f"^period must be finite, got {T}$"):
        count_solutions(T, p5)


def test_count_zero_at_or_below_threshold(p3, p5, k3, k5):
    for params, consts in ((p3, k3), (p5, k5)):
        assert count_solutions(0.5 * consts.T0, params) == 0
        assert count_solutions(consts.T0, params) == 0


def test_isochronous_dimension_counts_nothing_off_the_comb(p4, k4):
    for ratio in (1.3, 2.0, 3.0):
        assert count_solutions(ratio * k4.T0, p4) == 0


def test_branch_points_sit_one_cell_below_integer_multiples(p3, k3):
    diagram = scan_branches(3.5 * k3.T0, p3, 400)
    cell = 2.5 * k3.T0 / 400
    assert [bp.k for bp in diagram.branch_points] == [2, 3]
    for bp in diagram.branch_points:
        assert abs(bp.T - bp.k * k3.T0) <= cell * (1.0 + 1e-9)


def test_diagram_rows_realize_attainable_wraps(p3, k3):
    diagram = scan_branches(3.5 * k3.T0, p3, 400)
    grid = np.asarray(diagram.t_grid)
    for (_, ratio), wraps in ((key, v) for key, v in FROZEN_ATTAINABLE_WRAPS.items()
                              if key[0] == 3 and key[1] <= 3.5):
        T = ratio * k3.T0
        at = grid[np.argmin(np.abs(grid - T))]
        got = sorted(row.k for row in diagram.rows if row.T == at)
        assert got == wraps, f"T={ratio}*T0: {got} != {wraps}"


def test_diagram_has_a_true_gap_between_wrap_bands(p3, k3):
    # nothing is attainable between 2*T0 and sqrt(3)/2 * 3*T0 = 2.598*T0
    diagram = scan_branches(3.5 * k3.T0, p3, 400)
    lo, hi = 2.01 * k3.T0, 2.58 * k3.T0
    assert not [row for row in diagram.rows if lo < row.T < hi]
    assert diagram.failures  # candidates outside the band are recorded


def test_row_columns_are_consistent(p3, k3):
    diagram = scan_branches(3.5 * k3.T0, p3, 220)
    lo, hi = diagram.band
    assert 0.86 * k3.T0 < lo < hi < k3.T0
    for row in diagram.rows:
        assert row.tau == pytest.approx(row.T / row.k, rel=1e-15)
        assert lo * (1.0 - 1e-9) <= row.tau <= hi * (1.0 + 1e-9)
        assert k3.c_min < row.c < 0.0
        assert row.amplitude > 0.0
        assert 0.0 < row.f_min < k3.f_star < row.f_max


def test_n3_branches_open_leftward(p3, k3):
    """Amplitude grows as T moves away below each integer multiple."""
    diagram = scan_branches(2.2 * k3.T0, p3, 240)
    k2_rows = sorted((r for r in diagram.rows if r.k == 2), key=lambda r: r.T)
    assert len(k2_rows) >= 10
    amps = [r.amplitude for r in k2_rows]
    assert amps[0] > amps[-1]
    assert all(a1 > a2 for a1, a2 in zip(amps, amps[1:]))


def test_n5_branch_opens_rightward_from_threshold(p5, k5):
    diagram = scan_branches(1.4 * k5.T0, p5, 80)
    rows = sorted((r for r in diagram.rows if r.k == 1), key=lambda r: r.T)
    assert len(rows) >= 10
    amps = [r.amplitude for r in rows]
    assert all(a1 < a2 for a1, a2 in zip(amps, amps[1:]))
    # the branch emerges at the threshold itself
    assert diagram.branch_points
    bp = diagram.branch_points[0]
    cell = 0.4 * k5.T0 / 80
    assert bp.k == 1
    assert abs(bp.T - k5.T0) <= cell * (1.0 + 1e-9)


def test_isochronous_diagram_is_flagged_degenerate(p4, k4):
    diagram = scan_branches(2.5 * k4.T0, p4, 60)
    assert diagram.degenerate_isochronous
    assert diagram.rows == ()
    assert diagram.branch_points == (BranchPoint(1, k4.T0),)


def test_branches_never_cross(p5, k5):
    """Two wrap families alive at one T keep strictly ordered energies."""
    T = 10.03 * k5.T0
    curve = period_curve(5)
    orbit9, orbit10 = curve.orbits([T / 9.0, T / 10.0], p5)
    assert orbit9 is not None and orbit10 is not None
    # T(c) increases with c here, so the slower wrap sits higher in energy
    assert orbit9.c > orbit10.c


@pytest.mark.parametrize("n, tmax_T0, grid", [(3, 3.5, 400), (3, 40.0, 16), (4, 2.5, 60),
                                               (6, 3.5, 400), (12, 9.0, 50)])
def test_pair_bound_covers_every_pair_a_scan_lists(monkeypatch, n, tmax_T0, grid):
    """Rows and failures are the (T, k) pairs listed; the closed-form bound
    is at least their count, and a limit just below the bound refuses the scan."""
    params = ModelParams(n, 2.0, 2.0)
    T0 = derive_constants(params).T0
    diagram = scan_branches(tmax_T0 * T0, params, grid)
    bound = grid * (tmax_T0 * T0 / min(T0, diagram.band[0]) + 1.0)
    assert len(diagram.rows) + len(diagram.failures) <= bound
    monkeypatch.setattr(bifurcation, "MAX_CANDIDATES", math.floor(bound) - 1)
    with pytest.raises(DomainError, match="above the limit"):
        scan_branches(tmax_T0 * T0, params, grid)


def test_scan_validation(p3, k3):
    with pytest.raises(DomainError):
        scan_branches(0.9 * k3.T0, p3, 50)
    with pytest.raises(DomainError):
        scan_branches(2.0 * k3.T0, p3, 1)
    with pytest.raises(DomainError, match=r"\(--tmax, --grid\)"):
        scan_branches(1e7, p3, 16)
    # counting never raises; anything at or below the threshold is 0
    assert count_solutions(-1.0, p3) == 0


def test_rescaled_scan_reuses_the_period_curve(p3, k3, kernel_calls):
    first = scan_branches(3.5 * k3.T0, p3, 400)
    # a rebuild would send every node of the curve to the kernel in one batch
    build = {period_curve(3).quadratures}
    kernel_calls.clear()
    p = ModelParams(3, 8.0, 8.0)
    k = derive_constants(p)
    second = scan_branches(3.5 * k.T0, p, 400)
    # one kernel call confirms every row
    assert kernel_calls == [len(second.rows)]
    assert not build & set(kernel_calls)
    assert len(second.rows) == len(first.rows)
    for r1, r2 in zip(first.rows, second.rows):
        assert r2.k == r1.k
        assert r2.T / k.T0 == pytest.approx(r1.T / k3.T0, rel=1e-14)
        s1 = (r1.c - k3.c_min) / abs(k3.c_min)
        s2 = (r2.c - k.c_min) / abs(k.c_min)
        assert abs(s2 - s1) <= 1e-12


def test_warm_scan_confirms_every_row_in_one_kernel_call(kernel_calls):
    params = ModelParams(6, 1.0, 3.0)
    T_max = 3.5 * derive_constants(params).T0
    period_curve(6)  # warm
    kernel_calls.clear()
    diagram = scan_branches(T_max, params, 400)
    assert kernel_calls == [len(diagram.rows)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([3, 5, 6, 8, 12]),
    R=st.floats(0.1, 30.0),
    Rt=st.floats(0.1, 30.0),
    s=st.floats(1e-6, 0.999),
)
def test_period_ratio_depends_on_n_and_s_only(n, R, Rt, s):
    canon = ModelParams(n, n - 1.0, n - 1.0)
    kc = derive_constants(canon)
    ref = period_quadrature(kc.c_min + s * abs(kc.c_min), canon).T / kc.T0
    params = ModelParams(n, R, Rt)
    k = derive_constants(params)
    ratio = period_quadrature(k.c_min + s * abs(k.c_min), params).T / k.T0
    assert abs(ratio / ref - 1.0) <= 1e-13


@pytest.mark.parametrize(
    "triple, rows, wraps",
    [((3, 2.0, 2.0), 112, [2, 3]), ((6, 1.0, 3.0), 186, [1, 2, 3])],
    ids=["n3", "n6"],
)
def test_diagram_rows_pinned(triple, rows, wraps):
    params = ModelParams(*triple)
    k = derive_constants(params)
    diagram = scan_branches(3.5 * k.T0, params, 400)
    assert len(diagram.rows) == rows
    assert [bp.k for bp in diagram.branch_points] == wraps
    for row in diagram.rows[::10]:
        T = period_quadrature(row.c, params).T
        assert abs(T / row.tau - 1.0) <= 10.0 * period_mod.KERNEL_RTOL


def test_count_solutions_needs_no_quadrature_past_the_curve(monkeypatch):
    # no period curve, kernel or quadrature: calling one raises TypeError
    monkeypatch.setattr(period_mod, "_period_kernel", None)
    monkeypatch.setattr(period_mod, "period_quadrature", None)
    monkeypatch.setattr(bifurcation, "period_curve", None)
    params = ModelParams(11, 2.0, 2.0)  # a dimension no other test builds
    T0 = derive_constants(params).T0
    # band (1, 1.6583): T/k = 1.05; 1.05; 1.15; 1.4667 and 1.1
    assert [count_solutions(r * T0, params) for r in (1.05, 2.1, 2.3, 4.4)] == [1, 1, 1, 2]


@pytest.mark.parametrize("n", [3, 5, 6, 8])
def test_branch_points_are_the_comb(n):
    params = ModelParams(n, 2.0, 2.0)
    T0 = derive_constants(params).T0
    diagram = scan_branches(3.5 * T0, params, 120)
    wraps = [2, 3] if n == 3 else [1, 2, 3]
    assert [(bp.k, bp.T) for bp in diagram.branch_points] == [(k, k * T0) for k in wraps]


@pytest.mark.parametrize("n", [3, 5, 6, 8, 12, 20])
def test_count_solutions_is_closed_form_band_membership(n):
    params = ModelParams(n, 2.0, 2.0)
    T0 = derive_constants(params).T0
    lo, hi = sorted((1.0, math.sqrt(n) / 2.0))
    # an offset sweep, so no T/k falls on an end of the band
    for ratio in 0.5 + 11.5 * (np.arange(1999) + 0.5) / 1999:
        want = sum(1 for k in range(1, int(ratio) + 1) if 1.0 < ratio / k and lo < ratio / k < hi)
        assert count_solutions(ratio * T0, params) == want, f"T = {ratio} T0"
    # past the end of the period curve, which stops at 1.6415 T0 for n = 12
    if n == 12:
        assert count_solutions(1.70 * T0, params) == 1


def test_scan_names_in_band_misses_past_the_end_of_the_curve():
    """n = 12: the curve stops at 1.6415 T0, short of the band's 1.7321 T0."""
    params = ModelParams(12, 2.0, 2.0)
    T0 = derive_constants(params).T0
    diagram = scan_branches(3.5 * T0, params, 200)
    assert (len(diagram.rows), len(diagram.failures)) == (193, 169)
    past = [(T, k, why) for T, k, why in diagram.failures if 1.6416 < T / k / T0 < 1.7320]
    assert len(past) == 22
    for _, _, why in past:
        assert "inside the closed-form band but past the end of the period curve [" in why
    others = [why for _, _, why in diagram.failures if "closed-form band" not in why]
    assert len(others) == 169 - 22


@pytest.mark.parametrize("triple", [(6, 1.0, 3.0), (3, 2.0, 2.0)], ids=["n6", "n3"])
def test_comb_points_name_the_branch_point(triple):
    """The benchmark's diagrams: grid 400 up to 3.5 T0 hits T = 2 T0 and 3 T0.

    Wrap k there asks for the per-wrap period T0, which only the constant
    warp has, at either end of the band (its lower end for n = 6, its
    upper end for n = 3).
    """
    params = ModelParams(*triple)
    T0 = derive_constants(params).T0
    diagram = scan_branches(3.5 * T0, params, 400)
    comb = [(T, k, why) for T, k, why in diagram.failures if "branch point" in why]
    assert [k for _, k, _ in comb] == [2, 3]
    for T, k, why in comb:
        assert T / k == pytest.approx(T0, rel=1e-15)
        assert f"is T0, the branch point of wrap {k}: only the constant warp has it" in why
        assert "closed-form band" not in why and "past the end" not in why
    assert not [why for _, _, why in diagram.failures if "past the end of the period curve" in why]


def _per_period_scan(T_max, params, grid_size):
    """The diagram from a plain loop per grid period and per wrap count,
    as `scan_branches` assembled it before the pairs were listed in arrays."""
    T0 = derive_constants(params).T0
    curve = period_curve(params.n)
    band = (curve.band[0] * T0, curve.band[1] * T0)
    step = (T_max - T0) / grid_size
    t_grid = tuple(T0 + (j + 1) * step for j in range(grid_size))
    if band[1] - band[0] <= 1e-9 * T0:
        return bifurcation.BifurcationDiagram(
            params, T0, t_grid, (), (BranchPoint(1, T0),), (), band, True)
    wanted = []
    closed = sorted((T0, math.sqrt(params.n) / 2.0 * T0))
    for T in t_grid:
        classical = set(range(1, int(T / (T0 * (1.0 + 1e-9))) + 1))
        attain = set()
        if band[0] > 0.0:
            k_min = max(1, math.ceil(T / (band[1] * (1.0 + 1e-9))))
            attain = set(range(k_min, int(T / (band[0] * (1.0 - 1e-9))) + 1))
        for k in sorted(classical | attain):
            tau = T / k
            inband = band[0] * (1.0 - 1e-9) <= tau <= band[1] * (1.0 + 1e-9)
            if inband or k in classical:
                wanted.append((T, k, tau, inband))
    found = iter(curve.orbits([tau for _, _, tau, inband in wanted if inband], params))
    rows, failures = [], []
    r = 2.0 / params.n
    for T, k, tau, inband in wanted:
        orbit = next(found) if inband else None
        if orbit is not None:
            rows.append(bifurcation.BranchRow(T, k, tau, orbit.c, orbit.amplitude,
                                              orbit.a**r, orbit.b**r))
            continue
        if abs(tau / T0 - 1.0) <= 1e-9:
            why = (f"per-wrap period {tau} is T0, the branch point of wrap {k}: "
                   "only the constant warp has it")
        else:
            where = ("inside the closed-form band but past the end of the "
                     "period curve" if closed[0] < tau < closed[1]
                     else "outside attained range")
            why = f"per-wrap period T/k {where} [{band[0]}, {band[1]}]"
        failures.append((T, k, why))
    wraps = sorted({row.k for row in rows if row.k * T0 <= T_max})
    return bifurcation.BifurcationDiagram(
        params, T0, t_grid, tuple(rows), tuple(BranchPoint(k, k * T0) for k in wraps),
        tuple(failures), band, False)


@pytest.mark.parametrize("triple, tmax_T0, grid", [
    ((3, 2.0, 2.0), 3.5, 400), ((6, 1.0, 3.0), 3.5, 400), ((5, 2.0, 2.0), 6.0, 300),
    ((12, 2.0, 2.0), 9.0, 200), ((8, 3.0, 1.0), 5.0, 1000), ((4, 2.0, 2.0), 3.5, 100),
    ((3, 2.0, 2.0), None, 16),
], ids=["n3", "n6", "n5", "n12", "n8", "n4", "pinned"])
def test_scan_assembly_matches_the_per_period_loop(triple, tmax_T0, grid):
    """The array listing gives the loop's diagram, every float, row and
    failure string included; `pinned` is the CLI's --tmax 20 --grid 16 run."""
    params = ModelParams(*triple)
    T_max = 20.0 if tmax_T0 is None else tmax_T0 * derive_constants(params).T0
    diagram = scan_branches(T_max, params, grid)
    assert diagram == _per_period_scan(T_max, params, grid)
    assert all(type(row.T) is float and type(row.k) is int and type(row.tau) is float
               for row in diagram.rows)
    assert all(type(T) is float and type(k) is int for T, k, _ in diagram.failures)


@pytest.mark.parametrize("triple, tmax_T0, grid", [
    ((3, 2.0, 2.0), 3.5, 400), ((6, 1.0, 3.0), 3.5, 400), ((12, 2.0, 2.0), 9.0, 200),
], ids=["n3", "n6", "n12"])
def test_misses_of_one_kind_share_one_reason(triple, tmax_T0, grid):
    """A miss is (T, k, reason) with tau = T/k; the two kinds a scan has
    many of carry one reason string each, which names the band."""
    params = ModelParams(*triple)
    diagram = scan_branches(tmax_T0 * derive_constants(params).T0, params, grid)
    lo, hi = diagram.band
    reasons = (f"per-wrap period T/k outside attained range [{lo}, {hi}]",
               "per-wrap period T/k inside the closed-form band but past the end of the "
               f"period curve [{lo}, {hi}]")
    misses = [(T / k, why) for T, k, why in diagram.failures
              if why.startswith("per-wrap period T/k")]
    assert [why for _, why in misses if why not in reasons] == []
    for reason in reasons:
        shared = [why for _, why in misses if why == reason]
        assert all(why is shared[0] for why in shared)
    assert any(why == reasons[0] for _, why in misses)
    for tau, _ in misses:
        assert not lo * (1.0 - 1e-9) <= tau <= hi * (1.0 + 1e-9)


@pytest.mark.parametrize("n, tmax_T0, grid, kinds", [
    (3, 3.5, 120, {"comb", "outside"}), (5, 6.0, 100, {"comb", "outside"}),
    (6, 3.5, 120, {"comb", "outside"}), (12, 9.0, 60, {"comb", "outside", "past the curve"}),
])
def test_the_period_curve_alone_decides_which_pairs_land(n, tmax_T0, grid, kinds):
    """A grid period T lists the wraps k with T/k above T0 (1 + 1e-9) and
    those with T/k in the band widened by 1e-9; the rows are exactly the
    listed pairs the curve gives an orbit for, asked one at a time, and
    the misses all the others: one on the comb T = k * T0 names its branch
    point, and every other one has the shared reason of its side of the
    closed-form band."""
    params = ModelParams(n, 2.0, 2.0)
    T0 = derive_constants(params).T0
    diagram = scan_branches(tmax_T0 * T0, params, grid)
    lo, hi = diagram.band
    curve = period_curve(n)
    landed, missed = [], []
    for T in diagram.t_grid:
        k = 1
        while T / k >= min(T0, lo) * (1.0 - 1e-9):
            tau = T / k
            if k <= int(T / (T0 * (1.0 + 1e-9))) or lo * (1.0 - 1e-9) <= tau <= hi * (1.0 + 1e-9):
                orbit = curve.orbits([tau], params)[0]
                (missed if orbit is None else landed).append((T, k, orbit))
            k += 1
    assert [(row.T, row.k) for row in diagram.rows] == [(T, k) for T, k, _ in landed]
    assert [row.c for row in diagram.rows] == [orbit.c for *_, orbit in landed]
    assert [(T, k) for T, k, _ in diagram.failures] == [(T, k) for T, k, _ in missed]
    outside = f"per-wrap period T/k outside attained range [{lo}, {hi}]"
    past_curve = ("per-wrap period T/k inside the closed-form band but past the end of the "
                  f"period curve [{lo}, {hi}]")
    closed = sorted((T0, math.sqrt(n) / 2.0 * T0))
    seen = set()
    for T, k, why in diagram.failures:
        tau = T / k
        if abs(tau / T0 - 1.0) <= 1e-9:
            seen.add("comb")
            assert why == (f"per-wrap period {tau} is T0, the branch point of wrap {k}: "
                           "only the constant warp has it")
        elif closed[0] < tau < closed[1]:
            seen.add("past the curve")
            assert why == past_curve
        else:
            seen.add("outside")
            assert why == outside
    assert seen == kinds


@pytest.mark.parametrize("n", [5, 6, 12])
def test_diagram_rows_carry_the_bits_of_a_solve(n):
    """Diagrams and solves share one period curve per n: every row's
    energy is, bit for bit, the curve's inversion of its tau alone and,
    for k = 1, the energy `solve_period` finds at its T."""
    params = ModelParams(n, 2.0, 2.0)
    diagram = scan_branches(3.5 * derive_constants(params).T0, params, 400)
    curve = period_curve(n)
    assert [row.c for row in diagram.rows] == [curve.orbits([row.tau], params)[0].c
                                               for row in diagram.rows]
    single = [row for row in diagram.rows if row.k == 1]
    assert single
    assert [row.c for row in single] == [solve_period(row.T, params).c for row in single]


def _count_by_every_wrap(T, params):
    """count_solutions as a test of every k <= T/T0, in numpy floats."""
    consts = derive_constants(params)
    if T <= consts.T0 * (1.0 + 1e-9):
        return 0
    wraps = np.arange(1, int(T / (consts.T0 * (1.0 + 1e-9))) + 1)
    return int(np.count_nonzero(T / wraps < math.sqrt(params.n) / 2.0 * consts.T0))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12, 20])
def test_count_solutions_bisection_matches_every_wrap(n):
    """Random T up to 1e6 T0, and T a few ulps around multiples of the
    band ends, where T/k lands on contact or on the threshold."""
    params = ModelParams(n, 2.0, 2.0)
    T0 = derive_constants(params).T0
    contact = math.sqrt(n) / 2.0 * T0
    rng = np.random.default_rng(n)
    periods = list(T0 * np.exp(rng.uniform(0.0, math.log(1e6), 300)))
    for base in (contact, T0):
        for m in [*range(1, 40), 997, 12345, 999_983]:
            T = m * base
            for _ in range(3):
                T = np.nextafter(T, 0.0)
            for _ in range(7):
                periods.append(float(T))
                T = np.nextafter(T, np.inf)
    for T in periods:
        assert count_solutions(T, params) == _count_by_every_wrap(T, params), f"T = {T / T0} T0"


@pytest.mark.parametrize("n", [3, 5, 12])
def test_count_solutions_at_a_huge_period_is_prompt(n):
    params = ModelParams(n, 2.0, 2.0)
    T0 = derive_constants(params).T0
    start = time.perf_counter()
    count = count_solutions(1e12 * T0, params)
    assert time.perf_counter() - start < 0.1
    # the wraps between the threshold, T0 (1 + 1e-9), and the contact end;
    # at this T the threshold's 1e-9 guard alone drops about 1000 of them
    want = 1e12 * max(0.0, 1.0 / (1.0 + 1e-9) - 2.0 / math.sqrt(n))
    assert abs(count - want) <= 2.0
    if n == 5:
        assert count == 105572808000
