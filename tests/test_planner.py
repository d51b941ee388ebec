from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeaterchain import model, planner
from repeaterchain.errors import (
    BeyondRepresentable,
    ConfigError,
    ModelError,
    NoCrossoverInRange,
    NonTerminatingProcess,
    UnreachableConfiguration,
)
from repeaterchain.model import (
    DEFAULT_TOL,
    ChainConfig,
    ChannelParams,
    HardwareParams,
    _attempts_mean_bounds,
    _attempts_moments,
    _round_terms,
    _total_time,
    ec_prob,
    metrics,
)
from repeaterchain.planner import (
    SweepSpec,
    _link_candidates,
    _link_count_limit,
    _scalar_bounds,
    _scan_link_counts,
    crossover_with_direct,
    direct_transmission_time,
    optimize_link_count,
    plan_fixed_link,
    run_sweep,
)

HW = HardwareParams()
CH = ChannelParams()


def total_time(hw, L, n, mean, ch=CH):
    """The checked total time of n links over L km whose slowest link
    needs ``mean`` attempts on average, as metrics and the scan take it."""
    clock, t_cc, _, success = _round_terms(hw, L, n, ch)
    return _total_time(clock, t_cc, success, mean)


# ---------------------------------------------------------------- direct transmission

def test_direct_transmission_lossless():
    assert direct_transmission_time(0.0, CH, 1e10) == 1e-10


def test_direct_transmission_100db_anchor():
    # 500 km at 0.2 dB/km is exactly 100 dB, i.e. one second at 10 GHz.
    t = direct_transmission_time(500.0, CH, 1e10)
    assert t == pytest.approx(1.0, rel=1e-12)


def test_direct_transmission_1000km():
    assert direct_transmission_time(1000.0, CH, 1e10) == pytest.approx(1e10, rel=1e-12)


def test_direct_transmission_validation_and_overflow():
    with pytest.raises(ConfigError):
        direct_transmission_time(-1.0, CH, 1e10)
    with pytest.raises(ConfigError):
        direct_transmission_time(100.0, CH, 0.0)
    with pytest.raises(BeyondRepresentable):
        direct_transmission_time(2.0e4, CH, 1e10)
    with pytest.raises(ConfigError):
        direct_transmission_time(math.nan, CH, 1e10)
    with pytest.raises(ConfigError):
        direct_transmission_time(100.0, CH, math.inf)


def test_direct_transmission_takes_real_numbers_as_floats():
    expected = direct_transmission_time(500.0, CH, 1e10)
    for L, rate in ((500, 10**10), (np.float32(500), np.int64(10**10)), (np.float64(500), 1e10)):
        got = direct_transmission_time(L, CH, rate)
        assert got == expected and type(got) is float
    for L in ("500", True):
        with pytest.raises(ConfigError, match="distance must be a real number"):
            direct_transmission_time(L, CH, 1e10)


# ---------------------------------------------------------------- link-count optimization

def test_optimize_reference_point_1600km():
    result = optimize_link_count(HW, 1600.0, CH)
    assert result.best_n == 8
    assert result.metrics.mem_time_avg == pytest.approx(0.8369750992109782, rel=1e-10)
    assert result.scanned_range == (1, 64)
    assert result.runner_up_ratio >= 1.0


def test_optimize_short_distance_prefers_single_link():
    assert optimize_link_count(HW, 1.0, CH).best_n == 1


def assert_matches_rescan(hw: HardwareParams, L: float, n_max: int) -> None:
    rescan = {}
    for n in range(1, n_max + 1):
        try:
            rescan[n] = metrics(hw, ChainConfig(total_length=L, link_count=n), CH)
        except ModelError:
            continue
    if not rescan:
        with pytest.raises(UnreachableConfiguration):
            optimize_link_count(hw, L, CH, n_max=n_max)
        return
    result = optimize_link_count(hw, L, CH, n_max=n_max)
    ranked = sorted(rescan, key=lambda n: (rescan[n].t_tot, n))
    best = ranked[0]
    assert result.best_n == best
    assert result.metrics == rescan[best]
    assert result.scanned_range == (1, n_max)
    runner_up = rescan[ranked[1]].t_tot if len(ranked) > 1 else math.inf
    assert result.runner_up_ratio == runner_up / rescan[best].t_tot


def test_optimize_matches_independent_rescan():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(5):
        hw = HardwareParams(
            detector_eff=float(rng.uniform(0.5, 1.0)),
            memory_eff=float(rng.uniform(0.5, 1.0)),
            emission_prob=float(rng.uniform(0.3, 1.0)),
            mode_count=int(rng.integers(1, 300)),
        )
        cases.append((hw, float(rng.uniform(100.0, 2000.0)), 30))
    # Near-certain EC makes t_ec no larger than t_cc, so the bound is tight:
    # it passes the best time before the runner-up has been evaluated.
    cases.append((HW, 1.0, 30))
    # Far more link counts than useful: t_tot overflows from n = 642.
    cases.append((HW, 1600.0, 5000))
    # Lossy retrieval: each extra link costs ~90x, and p_es * r underflows
    # from n = 167 while p_es alone does not.
    cases.append((HardwareParams(memory_eff=0.3, detector_eff=0.5), 1000.0, 400))
    # An exact tie: n = 3 and n = 4 give the same t_tot.  n = 4 has the
    # lower bound, so it is evaluated first and the tie must still go to 3.
    tie_hw, tie_L = HardwareParams(mode_count=1), 253.86595851662494
    tie = [metrics(tie_hw, ChainConfig(total_length=tie_L, link_count=n), CH).t_tot
           for n in (3, 4)]
    assert tie[0] == tie[1]
    cases.append((tie_hw, tie_L, 30))
    for hw, L, n_max in cases:
        assert_matches_rescan(hw, L, n_max)


@settings(max_examples=25, deadline=None)
@given(
    detector_eff=st.floats(min_value=0.3, max_value=1.0),
    memory_eff=st.floats(min_value=0.3, max_value=1.0),
    emission_prob=st.floats(min_value=0.1, max_value=1.0),
    mode_count=st.integers(min_value=1, max_value=1000),
    L=st.floats(min_value=1.0, max_value=3000.0),
    n_max=st.integers(min_value=1, max_value=40),
)
def test_optimize_matches_independent_rescan_on_drawn_hardware(
    detector_eff, memory_eff, emission_prob, mode_count, L, n_max
):
    hw = HardwareParams(detector_eff=detector_eff, memory_eff=memory_eff,
                        emission_prob=emission_prob, mode_count=mode_count)
    assert_matches_rescan(hw, L, n_max)


def harmonic(n: int) -> float:
    """H_n summed in the order the link-count scan sums it."""
    total = 0.0
    for i in range(1, n + 1):
        total += 1.0 / i
    return total


def series_seam(n: int) -> tuple[float, float]:
    """Adjacent doubles on each side of the seam between the closed-form
    route (first) and the series route (second) at ``n`` links."""
    lam = (math.log(max(n, 2)) - math.log(DEFAULT_TOL)) / model._MAX_EXPLICIT_TERMS
    p = -math.expm1(-lam)
    while model._explicit_feasible(p, n, DEFAULT_TOL):
        p = math.nextafter(p, 0.0)
    while not model._explicit_feasible(p, n, DEFAULT_TOL):
        p = math.nextafter(p, 1.0)
    return math.nextafter(p, 0.0), p


def test_time_lower_bound_never_exceeds_the_computed_time():
    # The scan orders and stops on the lower bound and the crossover reads
    # signs off both, so they must hold for the rounded mean too: for n = 1
    # that mean can come out just below 1/p.
    rng = np.random.default_rng(11)
    below_inverse_p = 0
    for _ in range(300):
        hw = HardwareParams(
            detector_eff=float(rng.uniform(0.3, 1.0)),
            memory_eff=float(rng.uniform(0.3, 1.0)),
            emission_prob=float(rng.uniform(0.1, 1.0)),
            mode_count=int(rng.integers(1, 1000)),
        )
        n = int(rng.integers(1, 4)) if rng.random() < 0.7 else int(rng.integers(4, 41))
        chain = ChainConfig(total_length=n * float(rng.uniform(1.0, 250.0)), link_count=n)
        p = ec_prob(hw, chain, CH)
        mean = _attempts_moments(p, n, DEFAULT_TOL)[0]
        below_inverse_p += mean < 1.0 / p
        lower, upper = _attempts_mean_bounds(p, harmonic(n))
        assert lower <= mean <= upper
        L = chain.total_length
        t = total_time(hw, L, n, mean)
        assert t == metrics(hw, chain, CH).t_tot
        assert total_time(hw, L, n, lower) <= t <= total_time(hw, L, n, upper)
    assert below_inverse_p > 0
    # Certain success; both sides of the seam; n = 1 down to p = 1e-19,
    # where 1 + 1/lambda and 1/p are less than one ulp apart; n up to 5000
    # on the series route and up to 300 on the closed form.
    grid = [(1.0, 1), (1.0, 5000)]
    grid += [(p, n) for n in (1, 2, 128) for p in series_seam(n)]
    grid += [(10.0**-e, 1) for e in range(1, 20)]
    grid += [(p, 5000) for p in (0.9, 0.01, 1e-4)]
    grid += [(1e-7, n) for n in (2, 40, 300)]
    routes = {model._explicit_feasible(p, n, DEFAULT_TOL) for p, n in grid if p < 1.0}
    assert routes == {True, False}
    assert _attempts_mean_bounds(1.0, harmonic(5000)) == (1.0, 1.0)
    for p, n in grid:
        lower, upper = _attempts_mean_bounds(p, harmonic(n))
        assert lower <= _attempts_moments(p, n, DEFAULT_TOL)[0] <= upper, (p, n)


@settings(max_examples=40, deadline=None)
@given(
    detector_eff=st.floats(min_value=0.05, max_value=1.0),
    memory_eff=st.floats(min_value=0.05, max_value=1.0),
    emission_prob=st.floats(min_value=0.05, max_value=1.0),
    mode_count=st.integers(min_value=1, max_value=1000),
    L=st.floats(min_value=1.0, max_value=5000.0),
    n_max=st.integers(min_value=1, max_value=5000),
)
def test_candidate_times_bracket_the_scalar_times(
    detector_eff, memory_eff, emission_prob, mode_count, L, n_max
):
    # The candidate pass computes p, the mean bounds and the times in numpy,
    # whose transcendentals may differ from math's by a few ulps; its
    # margins must still bracket the time each kept n gets from the scalar
    # p, and no n the scalar code finds feasible may be left out.
    hw = HardwareParams(detector_eff=detector_eff, memory_eff=memory_eff,
                        emission_prob=emission_prob, mode_count=mode_count)
    check_candidate_row(hw, L, n_max, _link_candidates([(hw, L, n_max)], CH)[0])


def scalar_time(hw, L, n):
    """The total time of n links over L km as the scan computes it, inf
    when it overflows, None when n is infeasible before any series."""
    p = ec_prob(hw, ChainConfig(total_length=L, link_count=n), CH)
    try:
        total_time(hw, L, n, 0.0)
    except (UnreachableConfiguration, BeyondRepresentable):
        return None
    if p == 0.0:
        return None
    try:
        return total_time(hw, L, n, _attempts_moments(p, n, DEFAULT_TOL)[0])
    except BeyondRepresentable:
        return math.inf


def check_candidate_row(hw, L, n_max, row):
    """``row`` lists link counts in increasing order, brackets the time
    each gets from the scalar p, and leaves out no n the scalar code finds
    feasible; returns its link counts."""
    lower, ns, upper = row
    ns = [int(n) for n in ns.tolist()]
    assert ns == sorted(set(ns))
    for low, n, up in zip(lower.tolist(), ns, upper.tolist()):
        t = scalar_time(hw, L, n)
        assert t is not None, n
        assert low <= t <= up, (n, low, t, up)
    # (r/2)^(n-1) <= 2^-(n-1) leaves no round success from n = 1076 on.
    assert _round_terms(hw, L, 1076, CH)[3] == 0.0
    kept = set(ns)
    for n in range(1, min(n_max, 1075) + 1):
        if n not in kept:
            assert scalar_time(hw, L, n) in (None, math.inf), n
    return ns


def test_optimize_sums_each_evaluated_series_once(monkeypatch):
    # The scan sums the series of every link count it evaluates; the
    # winner's metrics reuse both of its moments instead of summing again.
    evaluated, summed = [], []
    attempts_moments = planner._attempts_moments
    survival_moments = model._survival_moments
    monkeypatch.setattr(planner, "_attempts_moments",
                        lambda p, n, tol: evaluated.append(n) or attempts_moments(p, n, tol))
    monkeypatch.setattr(model, "_survival_moments",
                        lambda p, n, tol: summed.append(n) or survival_moments(p, n, tol))
    result = optimize_link_count(HW, 1600.0, CH)
    assert evaluated == summed == [8, 9]
    assert result.metrics == metrics(HW, ChainConfig(total_length=1600.0, link_count=8), CH)


def test_a_prefix_shorter_than_a_chunk_takes_no_analytic_tail(monkeypatch):
    # Both series of the 1600 km scan stop at a prefix, past which nothing
    # moves the sums; a series over whole chunks still takes its tail.
    calls = []
    survival_tail = model._survival_tail
    monkeypatch.setattr(model, "_survival_tail",
                        lambda *args: calls.append(args) or survival_tail(*args))
    optimize_link_count(HW, 1600.0, CH)
    assert calls == []
    model._survival_moments(1e-5, 3, DEFAULT_TOL)
    assert len(calls) == 1


def test_link_table_prefixes_equal_their_own_build(monkeypatch):
    ns, harmonic = planner._link_table()
    assert ns.size == harmonic.size == 1077
    for w in (1, 2, 64, 1076, 1077):
        built = np.arange(1.0, w + 1.0)
        assert ns[:w].tobytes() == built.tobytes()
        assert harmonic[:w].tobytes() == np.cumsum(1.0 / built).tobytes()
    for column in (ns, harmonic):
        with pytest.raises(ValueError):
            column[0] = 2.0
    # Built once per process: a later scan makes no table of its own.
    optimize_link_count(HW, 1600.0, CH)
    built = []
    for name in ("arange", "cumsum"):
        original = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *args, f=original, **kwargs:
                            built.append(args) or f(*args, **kwargs))
    optimize_link_count(HW, 1600.0, CH)
    assert built == []
    assert planner._link_table()[0] is ns


# Distances in the physical range, or at the edges of the float range:
# subnormal, t_cc = L / c underflowing, every link count overflowing.
SCAN_DISTANCES = st.one_of(
    st.floats(min_value=1.0, max_value=5000.0),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 1e-3, 14000.0, 1e300]),
    st.floats(min_value=5e-324, max_value=1e308),
)
SCAN_HARDWARE = st.builds(
    HardwareParams,
    detector_eff=st.floats(min_value=0.05, max_value=1.0),
    memory_eff=st.floats(min_value=0.05, max_value=1.0),
    emission_prob=st.floats(min_value=0.05, max_value=1.0),
    mode_count=st.integers(min_value=1, max_value=1000),
)


def outcome(call):
    try:
        return call()
    except (ConfigError, ModelError) as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    hw=SCAN_HARDWARE,
    L=SCAN_DISTANCES,
    n_max=st.one_of(st.integers(min_value=1, max_value=5000), st.just(10**400)),
)
@example(hw=HW, L=1.0, n_max=30)  # a tight bound, equal to the best time
@example(hw=HardwareParams(mode_count=1), L=253.86595851662494, n_max=30)  # n = 3, 4 tie
def test_winner_only_scan_matches_the_runner_up_scan(hw, L, n_max):
    # Stopping at the winner's time instead of the runner-up's leaves out
    # only link counts that can neither beat nor tie the winner.
    def scan(runner_up):
        return outcome(lambda: _scan_link_counts(hw, L, CH, n_max, DEFAULT_TOL,
                                                 runner_up=runner_up))

    full, winner_only = scan(True), scan(False)
    if isinstance(full[0], type):
        assert winner_only == full
        return
    best_n, best_t, second_t, moments = full
    assert second_t >= best_t
    assert winner_only[:2] == (best_n, best_t)
    assert math.isnan(winner_only[2])
    assert winner_only[3:] == (moments,)


# Rows of one candidate pass: any hardware, emission down to 0 (no p at
# all), distances at the edges of the float range, widths past every float.
GRID_HARDWARE = st.builds(
    HardwareParams,
    detector_eff=st.floats(min_value=0.05, max_value=1.0),
    memory_eff=st.floats(min_value=0.05, max_value=1.0),
    emission_prob=st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(0.0)),
    mode_count=st.integers(min_value=1, max_value=1000),
)
GRID_ROWS = st.tuples(
    GRID_HARDWARE,
    st.one_of(SCAN_DISTANCES, st.sampled_from([16000.0, 25000.0])),
    st.one_of(st.integers(min_value=1, max_value=5000), st.just(10**400)),
)


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(GRID_ROWS, min_size=1, max_size=4), shared=st.booleans())
@example(rows=[(HW, 16000.0, 3), (HardwareParams(emission_prob=0.0), 1000.0, 40),
               (HW, 1e300, 10**400), (HW, 5e-324, 5000)], shared=False)  # scalar fallback
@example(rows=[(HW, 25000.0, 128), (HW, 200.0, 8), (HW, 1600.0, 5000)], shared=True)
@example(rows=[(HardwareParams(memory_eff=0.0), 100.0, 5), (HW, 200.0, 5)], shared=True)  # no n
@example(rows=[(HardwareParams(detector_eff=1.0, memory_eff=1.0), 5e-324, 10**400),
               (HardwareParams(detector_eff=1.0, memory_eff=1.0), 1.0, 5000)],
         shared=True)  # r = 1: the widest rows any hardware gives
def test_grid_rows_keep_the_link_counts_of_one_row_builds(rows, shared):
    # One pass over many rows broadcasts the hardware fields and distances;
    # every row must keep the link counts its own one-row pass keeps, and
    # its bounds must bracket the scalar times, shared hardware or not.
    if shared:
        rows = [(rows[0][0], L, n_max) for _, L, n_max in rows]
    for (hw, L, n_max), row in zip(rows, _link_candidates(rows, CH)):
        alone = _link_candidates([(hw, L, n_max)], CH)[0]
        assert check_candidate_row(hw, L, n_max, row) == alone[1].tolist()


# Each swept parameter's grid values in its physical range.
SWEEP_GRIDS = {
    "total_length": st.floats(min_value=1.0, max_value=5000.0),
    "mode_count": st.integers(min_value=1, max_value=1000).map(float),
    "emission_prob": st.floats(min_value=0.0, max_value=1.0),
}


@settings(max_examples=40, deadline=None)
@given(
    hw=SCAN_HARDWARE,
    sweep=st.sampled_from(list(SWEEP_GRIDS)).flatmap(lambda swept: st.tuples(
        st.just(swept),
        st.lists(SWEEP_GRIDS[swept], min_size=1, max_size=3, unique=True).map(sorted))),
    L=SCAN_DISTANCES,
    n_max=st.one_of(st.none(), st.integers(min_value=-1, max_value=200)),
)
@example(hw=HardwareParams(mode_count=1), sweep=("emission_prob", [0.9]),
         L=253.86595851662494, n_max=None)  # n = 3, 4 tie
def test_sweep_records_match_optimize_link_count(hw, sweep, L, n_max):
    # The sweep's winner-only scan finds what optimize_link_count reports.
    swept, grid = sweep
    spec = SweepSpec(swept, grid, hw, CH, total_length=None if swept == "total_length" else L,
                     n_max=n_max)
    for record in run_sweep(spec):
        if swept == "total_length":
            point_hw, point_L = hw, record.value
        else:
            field = int(record.value) if swept == "mode_count" else record.value
            point_hw, point_L = dataclasses.replace(hw, **{swept: field}), L
        expected = outcome(lambda: optimize_link_count(point_hw, point_L, CH, n_max))
        if record.error is None:
            assert (record.best_n, record.metrics) == (expected.best_n, expected.metrics)
        else:
            assert record.metrics is None and record.error == expected[1]


def test_scans_sum_only_the_series_their_callers_read(monkeypatch):
    # Sweeps and the crossover read only the winner, so their scans stop at
    # it; optimize_link_count reports the runner-up and evaluates it too.
    evaluated = []
    attempts_moments = planner._attempts_moments
    monkeypatch.setattr(planner, "_attempts_moments",
                        lambda p, n, tol: evaluated.append(n) or attempts_moments(p, n, tol))

    def series(call):
        evaluated.clear()
        call()
        return len(evaluated)

    distances = (200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0)
    figure_sweeps = [  # README's figure sweeps; the fixed-link one scans nothing
        SweepSpec("total_length", distances, HW, CH, source_rate=1e10),
        SweepSpec("total_length", distances, HW, CH, fixed_link_length=125.0, source_rate=1e10),
        SweepSpec("mode_count", (10.0, 20.0, 50.0, 100.0, 200.0), HW, CH, total_length=1000.0),
        SweepSpec("emission_prob", (0.3, 0.5, 0.7, 0.9), HW, CH, total_length=1000.0),
    ]
    assert [series(lambda: run_sweep(spec)) for spec in figure_sweeps] == [9, 0, 6, 5]
    assert series(lambda: crossover_with_direct(HW, CH, 1e10)) == 2
    evaluated.clear()
    optimize_link_count(HW, 1600.0, CH)
    assert evaluated == [8, 9]


def test_optimizer_sums_no_series_again_for_the_winner(monkeypatch):
    # The winner's metrics take the moments its scan summed: neither the
    # scan nor the model sums a series beyond those of n = 8 and 9.
    evaluated = []
    attempts_moments = model._attempts_moments
    for module in (model, planner):
        monkeypatch.setattr(module, "_attempts_moments",
                            lambda p, n, tol: evaluated.append(n) or attempts_moments(p, n, tol))
    optimize_link_count(HW, 1600.0, CH)
    assert evaluated == [8, 9]


def test_metrics_path_builds_no_distribution(monkeypatch):
    # Both moments come from the survival series or the closed form; the
    # attempt distribution serves only its own callers.
    def distribution_not_expected(*args, **kwargs):
        raise AssertionError("attempt distribution built on the metrics path")

    monkeypatch.setattr(model, "combined_attempt_dist", distribution_not_expected)
    metrics(HW, ChainConfig(total_length=250.0, link_count=1), CH)
    metrics(HW, ChainConfig(total_length=1600.0, link_count=8), CH)
    optimize_link_count(HW, 1600.0, CH)
    plan_fixed_link(HW, 1600.0, CH, 125.0)


def test_crossover_builds_one_row_only_for_steps_its_favourite_leaves_open(monkeypatch):
    # Each step first tries the last row's favourite link count by its
    # scalar bounds, and builds a one-row pass only when that leaves the
    # sign open: it visits the reference's distances, each exact scan runs
    # on the row built at its own distance, and fewer rows than steps are
    # built.
    built, steps, scans = [], [], []
    link_candidates = planner._link_candidates
    direct_time = planner._direct_time
    scan = planner._scan_link_counts

    def build(rows, ch):
        assert len(rows) == 1
        candidates = link_candidates(rows, ch)
        built.append((rows[0][1], candidates[0]))
        return candidates

    def exact_scan(hw, L, ch, n_max, tol, candidates=None, *rest):
        assert L == built[-1][0] and candidates is built[-1][1]
        scans.append(L)
        return scan(hw, L, ch, n_max, tol, candidates, *rest)

    monkeypatch.setattr(planner, "_link_candidates", build)
    monkeypatch.setattr(planner, "_scan_link_counts", exact_scan)
    monkeypatch.setattr(planner, "_direct_time",
                        lambda L, *rest: steps.append(L) or direct_time(L, *rest))
    pinned = {1e9: 423.09967041015625, 1e10: 488.34197998046875, 1e11: 554.8037719726562}
    visits = {}
    for rate, km in pinned.items():
        del built[:], steps[:], scans[:]
        assert crossover_with_direct(HW, CH, rate) == km
        assert 0 < len(scans) < len(built) < len(steps)
        visits[rate] = list(steps)
    monkeypatch.undo()
    for rate, km in pinned.items():
        reference_steps = []
        assert reference_crossover(HW, CH, rate, visited=reference_steps) == km
        assert visits[rate] == reference_steps
    assert len(visits[1e10]) == 16
    crossover_with_direct(HW, CH, 1e10)  # any one-off allocations
    tracemalloc.start()
    try:
        crossover_with_direct(HW, CH, 1e10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_crossover_reaches_the_scan_error_of_a_row_without_link_counts():
    # No emission, or a memory so lossy that every round's success
    # underflows: no link count is feasible at any distance, and the exact
    # scan's error must come out of the first step rather than a reduction
    # over an empty row or a link count no row offered.
    with pytest.raises(UnreachableConfiguration):
        crossover_with_direct(HardwareParams(emission_prob=0.0), CH, 1e10)
    with pytest.raises(UnreachableConfiguration) as raised:
        crossover_with_direct(HardwareParams(memory_eff=1e-200), CH, 1e10)
    assert str(raised.value) == "no feasible link count in [1, 1] for L = 10.0 km"


@pytest.mark.parametrize("n_max", [2.5, True, float("nan"), float("inf"), "8", np.float64(2.5)])
def test_non_integral_n_max_is_a_config_error(n_max):
    # 2.5 once sent the reach bisection into a loop; a sweep records the
    # error at every point and builds no candidate grid.
    with pytest.raises(ConfigError, match="n_max"):
        optimize_link_count(HW, 1600.0, CH, n_max)
    records = run_sweep(SweepSpec("total_length", (800.0, 1600.0), HW, CH, n_max=n_max))
    assert [record.error for record in records] == [
        f"n_max must be an integer, got {n_max!r}"] * 2


def test_integer_n_max_of_any_kind_scans_as_an_int():
    expected = optimize_link_count(HW, 1600.0, CH, 64)
    for n_max in (np.int64(64), 64.0):
        result = optimize_link_count(HW, 1600.0, CH, n_max)
        assert result == expected and type(result.scanned_range[1]) is int


@pytest.mark.parametrize("L", [1600, np.float32(1600), np.float64(1600), np.int64(1600)])
def test_real_distances_plan_as_python_floats(L):
    # np.float32 once carried float32 arithmetic into ec_prob and the times.
    result = optimize_link_count(HW, L, CH)
    assert result == optimize_link_count(HW, 1600.0, CH)
    assert all(type(value) is float for value in vars(result.metrics).values())
    plan = plan_fixed_link(HW, L, CH, np.float32(125.0))
    assert plan == plan_fixed_link(HW, 1600.0, CH, 125.0)
    assert type(plan.link_length) is type(plan.extension) is float
    assert all(type(value) is float for value in vars(plan.metrics).values())
    with pytest.raises(ConfigError, match="total_length must be a real number"):
        optimize_link_count(HW, str(L), CH)


def test_crossover_bracket_of_numpy_scalars_bisects_as_floats():
    bracket = (np.float32(10.0), np.int64(10_000))
    assert crossover_with_direct(HW, CH, 1e10, bracket=bracket) == 488.34197998046875
    with pytest.raises(ConfigError, match="bracket must be a real number"):
        crossover_with_direct(HW, CH, 1e10, bracket=("10", 10_000.0))


def last_reachable_link_count(hw, L):
    """The largest n whose round, with t_ec = 0, succeeds in a representable
    time, found by testing every n up to 1100, or 0."""
    last = 0
    for n in range(1, 1101):
        try:
            total_time(hw, L, n, 0.0)
        except (UnreachableConfiguration, BeyondRepresentable):
            continue
        last = n
    return last


PERFECT_RETRIEVAL = HardwareParams(detector_eff=1.0, memory_eff=1.0)  # r = 1


def test_a_row_ends_at_its_last_reachable_link_count(monkeypatch):
    # A row's width comes from its hardware alone, and the scalar pass ends
    # it at the first link count whose round cannot succeed; a row whose
    # counts the arrays all vouch for tests none of them.
    tested = []
    checked_time = planner._total_time

    def probe(clock, t_cc, success, mean):
        if mean == 0.0:  # a scalar reach test
            tested.append(clock)
        return checked_time(clock, t_cc, success, mean)

    monkeypatch.setattr(planner, "_total_time", probe)
    assert _link_candidates([(HW, 1600.0, 64)], CH)[0][1].tolist() == list(range(1, 65))
    assert tested == []
    for hw, L, last in [
        (PERFECT_RETRIEVAL, 5e-324, 1075),  # t_cc = 0: p_es = 2^-1074 is the end
        (PERFECT_RETRIEVAL, 1.0, 1042),  # t_cc / p_es overflows first
        (HW, 1600.0, 641),
        (HardwareParams(memory_eff=0.0), 1600.0, 0),  # no round ever succeeds
    ]:
        assert last_reachable_link_count(hw, L) == last
        row = _link_candidates([(hw, L, 5000)], CH)[0][1]
        assert (int(row[-1]) if row.size else 0) == last, (hw, L)
    assert tested  # those rows hold counts the arrays leave to the scalar pass


def test_a_link_count_whose_time_just_overflows_is_no_runner_up():
    # At this signal speed the total time of two links lies just past the
    # float range, while the time at its lower mean bound, about 11% less,
    # lies inside it: the scan evaluates n = 2 for the runner-up and skips
    # its overflow, and n = 2's scalar bounds have an infinite upper time.
    hw = HardwareParams(detector_eff=1.0, memory_eff=0.9, emission_prob=1.0, mode_count=1)
    L, p, harmonic = 1e10, 0.5, 1.5  # p is the single-mode ceiling, with no loss
    unit = ChannelParams(attenuation=0.0, signal_speed=1.0)
    lower_t = total_time(hw, L, 2, _attempts_mean_bounds(p, harmonic)[0], unit)
    exact_t = total_time(hw, L, 2, _attempts_moments(p, 2, DEFAULT_TOL)[0], unit)
    ch = ChannelParams(attenuation=0.0,
                       signal_speed=math.sqrt(lower_t * exact_t) / sys.float_info.max)
    chain = ChainConfig(total_length=L, link_count=2)
    assert ec_prob(hw, chain, ch) == p
    with pytest.raises(BeyondRepresentable, match="total distribution time"):
        metrics(hw, chain, ch)
    lower, upper = _scalar_bounds(hw, L, 2, ch)
    assert lower < math.inf and upper == math.inf
    result = optimize_link_count(hw, L, ch, n_max=2)
    assert (result.best_n, result.runner_up_ratio) == (1, math.inf)
    assert result.metrics == metrics(hw, ChainConfig(total_length=L, link_count=1), ch)


def test_optimize_all_links_unreachable():
    with pytest.raises(UnreachableConfiguration):
        optimize_link_count(HardwareParams(memory_eff=0.0), 500.0, CH, n_max=4)


# ---------------------------------------------------------------- fixed-link planning

def test_fixed_link_exact_multiple_has_no_extension():
    plan = plan_fixed_link(HW, 1500.0, CH, 125.0)
    assert plan.node_count == 12
    assert plan.extension == 0.0
    assert plan.side == "below"
    direct = metrics(HW, ChainConfig(total_length=1500.0, link_count=12), CH)
    for field in ("ec_prob", "expected_attempts", "t_ec", "t_cc", "p_es",
                  "t_tot", "mem_time_avg", "mem_time_std"):
        assert getattr(plan.metrics, field) == pytest.approx(
            getattr(direct, field), rel=1e-12)


def test_fixed_link_reference_point_1600km():
    # Frozen from a 40-digit evaluation: wins on the far side with a 25 km
    # backhaul rather than on the near side with a 100 km one.
    plan = plan_fixed_link(HW, 1600.0, CH, 125.0)
    assert plan.node_count == 13
    assert plan.side == "above"
    assert plan.extension == pytest.approx(-25.0)
    assert plan.node_span == pytest.approx(1625.0)
    assert plan.metrics.mem_time_avg == pytest.approx(0.027712112889567718, rel=1e-10)
    assert plan.metrics.t_tot == pytest.approx(85984.28745089075, rel=1e-10)
    assert plan.metrics.mem_time_avg == plan.metrics.t_ec + plan.metrics.t_cc


def test_fixed_link_memory_reduction_vs_optimal():
    best = optimize_link_count(HW, 1600.0, CH).metrics.mem_time_avg
    fixed = plan_fixed_link(HW, 1600.0, CH, 125.0).metrics.mem_time_avg
    assert 28.0 <= best / fixed <= 36.0


def test_fixed_link_memory_flat_over_distance():
    # Memory time under a frozen 125 km link length stays bounded over
    # 500..2500 km; the certified spread is ~2.25x, dominated by the
    # linearly growing signalling term.
    values = [plan_fixed_link(HW, float(L), CH, 125.0).metrics.mem_time_avg
              for L in np.linspace(500.0, 2500.0, 41)]
    assert max(values) / min(values) < 2.5


def test_fixed_link_rejects_too_short_target():
    with pytest.raises(ConfigError):
        plan_fixed_link(HW, 100.0, CH, 125.0)
    with pytest.raises(ConfigError):
        plan_fixed_link(HW, 100.0, CH, 0.0)


LOSSLESS = ChannelParams(attenuation=0.0)


@pytest.mark.parametrize("L, L0, node_count", [
    (1.5e308, 1e308, 1),  # of 1 and 2 nodes, only 1 spans a finite distance
    (sys.float_info.max, 8.988465674761003e307, 1),  # the ratio snaps to 2, which overflows
    (sys.float_info.max, 5.992310449541053e307, 2),  # the ratio is 3.0, whose span overflows
])
def test_fixed_link_skips_node_counts_whose_span_overflows(L, L0, node_count):
    # Every input is finite and so is the plan below the target; a node
    # count whose span is past the float range is no candidate.
    plan = plan_fixed_link(HW, L, LOSSLESS, L0)
    assert (plan.node_count, plan.side) == (node_count, "below")
    assert plan.node_span == node_count * L0 and plan.extension == L - plan.node_span
    base = metrics(HW, ChainConfig(total_length=plan.node_span, link_count=node_count), LOSSLESS)
    assert plan.metrics.t_ec == base.t_ec and math.isfinite(plan.metrics.t_tot)


def test_fixed_link_near_the_float_maximum_plans_or_raises_model_errors():
    plan = plan_fixed_link(HW, 1.5e308, LOSSLESS, 1e308)
    assert plan.extension == 5e307
    assert plan.metrics.t_tot == pytest.approx(1.905197378448407e303, rel=1e-12)
    # At the default loss the one-node plan's links never succeed.
    with pytest.raises(NonTerminatingProcess):
        plan_fixed_link(HW, sys.float_info.max, CH, 8.988465674761003e307)
    spec = SweepSpec(swept_parameter="total_length", grid=(1e308, 1.5e308), hw=HW,
                     ch=LOSSLESS, fixed_link_length=1e308)
    assert [(r.error, r.best_n) for r in run_sweep(spec)] == [(None, 1), (None, 1)]
    # The ratio snaps to 27104560595068764 links, and the spans of that
    # count and the one below both overflow: more links than a float spans.
    for ch in (CH, LOSSLESS):
        with pytest.raises(UnreachableConfiguration, match="success probability underflows"):
            plan_fixed_link(HW, sys.float_info.max, ch, 6.632437845863389e+291)


def test_planner_builds_no_chain_configs(monkeypatch):
    # Behind the public functions a chain is its (total_length, link_count):
    # the scan, its bounds, the optimizer and the fixed-link plan build no
    # ChainConfig.
    built = []
    post_init = ChainConfig.__post_init__
    monkeypatch.setattr(ChainConfig, "__post_init__",
                        lambda chain: built.append(chain) or post_init(chain))

    def builds(call):
        del built[:]
        call()
        return len(built)

    spec = SweepSpec(swept_parameter="total_length", grid=(400.0, 800.0, 1600.0), hw=HW, ch=CH)
    assert builds(lambda: optimize_link_count(HW, 1600.0, CH)) == 0
    assert builds(lambda: crossover_with_direct(HW, CH)) == 0
    assert builds(lambda: run_sweep(spec)) == 0
    assert builds(lambda: plan_fixed_link(HW, 1600.0, CH, 125.0)) == 0
    fixed = dataclasses.replace(spec, fixed_link_length=125.0)
    assert builds(lambda: run_sweep(fixed)) == 0


def reference_fixed_link(hw, L, ch, L0):
    """plan_fixed_link as ``metrics`` of each flanking node count's chain,
    whose result then takes the extension's delay and loss."""
    ratio = L / L0
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-9 and nearest >= 1:
        counts = [nearest]
    else:
        counts = [math.floor(ratio), math.floor(ratio) + 1]
    best = None
    for n in counts:
        span = n * L0
        extension = L - span
        base = metrics(hw, ChainConfig(total_length=span, link_count=n), ch)
        km = abs(extension)
        t_cc = base.t_cc + km / ch.signal_speed
        retrieval = (hw.memory_eff * hw.detector_eff) ** 2
        success = base.p_es * retrieval * 10.0 ** (-ch.attenuation * km / 10.0)
        if success == 0.0:
            raise UnreachableConfiguration(
                "unreachable configuration: end-to-end success probability underflows")
        t_tot = (base.t_ec + t_cc) / success
        if not math.isfinite(t_tot):
            raise BeyondRepresentable("total distribution time beyond representable")
        plan = planner.FixedLinkPlan(
            link_length=L0, node_count=n, node_span=span, extension=extension,
            side="below" if extension >= 0.0 else "above",
            metrics=dataclasses.replace(base, t_cc=t_cc, t_tot=t_tot,
                                        mem_time_avg=base.t_ec + t_cc))
        if best is None or plan.metrics.t_tot < best.metrics.t_tot:
            best = plan
    return best


@settings(max_examples=60, deadline=None)
@given(
    hw=SCAN_HARDWARE,
    ch=st.sampled_from([CH, LOSSLESS]),
    L0=st.floats(min_value=1.0, max_value=500.0),
    links=st.integers(min_value=1, max_value=40),
    past=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
)
@example(hw=HW, ch=CH, L0=125.0, links=12, past=0.0)  # an exact multiple
@example(hw=HW, ch=CH, L0=125.0, links=12, past=0.8)  # the chain above the target wins
@example(hw=HW, ch=CH, L0=125.0, links=12, past=0.2)  # the chain below the target wins
def test_fixed_link_metrics_equal_the_base_chain_extended(hw, ch, L0, links, past):
    # The plan's metrics, errors included, equal bit for bit those of the
    # base chain's metrics with the extension's delay and loss added after.
    L = L0 * (links + past)
    assert outcome(lambda: plan_fixed_link(hw, L, ch, L0)) == outcome(
        lambda: reference_fixed_link(hw, L, ch, L0))


# ---------------------------------------------------------------- crossover search

def reference_crossover(hw, ch, source_rate, tol=DEFAULT_TOL, bracket=(10.0, 1.0e4),
                        visited=None):
    """The bisection with the exact link-count scan, then the direct time,
    at every step; each distance evaluated is appended to ``visited``."""
    lo, hi = bracket

    def gap(L):
        if visited is not None:
            visited.append(L)
        repeater = _scan_link_counts(hw, L, ch, _link_count_limit(L, None), tol)[1]
        return repeater - direct_transmission_time(L, ch, source_rate)

    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise NoCrossoverInRange(
            f"no crossover in range [{lo}, {hi}] km at source rate {source_rate} Hz"
        )
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid == 0.0:
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossover_outcome(search, hw, ch, source_rate, bracket=(10.0, 1.0e4)):
    try:
        return search(hw, ch, source_rate, bracket=bracket)
    except (ConfigError, ModelError) as exc:
        return type(exc), str(exc)


def test_crossover_matches_reference_bisection():
    # The bounds decide most signs without a series; every step must still
    # go the way the exact scan sends it, so the km is the same bit for bit.
    rng = np.random.default_rng(3)
    outcomes = set()
    for _ in range(200):
        hw = HardwareParams(
            detector_eff=float(rng.uniform(0.3, 1.0)),
            memory_eff=float(rng.uniform(0.3, 1.0)),
            emission_prob=float(rng.uniform(0.3, 1.0)),
            mode_count=int(rng.integers(1, 1001)),
        )
        ch = ChannelParams(attenuation=float(rng.uniform(0.15, 0.3)))
        rate = float(10.0 ** rng.uniform(0.0, 12.0))
        expected = crossover_outcome(reference_crossover, hw, ch, rate)
        assert crossover_outcome(crossover_with_direct, hw, ch, rate) == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else float)
    assert outcomes == {float, NoCrossoverInRange}
    pinned = {1e9: 423.09967041015625, 1e10: 488.34197998046875, 1e11: 554.8037719726562}
    for rate, km in pinned.items():
        assert crossover_with_direct(HW, CH, rate) == reference_crossover(HW, CH, rate) == km


def test_crossover_matches_reference_bisection_on_hostile_hardware():
    # Lossy memories and dead detectors, where no round may succeed, fibers
    # from lossless to 1 dB/km, extreme signal speeds, source rates and
    # brackets: the outcome, the km's bits, the error class and its message
    # all match the bisection with the exact scan at every step.
    rng = np.random.default_rng(22)
    outcomes = set()
    for _ in range(150):
        hw = HardwareParams(
            detector_eff=0.0 if rng.random() < 0.05 else float(rng.uniform(0.3, 1.0)),
            memory_eff=float(10.0 ** rng.uniform(-200.0, 0.0) if rng.random() < 0.1
                             else rng.uniform(0.3, 1.0)),
            emission_prob=float(rng.uniform(0.3, 1.0)),
            mode_count=int(rng.integers(1, 1001)),
        )
        ch = ChannelParams(attenuation=float(rng.uniform(0.0, 1.0)),
                           signal_speed=float(10.0 ** rng.uniform(2.0, 9.0)))
        rate = float(10.0 ** rng.uniform(-5.0, 30.0))
        bracket = (10.0, 1.0e4)
        if rng.random() < 0.3:
            bracket = tuple(sorted(float(10.0 ** x) for x in rng.uniform(-3.0, 6.0, 2)))
        expected = crossover_outcome(reference_crossover, hw, ch, rate, bracket)
        found = crossover_outcome(crossover_with_direct, hw, ch, rate, bracket)
        if isinstance(expected, float):
            assert isinstance(found, float) and found.hex() == expected.hex()
        else:
            assert found == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else float)
    assert outcomes == {float, NoCrossoverInRange, UnreachableConfiguration, BeyondRepresentable}


def test_crossover_returns_a_distance_whose_gap_is_exactly_zero():
    # At a source rate whose direct time equals the exact scan's time at
    # L, the gap there is 0.0: an end of the bracket or a midpoint at L is
    # returned as it is.  The scan's time carries the bits of numpy's
    # transcendentals, which follow the SIMD dispatch, so the rate is found
    # here rather than pinned, from the first L that has one.
    def exact_rate(L):
        t = _scan_link_counts(HW, L, CH, _link_count_limit(L, None), DEFAULT_TOL)[1]
        rate = 10.0 ** (CH.attenuation * L / 10.0) / t
        for _ in range(64):
            direct = direct_transmission_time(L, CH, rate)
            if direct == t:
                return rate
            rate = math.nextafter(rate, math.inf if direct > t else 0.0)
        return None

    L = next(L for L in (488.0, 489.0, 490.0, 491.0, 492.0, 493.0) if exact_rate(L) is not None)
    rate = exact_rate(L)
    for bracket in ((L, 1.0e4), (1.0, L), (L - 8.0, L + 8.0)):  # lo, hi, the first midpoint
        assert crossover_with_direct(HW, CH, rate, bracket=bracket) == L


def test_crossover_reference_window():
    km = crossover_with_direct(HW, CH, 1e10)
    assert 400.0 <= km <= 550.0
    assert km == 488.34197998046875  # the bisection sees bit-identical times


def test_crossover_shrinks_with_better_hardware():
    base = crossover_with_direct(HW, CH, 1e10)
    perfect = crossover_with_direct(
        HardwareParams(detector_eff=1.0, memory_eff=1.0, emission_prob=1.0, mode_count=1000),
        CH, 1e10)
    assert perfect < base


def test_crossover_with_unbeatable_baseline_moves_out():
    base = crossover_with_direct(HW, CH, 1e10)
    fast_source = crossover_with_direct(HW, CH, 1e20)
    assert fast_source > base


def test_crossover_rejects_bad_bracket():
    # An infinite far end is rejected up front instead of overflowing the
    # default n_max.
    for bracket in ((100.0, 10.0), (10.0, math.inf), (10.0, 10**400)):
        with pytest.raises(ConfigError):
            crossover_with_direct(HW, CH, 1e10, bracket=bracket)


# ---------------------------------------------------------------- sweeps

def test_sweep_singleton_matches_direct_evaluation():
    spec = SweepSpec(swept_parameter="total_length", grid=(1600.0,), hw=HW, ch=CH)
    record = run_sweep(spec)[0]
    result = optimize_link_count(HW, 1600.0, CH)
    assert record.best_n == result.best_n
    assert record.metrics == result.metrics


def test_sweep_records_are_order_independent():
    grid = (400.0, 900.0, 1600.0)
    records = run_sweep(SweepSpec(swept_parameter="total_length", grid=grid, hw=HW, ch=CH))
    for value, record in zip(grid, records):
        single = run_sweep(SweepSpec(swept_parameter="total_length", grid=(value,),
                                     hw=HW, ch=CH))[0]
        assert record == single


def test_sweep_mode_count_robustness():
    spec = SweepSpec(swept_parameter="mode_count", grid=(10.0, 100.0),
                     hw=HW, ch=CH, total_length=1000.0)
    low, high = run_sweep(spec)
    assert low.metrics is not None and high.metrics is not None
    assert low.metrics.t_tot > high.metrics.t_tot
    assert low.metrics.t_tot < 1e3 * high.metrics.t_tot


def test_sweep_emission_prob_monotone():
    spec = SweepSpec(swept_parameter="emission_prob", grid=(0.3, 0.9),
                     hw=HW, ch=CH, total_length=1000.0)
    low, high = run_sweep(spec)
    assert math.isfinite(low.metrics.t_tot) and math.isfinite(high.metrics.t_tot)
    assert low.metrics.t_tot > high.metrics.t_tot


def test_sweep_records_errors_inline():
    # 100 km is shorter than one 125 km link: that point fails, the rest runs.
    spec = SweepSpec(swept_parameter="total_length", grid=(100.0, 500.0),
                     hw=HW, ch=CH, fixed_link_length=125.0)
    bad, good = run_sweep(spec)
    assert bad.metrics is None and bad.error
    assert good.metrics is not None and good.plan is not None


def test_sweep_direct_baseline_column():
    spec = SweepSpec(swept_parameter="total_length", grid=(250.0, 500.0),
                     hw=HW, ch=CH, source_rate=1e10)
    records = run_sweep(spec)
    assert records[1].direct_time == pytest.approx(1.0, rel=1e-12)


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(swept_parameter="bogus", grid=(1.0,), hw=HW, ch=CH)
    with pytest.raises(ConfigError):
        SweepSpec(swept_parameter="total_length", grid=(), hw=HW, ch=CH)
    with pytest.raises(ConfigError):
        SweepSpec(swept_parameter="total_length", grid=(2.0, 1.0), hw=HW, ch=CH)
    with pytest.raises(ConfigError):
        SweepSpec(swept_parameter="mode_count", grid=(10.0, 100.0), hw=HW, ch=CH)
    with pytest.raises(ConfigError):
        SweepSpec(swept_parameter="mode_count", grid=(10.5,), hw=HW, ch=CH,
                  total_length=500.0)


@pytest.mark.parametrize("swept, grid", [
    ("total_length", ("800", "1600")),
    ("total_length", "800"),
    ("emission_prob", (0.3, math.nan)),
    ("mode_count", (True, 2)),
    ("mode_count", (np.True_, 2)),
    ("mode_count", (0.0, 2.0)),
    ("mode_count", (10.0, math.inf)),
])
def test_sweep_spec_rejects_grid_values_that_are_no_numbers(swept, grid):
    # Checked as the swept field itself is, before any point runs.
    with pytest.raises(ConfigError, match=swept):
        SweepSpec(swept_parameter=swept, grid=grid, hw=HW, ch=CH,
                  total_length=None if swept == "total_length" else 1000.0)


def test_sweep_spec_holds_floats():
    spec = SweepSpec("mode_count", (np.int64(10), 20), HW, CH, total_length=np.float32(1000))
    assert spec.grid == (10.0, 20.0) and all(type(v) is float for v in spec.grid)
    record, = run_sweep(dataclasses.replace(spec, grid=(10.0,)))
    assert type(record.total_length) is float and record.total_length == 1000.0


@pytest.mark.parametrize("swept, grid, fixed", [
    ("emission_prob", (0.5,), -5.0),
    ("mode_count", (10.0,), 0.0),
    ("total_length", (-5.0, 100.0), None),
    ("total_length", (0.0, 100.0), None),
])
def test_sweep_spec_rejects_distances_at_or_below_zero(swept, grid, fixed):
    # A fixed and a swept distance get one check, before any point runs.
    with pytest.raises(ConfigError, match="total_length must be > 0"):
        SweepSpec(swept_parameter=swept, grid=grid, hw=HW, ch=CH, total_length=fixed,
                  source_rate=1e10)


def test_sweep_spec_is_frozen():
    spec = SweepSpec(swept_parameter="total_length", grid=(1.0, 2.0), hw=HW, ch=CH)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.grid = (3.0,)
