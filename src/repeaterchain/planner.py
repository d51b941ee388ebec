"""Scenario-level planning on top of the chain model.

Covers the questions an operator actually asks: how many links minimize
the distribution time for a given distance, what happens when station
spacing is frozen and the leftover distance is bridged with plain fiber,
where the repeater starts beating direct transmission, and how the
metrics behave across parameter sweeps.

Every sweep point is a pure function of its inputs, so grids can be
evaluated in any order or in parallel; records are returned in grid
order regardless.  Every series is summed at the model's ``DEFAULT_TOL``,
since no tolerance moves the attempt moments past their rounding.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import (
    BeyondRepresentable,
    ConfigError,
    ModelError,
    NoCrossoverInRange,
    UnreachableConfiguration,
)
from .model import (
    DEFAULT_TOL,
    ChannelParams,
    HardwareParams,
    RepeaterMetrics,
    _arg,
    _args,
    _attempts_mean_bounds,
    _attempts_moments,
    _ec_prob,
    _metrics,
    _multimode_prob,
    _round_terms,
    _round_time,
    _set_fields,
    _single_mode_prob,
    _total_time,
    _UNDERFLOW_LINKS,
)

__all__ = [
    "FixedLinkPlan",
    "OptimizationResult",
    "SweepRecord",
    "SweepSpec",
    "crossover_with_direct",
    "direct_transmission_time",
    "optimize_link_count",
    "plan_fixed_link",
    "run_sweep",
]

# Below ~25 km links the swap overhead 2^(n-1)/(eta^4)^n always dominates,
# so the scan never needs finer splits than this.
_MIN_USEFUL_LINK_KM = 25.0
_MAX_SCAN_LINKS = 128

# Swept field -> the kind of its grid values.
_SWEEPABLE = {"total_length": "positive real", "mode_count": "count",
              "emission_prob": "probability"}


def direct_transmission_time(L: float, ch: ChannelParams, source_rate: float) -> float:
    """Mean time in seconds until one photon from a ``source_rate`` Hz
    source survives ``L`` km of fiber: 10^(attenuation * L / 10) / rate."""
    L, ch = _arg("non-negative real", L, "distance"), _arg("ch", ch)
    return _direct_time(L, ch, _arg("positive real", source_rate, "source_rate"))


def _direct_time(L: float, ch: ChannelParams, source_rate: float) -> float:
    # direct_transmission_time of converted arguments.
    try:
        t = 10.0 ** (ch.attenuation * L / 10.0) / source_rate
    except OverflowError:
        raise BeyondRepresentable("direct transmission time beyond representable") from None
    if not math.isfinite(t):
        raise BeyondRepresentable("direct transmission time beyond representable")
    return t


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a link-count search over ``scanned_range``.

    The search bounds every link count's total time from below without
    summing a series, from a mean attempt count of max(1/p, H_n / lambda)
    with lambda = -ln(1 - p), and evaluates link counts in increasing order
    of that bound.  :func:`optimize_link_count` stops at the first bound
    above the runner-up time, since it reports ``runner_up_ratio``; sweeps
    and the crossover search read only the winner and stop at the first
    bound above the best time so far.  Either way the winner equals that of
    evaluating every link count in the range.  The bounds come from one
    numpy pass over every link count of every point the caller reads (a
    sweep's grid, or the one distance of a scan or crossover step), whose
    2^-30 margin also covers the rounding of H_n by a running sum, at most
    about 1077 ulps, and the few ulps by which numpy's transcendentals
    differ from ``math``'s (see :func:`_link_candidates`), and the winner's
    series is summed once, in the scan, for both the scan and ``metrics``.
    The mean also has an upper bound, 1 + H_n / lambda, which the crossover
    search uses with the lower one to decide signs without a series.
    ``runner_up_ratio`` is the second-best total time over the best one
    (infinite when only a single link count was feasible).
    """

    best_n: int
    metrics: RepeaterMetrics
    scanned_range: tuple[int, int]
    runner_up_ratio: float


_LINK_TABLE = None


def _link_table():
    """``(n, H_n)`` for n = 1 .. 1077 as read-only float64 arrays, built on
    first use, as the model's block indices are.  1077 links is the widest
    candidate row: r/2 <= 1/2, so p_es = (r/2)^(n-1) rounds to 0 past
    2 + (``_UNDERFLOW_LINKS`` - 1) links on any hardware.  H_n is a
    ``cumsum`` of 1/n, which adds in the order of a running sum, so a
    prefix of either array equals the same arrays built to that length bit
    for bit."""
    global _LINK_TABLE
    if _LINK_TABLE is None:
        ns = np.arange(1.0, _UNDERFLOW_LINKS + 2.0)
        harmonic = np.cumsum(1.0 / ns)
        ns.flags.writeable = harmonic.flags.writeable = False
        _LINK_TABLE = ns, harmonic
    return _LINK_TABLE


def _link_candidates(
    rows: list[tuple[HardwareParams, float, int]],
    ch: ChannelParams,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(lower, n, upper)`` float arrays for each row ``(hw, total_length,
    n_max)``, over the link counts in 1..n_max that may be feasible, in
    increasing n: ``lower`` and ``upper`` bracket each link count's total
    time as :func:`metrics` computes it.  A sweep passes its whole grid;
    the link-count scan and each crossover step pass the one distance
    they read.

    A row's width is n_max or, when smaller, a bound from its hardware
    alone: p_es = (r/2)^(n-1) rounds to 0 once (n - 1) log2(2/r) passes
    ``_UNDERFLOW_LINKS - 1``, and no round of a later link count can
    succeed; r/2 is p_es at n = 2.  One numpy pass over a (row x n) array
    computes, for every n up to the widest row's width, the EC probability
    p, the bounds on the mean attempt count
    (:func:`~repeaterchain.model._attempts_mean_bounds`) and the total times
    at each bound (:func:`~repeaterchain.model._round_terms` and
    ``_round_time``), with the distances and any differing hardware as
    columns; the time formulas are monotone in the mean.  n and H_n are
    prefixes of :func:`_link_table`, built once per process.  No scalar
    ``ec_prob`` or ``_total_time`` is needed for that, and a single row
    whose every link count the arrays vouch for is returned as the pass
    computed it.

    numpy's transcendentals may differ from ``math``'s by a few ulps, so an
    array p stands for the scalar p within a few dozen ulps, far less than
    2^-43 relative, and an array p_es for the scalar one within a few ulps.
    The 2^-30 margin of the mean bounds covers both.  Within 2^-43 of p,
    lambda moves by at most about 260 * 2^-43 relative wherever H_n / lambda
    is the larger lower bound (there lambda <= H_1076 < 7.6); where lambda
    is large, the upper bound 1 + H_n / lambda exceeds the mean by far more
    than the change.  So both bounds keep a relative slack of at least
    2^-32.  The mean is at least 1 and t_cc = n * clock, so that slack is
    at least 2^-32 / (n + 1) of the time, far above the ulps in p_es.  The
    argument needs normal numbers: a link count whose single-mode probability is
    below 2^-1000, whose clock or round success is not a normal float, or
    whose lower-bound time is not finite, is checked the scalar way
    instead, and left out only when the scalar p is 0 or the lower-bound
    time overflows (then the total time does as well).

    The scalar pass ends the row at the first link count whose round
    cannot succeed with a representable time: the test :func:`metrics`
    makes before the moments, ``_total_time`` at a mean of 0.  That time
    never falls as n grows, so no later count is feasible either.  Every
    count the arrays vouch for passes that test, since its round success
    is normal and its lower-bound time, at least the time at a mean of 0,
    is finite; so all of them come before the row's end.
    """
    widths = []
    for hw, total_length, n_max in rows:
        half = _round_terms(hw, total_length, 2, ch)[2]  # p_es = r/2 at n = 2
        last = 2 + int((_UNDERFLOW_LINKS - 1) / -math.log2(half)) if half else 1
        widths.append(min(n_max, last))
    ns, harmonic = (column[:max(widths)] for column in _link_table())
    # One row keeps its distance a float and its arrays 1-D, as cheap as
    # a scalar build; more rows take it as a column.
    lengths = rows[0][1] if len(rows) == 1 else np.array([L for _, L, _ in rows])[:, None]
    columns = rows[0][0]  # hardware shared by every row broadcasts as it is
    if any(hw is not columns for hw, _, _ in rows):
        table = np.array([(hw.detector_eff, hw.memory_eff, hw.emission_prob, hw.mode_count)
                          for hw, _, _ in rows], dtype=np.float64)
        eta_d, eta_m, rho, modes = table.T[:, :, None]  # one column per field
        columns = SimpleNamespace(detector_eff=eta_d, memory_eff=eta_m, emission_prob=rho,
                                  mode_count=modes)
    with np.errstate(all="ignore"):
        p1 = _single_mode_prob(columns, lengths, ns, ch)
        lower_mean, upper_mean = _attempts_mean_bounds(_multimode_prob(columns, p1), harmonic)
        clock, t_cc, _, success = _round_terms(columns, lengths, ns, ch)
        lower = _round_time(clock, t_cc, success, lower_mean)
        upper = _round_time(clock, t_cc, success, upper_mean)
    normal = sys.float_info.min
    vouched = (p1 >= 2.0**-1000) & (clock >= normal) & (success >= 2.0 * normal)
    vouched &= np.isfinite(lower)
    if len(rows) == 1 and vouched.all():
        return [(lower, ns, upper)]
    lower, upper, vouched = (a.reshape(len(rows), ns.size) for a in (lower, upper, vouched))
    if min(widths) < ns.size:
        vouched |= ns > np.array(widths)[:, None]  # no row reads past its width
    out = []
    for r, ((hw, total_length, _), width, whole) in enumerate(
            zip(rows, widths, vouched.all(axis=1).tolist())):
        row = lower[r, :width], ns[:width], upper[r, :width]
        if not whole:
            keep = vouched[r, :width]
            for i in np.nonzero(~keep)[0].tolist():
                clock_n, t_cc_n, _, success_n = _round_terms(hw, total_length, i + 1, ch)
                try:
                    _total_time(clock_n, t_cc_n, success_n, 0.0)
                except (UnreachableConfiguration, BeyondRepresentable):
                    keep = keep[:i]  # the row ends here
                    break
                bounds = _scalar_bounds(hw, total_length, i + 1, ch)
                if bounds is not None:
                    keep[i] = True
                    row[0][i], row[2][i] = bounds
            row = tuple(values[:keep.size][keep] for values in row)
        out.append(row)
    return out


def _scalar_bounds(hw: HardwareParams, total_length: float, n: int,
                   ch: ChannelParams) -> tuple[float, float] | None:
    """The total times at the mean bounds of n links, from the scalar p and
    the H_n of :func:`_link_table`, or None when n is infeasible: p is 0
    or the lower-bound time overflows."""
    p = _ec_prob(hw, total_length, n, ch)
    if p == 0.0:
        return None
    lower_mean, upper_mean = _attempts_mean_bounds(p, float(_link_table()[1][n - 1]))
    clock, t_cc, _, success = _round_terms(hw, total_length, n, ch)
    try:
        lower = _total_time(clock, t_cc, success, lower_mean)
    except BeyondRepresentable:
        return None
    try:
        return lower, _total_time(clock, t_cc, success, upper_mean)
    except BeyondRepresentable:
        return lower, math.inf


def _scan_link_counts(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    n_max: int,
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    runner_up: bool = False,
) -> tuple[int, float, float, tuple[float, float]]:
    """``(best_n, best_t, second_t, moments)`` over link counts 1..n_max,
    ties going to fewer links; ``second_t`` is the smallest total time of
    every other link count when ``runner_up`` is set and nan otherwise, and
    ``moments`` are the mean and variance of the winner's attempt count.

    Times come from the mean attempt count alone, through the model code
    :func:`metrics` uses (``_round_terms`` and ``_total_time``), so
    ``best_t`` equals ``metrics(...).t_tot`` bit for bit.  Link counts are
    walked in increasing ``(lower, n)`` order of the lower bounds on their
    total times from :func:`_link_candidates` (``candidates``, the caller's
    row when it built its points in one pass), sorted here; those come from
    numpy arrays, and their margin keeps them below the scalar times.  Only
    the link counts evaluated get the scalar ``ec_prob`` and a series, which
    gives both moments, each from the chain's two numbers
    ``(total_length, n)``.  The scan stops at the first lower bound above
    the best time so far: no link count left could beat or tie the winner,
    and a bound equal to it is still evaluated, so ties still go to fewer
    links.  With ``runner_up``, which only :func:`optimize_link_count` sets
    because it reports ``runner_up_ratio``, the scan stops at the first
    lower bound above the runner-up instead: no link count left could place
    first or second.  Either way the result equals that of evaluating every
    link count.
    """
    if candidates is None:
        candidates = _link_candidates([(hw, total_length, n_max)], ch)[0]
    lower, ns, _ = candidates
    order = np.lexsort((ns, lower))
    best_n, best_t, second_t, best_moments = 0, math.inf, math.inf, (0.0, 0.0)
    for bound, n in zip(lower[order].tolist(), ns[order].tolist()):
        if bound > (second_t if runner_up else best_t):
            break
        n = int(n)
        p = _ec_prob(hw, total_length, n, ch)
        moments = _attempts_moments(p, n, DEFAULT_TOL)
        clock, t_cc, _, success = _round_terms(hw, total_length, n, ch)
        try:
            t = _total_time(clock, t_cc, success, moments[0])
        except BeyondRepresentable:
            continue
        if (t, n) < (best_t, best_n):
            second_t = min(second_t, best_t)
            best_n, best_t, best_moments = n, t, moments
        else:
            second_t = min(second_t, t)
    if best_n == 0:
        raise UnreachableConfiguration(
            f"no feasible link count in [1, {n_max}] for L = {total_length} km"
        )
    return best_n, best_t, second_t if runner_up else math.nan, best_moments


def optimize_link_count(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    n_max: int | None = None,
) -> OptimizationResult:
    """Return the link count in 1..n_max with the smallest total
    distribution time (ties go to fewer links).

    Link counts are evaluated in increasing order of a lower bound on
    their total time, and the scan stops at the first bound above the
    runner-up (see :class:`OptimizationResult`); ``scanned_range`` is the
    whole range searched, ``(1, n_max)``.  The metrics equal
    ``metrics(...)`` at the best link count bit for bit.  Raises
    :class:`BeyondRepresentable` when the best total time underflows to 0,
    where no two link counts can be told apart.
    """
    hw, ch = _arg("hw", hw), _arg("ch", ch)
    total_length = _arg("positive real", total_length, "total_length")
    return _optimize(hw, total_length, ch, n_max, runner_up=True)


def _link_count_limit(total_length: float, n_max) -> int:
    # The n_max a scan at ``total_length`` searches up to, as an int.
    if n_max is None:
        return min(_MAX_SCAN_LINKS, max(1, math.ceil(total_length / _MIN_USEFUL_LINK_KM)))
    return _arg("n_max", n_max)


def _optimize(hw: HardwareParams, total_length: float, ch: ChannelParams, n_max: int | None,
              runner_up: bool = False,
              candidates: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
              ) -> OptimizationResult:
    # optimize_link_count of converted arguments but ``n_max``; without
    # ``runner_up`` the scan stops at the winner and ``runner_up_ratio`` is nan.
    n_max = _link_count_limit(total_length, n_max)
    best_n, best_t, second_t, moments = _scan_link_counts(hw, total_length, ch, n_max,
                                                          candidates, runner_up)
    # Raises first when t_cc = L / c underflowed and every time is 0 s.
    best_metrics = _metrics(hw, total_length, best_n, ch, DEFAULT_TOL, moments=moments)
    return OptimizationResult(
        best_n=best_n,
        metrics=best_metrics,
        scanned_range=(1, n_max),
        runner_up_ratio=second_t / best_t,
    )


@dataclass(frozen=True)
class FixedLinkPlan:
    """A chain built from fixed-length links plus a passive fiber extension.

    ``node_count`` is the number of elementary links; the far node sits at
    ``node_span = node_count * link_length`` km.  ``extension`` is the
    signed leftover distance to the target: positive when the chain stops
    short of it (``side = "below"``) and negative when the chain overshoots
    and the photon travels back (``side = "above"``).  ``metrics`` already
    includes the extension's transmission loss and propagation delay.
    """

    link_length: float
    node_count: int
    node_span: float
    extension: float
    side: str
    metrics: RepeaterMetrics


def plan_fixed_link(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    link_length: float = 125.0,
) -> FixedLinkPlan:
    """Plan a chain whose links all have the given fixed length.

    When the target distance is not a multiple of ``link_length``, both
    flanking node counts are evaluated and the residual distance is
    bridged with plain fiber; the side with the smaller resulting total
    time wins.  A node count whose span is past the float range is no
    candidate; with no candidate left, no round can succeed either, and
    it raises :class:`UnreachableConfiguration`.
    """
    hw, ch = _arg("hw", hw), _arg("ch", ch)
    total_length = _arg("real", total_length, "total_length")
    link_length = _arg("positive real", link_length, "link_length")
    if total_length < link_length:
        raise ConfigError(
            f"total_length {total_length} km is shorter than one link ({link_length} km)"
        )
    ratio = total_length / link_length
    if math.isfinite(ratio):
        nearest = round(ratio)
        if abs(ratio - nearest) < 1e-9 and nearest >= 1:
            candidates = [nearest]
        else:
            candidates = [math.floor(ratio), math.floor(ratio) + 1]
        # A node count whose span overflows is no plan.  The floor of a ratio
        # that is no whole number never overflows; a snapped count can, when the
        # ratio rounded up to it, and then the count below takes its place.
        candidates = [n for n in candidates if n * link_length < math.inf] or [nearest - 1]
    if not (math.isfinite(ratio) and candidates[0] * link_length < math.inf):
        # More links than a float can count or span: (r/2)^(n-1) underflows
        # long before.
        raise UnreachableConfiguration(
            "unreachable configuration: end-to-end success probability underflows"
        )
    plans = []
    for n in candidates:
        span = n * link_length
        extension = total_length - span
        plans.append(FixedLinkPlan(
            link_length=link_length,
            node_count=n,
            node_span=span,
            extension=extension,
            side="below" if extension >= 0.0 else "above",
            metrics=_metrics(hw, span, n, ch, DEFAULT_TOL, abs(extension)),
        ))
    # The first of equal times wins, so a tie goes to the plan below the target.
    return min(plans, key=lambda plan: plan.metrics.t_tot)


def crossover_with_direct(
    hw: HardwareParams,
    ch: ChannelParams,
    source_rate: float = 1.0e10,
    bracket: tuple[float, float] = (10.0, 1.0e4),
) -> float:
    """Distance in km at which the optimized chain and direct transmission
    take equally long, found by bisection to within 1 km.

    The bisection only reads the sign of the optimized chain's time minus
    the direct time at each distance, and bounds on the mean attempt count
    often settle it without summing a series (their 2^-30 margin keeps
    their times on the right side of the exact times).  Each step first
    tries the link count with the smallest upper-bound time in the last
    row read: when :func:`_scalar_bounds` puts its upper-bound time below
    the direct time, the chain is faster.  Only a link count from a row
    already read is tried: its rounds can succeed at any distance, so
    where no round can, the scan's error still comes first.  Otherwise the
    step builds its own one-row :func:`_link_candidates`: the chain is
    faster when the smallest upper-bound time is below the direct time,
    and slower when the smallest lower-bound time is above it while some
    upper-bound time is finite.  Only when the bounds straddle the direct
    time does the exact link-count scan run, on that row and only up to
    the winner (see :func:`_scan_link_counts`), so every step, and the
    distance returned, is the same as with the exact scan at every step.
    """
    hw, ch = _arg("hw", hw), _arg("ch", ch)
    source_rate = _arg("positive real", source_rate, "source_rate")
    ends = _args("positive real", bracket, "bracket")
    if len(ends) != 2 or not ends[0] < ends[1]:
        raise ConfigError(f"invalid bracket {bracket}")
    lo, hi = ends
    favourite = 0  # the link count with the smallest upper-bound time in the last row

    def gap(L: float) -> float:
        nonlocal favourite
        n_max = _link_count_limit(L, None)
        try:
            direct = _direct_time(L, ch, source_rate)
        except BeyondRepresentable:
            _scan_link_counts(hw, L, ch, n_max)  # its error comes first
            raise
        if 0 < favourite <= n_max:
            bounds = _scalar_bounds(hw, L, favourite, ch)
            if bounds is not None and bounds[1] < direct:
                return -1.0
        candidates = _link_candidates([(hw, L, n_max)], ch)[0]
        lower, ns, upper = candidates
        if lower.size:  # else the scan raises
            i = int(upper.argmin())
            favourite = int(ns[i])
            if upper[i] < direct:
                return -1.0
            if upper[i] < math.inf and lower.min() > direct:
                return 1.0
        return _scan_link_counts(hw, L, ch, n_max, candidates)[1] - direct

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


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional parameter sweep.

    ``swept_parameter`` is one of ``total_length`` (km), ``mode_count``,
    or ``emission_prob``; ``grid`` must be strictly increasing.  When the
    swept parameter is not the distance, ``total_length`` fixes it; every
    distance, fixed or swept, must be finite and above 0 km.  With
    ``fixed_link_length`` set, each point is planned at that link length
    instead of optimizing the link count.  A ``source_rate`` adds the
    direct-transmission baseline time to every record.  Each point checks
    and records ``fixed_link_length`` and ``n_max`` as it uses them.
    """

    swept_parameter: str
    grid: tuple[float, ...]
    hw: HardwareParams
    ch: ChannelParams
    total_length: float | None = None
    fixed_link_length: float | None = None
    n_max: int | None = None
    source_rate: float | None = None

    def __post_init__(self) -> None:
        swept = self.swept_parameter
        if not (isinstance(swept, str) and swept in _SWEEPABLE):
            raise ConfigError(
                f"swept_parameter must be one of {tuple(_SWEEPABLE)}, got {swept!r}")
        grid = _args("real", self.grid, swept)
        if not grid:
            raise ConfigError("sweep grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        if swept != "total_length":
            if self.total_length is None:
                raise ConfigError("total_length is required when it is not the swept parameter")
            _set_fields(self, total_length="positive real")
        for value in grid:  # each value as the swept field takes it, kept a float
            _arg(_SWEEPABLE[swept], value, swept)
        _set_fields(self, hw="hw", ch="ch")
        if self.source_rate is not None:
            _set_fields(self, source_rate="positive real")


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep; ``error`` is set instead of ``metrics``
    when the point is infeasible."""

    value: float
    metrics: RepeaterMetrics | None
    total_length: float
    best_n: int | None = None
    plan: FixedLinkPlan | None = None
    direct_time: float | None = None
    error: str | None = None


def _sweep_inputs(spec: SweepSpec, value: float) -> tuple[HardwareParams, float, float | None]:
    # The hardware, distance and direct-transmission time of one grid point.
    hw = spec.hw
    if spec.swept_parameter == "total_length":
        total_length = value
    else:
        total_length = spec.total_length  # type: ignore[assignment]
        if spec.swept_parameter == "mode_count":
            hw = replace(hw, mode_count=int(value))
        else:
            hw = replace(hw, emission_prob=value)
    direct = None
    if spec.source_rate is not None:
        with suppress(BeyondRepresentable):  # baseline overflows long before the chain does
            direct = _direct_time(total_length, spec.ch, spec.source_rate)
    return hw, total_length, direct


def _sweep_point(spec: SweepSpec, value: float, hw: HardwareParams, total_length: float,
                 direct: float | None,
                 candidates: tuple[np.ndarray, np.ndarray, np.ndarray] | None) -> SweepRecord:
    try:
        if spec.fixed_link_length is not None:
            plan = plan_fixed_link(hw, total_length, spec.ch, spec.fixed_link_length)
            found = dict(metrics=plan.metrics, best_n=plan.node_count, plan=plan)
        else:
            result = _optimize(hw, total_length, spec.ch, spec.n_max, candidates=candidates)
            found = dict(metrics=result.metrics, best_n=result.best_n)
    except (ModelError, ConfigError) as exc:
        found = dict(metrics=None, error=str(exc))
    return SweepRecord(value=value, total_length=total_length, direct_time=direct, **found)


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep point by point; infeasible points are recorded
    inline and the sweep continues.  An optimized sweep builds the
    link-count candidates of every point in one pass first (see
    :func:`_link_candidates`), unless its ``n_max`` is invalid, which each
    point then records."""
    spec = _arg("spec", spec)
    points = [(value, *_sweep_inputs(spec, value)) for value in spec.grid]
    candidates = [None] * len(points)
    if spec.fixed_link_length is None:
        try:
            rows = [(hw, L, _link_count_limit(L, spec.n_max)) for _, hw, L, _ in points]
        except ConfigError:
            pass
        else:
            candidates = _link_candidates(rows, spec.ch)
    return [_sweep_point(spec, *point, row) for point, row in zip(points, candidates)]
