"""Scenario-level planning on top of the chain model.

Covers the questions an operator actually asks: how many links minimize
the distribution time for a given distance, what happens when station
spacing is frozen and the leftover distance is bridged with plain fiber,
where the repeater starts beating direct transmission, and how the
metrics behave across parameter sweeps.

Every sweep point is a pure function of its inputs, so grids can be
evaluated in any order or in parallel; records are returned in grid
order regardless.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

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
    ChainConfig,
    ChannelParams,
    HardwareParams,
    RepeaterMetrics,
    _attempts_mean,
    _attempts_mean_bounds,
    _attempts_variance,
    _chain_times,
    _check_finite,
    _check_tol,
    _metrics_from_moments,
    _multimode_prob,
    _round_success,
    _round_time,
    _single_mode_prob,
    _time_terms,
    _total_time,
    ec_prob,
    metrics,
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
# (r/2)^(n-1) <= 2^-(n-1) rounds to 0 from here on, so no round succeeds.
_UNDERFLOW_LINKS = 1076

_SWEEPABLE = ("total_length", "mode_count", "emission_prob")


def direct_transmission_time(L: float, ch: ChannelParams, source_rate: float) -> float:
    """Mean time in seconds until one photon from a ``source_rate`` Hz
    source survives ``L`` km of fiber: 10^(attenuation * L / 10) / rate."""
    _check_finite(L, "distance")
    _check_finite(source_rate, "source_rate")
    if L < 0.0:
        raise ConfigError(f"distance must be >= 0, got {L}")
    if source_rate <= 0.0:
        raise ConfigError(f"source_rate must be > 0, got {source_rate}")
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
    with lambda = -ln(1 - p), evaluates link counts in increasing order of
    that bound, and stops at the first bound above the runner-up time; the
    result equals that of evaluating every link count in the range.  The
    bounds of all link counts come from one numpy pass, whose 2^-30 margin
    also covers the few ulps by which numpy's transcendentals differ from
    ``math``'s (see :func:`_link_candidates`), and the winner's series is
    summed once, in the scan, for both the scan and ``metrics``.  The mean
    also has an upper bound, 1 + H_n / lambda, which the crossover search
    uses with the lower one to decide signs without a series.  ``runner_up_ratio`` is the
    second-best total time over the best one (infinite when only a single
    link count was feasible).
    """

    best_n: int
    metrics: RepeaterMetrics
    scanned_range: tuple[int, int]
    runner_up_ratio: float


def _default_n_max(total_length: float) -> int:
    return min(_MAX_SCAN_LINKS, max(1, math.ceil(total_length / _MIN_USEFUL_LINK_KM)))


def _reachable_link_counts(hw: HardwareParams, total_length: float, ch: ChannelParams,
                           n_max: int) -> int:
    """The largest n <= n_max for which a round with t_ec = 0, which takes
    t_cc / (p_es r), has a representable time, or 0.

    That time never falls as n grows: p_es = (r/2)^(n-1) at least halves
    with every link, so the scalar test below is monotone in n and a
    bisection finds the same n as testing n = 1, 2, ... in turn.  Since
    (r/2)^(n-1) <= 2^-(n-1), p_es underflows to 0 by n = 1076.
    """
    def reachable(n: int) -> bool:
        _, t_ec, t_cc, _, success = _time_terms(hw, total_length, total_length / n, n, ch, 0.0)
        try:
            _total_time(t_ec, t_cc, success)
        except (UnreachableConfiguration, BeyondRepresentable):
            return False
        return True

    lo, hi = 0, min(n_max, _UNDERFLOW_LINKS - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if reachable(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _link_candidates(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    n_max: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lower, n, upper)`` float arrays over the link counts in 1..n_max
    that may be feasible, sorted by ``(lower, n)``: ``lower`` and ``upper``
    bracket each link count's total time as :func:`metrics` computes it.

    One numpy pass computes, for every n up to the last one whose round
    time with t_ec = 0 is representable (see
    :func:`_reachable_link_counts`; no later link count is feasible), the
    EC probability p, H_n (a ``cumsum``, which adds in the order of a
    running sum), the bounds on the mean attempt count
    (:func:`~repeaterchain.model._attempts_mean_bounds`) and the total
    times at those bounds (:func:`~repeaterchain.model._time_terms`); the
    time formulas are monotone in the mean.  No ``ChainConfig``, scalar
    ``ec_prob`` or ``_chain_times`` is needed for that.

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
    """
    if total_length <= 0.0:
        raise ConfigError(f"total_length must be > 0, got {total_length}")
    ns = np.arange(1.0, _reachable_link_counts(hw, total_length, ch, n_max) + 1.0)
    with np.errstate(all="ignore"):
        p1 = _single_mode_prob(hw, total_length, ns, ch)
        harmonic = np.cumsum(1.0 / ns)
        means = np.array(_attempts_mean_bounds(_multimode_prob(hw, p1), harmonic))
        clock, t_ec, t_cc, _, success = _time_terms(hw, total_length, total_length / ns, ns,
                                                    ch, means)
        lower, upper = _round_time(t_ec, t_cc, success)
    normal = sys.float_info.min
    vouched = (p1 >= 2.0**-1000) & (clock >= normal) & (success >= 2.0 * normal)
    vouched &= np.isfinite(lower)
    if not vouched.all():
        keep = vouched.copy()
        for i in np.nonzero(~vouched)[0].tolist():
            bounds = _scalar_bounds(hw, total_length, i + 1, ch, float(harmonic[i]))
            if bounds is not None:
                keep[i] = True
                lower[i], upper[i] = bounds
        ns, lower, upper = ns[keep], lower[keep], upper[keep]
    order = np.lexsort((ns, lower))
    return lower[order], ns[order], upper[order]


def _scalar_bounds(hw: HardwareParams, total_length: float, n: int, ch: ChannelParams,
                   harmonic: float) -> tuple[float, float] | None:
    # The total times at the mean bounds from the scalar p, or None when n
    # is infeasible: p is 0 or the lower-bound time overflows.
    chain = ChainConfig(total_length=total_length, link_count=n)
    p = ec_prob(hw, chain, ch)
    if p == 0.0:
        return None
    lower_mean, upper_mean = _attempts_mean_bounds(p, harmonic)
    try:
        lower = _chain_times(hw, chain, ch, lower_mean)[-1]
    except BeyondRepresentable:
        return None
    try:
        return lower, _chain_times(hw, chain, ch, upper_mean)[-1]
    except BeyondRepresentable:
        return lower, math.inf


def _scan_link_counts(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    n_max: int,
    tol: float,
    candidates: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[int, float, float, float, float]:
    """``(best_n, best_t, second_t, p, mean)`` over link counts 1..n_max,
    ties going to fewer links; ``second_t`` is the smallest total time of
    every other link count, and ``p`` and ``mean`` are the winner's EC
    probability and mean attempt count.

    Times come from the mean attempt count alone, through the model code
    :func:`metrics` uses, so ``best_t`` equals ``metrics(...).t_tot`` bit
    for bit.  Link counts are walked in increasing ``(lower, n)`` order of
    the lower bounds on their total times from :func:`_link_candidates`
    (``candidates``, when the caller already has them); those come from
    numpy arrays, and their margin keeps them below the scalar times.  Only
    the link counts evaluated get a ``ChainConfig``, the scalar ``ec_prob``
    and a series.  The scan stops at the first lower bound above the
    runner-up: no link count left could place first or second, so the
    result equals that of evaluating every link count.
    """
    tol = _check_tol(tol)
    if candidates is None:
        candidates = _link_candidates(hw, total_length, ch, n_max)
    lower, ns, _ = candidates
    best_n, best_t, second_t, best_p, best_mean = 0, math.inf, math.inf, 0.0, 0.0
    for bound, n in zip(lower.tolist(), ns.tolist()):
        if bound > second_t:
            break
        n = int(n)
        chain = ChainConfig(total_length=total_length, link_count=n)
        p = ec_prob(hw, chain, ch)
        mean = _attempts_mean(p, n, tol)
        try:
            t = _chain_times(hw, chain, ch, mean)[-1]
        except BeyondRepresentable:
            continue
        if (t, n) < (best_t, best_n):
            second_t = min(second_t, best_t)
            best_n, best_t, best_p, best_mean = n, t, p, mean
        else:
            second_t = min(second_t, t)
    if best_n == 0:
        raise UnreachableConfiguration(
            f"no feasible link count in [1, {n_max}] for L = {total_length} km"
        )
    return best_n, best_t, second_t, best_p, best_mean


def optimize_link_count(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    n_max: int | None = None,
    tol: float = DEFAULT_TOL,
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
    _check_finite(total_length, "total_length")
    if n_max is None:
        n_max = _default_n_max(total_length)
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    best_n, best_t, second_t, p, mean = _scan_link_counts(hw, total_length, ch, n_max, tol)
    chain = ChainConfig(total_length=total_length, link_count=best_n)
    variance = _attempts_variance(p, best_n, tol, mean)
    # Raises first when t_cc = L / c underflowed and every time is 0 s.
    best_metrics = _metrics_from_moments(hw, chain, ch, p, mean, variance)
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

    def __post_init__(self) -> None:
        if self.side not in ("below", "above"):
            raise ConfigError(f"side must be 'below' or 'above', got {self.side!r}")
        if abs(self.extension) >= self.link_length:
            raise ModelError("fiber extension is longer than one link")


def _extended_metrics(
    ch: ChannelParams,
    base: RepeaterMetrics,
    success: float,
    extension_km: float,
) -> RepeaterMetrics:
    # The extension adds propagation delay to the controller signalling and
    # to the storage span, and one photon has to survive the extra fiber,
    # which scales the base chain's round success probability ``success``
    # by the fiber's transmission.
    extra = extension_km / ch.signal_speed
    transmission = 10.0 ** (-ch.attenuation * extension_km / 10.0)
    t_cc = base.t_cc + extra
    t_tot = _total_time(base.t_ec, t_cc, success * transmission)
    return replace(
        base,
        t_cc=t_cc,
        t_tot=t_tot,
        mem_time_avg=base.t_ec + t_cc,
    )


def plan_fixed_link(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    link_length: float = 125.0,
    tol: float = DEFAULT_TOL,
) -> FixedLinkPlan:
    """Plan a chain whose links all have the given fixed length.

    When the target distance is not a multiple of ``link_length``, both
    flanking node counts are evaluated and the residual distance is
    bridged with plain fiber; the side with the smaller resulting total
    time wins.
    """
    _check_finite(total_length, "total_length")
    _check_finite(link_length, "link_length")
    if link_length <= 0.0:
        raise ConfigError(f"link_length must be > 0, got {link_length}")
    if total_length < link_length:
        raise ConfigError(
            f"total_length {total_length} km is shorter than one link ({link_length} km)"
        )
    ratio = total_length / link_length
    if not math.isfinite(ratio):
        # More links than a float can count: (r/2)^(n-1) underflows long before.
        raise UnreachableConfiguration(
            "unreachable configuration: end-to-end success probability underflows"
        )
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-9 and nearest >= 1:
        candidates = [int(nearest)]
    else:
        candidates = [int(math.floor(ratio)), int(math.floor(ratio)) + 1]
    best: FixedLinkPlan | None = None
    for n in candidates:
        span = n * link_length
        extension = total_length - span
        base = metrics(hw, ChainConfig(total_length=span, link_count=n), ch, tol)
        adjusted = _extended_metrics(ch, base, _round_success(hw, n)[1], abs(extension))
        plan = FixedLinkPlan(
            link_length=link_length,
            node_count=n,
            node_span=span,
            extension=extension,
            side="below" if extension >= 0.0 else "above",
            metrics=adjusted,
        )
        if best is None or plan.metrics.t_tot < best.metrics.t_tot:
            best = plan
    assert best is not None
    return best


def crossover_with_direct(
    hw: HardwareParams,
    ch: ChannelParams,
    source_rate: float = 1.0e10,
    tol: float = DEFAULT_TOL,
    bracket: tuple[float, float] = (10.0, 1.0e4),
) -> float:
    """Distance in km at which the optimized chain and direct transmission
    take equally long, found by bisection to within 1 km.

    The bisection only reads the sign of the optimized chain's time minus
    the direct time at each distance.  Each step builds the link-count
    candidates once, in one numpy pass (see :func:`_link_candidates`;
    the bounds' 2^-30 margin keeps its times on the right side of the
    scalar times), whose times at the two-sided bounds on the mean attempt
    count often settle that sign without summing a series: the chain is
    faster when some link count's upper-bound time is below the direct
    time, and slower when every lower-bound time is above it while some
    upper-bound time is finite.  Only when the bounds straddle the direct time does
    the exact link-count scan run, on the same candidates, so every step,
    and the distance returned, is the same as with the exact scan at every
    step.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ConfigError(f"invalid bracket {bracket}")
    tol = _check_tol(tol)

    def gap(L: float) -> float:
        n_max = _default_n_max(L)
        try:
            direct = direct_transmission_time(L, ch, source_rate)
        except (ConfigError, ModelError):
            _scan_link_counts(hw, L, ch, n_max, tol)  # its error comes first
            raise
        candidates = _link_candidates(hw, L, ch, n_max)
        lower, _, upper = candidates
        if (upper < direct).any():
            return -1.0
        if np.isfinite(upper).any() and lower[0] > direct:
            return 1.0
        return _scan_link_counts(hw, L, ch, n_max, tol, candidates)[1] - direct

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
    swept parameter is not the distance, ``total_length`` fixes it.  With
    ``fixed_link_length`` set, each point is planned at that link length
    instead of optimizing the link count.  A ``source_rate`` adds the
    direct-transmission baseline time to every record.
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
        if self.swept_parameter not in _SWEEPABLE:
            raise ConfigError(
                f"swept_parameter must be one of {_SWEEPABLE}, got {self.swept_parameter!r}"
            )
        grid = tuple(float(v) for v in self.grid)
        if not grid:
            raise ConfigError("sweep grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        if self.swept_parameter != "total_length":
            if self.total_length is None:
                raise ConfigError("total_length is required when it is not the swept parameter")
            _check_finite(self.total_length, "total_length")
        if self.swept_parameter == "mode_count" and not all(
                math.isfinite(v) and int(v) == v for v in grid):
            raise ConfigError("mode_count grid values must be integers")


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


def _sweep_point(spec: SweepSpec, value: float, tol: float) -> SweepRecord:
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
        try:
            direct = direct_transmission_time(total_length, spec.ch, spec.source_rate)
        except BeyondRepresentable:
            direct = None  # baseline overflows long before the chain does
    try:
        if spec.fixed_link_length is not None:
            plan = plan_fixed_link(hw, total_length, spec.ch, spec.fixed_link_length, tol)
            return SweepRecord(
                value=value,
                metrics=plan.metrics,
                total_length=total_length,
                best_n=plan.node_count,
                plan=plan,
                direct_time=direct,
            )
        result = optimize_link_count(hw, total_length, spec.ch, spec.n_max, tol)
        return SweepRecord(
            value=value,
            metrics=result.metrics,
            total_length=total_length,
            best_n=result.best_n,
            direct_time=direct,
        )
    except (ModelError, ConfigError) as exc:
        return SweepRecord(
            value=value,
            metrics=None,
            total_length=total_length,
            direct_time=direct,
            error=str(exc),
        )


def run_sweep(spec: SweepSpec, tol: float = DEFAULT_TOL) -> list[SweepRecord]:
    """Evaluate the sweep point by point; infeasible points are recorded
    inline and the sweep continues."""
    return [_sweep_point(spec, value, tol) for value in spec.grid]
