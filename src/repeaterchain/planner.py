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
from dataclasses import dataclass, replace

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
    _chain_times,
    _check_finite,
    _check_tol,
    _round_success,
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
    mean also has an upper bound, 1 + H_n / lambda, which the crossover
    search uses with the lower one to decide signs without a series.
    ``runner_up_ratio`` is the second-best total time over the best one
    (infinite when only a single link count was feasible).
    """

    best_n: int
    metrics: RepeaterMetrics
    scanned_range: tuple[int, int]
    runner_up_ratio: float


def _default_n_max(total_length: float) -> int:
    return min(_MAX_SCAN_LINKS, max(1, math.ceil(total_length / _MIN_USEFUL_LINK_KM)))


def _link_candidates(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    n_max: int,
) -> list[tuple[float, int, ChainConfig, float, float]]:
    """``(lower, n, chain, p, upper_mean)`` for every link count in
    1..n_max that may be feasible, sorted by ``(lower, n)``.

    ``lower`` is a lower bound on the total time and ``upper_mean`` an
    upper bound on the mean attempt count (see
    :func:`~repeaterchain.model._attempts_mean_bounds`); the time formulas
    are monotone in the mean, so the times at the two bounds bracket the
    computed total time.  The list stops at the first n whose total time
    with t_ec = 0, t_cc / (p_es r), is not representable: that time never
    falls as n grows, so no later link count is feasible.  Link counts
    whose lower-bound time overflows are infeasible too and left out.
    """
    candidates = []
    harmonic = 0.0
    for n in range(1, n_max + 1):
        harmonic += 1.0 / n
        chain = ChainConfig(total_length=total_length, link_count=n)
        try:
            _chain_times(hw, chain, ch, 0.0)
        except (UnreachableConfiguration, BeyondRepresentable):
            break
        p = ec_prob(hw, chain, ch)
        if p == 0.0:
            continue
        lower_mean, upper_mean = _attempts_mean_bounds(p, harmonic)
        try:
            lower = _chain_times(hw, chain, ch, lower_mean)[-1]
        except BeyondRepresentable:
            continue  # t_tot overflows as well
        candidates.append((lower, n, chain, p, upper_mean))
    candidates.sort(key=lambda c: c[:2])
    return candidates


def _scan_link_counts(
    hw: HardwareParams,
    total_length: float,
    ch: ChannelParams,
    n_max: int,
    tol: float,
) -> tuple[int, float, float]:
    """``(best_n, best_t, second_t)`` over link counts 1..n_max, ties going
    to fewer links; ``second_t`` is the smallest total time of every other
    link count.

    Times come from the mean attempt count alone, through the model code
    :func:`metrics` uses, so ``best_t`` equals ``metrics(...).t_tot`` bit
    for bit.  Every link count that may be feasible gets a lower bound on
    its total time from max(1/p, H_n / lambda), the lower side of the
    two-sided bounds on the mean attempt count (see
    :func:`_link_candidates`), and link counts are evaluated in increasing
    ``(lower, n)`` order.  The scan stops at the first lower bound above
    the runner-up: no link count left could place first or second, so the
    result equals that of evaluating every link count.
    """
    tol = _check_tol(tol)
    best_n, best_t, second_t = 0, math.inf, math.inf
    for lower, n, chain, p, _ in _link_candidates(hw, total_length, ch, n_max):
        if lower > second_t:
            break
        try:
            t = _chain_times(hw, chain, ch, _attempts_mean(p, n, tol))[-1]
        except BeyondRepresentable:
            continue
        if (t, n) < (best_t, best_n):
            best_n, best_t, second_t = n, t, min(second_t, best_t)
        else:
            second_t = min(second_t, t)
    if best_n == 0:
        raise UnreachableConfiguration(
            f"no feasible link count in [1, {n_max}] for L = {total_length} km"
        )
    return best_n, best_t, second_t


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
    whole range searched, ``(1, n_max)``.
    """
    _check_finite(total_length, "total_length")
    if n_max is None:
        n_max = _default_n_max(total_length)
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    best_n, best_t, second_t = _scan_link_counts(hw, total_length, ch, n_max, tol)
    return OptimizationResult(
        best_n=best_n,
        metrics=metrics(hw, ChainConfig(total_length=total_length, link_count=best_n), ch, tol),
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
    the direct time at each distance.  The two-sided bounds on every link
    count's mean attempt count (see :func:`_link_candidates`) often settle
    that sign without summing a series: the chain is faster when some link
    count's time at its upper bound is below the direct time, and slower
    when every lower-bound time is above it while some link count is
    feasible.  Only when the bounds straddle the direct time is the exact
    link-count scan run, so every step, and the distance returned, is the
    same as with the exact scan at every step.
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
        feasible = False
        for _, _, chain, _, upper_mean in candidates:
            try:
                upper = _chain_times(hw, chain, ch, upper_mean)[-1]
            except BeyondRepresentable:
                continue
            if upper < direct:
                return -1.0
            feasible = True
        if feasible and candidates[0][0] > direct:
            return 1.0
        return _scan_link_counts(hw, L, ch, n_max, tol)[1] - direct

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
        if self.swept_parameter != "total_length" and self.total_length is None:
            raise ConfigError("total_length is required when it is not the swept parameter")
        if self.swept_parameter == "mode_count" and any(int(v) != v for v in grid):
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
