"""Closed-form performance model of a semihierarchical repeater chain.

A chain of total length ``L`` km is split into ``n`` elementary links.
Every link repeatedly attempts heralded entanglement creation (EC), each
attempt succeeding with probability ``p`` set by fiber loss over half a
link, detector efficiency, source emission probability, and the number of
parallel modes.  Once every link has succeeded, a central controller
triggers all Bell-state measurements (entanglement swapping, ES) at once;
if any swap or the final retrieval fails, the whole round restarts.

This module evaluates the resulting quantities deterministically:

* per-attempt EC probability (single mode and multimode),
* the waiting-time distribution of the slowest of ``n`` links (a maximum
  of independent geometric variables; ``n = 1`` is a single link),
* the expected number of attempts until all links are ready,
* chain-level metrics: EC time, classical-signalling time, swap success
  probability, average distribution time, and the mean and standard
  deviation of the memory storage time per round.

mpmath is imported only when the closed-form route is taken.

Units are km, seconds, and dB/km throughout; probabilities are
dimensionless.  All functions are pure and all returned objects immutable,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BeyondRepresentable,
    ConfigError,
    ModelError,
    NonTerminatingProcess,
    UnreachableConfiguration,
)

__all__ = [
    "DEFAULT_TOL",
    "AttemptDistribution",
    "ChainConfig",
    "ChannelParams",
    "HardwareParams",
    "RepeaterMetrics",
    "combined_attempt_dist",
    "ec_prob",
    "ec_prob_single_mode",
    "expected_max_attempts",
    "metrics",
]

#: Default relative truncation tolerance for all infinite series.
DEFAULT_TOL = 1e-12

# Series with more terms than this are evaluated through the
# arbitrary-precision closed form instead of explicit summation.
_MAX_EXPLICIT_TERMS = 5_000_000

# Hard cap on materialized distribution arrays (~256 MB of float64).
_MAX_DIST_TERMS = 1 << 25

_CHUNK = 1 << 16

# Survival terms evaluated at once: 64 KiB per float64 temporary, below
# glibc's 128 KiB mmap threshold and well inside L2, so summing a chunk
# neither maps fresh pages nor leaves the cache.
_BLOCK = 1 << 13


def _check_prob(value: float, name: str) -> float:
    if not (0.0 <= value <= 1.0):
        raise ConfigError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def _check_finite(value: float, name: str) -> None:
    # Range comparisons are false for NaN and let infinities through; an
    # int beyond the float range cannot enter the float arithmetic either.
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value}")


def _check_tol(tol: float) -> float:
    if not (0.0 < tol < 1.0):
        raise ConfigError(f"tol must be in (0, 1), got {tol}")
    return float(tol)


@dataclass(frozen=True)
class ChannelParams:
    """Fiber properties: attenuation in dB/km and signal speed in km/s."""

    attenuation: float = 0.2
    signal_speed: float = 2.0e5

    def __post_init__(self) -> None:
        _check_finite(self.attenuation, "attenuation")
        _check_finite(self.signal_speed, "signal_speed")
        if self.attenuation < 0.0:
            raise ConfigError(f"attenuation must be >= 0, got {self.attenuation}")
        if self.signal_speed <= 0.0:
            raise ConfigError(f"signal_speed must be > 0, got {self.signal_speed}")


@dataclass(frozen=True)
class HardwareParams:
    """Station hardware: detector/memory efficiencies, source emission
    probability, and the number of parallel modes per attempt."""

    detector_eff: float = 0.9
    memory_eff: float = 0.9
    emission_prob: float = 0.9
    mode_count: int = 100

    def __post_init__(self) -> None:
        _check_prob(self.detector_eff, "detector_eff")
        _check_prob(self.memory_eff, "memory_eff")
        _check_prob(self.emission_prob, "emission_prob")
        _check_finite(self.mode_count, "mode_count")
        if int(self.mode_count) != self.mode_count or self.mode_count < 1:
            raise ConfigError(f"mode_count must be a positive integer, got {self.mode_count}")


@dataclass(frozen=True)
class ChainConfig:
    """Total distance in km, number of elementary links, and the derived
    per-link length ``link_length = total_length / link_count``."""

    total_length: float
    link_count: int
    link_length: float = field(default=0.0)

    def __post_init__(self) -> None:
        _check_finite(self.total_length, "total_length")
        _check_finite(self.link_count, "link_count")
        if self.total_length <= 0.0:
            raise ConfigError(f"total_length must be > 0, got {self.total_length}")
        if int(self.link_count) != self.link_count or self.link_count < 1:
            raise ConfigError(f"link_count must be a positive integer, got {self.link_count}")
        if self.link_length == 0.0:
            object.__setattr__(self, "link_length", self.total_length / self.link_count)
        else:
            expected = self.total_length / self.link_count
            if not math.isclose(self.link_length, expected, rel_tol=1e-12):
                raise ConfigError(
                    f"link_length {self.link_length} is inconsistent with "
                    f"total_length / link_count = {expected}"
                )


@dataclass(frozen=True)
class AttemptDistribution:
    """Truncated probability distribution over attempt numbers k >= 1.

    ``probs[i]`` is the probability that success happens at attempt
    ``i + 1``; ``tail_mass`` is the probability left beyond the truncation
    point, so ``sum(probs) + tail_mass == 1`` up to rounding.
    """

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if probs.size == 0:
            raise ModelError("empty attempt distribution")
        if float(probs.min()) < 0.0 or float(probs.max()) > 1.0 + 1e-12:
            raise ModelError("attempt distribution entries outside [0, 1]")
        total = float(probs.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-10:
            raise ModelError(f"attempt distribution not normalized: sum = {total}")

    @property
    def attempt_numbers(self) -> np.ndarray:
        """Attempt indices k = 1 .. len(probs)."""
        return np.arange(1, self.probs.size + 1)

    def expectation(self) -> float:
        """Mean attempt number of the truncated distribution (tail ignored)."""
        return float(np.dot(self.attempt_numbers, self.probs))


@dataclass(frozen=True)
class RepeaterMetrics:
    """All chain-level figures of merit for one configuration.

    Times in seconds: ``t_ec`` (expected entanglement-creation time over
    all links), ``t_cc`` (classical signalling to and from the central
    controller), ``t_tot`` (average end-to-end distribution time), and the
    per-round memory storage time statistics.  ``mem_time_avg`` equals
    ``t_ec + t_cc`` by construction.
    """

    ec_prob: float
    expected_attempts: float
    t_ec: float
    t_cc: float
    p_es: float
    t_tot: float
    mem_time_avg: float
    mem_time_std: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_es <= 1.0):
            raise ModelError(f"p_es must be in (0, 1], got {self.p_es}")
        for name in ("t_ec", "t_cc", "t_tot", "mem_time_avg", "mem_time_std"):
            if getattr(self, name) < 0.0:
                raise ModelError(f"{name} must be >= 0")


def ec_prob_single_mode(hw: HardwareParams, chain: ChainConfig, ch: ChannelParams) -> float:
    """Per-attempt success probability of the midpoint Bell-state measurement
    for a single optical mode.

    Both photons of a link survive half the link length each, so the loss
    exponent uses half the per-link distance; the 1/2 prefactor is the
    linear-optics BSM ceiling.  The result is in [0, 1/2].
    """
    return _single_mode_prob(hw, chain.total_length, chain.link_count, ch)


def ec_prob(hw: HardwareParams, chain: ChainConfig, ch: ChannelParams) -> float:
    """Per-attempt EC probability with ``mode_count`` parallel modes:
    the chance that at least one mode yields a successful BSM."""
    return _multimode_prob(hw, ec_prob_single_mode(hw, chain, ch))


def _single_mode_prob(hw: HardwareParams, total_length, link_count, ch: ChannelParams):
    # Elementwise: ``link_count`` may be an array of link counts.
    exponent = -ch.attenuation * total_length / (20.0 * link_count)
    amplitude = hw.detector_eff * hw.emission_prob * 10.0**exponent
    return 0.5 * amplitude * amplitude


def _multimode_prob(hw: HardwareParams, p1):
    # Elementwise in the single-mode probability; p1 = 0 gives 0.  Floats go
    # through ``math`` and arrays through numpy, whose transcendentals may
    # differ from math's by a few ulps.
    xp = np if isinstance(p1, np.ndarray) else math
    return -xp.expm1(float(hw.mode_count) * xp.log1p(-p1))


def _require_success_prob(p: float) -> float:
    if p == 0.0:
        raise NonTerminatingProcess("non-terminating process: success probability is zero")
    if not (0.0 < p <= 1.0):
        raise ConfigError(f"success probability must be in (0, 1], got {p}")
    return float(p)


def _check_links(n: int) -> int:
    if int(n) != n or n < 1:
        raise ConfigError(f"link count must be a positive integer, got {n}")
    return int(n)


def _combined_dist_length(p: float, n: int, tol: float) -> int:
    # Smallest K with 1 - (1 - q^K)^n <= tol.
    log_q = math.log1p(-p)
    threshold = -math.expm1(math.log1p(-tol) / n)  # about tol / n
    return max(1, math.ceil(math.log(threshold) / log_q))


def combined_attempt_dist(p: float, n: int, tol: float = DEFAULT_TOL) -> AttemptDistribution:
    """Distribution of the attempt number at which the slowest of ``n``
    independent links succeeds: P(k) = (1 - q^k)^n - (1 - q^(k-1))^n.

    Powers are taken through log1p/expm1 so the result stays accurate for
    small ``p`` and large ``n``.
    """
    p = _require_success_prob(p)
    n = _check_links(n)
    tol = _check_tol(tol)
    if p == 1.0:
        return AttemptDistribution(probs=np.array([1.0]), tail_mass=0.0)
    length = _combined_dist_length(p, n, tol)
    if length > _MAX_DIST_TERMS:
        raise ModelError(
            f"attempt distribution needs {length} terms at tol={tol}; "
            "success probability too small to materialize"
        )
    log_q = math.log1p(-p)
    ks = np.arange(length + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        cdf = np.exp(n * np.log1p(-np.exp(ks * log_q)))
    probs = np.diff(cdf)
    np.maximum(probs, 0.0, out=probs)  # guard 1-ulp inversions of the CDF
    tail = -math.expm1(n * math.log1p(-math.exp(length * log_q)))
    return AttemptDistribution(probs=probs, tail_mass=max(tail, 0.0))


def _explicit_feasible(p: float, n: int, tol: float) -> bool:
    lam = -math.log1p(-p)
    bound = (math.log(max(n, 2)) + math.log(1.0 / tol)) / lam
    return bound <= _MAX_EXPLICIT_TERMS


def _survival_tail(p: float, n: int, k_start: int) -> float:
    # sum_{k >= k_start} [1 - (1 - q^k)^n]
    #   = sum_i (-1)^(i+1) C(n, i) q^(i k_start) / (1 - q^i),
    # convergent term-by-term once n q^k_start < 1.
    log_q = math.log1p(-p)
    tail = 0.0
    for i in range(1, n + 1):
        power = math.exp(i * k_start * log_q)
        if power == 0.0:
            break
        term = math.comb(n, i) * power / -math.expm1(i * log_q)
        if i % 2 == 0:
            term = -term
        tail += term
        if abs(term) <= 1e-17 * abs(tail):
            break
    return max(tail, 0.0)


def _first_chunk_length(p: float, n: int) -> int:
    """Number of leading survival terms that fix the series' sum: the
    smallest power of two L >= 128 with n q^L / (1 - q) < 2^-70, at most
    one chunk.

    Every term past L is below n q^k, so all of them together, in this
    chunk, later chunks or the analytic tail, stay below 2^-70: under half
    an ulp of any partial sum that holds the k = 0 term, which is 1.  numpy
    sums a chunk pairwise, halving down to runs of 128, so the prefix is
    a subtree of the chunk's summation tree and its sum equals the whole
    chunk's bit for bit (see :func:`_chunk_sum` for how a prefix longer
    than one block is summed along that tree); nothing added after it
    moves the total either.
    """
    need = (math.log(n / p) + 70.0 * math.log(2.0)) / -math.log1p(-p)
    length = 128
    while length <= need and length < _CHUNK:
        length *= 2
    return length


def _chunk_sum(lam: float, n: int, k0: int, size: int) -> tuple[float, float, float]:
    """``(total, x, summand)`` over the survival terms k = k0 .. k0 + size - 1,
    for a power of two ``size`` up to one chunk: their sum, and the last
    term's q^k and summand 1 - (1 - q^k)^n.

    The terms are evaluated in blocks of at most ``_BLOCK``, so that no
    temporary outgrows the allocator's heap or the cache, and each block is
    summed by numpy's ``.sum()``.  numpy sums ``size`` terms pairwise,
    splitting them into halves down to runs of 128, so every block is a
    subtree of that summation tree; adding the block sums in pairs,
    ((s0 + s1) + (s2 + s3)) + ..., retraces the tree above the blocks and
    gives the sum of ``size`` terms in one array bit for bit.
    """
    step = min(size, _BLOCK)
    sums = []
    with np.errstate(divide="ignore"):  # log1p(-1) at k = 0
        for start in range(k0, k0 + size, step):
            ks = np.arange(start, start + step, dtype=np.float64)
            x = np.exp(-lam * ks)  # q^k
            summand = -np.expm1(n * np.log1p(-x))
            sums.append(float(summand.sum()))
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0], float(x[-1]), float(summand[-1])


def _survival_sum_mean(p: float, n: int, tol: float) -> float:
    # <k> = sum_{k >= 0} P(max > k) = sum_{k >= 0} [1 - (1 - q^k)^n],
    # summed explicitly until the summand is negligible, then completed
    # with the analytic geometric tail.  Only the first chunk's leading
    # terms are evaluated (see _first_chunk_length); past a prefix
    # shorter than a chunk nothing moves the total, so the stopping test
    # may read the prefix's last term.  Every chunk or prefix is summed in
    # cache-sized blocks along numpy's own pairwise tree (see _chunk_sum),
    # so the total is the same as from one array per chunk.
    lam = -math.log1p(-p)
    total = 0.0
    k0 = 0
    size = _first_chunk_length(p, n)
    while True:
        chunk_total, x, summand = _chunk_sum(lam, n, k0, size)
        total += chunk_total
        k0 += _CHUNK
        size = _CHUNK
        converged = summand <= tol * total and n * x <= 0.25
        if converged:
            break
        if k0 > _MAX_EXPLICIT_TERMS:
            if n * x <= 0.25:
                break  # analytic tail still valid, just short of the tol stop
            return _closed_form_moments(p, n)[0]
    return total + _survival_tail(p, n, k0)


def _closed_form_moments(p: float, n: int) -> tuple[float, float]:
    # Inclusion-exclusion closed forms for the mean and variance of the
    # maximum of n geometric variables.  The alternating binomial sums
    # cancel ~n bits, and 1 - p must stay distinguishable from 1, so the
    # working precision covers both.
    from mpmath import mp

    prec = 70 + n + max(0, math.ceil(-math.log2(p)))
    with mp.workprec(prec):
        q = mp.one - mp.mpf(p)
        mean = mp.mpf(0)
        second = mp.mpf(0)
        for i in range(1, n + 1):
            qi = q**i
            denom = mp.one - qi
            term = mp.mpf(math.comb(n, i))
            if i % 2 == 0:
                term = -term
            mean += term / denom
            second += term * (mp.one + qi) / (denom * denom)
        variance = second - mean * mean
        return float(mean), max(float(variance), 0.0)


def _attempts_mean(p: float, n: int, tol: float) -> float:
    if p == 1.0:
        return 1.0
    if _explicit_feasible(p, n, tol):
        return _survival_sum_mean(p, n, tol)
    return _closed_form_moments(p, n)[0]


def _attempts_mean_bounds(p, harmonic):
    """``(lower, upper)`` around ``_attempts_mean(p, n, tol)`` for any
    ``tol``, given the harmonic number ``harmonic = H_n = 1 + 1/2 + ... + 1/n``.

    The survival summand 1 - (1 - q^k)^n decreases in k and integrates to
    H_n / lambda over k >= 0, with lambda = -ln(1 - p), so comparing the
    sum with the integral gives H_n / lambda <= mean <= 1 + H_n / lambda
    (Eisenberg, Stat. Probab. Lett. 78, 2008).  The slowest link also
    needs at least 1/p attempts, the mean of any one link.  The 2^-30
    margin covers the rounding of H_n, lambda and the computed mean, which
    can fall below 1/p by about 1e-15 relative for n = 1.

    Elementwise: ``p`` and ``harmonic`` may be arrays, under numpy's
    ``errstate(all="ignore")``.  A float p = 1 has the exact bounds (1, 1);
    an array entry p = 1 keeps the margins, its limit, because the
    link-count scan computes array entries that may stand for a float p
    just below 1.
    """
    if isinstance(p, np.ndarray):
        integral = harmonic / -np.log1p(-p)
        larger = np.maximum(1.0 / p, integral)
    elif p == 1.0:
        return 1.0, 1.0
    else:
        integral = harmonic / -math.log1p(-p)
        larger = max(1.0 / p, integral)
    return larger * (1.0 - 2.0**-30), (1.0 + integral) * (1.0 + 2.0**-30)


def _attempts_variance(p: float, n: int, tol: float, mean: float) -> float:
    """Variance of the slowest link's attempt number, given its mean
    ``mean = _attempts_mean(p, n, tol)``.

    On the series route it is taken about that mean from the distribution
    truncated at ``tol``; on the closed-form route it comes with the mean.
    """
    if p == 1.0:
        return 0.0
    if not _explicit_feasible(p, n, tol):
        return _closed_form_moments(p, n)[1]
    dist = combined_attempt_dist(p, n, tol)
    deviations = dist.attempt_numbers - mean
    return float(np.dot(deviations * deviations, dist.probs))


def _attempts_moments(p: float, n: int, tol: float) -> tuple[float, float]:
    """Mean and variance of the slowest link's attempt number."""
    if p != 1.0 and not _explicit_feasible(p, n, tol):
        return _closed_form_moments(p, n)  # one pass gives both
    mean = _attempts_mean(p, n, tol)
    return mean, _attempts_variance(p, n, tol, mean)


def expected_max_attempts(p: float, n: int, tol: float = DEFAULT_TOL) -> float:
    """Expected number of attempts until all ``n`` links have succeeded.

    Evaluated through the survival-function sum; configurations whose
    series would be impractically long fall back to the closed form taken
    at boosted precision.  Equals ``1 / p`` for a single link.
    """
    if p == 0.0:
        raise NonTerminatingProcess("divergent expectation: success probability is zero")
    p = _require_success_prob(p)
    n = _check_links(n)
    tol = _check_tol(tol)
    return _attempts_mean(p, n, tol)


def _round_success(hw: HardwareParams, n: int) -> tuple[float, float]:
    """Swap success probability ``p_es = (r/2)^(n-1)`` of an ``n``-link
    chain, and ``p_es * r``, the chance that a whole round succeeds once
    both end memories are read out, with ``r = (eta_m eta_d)^2``;
    elementwise in ``n``."""
    retrieval = (hw.memory_eff * hw.detector_eff) ** 2
    p_es = (0.5 * retrieval) ** (n - 1)
    return p_es, p_es * retrieval


def _round_time(t_ec, t_cc, success):
    # Every round costs t_ec + t_cc and succeeds with probability
    # ``success``.  Elementwise and unchecked.
    return (t_ec + t_cc) / success


def _total_time(t_ec: float, t_cc: float, success: float) -> float:
    if success == 0.0:
        raise UnreachableConfiguration(
            "unreachable configuration: end-to-end success probability underflows"
        )
    t_tot = _round_time(t_ec, t_cc, success)
    if not math.isfinite(t_tot):
        raise BeyondRepresentable("total distribution time beyond representable")
    return t_tot


def _time_terms(hw: HardwareParams, total_length, link_length, link_count,
                ch: ChannelParams, mean_attempts):
    """``(clock, t_ec, t_cc, p_es, success)`` of a chain of ``link_count``
    links of ``link_length`` km over ``total_length`` km whose slowest link
    needs ``mean_attempts`` attempts on average; the total time is
    ``_round_time(t_ec, t_cc, success)``.

    Elementwise: link counts, link lengths and means may be arrays.  The
    only home of the time formulas: :func:`metrics` and the link-count
    scan both go through it, so their times agree bit for bit.
    """
    clock = link_length / ch.signal_speed
    p_es, success = _round_success(hw, link_count)
    return clock, clock * mean_attempts, total_length / ch.signal_speed, p_es, success


def _chain_times(
    hw: HardwareParams,
    chain: ChainConfig,
    ch: ChannelParams,
    mean_attempts: float,
) -> tuple[float, float, float, float, float]:
    """``(clock, t_ec, t_cc, p_es, t_tot)`` of a chain whose slowest link
    needs ``mean_attempts`` attempts on average (see :func:`_time_terms`)."""
    clock, t_ec, t_cc, p_es, success = _time_terms(
        hw, chain.total_length, chain.link_length, chain.link_count, ch, mean_attempts)
    return clock, t_ec, t_cc, p_es, _total_time(t_ec, t_cc, success)


def metrics(
    hw: HardwareParams,
    chain: ChainConfig,
    ch: ChannelParams,
    tol: float = DEFAULT_TOL,
) -> RepeaterMetrics:
    """Evaluate every chain-level metric for one configuration.

    Raises :class:`NonTerminatingProcess` when the EC probability is zero,
    :class:`UnreachableConfiguration` when the end-to-end success
    probability underflows, and :class:`BeyondRepresentable` when the
    total time underflows to 0 or overflows, or the memory-time spread
    overflows.
    """
    tol = _check_tol(tol)
    p = ec_prob(hw, chain, ch)
    if p == 0.0:
        raise NonTerminatingProcess(
            "non-terminating process: entanglement creation never succeeds"
        )
    # A round that never succeeds raises here, before the moments: their
    # closed form costs n terms at more than n bits.
    _chain_times(hw, chain, ch, 0.0)
    return _metrics_from_moments(hw, chain, ch, p, *_attempts_moments(p, chain.link_count, tol))


def _metrics_from_moments(
    hw: HardwareParams,
    chain: ChainConfig,
    ch: ChannelParams,
    p: float,
    mean: float,
    variance: float,
) -> RepeaterMetrics:
    """The metrics of a chain whose EC probability ``p`` and attempt-count
    moments are already known: :func:`metrics` computes both moments, the
    link-count optimizer reuses the mean its scan summed.  Raises
    :class:`BeyondRepresentable` when t_cc = L / c underflows to 0, so
    that every time would print as 0."""
    clock, t_ec, t_cc, p_es, t_tot = _chain_times(hw, chain, ch, mean)
    if t_tot == 0.0:
        raise BeyondRepresentable("total distribution time below representable")
    mem_time_std = clock * math.sqrt(variance)
    if not math.isfinite(mem_time_std):
        raise BeyondRepresentable("memory time spread beyond representable")
    return RepeaterMetrics(
        ec_prob=p,
        expected_attempts=mean,
        t_ec=t_ec,
        t_cc=t_cc,
        p_es=p_es,
        t_tot=t_tot,
        mem_time_avg=t_ec + t_cc,
        mem_time_std=mem_time_std,
    )
