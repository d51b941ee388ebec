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

Import rule of the package: numpy is imported on the first numeric call
that needs it (see :class:`_NumpyOnFirstUse`).  Parsing, validation and
the checks that reject a configuration before any moments do not load it.

Every public function and parameter class of the package converts each
argument once by its kind in :data:`_KINDS`: what it may be, which
Python type it keeps and which error it raises otherwise.

Units are km, seconds, and dB/km throughout; probabilities are
dimensionless.  All functions are pure and all returned objects immutable,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .errors import (
    BeyondRepresentable,
    ConfigError,
    ModelError,
    NonTerminatingProcess,
    UnreachableConfiguration,
)


class _NumpyOnFirstUse:
    """Stands in for numpy as a module's ``np``.  The first attribute
    access imports numpy and rebinds that module's ``np`` to it, so later
    calls pay nothing; the import lock makes concurrent first accesses
    wait for one fully initialised numpy."""

    def __init__(self, namespace: dict) -> None:
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)


np = _NumpyOnFirstUse(globals())

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

# (r/2)^(n-1) <= 2^-(n-1) rounds to 0 from here on, so no round succeeds:
# the link-count scan and the closed form stop below it.
_UNDERFLOW_LINKS = 1076

# Survival terms evaluated at once: 64 KiB per float64 buffer, under glibc's
# 128 KiB mmap threshold and well inside L2.
_BLOCK = 1 << 13


@dataclass(frozen=True)
class ChannelParams:
    """Fiber properties: attenuation in dB/km and signal speed in km/s."""

    attenuation: float = 0.2
    signal_speed: float = 2.0e5

    def __post_init__(self) -> None:
        _set_fields(self, attenuation="non-negative real", signal_speed="positive real")


@dataclass(frozen=True)
class HardwareParams:
    """Station hardware: detector/memory efficiencies, source emission
    probability, and the number of parallel modes per attempt."""

    detector_eff: float = 0.9
    memory_eff: float = 0.9
    emission_prob: float = 0.9
    mode_count: int = 100

    def __post_init__(self) -> None:
        _set_fields(self, detector_eff="probability", memory_eff="probability",
                    emission_prob="probability", mode_count="count")


@dataclass(frozen=True)
class ChainConfig:
    """Total distance in km, number of elementary links, and the derived
    per-link length ``link_length = total_length / link_count``."""

    total_length: float
    link_count: int

    def __post_init__(self) -> None:
        _set_fields(self, total_length="positive real", link_count="count")

    @property
    def link_length(self) -> float:
        return self.total_length / self.link_count


# ---------------------------------------------------------------- arguments

def _bound(text: str, test):
    # A range check that fails with "<name> must be <text>, got <value>".
    return test, ConfigError, f"{{name}} must be {text}, got {{value}}"


_FLOAT_MAX = sys.float_info.max
_FINITE = _bound("finite", math.isfinite)

#: The argument kinds of the library API.  Every public function and
#: parameter class converts each argument once, through :func:`_arg`, by
#: its kind here, and the helpers behind them trust what they are given.
#: A kind is ``(accepts, checks)``.  ``float`` accepts any real number but
#: a ``str`` or a bool (Python's or numpy's) and keeps a ``float``; ``int``
#: accepts an int, a numpy integer or a whole float such as ``2.0``, and
#: ``operator.index`` an int or a numpy integer only, not even ``10.0``,
#: and both keep an ``int``; a class, or a ``(module, class name)`` pair,
#: accepts an instance of that class and keeps it.  Anything else is a
#: :class:`ConfigError`.  ``checks`` are ``(test, error, message)`` on the
#: kept value, in order: the first test that fails raises its error, whose
#: message names the argument and the value as given.
_KINDS = {
    "real": (float, (_FINITE,)),
    "non-negative real": (float, (_FINITE, _bound(">= 0", lambda x: x >= 0.0))),
    "positive real": (float, (_FINITE, _bound("> 0", lambda x: x > 0.0))),
    "probability": (float, (_FINITE, _bound("in [0, 1]", lambda x: 0.0 <= x <= 1.0))),
    # Zero is a process that never ends rather than a value out of range.
    "success probability": (float, (
        (lambda x: x != 0.0, NonTerminatingProcess, "non-terminating process: {name} is zero"),
        _bound("in (0, 1]", lambda x: 0.0 < x <= 1.0))),
    "tol": (float, (_bound("in (0, 1)", lambda x: 0.0 < x < 1.0),)),
    # Counts scale and divide floats, so they stay within the float range.
    "count": (int, (_bound("a positive integer", lambda n: n >= 1),
                    _bound("finite", lambda n: n <= _FLOAT_MAX))),
    # A scan stops at 1075 links whatever its limit, so the limit may be any int.
    "n_max": (int, (_bound("a positive integer", lambda n: n >= 1),)),
    # A trial index is one 32-bit spawn word (see montecarlo._philox_keys).
    "trials": (operator.index, (_bound("a positive integer", lambda n: n >= 1),
                                _bound("<= 2**32", lambda n: n <= 2**32))),
    "seed": (operator.index, (_bound("an integer >= 0", lambda n: n >= 0),
                              _bound("a 64-bit unsigned integer", lambda n: n < 2**64))),
    "hw": (HardwareParams, ()),
    "ch": (ChannelParams, ()),
    "chain": (ChainConfig, ()),
    # Classes of the modules that import this one, by module and name.
    "cfg": ((f"{__package__}.montecarlo", "TrialConfig"), ()),
    "spec": ((f"{__package__}.planner", "SweepSpec"), ()),
    "rng": (("numpy.random", "Generator"), ()),
}


def _arg(kind: str, value, name: str | None = None):
    """``value`` as its kind in :data:`_KINDS` keeps it, or that kind's
    error; ``name``, by default the kind's own, names it in messages."""
    accepts, checks = _KINDS[kind]
    kept = value if type(value) is accepts else _convert(accepts, value, name or kind)
    for test, error, message in checks:
        if not test(kept):
            raise error(message.format(name=name or kind, value=value))
    return kept


def _convert(accepts, value, name: str):
    # The rest of _arg's type test: ``value`` as ``accepts`` keeps it, or
    # a ConfigError for a value of another type.
    if accepts in (float, int, operator.index):
        kept = None
        # Neither a str nor a bool, Python's or numpy's, is taken for a number.
        if not (isinstance(value, (str, bool)) or getattr(value, "dtype", None) == bool):
            try:
                kept = accepts(value)
            except OverflowError:  # an int past the float range is no finite real
                kept = math.inf if accepts is float else None
            except (TypeError, ValueError):
                pass
            else:
                if accepts is int and kept != value:  # a fractional float
                    kept = None
        if kept is None:
            expected = "a real number" if accepts is float else "an integer"
            raise ConfigError(f"{name} must be {expected}, got {value!r}")
        return kept
    if isinstance(accepts, tuple):  # an instance implies that its module is loaded
        path, accepts = ".".join(accepts), getattr(sys.modules.get(accepts[0]), accepts[1], None)
    else:
        path = f"{accepts.__module__}.{accepts.__qualname__}"
    if accepts is None or not isinstance(value, accepts):
        raise ConfigError(f"{name} must be a {path}, got {value!r}")
    return value


def _args(kind: str, values, name: str) -> tuple:
    """Each of ``values`` converted by :func:`_arg`."""
    try:
        items = tuple(values)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence of numbers, got {values!r}") from None
    return tuple(_arg(kind, value, name) for value in items)


def _set_fields(obj, **kinds: str) -> None:
    # Each named field of a frozen parameter class, converted by its kind.
    for name, kind in kinds.items():
        object.__setattr__(obj, name, _arg(kind, getattr(obj, name), name))


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
        return float((self.attempt_numbers * self.probs).sum())


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


def ec_prob_single_mode(hw: HardwareParams, chain: ChainConfig, ch: ChannelParams) -> float:
    """Per-attempt success probability of the midpoint Bell-state measurement
    for a single optical mode.

    Both photons of a link survive half the link length each, so the loss
    exponent uses half the per-link distance; the 1/2 prefactor is the
    linear-optics BSM ceiling.  The result is in [0, 1/2].
    """
    hw, chain, ch = _arg("hw", hw), _arg("chain", chain), _arg("ch", ch)
    return _single_mode_prob(hw, chain.total_length, chain.link_count, ch)


def ec_prob(hw: HardwareParams, chain: ChainConfig, ch: ChannelParams) -> float:
    """Per-attempt EC probability with ``mode_count`` parallel modes:
    the chance that at least one mode yields a successful BSM."""
    return _multimode_prob(hw, ec_prob_single_mode(hw, chain, ch))


def _ec_prob(hw: HardwareParams, total_length: float, link_count: int,
             ch: ChannelParams) -> float:
    # ec_prob of converted arguments, for ``link_count`` links over ``total_length`` km.
    return _multimode_prob(hw, _single_mode_prob(hw, total_length, link_count, ch))


def _single_mode_prob(hw: HardwareParams, total_length, link_count, ch: ChannelParams):
    # Elementwise: the fields of ``hw`` and every other argument may be arrays.
    exponent = -ch.attenuation * total_length / (20.0 * link_count)
    amplitude = hw.detector_eff * hw.emission_prob * 10.0**exponent
    return 0.5 * amplitude * amplitude


def _multimode_prob(hw: HardwareParams, p1):
    # Elementwise in p1 and ``hw.mode_count``; p1 = 0 gives 0.  Floats go
    # through ``math`` without touching numpy, and arrays through numpy,
    # whose transcendentals may differ from math's by a few ulps.
    xp = math if isinstance(p1, float) else np
    return -xp.expm1(hw.mode_count * xp.log1p(-p1))


def _success_args(p, n, tol=DEFAULT_TOL) -> tuple[float, int, float]:
    # The success probability, link count and tol of a public function.
    return _arg("success probability", p), _arg("count", n, "link count"), _arg("tol", tol)


def _combined_dist_length(p: float, n: int, tol: float) -> int | float:
    # Smallest K with 1 - (1 - q^K)^n <= tol, or inf past the float range.
    log_q = math.log1p(-p)
    threshold = -math.expm1(math.log1p(-tol) / n)  # about tol / n
    # Where tol / n underflows to 0, its log is the difference of logs.
    terms = (math.log(threshold) if threshold else math.log(tol) - math.log(n)) / log_q
    return max(1, math.ceil(terms)) if terms < math.inf else terms


def combined_attempt_dist(p: float, n: int, tol: float = DEFAULT_TOL) -> AttemptDistribution:
    """Distribution of the attempt number at which the slowest of ``n``
    independent links succeeds: P(k) = (1 - q^k)^n - (1 - q^(k-1))^n.

    Powers are taken through log1p/expm1 so the result stays accurate for
    small ``p`` and large ``n``.
    """
    p, n, tol = _success_args(p, n, tol)
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
    with np.errstate(divide="ignore", over="ignore"):  # log1p(-1) at k = 0; huge n * log
        cdf = np.exp(n * np.log1p(-np.exp(ks * log_q)))
    probs = np.diff(cdf)
    np.maximum(probs, 0.0, out=probs)  # guard 1-ulp inversions of the CDF
    tail = -math.expm1(n * math.log1p(-math.exp(length * log_q)))
    return AttemptDistribution(probs=probs, tail_mass=max(tail, 0.0))


def _explicit_feasible(p: float, n: int, tol: float) -> bool:
    lam = -math.log1p(-p)
    bound = (math.log(max(n, 2)) + math.log(1.0 / tol)) / lam
    return bound <= _MAX_EXPLICIT_TERMS


def _survival_tail(p: float, n: int, k_start: int) -> tuple[float, float]:
    # With S(k) = 1 - (1 - q^k)^n, r = q^i and t_i = C(n, i) r^k_start / (1 - r):
    #   sum_{k >= k_start} S(k) = sum_i (-1)^(i+1) t_i,
    #   sum_{k >= k_start} (2k - 1) S(k) = sum_i (-1)^(i+1) t_i (2 k_start - 1 + 2r / (1 - r)),
    # convergent term-by-term once n q^k_start < 1.  The second factor falls
    # with i, so the loop may stop on the first series' terms.
    log_q = math.log1p(-p)
    tail = spread = 0.0
    for i in range(1, n + 1):
        power = math.exp(i * k_start * log_q)
        if power == 0.0:
            break
        denom = -math.expm1(i * log_q)
        term = math.comb(n, i) * power / denom
        if i % 2 == 0:
            term = -term
        tail += term
        spread += term * (2 * k_start - 1 + 2.0 * math.exp(i * log_q) / denom)
        if abs(term) <= 1e-17 * abs(tail):
            break
    return max(tail, 0.0), max(spread, 0.0)


def _first_chunk_length(p: float, n: int) -> int:
    """Number of leading survival terms that fix the series' sums: the
    smallest power of two L in [128, one chunk] past which, with
    q = 1 - p, both dropped tails stay below 2^-55 of what the prefix
    holds at least:

    * n q^L / p, the mean's tail, below 2^-55 sum_{k < L} q^k;
    * n q^L / p (2L - 1 + 2q / p), the weighted tail, below
      2^-55 sum_{1 <= k < L} (2k - 1) q^k.

    S(k) = 1 - (1 - q^k)^n lies between q^k and n q^k, so the prefix's
    sums hold the sums on the right, and every term past L, in this
    chunk, later chunks or the analytic tail, adds up to less than the
    left.  Each of those pieces joins a partial sum that holds the prefix,
    and half an ulp of x exceeds 2^-54 x: the spare factor of 2 covers the
    rounding of the terms and of the closed forms below, so nothing added
    after the prefix moves the totals.  numpy sums a chunk pairwise,
    halving down to runs of 128, so the prefix is a subtree of the chunk's
    summation tree and its sums equal the whole chunk's bit for bit (see
    :func:`_chunk_sum` for how a prefix longer than one block is summed
    along that tree).

    The search skips, untested, every power of two up to (1 - 2^-20) L0,
    with L0 = (55 ln 2 + ln n) / lambda and lambda = -ln q.  At those
    lengths n q^L >= n^(2^-20) 2^-55 2^(55 * 2^-20) >= 2^-55 (1 + 3.6e-5),
    while the mean's test asks for n q^L below 2^-55 (1 - q^L): it fails
    by a relative 3.6e-5, far more than the rounding of lambda, L0 and the
    test's own terms, which is a few ulps.
    """
    log_q = math.log1p(-p)
    q = 1.0 - p
    length = 128
    skip = (1.0 - 2.0**-20) * (55.0 * math.log(2.0) + math.log(n)) / -log_q
    while length < _CHUNK and length <= skip:
        length *= 2
    while length < _CHUNK:
        power = math.exp(length * log_q)  # q^L
        held = -math.expm1(length * log_q) / p  # sum_{k < L} q^k
        # sum_{1 <= k < L} (2k - 1) q^k = q sum_{j < M} (2j + 1) q^j, M = L - 1
        m = length - 1
        shorter = -math.expm1(m * log_q) / p
        held_weighted = q * (2.0 * (q * shorter - m * math.exp(m * log_q)) / p + shorter)
        dropped = n * power / p
        if (dropped < 2.0**-55 * held
                and dropped * (2 * length - 1 + 2.0 * q / p) < 2.0**-55 * held_weighted):
            break
        length *= 2
    return length


_BLOCK_INDICES = None


def _block_indices():
    """``(k, 2k - 1)`` for k = 0 .. ``_BLOCK`` - 1 as read-only float64
    arrays, built on first use, as numpy is."""
    global _BLOCK_INDICES
    if _BLOCK_INDICES is None:
        ks = np.arange(_BLOCK, dtype=np.float64)
        weights = 2.0 * ks - 1.0
        ks.flags.writeable = weights.flags.writeable = False
        _BLOCK_INDICES = ks, weights
    return _BLOCK_INDICES


def _chunk_sum(lam: float, n: int, k0: int, size: int) -> tuple[float, float, float, float]:
    """``(total, spread, x, summand)`` over the survival terms
    S(k) = 1 - (1 - q^k)^n, k = k0 .. k0 + size - 1, for a power of two
    ``size`` up to one chunk: the sum of S(k), the sum of (2k - 1) S(k)
    over the k >= 1 among them, and the last term's q^k and S(k).

    The terms are evaluated in blocks of at most ``_BLOCK``, each summed by
    numpy's ``add.reduce``, which sums ``size`` terms pairwise, halving
    them down to runs of 128: every block is a subtree of that tree, and
    adding the block sums in pairs, ((s0 + s1) + (s2 + s3)) + ..., retraces
    the tree above the blocks, bit for bit.  The block at k = 0 reads k and
    2k - 1 from the read-only arrays of :func:`_block_indices`; any other
    block adds its first k, or twice that, to them in ``x``.  Only the
    ``x`` and ``terms`` buffers are allocated per call, and every ufunc
    writes into them.  The blocks hold -S(k), whose sums negate exactly,
    and ``0.0 - s`` keeps a zero sum at +0.0.
    """
    step = min(size, _BLOCK)
    ks, weights = (indices[:step] for indices in _block_indices())
    x, terms = np.empty(step), np.empty(step)  # out= of every ufunc
    sums = []
    with np.errstate(divide="ignore", over="ignore"):  # log1p(-1) at k = 0; huge n * log
        for start in range(k0, k0 + size, step):
            if start:
                np.multiply(np.add(ks, start, x), -lam, x)
            else:
                np.multiply(ks, -lam, x)
            np.exp(x, x)  # q^k
            np.log1p(np.negative(x, terms), terms)
            np.expm1(np.multiply(terms, n, terms), terms)  # -S(k)
            total, last, power = float(np.add.reduce(terms)), float(terms[-1]), float(x[-1])
            if start:
                block_weights = np.add(weights, 2 * start, x)  # 2k - 1
            else:
                block_weights = weights
                terms[0] = 0.0  # k = 0 is no term of the weighted series
            sums.append((total, float(np.add.reduce(np.multiply(terms, block_weights, terms)))))
    while len(sums) > 1:
        sums = [(a + c, b + d) for (a, b), (c, d) in zip(sums[::2], sums[1::2])]
    return 0.0 - sums[0][0], 0.0 - sums[0][1], power, 0.0 - last


def _survival_moments(p: float, n: int, tol: float) -> tuple[float, float]:
    # <k> = sum_{k >= 0} S(k) with S(k) = P(max > k) = 1 - (1 - q^k)^n, and
    # the variance is <(k - 1)^2> - (<k> - 1)^2 with <(k - 1)^2> =
    # sum_{k >= 1} (2k - 1) S(k): centred at 1, no 1 cancels in it when p is
    # close to 1.  Both series are summed explicitly until the summand is
    # negligible, then completed with analytic tails.  Only the first chunk's
    # leading terms are evaluated (see _first_chunk_length); past a prefix
    # shorter than a chunk nothing moves the totals, whatever ``tol``, the
    # analytic tails included, so the sums stop there and take no tail.
    # Every chunk or prefix is summed in blocks along numpy's own pairwise
    # tree (see _chunk_sum), as one array.
    lam = -math.log1p(-p)
    total = spread = 0.0
    k0 = 0
    size = _first_chunk_length(p, n)
    while True:
        chunk_total, chunk_spread, x, summand = _chunk_sum(lam, n, k0, size)
        total += chunk_total
        spread += chunk_spread
        k0 += _CHUNK
        if size < _CHUNK:
            break
        if summand <= tol * total and n * x <= 0.25:
            tail, spread_tail = _survival_tail(p, n, k0)
            total, spread = total + tail, spread + spread_tail
            break
        size = _CHUNK
        # Past _MAX_EXPLICIT_TERMS the summand never fails the tol stop: the
        # last term's k = k0 - 1 >= 77 * 2^16 - 1 > 1.009 * 5e6, and
        # _explicit_feasible admitted 5e6 >= (ln max(n, 2) + ln(1/tol)) / lambda,
        # so x = q^k < tol / max(n, 2) and summand <= n x < tol <= tol * total
        # (total >= S(0) = 1), with 0.9% of the exponent to spare for
        # rounding.  Only n x > 0.25, where the analytic tail is not yet
        # valid, gets here.
        if k0 > _MAX_EXPLICIT_TERMS:
            return _closed_form_moments(p, n)
    return total, max(spread - (total - 1.0) ** 2, 0.0)


def _closed_form_moments(p: float, n: int) -> tuple[float, float]:
    # No round of that many links succeeds, and the cost grows as n^2.
    if n >= _UNDERFLOW_LINKS:
        raise ModelError(
            f"closed-form attempt moments take at most {_UNDERFLOW_LINKS - 1} links, got {n}"
        )
    # Inclusion-exclusion closed forms for the mean and variance of the
    # maximum of n geometric variables.  The alternating binomial sums
    # cancel ~n bits, 1 - p must stay distinguishable from 1, and the
    # variance second - mean^2 cancels ~log2(1 / (1 - p)) bits when p is
    # close to 1, so the working precision covers all three.  The floor
    # adds no bit for p < 1/2; at p = 1, q = 0 and nothing cancels.  q^i
    # is multiplied up from q^(i-1), one rounding per step: its relative
    # error grows to at most n half-ulps, which n.bit_length() more bits
    # absorb.  Decimal digits stand in for the bits, with one to spare.
    from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext

    prec = 70 + n + n.bit_length() + max(0, math.ceil(-math.log2(p)))
    if p < 1.0:
        prec += max(0, math.floor(-math.log2(1.0 - p)))
    digits = math.ceil(prec * math.log10(2.0)) + 1
    with localcontext(Context(prec=digits, rounding=ROUND_HALF_EVEN)):
        one = Decimal(1)
        q = one - Decimal(p)
        mean = second = Decimal(0)
        qi = one
        binomial = 1  # C(n, i), exact
        for i in range(1, n + 1):
            qi *= q
            denom = one - qi
            binomial = binomial * (n - i + 1) // i
            term = Decimal(binomial)
            if i % 2 == 0:
                term = -term
            mean += term / denom
            second += term * (one + qi) / (denom * denom)
        variance = second - mean * mean
        return float(mean), max(float(variance), 0.0)


def _attempts_moments(p: float, n: int, tol: float) -> tuple[float, float]:
    """Mean and variance of the slowest link's attempt number: exact at
    p = 1, from the survival series where it is short enough to sum
    (:func:`_survival_moments`), else from the closed form."""
    if p == 1.0:
        return 1.0, 0.0
    if _explicit_feasible(p, n, tol):
        return _survival_moments(p, n, tol)
    return _closed_form_moments(p, n)


def _attempts_mean_bounds(p, harmonic):
    """``(lower, upper)`` around ``_attempts_moments(p, n, tol)[0]`` for any
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


def expected_max_attempts(p: float, n: int, tol: float = DEFAULT_TOL) -> float:
    """Expected number of attempts until all ``n`` links have succeeded.

    Evaluated through the survival-function sum; configurations whose
    series would be impractically long fall back to the closed form taken
    at boosted precision, which takes at most 1075 links.  Equals ``1 / p``
    for a single link.
    """
    mean = _attempts_moments(*_success_args(p, n, tol))[0]
    if mean == math.inf:
        raise BeyondRepresentable("expected attempt count beyond representable")
    return mean


def _round_terms(hw: HardwareParams, total_length, link_count, ch: ChannelParams):
    """``(clock, t_cc, p_es, success)`` of ``link_count`` links over
    ``total_length`` km: ``clock`` and ``t_cc`` are one link's length and
    the whole length over the signal speed, ``p_es = (r/2)^(n-1)`` is the
    chance that every swap succeeds, and ``success = p_es * r`` that a whole
    round does once both end memories are read out, with
    ``r = (eta_m eta_d)^2``.  When the slowest link needs ``mean`` attempts
    on average, the total time is ``_round_time(clock, t_cc, success, mean)``.

    Elementwise: ``hw``'s fields, lengths and counts may be arrays.  The only
    home of the round's terms: :func:`metrics`, the link-count scan and the
    sampler all go through it, so their times agree bit for bit.
    """
    clock = total_length / link_count / ch.signal_speed
    retrieval = (hw.memory_eff * hw.detector_eff) ** 2
    p_es = (0.5 * retrieval) ** (link_count - 1)
    return clock, total_length / ch.signal_speed, p_es, p_es * retrieval


def _round_time(clock, t_cc, success, mean):
    # Every round costs t_ec + t_cc, with t_ec = clock * mean, and succeeds
    # with probability ``success``.  Elementwise and unchecked.
    return (clock * mean + t_cc) / success


def _total_time(clock: float, t_cc: float, success: float, mean: float) -> float:
    """:func:`_round_time` of the terms from :func:`_round_terms`, checked;
    at ``mean = 0`` its errors tell whether any round can succeed with a
    representable time."""
    if success == 0.0:
        raise UnreachableConfiguration(
            "unreachable configuration: end-to-end success probability underflows"
        )
    t_tot = _round_time(clock, t_cc, success, mean)
    if not math.isfinite(t_tot):
        raise BeyondRepresentable("total distribution time beyond representable")
    return t_tot


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
    tol = _arg("tol", tol)
    hw, chain, ch = _arg("hw", hw), _arg("chain", chain), _arg("ch", ch)
    return _metrics(hw, chain.total_length, chain.link_count, ch, tol)


def _metrics(hw: HardwareParams, total_length: float, link_count: int, ch: ChannelParams,
             tol: float, extension: float = 0.0,
             moments: tuple[float, float] | None = None) -> RepeaterMetrics:
    """:func:`metrics` of converted arguments, for ``link_count`` links over
    ``total_length`` km, and the only place a :class:`RepeaterMetrics` is
    built.  ``moments``, the mean and variance of the attempt count, are
    summed here unless the caller already has them: the link-count
    optimizer passes those its scan summed for the winner.  Raises
    :class:`BeyondRepresentable` when t_cc = L / c underflows to 0, so that
    every time would print as 0.

    ``extension`` km of plain fiber past the chain, checked after the
    chain itself, add their propagation delay to the controller
    signalling and to the storage span, and one photon has to survive
    them, which scales the round's success probability by the fiber's
    transmission."""
    p = _ec_prob(hw, total_length, link_count, ch)
    if p == 0.0:
        raise NonTerminatingProcess(
            "non-terminating process: entanglement creation never succeeds"
        )
    clock, t_cc, p_es, success = _round_terms(hw, total_length, link_count, ch)
    if moments is None:
        # A round that never succeeds raises here, before the moments: their
        # closed form costs n terms at more than n bits.
        _total_time(clock, t_cc, success, 0.0)
        moments = _attempts_moments(p, link_count, tol)
    mean, variance = moments
    t_tot = _total_time(clock, t_cc, success, mean)
    if t_tot == 0.0:
        raise BeyondRepresentable("total distribution time below representable")
    mem_time_std = clock * math.sqrt(variance)
    if not math.isfinite(mem_time_std):
        raise BeyondRepresentable("memory time spread beyond representable")
    if extension:
        t_cc += extension / ch.signal_speed
        transmission = 10.0 ** (-ch.attenuation * extension / 10.0)
        t_tot = _total_time(clock, t_cc, success * transmission, mean)
    t_ec = clock * mean
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
