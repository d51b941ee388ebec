"""Seeded discrete-event sampler of the distribution protocol.

Provides an estimate of every analytical quantity in :mod:`.model` by
actually playing the protocol: every link re-attempts entanglement
creation each clock interval until all links are ready, then all swaps
and the final retrieval are tried at once; any failure restarts the
round from scratch.

Determinism contract: each trial draws from its own counter-based
stream keyed by ``(seed, trial index)``, so identical configurations
give bit-identical statistics regardless of execution order, and the
trials could be farmed out to parallel workers without changing the
result.  The key of trial ``j`` is the ``Philox`` key that
``SeedSequence(entropy=seed, spawn_key=(j,))`` generates; :func:`simulate`
derives it for a block of trials at once with SeedSequence's own hashing
and re-keys a single generator per trial, so the streams are the same as
those of one ``SeedSequence`` per trial.

Chain rounds are drawn as raw ``Philox`` words, the words that
``Generator.random`` would turn into ``(w >> 11) * 2**-53``.  Each trial
only appends its words to a buffer; one numpy pass per buffer (about
2**13 words) takes each round's largest word, forms one double and one
logarithm per round, and reads back each trial's recorded round and the
attempt sum of its failed rounds.  That sum is numpy's sum of the
trial's own contiguous slice, as one draw per trial would give: beyond
2**53 partial sums round, so summing in another order changes the bits.

Rounds whose failure count is large are aggregated through a
moment-matched normal draw for the summed attempt count instead of being
replayed one by one; the first two moments (and hence every estimator
mean) are unchanged, but desk-scale runs stay desk-scale even when the
expected number of rounds per success reaches tens of millions.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import BeyondRepresentable, ConfigError, NonTerminatingProcess, SimulationAbort
from .model import (
    DEFAULT_TOL,
    ChainConfig,
    ChannelParams,
    HardwareParams,
    _attempts_moments,
    _round_success,
    ec_prob,
)

__all__ = ["TrialConfig", "TrialStats", "sample_chain_round", "simulate"]

# Failed rounds are replayed individually up to this count per trial;
# beyond it the summed attempt count is drawn from a matched normal.
_EXACT_ROUND_LIMIT = 4096

# Abort once a single success is expected (or observed) to need more
# rounds than this.
_MAX_ROUNDS_PER_SUCCESS = 10**9

# At most this many trials per run, so a trial index is one 32-bit spawn
# word (the only case _philox_keys handles).
_MAX_TRIALS = 2**32

# Trials whose Philox keys are derived together.
_KEY_BLOCK = 1024

# Trials' chain-round words are turned into attempt counts in one numpy
# pass once the buffer holds this many words, or this many trials.
_WORD_BLOCK = 2**13
_TRIAL_BLOCK = 2**8

# Constants of numpy's SeedSequence hashing (O'Neill's seed_seq_fe).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


@dataclass(frozen=True)
class TrialConfig:
    """A reproducible simulation request: configuration, number of
    end-to-end successes to collect, and the RNG seed."""

    hw: HardwareParams
    chain: ChainConfig
    ch: ChannelParams
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.trials > _MAX_TRIALS:
            raise ConfigError(f"trials must be <= 2**32, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True)
class TrialStats:
    """Estimators with standard errors, plus the raw attempt histogram.

    ``attempt_histogram`` counts the chain-round attempt numbers of the
    recorded (successful) rounds, so its counts sum to ``trials``;
    ``es_success_rate`` is successes over all rounds played.
    """

    trials: int
    rounds_total: int
    mean_attempts: float
    se_attempts: float
    mean_t_tot: float
    se_t_tot: float
    mean_mem_time: float
    se_mem_time: float
    std_mem_time: float
    es_success_rate: float
    attempt_histogram: dict[int, int] = field(default_factory=dict)


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    # One-trial reference for the streams simulate() draws.  SeedSequence
    # spreads the (seed, index) pair into well-distributed key material;
    # raw structured Philox keys measurably bias the stream.
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


# The two SeedSequence hashing steps run on Python ints and, unchanged, on
# uint64 arrays of 32-bit values: no product or difference wraps.
def _hashmix(value, hash_const: int, mult: int):
    value = (value ^ hash_const) & _MASK32
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    # Adding 2**32 first keeps the difference non-negative.
    result = (((_MIX_MULT_L * x) & _MASK32) | (1 << 32)) - ((_MIX_MULT_R * y) & _MASK32)
    result &= _MASK32
    return result ^ (result >> 16)


def _philox_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Philox keys of trials ``start .. start+count-1``, shape ``(count, 2)``:
    row ``i`` equals ``SeedSequence(entropy=seed, spawn_key=(start+i,))
    .generate_state(2, np.uint64)`` for a seed below 2**64 and indices below
    2**32."""
    # The seed words, zero-padded to the pool, mix the same way for every
    # trial: do that once.
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool = []
    hash_const = _INIT_A
    for word in words + [0] * (_POOL_SIZE - len(words)):
        hashed, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(hashed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, hash_const = _hashmix(pool[i_src], hash_const, _MULT_A)
                pool[i_dst] = _mix(pool[i_dst], hashed)
    # Mixing in the spawn word, then generate_state, per trial.
    index = np.arange(start, start + count, dtype=np.uint64)
    out_const = _INIT_B
    state = []
    for word in pool:
        hashed, hash_const = _hashmix(index, hash_const, _MULT_A)
        value, out_const = _hashmix(_mix(word, hashed), out_const, _MULT_B)
        state.append(value)
    return np.stack([state[0] | (state[1] << 32), state[2] | (state[3] << 32)], axis=1)


def _trial_streams(seed: int, trials: int) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield ``(j, rng)`` for every trial, where ``rng`` draws the stream
    of ``_trial_rng(seed, j)``.  One generator is re-keyed per trial, so
    each ``rng`` is only valid until the next one is yielded."""
    # np.random.Philox(key=...) would pull OS entropy it then discards.
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    # Python ints: the state setter reads them faster than numpy scalars.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for start in range(0, trials, _KEY_BLOCK):
        keys = _philox_keys(seed, start, min(_KEY_BLOCK, trials - start)).tolist()
        for j, key in enumerate(keys, start):
            state["state"]["key"] = key
            bitgen.state = state
            yield j, rng


def _check_round_args(p: float, n: int) -> None:
    if p == 0.0:
        raise NonTerminatingProcess("non-terminating process: success probability is zero")
    if not (0.0 < p <= 1.0):
        raise ConfigError(f"success probability must be in (0, 1], got {p}")
    if int(n) != n or n < 1:
        raise ConfigError(f"link count must be a positive integer, got {n}")


def sample_chain_round(p: float, n: int, rng: np.random.Generator) -> int:
    """Attempt number at which the slowest of ``n`` links succeeds:
    the maximum of ``n`` inverse-CDF geometric draws."""
    _check_round_args(p, n)
    return int(_sample_chain_rounds(p, int(n), 1, rng)[0])


def _sample_chain_rounds(p: float, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    # The callers check p in (0, 1] and n >= 1.
    if p == 1.0:
        return np.ones(size, dtype=np.float64)
    return _attempts_from_words(rng.bit_generator.random_raw(size * n), n, p)


def _attempts_from_words(words: np.ndarray, n: int, p: float) -> np.ndarray:
    """Attempt number of the slowest link in each chain round, from ``n``
    raw Philox words per round; ``words`` may be overwritten.  Returned as
    float64: attempt counts scale as 1/p and can exceed the int64 range
    for very lossy links."""
    if p == 1.0:
        return np.ones(words.size // n, dtype=np.float64)
    # The inverse CDF k = ceil(ln u / ln(1 - p)) of u = 1 - (w >> 11) 2**-53
    # never falls as w grows, so a round's slowest link is its largest
    # word: one double and one log per round.  The transposed copy makes
    # the row maximum a contiguous reduction.
    top = np.ascontiguousarray(words.reshape(-1, n).T).max(axis=0)
    top >>= 11
    # u and k as above, with the same operations done in place.
    k = top.astype(np.float64)
    k *= 2.0**-53
    np.subtract(1.0, k, out=k)
    np.log(k, out=k)
    k /= math.log1p(-p)
    np.ceil(k, out=k)
    return np.maximum(k, 1.0, out=k)


def _settle_buffer(
    words: list[np.ndarray],
    trial_rounds: list[int],
    aggregated: list[tuple[int, float]],
    n: int,
    p: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round count, attempt count of the recorded round and attempt count
    over all rounds of each buffered trial.  A trial that needed ``r``
    rounds owns the next ``r`` rounds of ``words``, its recorded round
    last; a trial listed in ``aggregated`` as ``(position, failed-round
    sum)`` owns only its recorded round."""
    rounds = np.array(trial_rounds, dtype=np.int64)
    replayed = rounds.copy()
    for i, _ in aggregated:
        replayed[i] = 1
    k = _attempts_from_words(words[0] if len(words) == 1 else np.concatenate(words), n, p)
    ends = np.cumsum(replayed)
    recorded = k[ends - 1]
    # The failed-round sum first, as a sum of its own slice, then the
    # recorded round.  A trial of one round has no failed rounds.
    total = recorded.copy()
    for i, (b, r) in enumerate(zip(ends.tolist(), replayed.tolist())):
        if r > 1:
            total[i] += k[b - r:b - 1].sum()
    for i, failed_sum in aggregated:
        total[i] = failed_sum + recorded[i]
    return rounds, recorded, total


def _aggregate_failed_attempts(
    failed: int, rng: np.random.Generator, mean_k: float, var_k: float
) -> float:
    """Total attempt count across ``failed`` discarded rounds, drawn from a
    normal with the summed rounds' mean and variance."""
    if var_k == 0.0:
        return float(failed) * mean_k
    total = rng.normal(failed * mean_k, math.sqrt(failed * var_k))
    if not math.isfinite(total):
        raise BeyondRepresentable("simulated attempt count beyond representable")
    return max(round(total), float(failed))


def _buffered_trials(
    cfg: TrialConfig, p: float, n: int, log_q_round: float | None
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Play the trials; per buffer, yield the span of trials it holds and,
    per trial, the rounds played, the attempt count of the recorded round
    and the attempt count over all rounds."""
    moments = None  # of one chain round's attempt count, once a trial aggregates
    first, buffered = 0, 0
    words: list[np.ndarray] = []
    trial_rounds: list[int] = []
    aggregated: list[tuple[int, float]] = []  # (position in buffer, failed sum)
    for j, rng in _trial_streams(cfg.seed, cfg.trials):
        if log_q_round is None:
            r = 1
        else:
            u = 1.0 - rng.random()
            r = max(math.ceil(math.log(u) / log_q_round), 1)
        if r > _MAX_ROUNDS_PER_SUCCESS:
            raise SimulationAbort(
                f"simulation aborted: trial {j} needed {r} rounds for one success"
            )
        trial_rounds.append(r)
        replayed = r
        if r - 1 > _EXACT_ROUND_LIMIT:
            if moments is None:
                moments = _attempts_moments(p, n, DEFAULT_TOL)
            aggregated.append((j - first, _aggregate_failed_attempts(r - 1, rng, *moments)))
            replayed = 1
        # The replayed failed rounds and the recorded one are consecutive
        # in the stream: one draw covers them all.
        words.append(rng.bit_generator.random_raw(replayed * n))
        buffered += replayed * n
        if buffered >= _WORD_BLOCK or len(words) == _TRIAL_BLOCK or j + 1 == cfg.trials:
            yield slice(first, j + 1), *_settle_buffer(words, trial_rounds, aggregated, n, p)
            first, buffered = j + 1, 0
            words.clear()
            trial_rounds.clear()
            aggregated.clear()


def simulate(cfg: TrialConfig) -> TrialStats:
    """Play full distribution rounds until ``cfg.trials`` end-to-end
    successes and return the accumulated statistics.

    Aborts (:class:`SimulationAbort`) when a success is expected or
    observed to need more than 10^9 rounds, or when the per-trial arrays
    do not fit in memory; raises :class:`BeyondRepresentable` when a
    statistic overflows double precision or t_cc = L / c underflows to 0.
    """
    p = ec_prob(cfg.hw, cfg.chain, cfg.ch)
    if p == 0.0:
        raise NonTerminatingProcess(
            "non-terminating process: entanglement creation never succeeds"
        )
    n = int(cfg.chain.link_count)
    _check_round_args(p, n)
    _, round_success = _round_success(cfg.hw, n)
    if round_success == 0.0 or 1.0 / round_success > _MAX_ROUNDS_PER_SUCCESS:
        raise SimulationAbort(
            f"simulation aborted: expected rounds per success exceeds {_MAX_ROUNDS_PER_SUCCESS:.0e}"
        )
    log_q_round = math.log1p(-round_success) if round_success < 1.0 else None
    clock = cfg.chain.link_length / cfg.ch.signal_speed
    t_cc = cfg.chain.total_length / cfg.ch.signal_speed
    if t_cc == 0.0:  # every sampled time would be 0 s
        raise BeyondRepresentable("total distribution time below representable")

    try:
        k_success = np.empty(cfg.trials, dtype=np.float64)
        elapsed = np.empty(cfg.trials, dtype=np.float64)
    except MemoryError:
        raise SimulationAbort(
            f"simulation aborted: {cfg.trials} trials do not fit in memory"
        ) from None
    rounds_total = 0
    # Attempt counts of very lossy links may overflow: checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for span, rounds, recorded, attempts in _buffered_trials(cfg, p, n, log_q_round):
            k_success[span] = recorded
            elapsed[span] = clock * attempts + rounds * t_cc
            rounds_total += int(rounds.sum())
        mem_times = clock * k_success + t_cc  # storage span of each recorded round
        ddof = 1 if cfg.trials > 1 else 0
        sqrt_n = math.sqrt(cfg.trials)
        estimates = dict(
            mean_attempts=float(k_success.mean()),
            se_attempts=float(k_success.std(ddof=ddof)) / sqrt_n,
            mean_t_tot=float(elapsed.mean()),
            se_t_tot=float(elapsed.std(ddof=ddof)) / sqrt_n,
            mean_mem_time=float(mem_times.mean()),
            se_mem_time=float(mem_times.std(ddof=ddof)) / sqrt_n,
            std_mem_time=float(mem_times.std(ddof=ddof)),
        )
    if not all(math.isfinite(value) for value in estimates.values()):
        raise BeyondRepresentable("simulated statistics beyond representable")
    ks, counts = np.unique(k_success, return_counts=True)
    return TrialStats(
        trials=cfg.trials,
        rounds_total=rounds_total,
        **estimates,
        es_success_rate=cfg.trials / rounds_total,
        attempt_histogram={int(k): int(c) for k, c in zip(ks, counts)},
    )
