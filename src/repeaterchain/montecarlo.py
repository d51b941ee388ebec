"""Seeded discrete-event sampler of the distribution protocol.

Estimates the times, attempt counts and memory times of :mod:`.model` by
playing the protocol: every link re-attempts entanglement creation each
clock interval until all links are ready, then all swaps and the final
retrieval are tried at once; any failure restarts the round from
scratch.  What it shares with the model: the per-attempt probability
comes from ``model._ec_prob``, each round's success, clock and t_cc from
``model._round_terms`` (so the number of rounds per success is one
geometric draw with the model's success), and an aggregated trial's
attempt moments from ``model._attempts_moments``.  What it checks on its
own is the max-of-geometrics law of a round's attempt count and its own
arithmetic; an error in the shared terms moves both sides alike.

Determinism contract: each trial draws from its own counter-based
stream keyed by ``(seed, trial index)``, so identical configurations
give bit-identical statistics regardless of execution order, and the
trials could be farmed out to parallel workers without changing the
result.  The key of trial ``j`` is the ``Philox`` key that
``SeedSequence(entropy=seed, spawn_key=(j,))`` generates; :func:`simulate`
takes the seed's pool from numpy's ``SeedSequence(seed).pool``, mixes in
the spawn words of a block of trials at once with a port of SeedSequence's
own hashing, and re-keys a single generator per trial, so the streams are
the same as those of one ``SeedSequence`` per trial.

Each trial draws its chain rounds' uniforms with ``Generator.random``
straight into one scratch buffer of 2**13 doubles, the same for the
whole run.  Once the next trial would not fit, the buffer is settled in
whole-array passes, straight into the run's per-trial arrays of rounds
played, recorded and total attempt counts.  A trial whose draws alone
do not fit draws them as raw Philox words (``random_raw``) and settles
on its own; its words are freed before the next trial draws.  One
kernel turns either into attempt counts: each round's largest draw (a
word's largest is converted to the double ``Generator.random`` makes of
it), then one logarithm per round, written into one second reusable
buffer of at least 4097 counts.  Attempt counts are integer-valued
doubles, so while a group's counts sum below 2**53 every partial sum is
exact in any order, and one ``np.add.reduceat`` gives each trial's
total.  At 2**53 and above partial sums round: each trial's failed
rounds are then numpy's sum of its own slice, as one draw per trial
would give.

A trial with more than 4096 failed rounds draws one standard normal z
in their place: their summed attempt count is ``failed*mean +
sqrt(failed*var)*z`` with one round's moments, rounded and at least
``failed``, as ``Generator.normal`` computes from the same words.  The
first two moments (and hence every estimator mean) are unchanged, but
desk-scale runs stay desk-scale even when the expected number of rounds
per success reaches tens of millions.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import BeyondRepresentable, NonTerminatingProcess, SimulationAbort
from .model import (
    DEFAULT_TOL,
    ChainConfig,
    ChannelParams,
    HardwareParams,
    _arg,
    _attempts_moments,
    _ec_prob,
    _NumpyOnFirstUse,
    _round_terms,
    _set_fields,
    _success_args,
)

# numpy loads on the first draw: a run rejected up front never pays for it.
np = _NumpyOnFirstUse(globals())

__all__ = ["TrialConfig", "TrialStats", "sample_chain_round", "simulate"]

# Failed rounds are replayed individually up to this count per trial;
# beyond it the summed attempt count is drawn from a matched normal.
_EXACT_ROUND_LIMIT = 4096

# Abort once a single success is expected (or observed) to need more
# rounds than this.
_MAX_ROUNDS_PER_SUCCESS = 10**9

# Trials whose Philox keys are derived together, and how many of those
# keys are Python lists at once.
_KEY_BLOCK = 1024
_KEY_LIST_ROWS = 128

# Trials' chain-round draws are turned into attempt counts in one numpy
# pass per buffer of this many doubles (64 KiB, under glibc's default
# mmap threshold); a trial that needs more draws raw words of its own.
_DRAW_BLOCK = 2**13

# Constants of numpy's SeedSequence hashing (O'Neill's seed_seq_fe).
_MASK32 = 0xFFFFFFFF
_MULT_A = 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# The hash constant once SeedSequence has mixed its 4-word pool, whatever
# the seed: it starts at 0x43B0D7E5 and is multiplied by _MULT_A 16 times,
# 4 to fill the pool and 12 to cross-mix it.
_SPAWN_HASH = 0x43B0D7E5 * pow(_MULT_A, 16, 1 << 32) & _MASK32


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
        _set_fields(self, hw="hw", chain="chain", ch="ch", trials="trials", seed="seed")


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
    2**32.

    The seed's words mix into the pool the same way for every trial, so the
    pool is numpy's own ``SeedSequence(seed).pool``; only mixing in the
    spawn word, then ``generate_state``, is ported, to run per trial on a
    whole block of indices at once."""
    # Python ints: products with the pool words must not wrap at 32 bits.
    pool = np.random.SeedSequence(seed).pool.tolist()
    index = np.arange(start, start + count, dtype=np.uint64)
    hash_const, out_const = _SPAWN_HASH, _INIT_B
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
        keys = _philox_keys(seed, start, min(_KEY_BLOCK, trials - start))
        for offset in range(0, len(keys), _KEY_LIST_ROWS):
            rows = keys[offset:offset + _KEY_LIST_ROWS].tolist()
            for j, key in enumerate(rows, start + offset):
                state["state"]["key"] = key
                bitgen.state = state
                yield j, rng


def sample_chain_round(p: float, n: int, rng: np.random.Generator) -> int:
    """Attempt number at which the slowest of ``n`` links succeeds:
    the maximum of ``n`` inverse-CDF geometric draws."""
    p, n, _ = _success_args(p, n)
    rng = _arg("rng", rng)
    with np.errstate(over="ignore"):  # past the float range for p near 0: checked here
        k = float(_sample_chain_rounds(p, n, 1, rng)[0])
    if k == math.inf:
        raise BeyondRepresentable("simulated attempt count beyond representable")
    return int(k)


def _sample_chain_rounds(p: float, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    # The callers convert p in (0, 1] and n >= 1.
    if p == 1.0:
        return np.ones(size, dtype=np.float64)
    try:
        draws = rng.random(size * n)
    except (MemoryError, ValueError):  # numpy's ValueError: past the largest array size
        raise SimulationAbort(
            f"simulation aborted: {size * n} draws do not fit in memory"
        ) from None
    return _round_attempts(draws, n, math.log1p(-p), np.empty(size))


def _round_attempts(draws: np.ndarray, n: int, log_q: float, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the attempt number of the slowest link in each
    chain round of ``n`` draws, with ``log_q = ln(1 - p)``.  The draws are
    uniform doubles, or raw 64-bit words w that stand for the doubles
    ``(w >> 11) * 2**-53`` which ``Generator.random`` makes of them.
    Float64: attempt counts scale as 1/p and can exceed the int64 range
    for very lossy links."""
    # The inverse CDF k = ceil(ln(1 - u) / ln q) never falls as u grows, so
    # a round's slowest link is its largest draw: one log per round.  A
    # word's double never falls as the word grows, so only the largest
    # word of a round is converted.
    rows = draws.reshape(-1, n)
    top = rows[:, 0]
    maxima = out.view(draws.dtype)
    for column in range(1, n):
        top = np.maximum(top, rows[:, column], out=maxima)
    if draws.dtype == np.uint64:
        top = np.multiply(np.right_shift(top, 11, out=maxima), 2.0**-53, out=out)
    np.subtract(1.0, top, out=out)
    np.log(out, out=out)
    np.divide(out, log_q, out=out)
    np.ceil(out, out=out)
    return np.maximum(out, 1.0, out=out)


def _play_trials(cfg: TrialConfig, p: float, n: int, log_q_round: float | None,
                 rounds: np.ndarray, recorded: np.ndarray, total: np.ndarray) -> None:
    """Play the trials into ``rounds`` (rounds played), ``recorded`` (the
    recorded round's attempt count) and ``total`` (attempts over all rounds)."""
    # At p = 1 every ln(1 - u) / -inf is 0: each round takes one attempt.
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    moments = None  # of one chain round's attempt count, once a trial aggregates
    draws = np.empty(_DRAW_BLOCK)
    # The buffer's attempt counts, or those of the most rounds one trial replays.
    attempts = np.empty(max(_DRAW_BLOCK // n, _EXACT_ROUND_LIMIT + 1))
    pos = 0
    # Per buffered trial: its index and the start of its rounds in the
    # buffer; per aggregated one: its index, failed rounds and normal draw.
    buffered, starts, aggregated = [], [], []

    def add_failed_sums(entries) -> None:  # of aggregated trials, from matched normals
        index, failed, z = map(np.array, zip(*entries))
        mean_k, var_k = moments
        sums = failed * mean_k
        if var_k != 0.0:  # else no normal was drawn
            sums += np.sqrt(failed * var_k) * z
            if not np.isfinite(sums).all():
                raise BeyondRepresentable("simulated attempt count beyond representable")
            sums = np.maximum(np.rint(sums), failed)
        total[index] += sums

    def settle() -> None:
        k = _round_attempts(draws[:pos], n, log_q, attempts[:pos // n])
        index = np.array(buffered)
        ends = np.array(starts[1:] + [k.size])
        recorded[index] = k[ends - 1]
        if k.sum() < 2.0**53:  # every partial sum exact, in any order
            total[index] = np.add.reduceat(k, starts)
        else:  # numpy's sum of each trial's own slice, as one draw per trial gives
            total[index] = recorded[index]
            for i, begin, end in zip(buffered, starts, ends.tolist()):
                if end - begin > 1:
                    total[i] += k[begin:end - 1].sum()
        if aggregated:
            add_failed_sums(aggregated)

    for j, rng in _trial_streams(cfg.seed, cfg.trials):
        if log_q_round is None:
            r = 1
        else:
            u = 1.0 - rng.random()
            r = max(math.ceil(math.log(u) / log_q_round), 1)
        if r > _MAX_ROUNDS_PER_SUCCESS:
            if pos:  # an earlier trial's unrepresentable total is raised first
                settle()
            raise SimulationAbort(
                f"simulation aborted: trial {j} needed {r} rounds for one success"
            )
        replayed, z = r, None
        if r - 1 > _EXACT_ROUND_LIMIT:
            if moments is None:
                moments = _attempts_moments(p, n, DEFAULT_TOL)
            replayed, z = 1, rng.standard_normal() if moments[1] else 0.0
        rounds[j] = r
        # The replayed failed rounds and the recorded one are consecutive
        # in the stream: one draw covers them all.
        size = replayed * n
        if size > _DRAW_BLOCK:
            # Past the buffer, the trial settles on its own from raw words,
            # released before the next trial draws.
            k = _round_attempts(rng.bit_generator.random_raw(size), n, log_q,
                                attempts[:replayed])
            whole = k.sum()  # exact below 2**53, in any order
            recorded[j] = k[-1]
            total[j] = whole if whole < 2.0**53 else k[-1] + k[:-1].sum()
            if z is not None:
                add_failed_sums([(j, r - 1, z)])
            continue
        if pos + size > _DRAW_BLOCK:
            settle()
            pos, buffered, starts, aggregated = 0, [], [], []
        if z is not None:
            aggregated.append((j, r - 1, z))
        buffered.append(j)
        starts.append(pos // n)
        rng.random(out=draws[pos:pos + size])
        pos += size
    if pos:
        settle()


def simulate(cfg: TrialConfig) -> TrialStats:
    """Play full distribution rounds until ``cfg.trials`` end-to-end
    successes and return the accumulated statistics.

    Aborts (:class:`SimulationAbort`) when a success is expected or
    observed to need more than 10^9 rounds, or when the per-trial arrays
    do not fit in memory; raises :class:`BeyondRepresentable` when a
    statistic overflows double precision or t_cc = L / c underflows to 0.
    """
    cfg = _arg("cfg", cfg)
    total_length, n = cfg.chain.total_length, cfg.chain.link_count
    p = _ec_prob(cfg.hw, total_length, n, cfg.ch)
    if p == 0.0:
        raise NonTerminatingProcess(
            "non-terminating process: entanglement creation never succeeds"
        )
    clock, t_cc, _, round_success = _round_terms(cfg.hw, total_length, n, cfg.ch)
    if round_success == 0.0 or 1.0 / round_success > _MAX_ROUNDS_PER_SUCCESS:
        raise SimulationAbort(
            f"simulation aborted: expected rounds per success exceeds {_MAX_ROUNDS_PER_SUCCESS:.0e}"
        )
    log_q_round = math.log1p(-round_success) if round_success < 1.0 else None
    if t_cc == 0.0:  # every sampled time would be 0 s
        raise BeyondRepresentable("total distribution time below representable")

    try:
        rounds = np.empty(cfg.trials, dtype=np.int64)
        k_success, total = np.empty(cfg.trials), np.empty(cfg.trials)
    except MemoryError:
        raise SimulationAbort(
            f"simulation aborted: {cfg.trials} trials do not fit in memory"
        ) from None
    # Attempt counts of very lossy links may overflow: checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        _play_trials(cfg, p, n, log_q_round, rounds, k_success, total)
        elapsed = clock * total + rounds * t_cc
        rounds_total = int(rounds.sum())
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
        attempt_histogram=dict(zip(map(int, ks.tolist()), counts.tolist())),
    )
