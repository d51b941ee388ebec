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
result.

Rounds whose failure count is large are aggregated through a
moment-matched normal draw for the summed attempt count instead of being
replayed one by one; the first two moments (and hence every estimator
mean) are unchanged, but desk-scale runs stay desk-scale even when the
expected number of rounds per success reaches tens of millions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonTerminatingProcess, SimulationAbort
from .model import (
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
    # SeedSequence spreads the (seed, index) pair into well-distributed key
    # material; raw structured Philox keys measurably bias the stream.
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _geometric_from_uniform(u: np.ndarray, log_q: float) -> np.ndarray:
    # Inverse CDF: k = ceil(ln u / ln(1 - p)) for u in (0, 1], clamped to 1.
    k = np.ceil(np.log(u) / log_q)
    return np.maximum(k, 1.0)


def sample_chain_round(p: float, n: int, rng: np.random.Generator) -> int:
    """Attempt number at which the slowest of ``n`` links succeeds:
    the maximum of ``n`` inverse-CDF geometric draws."""
    return int(_sample_chain_rounds(p, n, 1, rng)[0])


def _sample_chain_rounds(p: float, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    # Returned as float64: attempt counts scale as 1/p and can exceed the
    # int64 range for very lossy links.
    if p == 0.0:
        raise NonTerminatingProcess("non-terminating process: success probability is zero")
    if not (0.0 < p <= 1.0):
        raise ConfigError(f"success probability must be in (0, 1], got {p}")
    if int(n) != n or n < 1:
        raise ConfigError(f"link count must be a positive integer, got {n}")
    if p == 1.0:
        return np.ones(size, dtype=np.float64)
    u = 1.0 - rng.random((size, int(n)))
    draws = _geometric_from_uniform(u, math.log1p(-p))
    return draws.max(axis=1)


def _sum_failed_attempts(
    p: float,
    n: int,
    failed: int,
    rng: np.random.Generator,
    mean_k: float,
    var_k: float,
) -> float:
    """Total attempt count across ``failed`` discarded rounds."""
    if failed == 0:
        return 0.0
    if failed <= _EXACT_ROUND_LIMIT:
        return float(_sample_chain_rounds(p, n, failed, rng).sum())
    if var_k == 0.0:
        return float(failed) * mean_k
    total = rng.normal(failed * mean_k, math.sqrt(failed * var_k))
    return max(round(total), float(failed))


def simulate(cfg: TrialConfig) -> TrialStats:
    """Play full distribution rounds until ``cfg.trials`` end-to-end
    successes and return the accumulated statistics.

    Aborts (:class:`SimulationAbort`) when a success is expected or
    observed to need more than 10^9 rounds.
    """
    p = ec_prob(cfg.hw, cfg.chain, cfg.ch)
    if p == 0.0:
        raise NonTerminatingProcess(
            "non-terminating process: entanglement creation never succeeds"
        )
    n = cfg.chain.link_count
    _, round_success = _round_success(cfg.hw, n)
    if round_success == 0.0 or 1.0 / round_success > _MAX_ROUNDS_PER_SUCCESS:
        raise SimulationAbort(
            f"simulation aborted: expected rounds per success exceeds {_MAX_ROUNDS_PER_SUCCESS:.0e}"
        )
    log_q_round = math.log1p(-round_success) if round_success < 1.0 else None
    mean_k, var_k = _attempts_moments(p, n, 1e-12)
    clock = cfg.chain.link_length / cfg.ch.signal_speed
    t_cc = cfg.chain.total_length / cfg.ch.signal_speed

    k_success = np.empty(cfg.trials, dtype=np.float64)
    elapsed = np.empty(cfg.trials, dtype=np.float64)
    rounds_total = 0
    for j in range(cfg.trials):
        rng = _trial_rng(cfg.seed, j)
        if log_q_round is None:
            rounds = 1
        else:
            u = 1.0 - rng.random()
            rounds = int(max(math.ceil(math.log(u) / log_q_round), 1))
        if rounds > _MAX_ROUNDS_PER_SUCCESS:
            raise SimulationAbort(
                f"simulation aborted: trial {j} needed {rounds} rounds for one success"
            )
        failed_sum = _sum_failed_attempts(p, n, rounds - 1, rng, mean_k, var_k)
        k_j = float(_sample_chain_rounds(p, n, 1, rng)[0])
        k_success[j] = k_j
        elapsed[j] = clock * (failed_sum + k_j) + rounds * t_cc
        rounds_total += rounds

    mem_times = clock * k_success + t_cc  # storage span of each recorded round
    ddof = 1 if cfg.trials > 1 else 0
    sqrt_n = math.sqrt(cfg.trials)
    ks, counts = np.unique(k_success, return_counts=True)
    return TrialStats(
        trials=cfg.trials,
        rounds_total=rounds_total,
        mean_attempts=float(k_success.mean()),
        se_attempts=float(k_success.std(ddof=ddof)) / sqrt_n,
        mean_t_tot=float(elapsed.mean()),
        se_t_tot=float(elapsed.std(ddof=ddof)) / sqrt_n,
        mean_mem_time=float(mem_times.mean()),
        se_mem_time=float(mem_times.std(ddof=ddof)) / sqrt_n,
        std_mem_time=float(mem_times.std(ddof=ddof)),
        es_success_rate=cfg.trials / rounds_total,
        attempt_histogram={int(k): int(c) for k, c in zip(ks, counts)},
    )
