"""Acceptance suite: every gate criterion at its stated tolerance.

Each test exercises the public surface (CLI subcommands where the
criterion names one) and prints a single PASS line with the measured
numbers; a failed assert means the criterion is red.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repeaterchain.cli import main
from repeaterchain.model import (
    ChainConfig,
    ChannelParams,
    HardwareParams,
    combined_attempt_dist,
    expected_max_attempts,
    metrics,
)
from repeaterchain.montecarlo import TrialConfig, _round_attempts, simulate
from repeaterchain.planner import direct_transmission_time
from mp_oracle import mp_closed_form_moments
from trial_rng import trial_rng

HW = HardwareParams()
CH = ChannelParams()

# (L km, links): spans n in {1, 4, 8, 16} and L in {250, 500, 1000}.  Combos
# whose attempt count is constant to within ~1e-3 total variation are left
# out: no finite sample can resolve a 5% spread check there.
CROSS_VALIDATION_CONFIGS = [
    (250.0, 1), (250.0, 4),
    (500.0, 1), (500.0, 4), (500.0, 8),
    (750.0, 8), (750.0, 16),
    (1000.0, 1), (1000.0, 4), (1000.0, 8), (1000.0, 16),
]


def run_json(capsys, *argv: str) -> dict:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def report(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS — {message}")


def test_criterion_1_optimized_memory_time(capsys):
    start = time.perf_counter()
    payload = run_json(capsys, "optimize", "--L", "1600", "--format", "json")
    elapsed = time.perf_counter() - start
    mem = payload["record"]["mem_avg_s"]
    assert abs(mem - 0.84) <= 0.05 * 0.84
    assert elapsed < 1.0
    report(1, f"optimize L=1600 km: best_n={payload['best_n']}, "
              f"mem_time_avg={mem:.4f} s (0.84 s ±5%), {elapsed:.2f} s runtime")


def test_criterion_2_fixed_link_memory_time(capsys):
    start = time.perf_counter()
    payload = run_json(capsys, "fixed-link", "--L", "1600", "--L0", "125",
                       "--format", "json")
    elapsed = time.perf_counter() - start
    mem_fixed = payload["record"]["mem_avg_s"]
    assert abs(mem_fixed - 0.0265) <= 0.08 * 0.0265
    mem_best = run_json(capsys, "optimize", "--L", "1600", "--format", "json")[
        "record"]["mem_avg_s"]
    ratio = mem_best / mem_fixed
    assert 28.0 <= ratio <= 36.0
    assert elapsed < 1.0
    report(2, f"fixed-link L0=125 km: mem_time_avg={mem_fixed * 1e3:.2f} ms "
              f"(26.5 ms ±8%), reduction ratio={ratio:.1f} (in [28, 36]), "
              f"{elapsed:.2f} s runtime")


def test_criterion_3_crossover_with_direct_transmission(capsys):
    start = time.perf_counter()
    payload = run_json(capsys, "crossover", "--format", "json")
    elapsed = time.perf_counter() - start
    km = payload["crossover_km"]
    assert 400.0 <= km <= 550.0
    assert elapsed < 5.0
    report(3, f"crossover at {km:.0f} km (in [400, 550]), {elapsed:.2f} s runtime")


def test_criterion_4_direct_transmission_anchor():
    t = direct_transmission_time(500.0, CH, 1.0e10)
    assert abs(t - 1.0) <= 1e-12
    report(4, f"500 km @ 0.2 dB/km, 1e10 Hz source: {t!r} s (1 s exact)")


def test_criterion_5_series_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    points = 0
    for p in np.geomspace(1e-3, 1.0, 10):
        for n in range(1, 21):
            series = expected_max_attempts(float(p), n)
            closed = mp_closed_form_moments(float(p), n)[0]
            worst = max(worst, abs(series - closed) / closed)
            points += 1
    elapsed = time.perf_counter() - start
    assert points == 200
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(5, f"200-point grid p in [1e-3, 1], n in [1, 20]: worst relative "
              f"difference {worst:.2e} (≤ 1e-8), {elapsed:.2f} s runtime")


def test_criterion_6_monte_carlo_cross_validation():
    """``simulate`` against ``metrics`` at 11 configurations, 1e4 successes each.

    What it can resolve: ``se_t_tot / t_tot`` is about 1% everywhere (the
    geometric number of rounds dominates), so z < 4 passes a bias in
    ``t_tot`` of up to about 4%; ``mem_time_avg`` is resolved to 0.1-4%
    depending on the configuration (4% at n = 1); the spread gate is a
    fixed 5%, and clean runs read up to 1.5% there.  What it cannot see:
    an error in the terms the sampler takes from the model, the attempt
    probability (``_ec_prob``) and each round's success, clock and t_cc
    (``_round_terms``), because both sides use the same ones.
    """
    start = time.perf_counter()
    worst_z = 0.0
    worst_std = 0.0
    # One seed per configuration: with a shared seed, trial j draws its
    # round count from the same uniform everywhere and the z-scores move
    # together.
    for i, (L, n) in enumerate(CROSS_VALIDATION_CONFIGS):
        chain = ChainConfig(total_length=L, link_count=n)
        stats = simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=10**4, seed=123 + i))
        m = metrics(HW, chain, CH)
        z_tot = abs(stats.mean_t_tot - m.t_tot) / stats.se_t_tot
        z_mem = abs(stats.mean_mem_time - m.mem_time_avg) / stats.se_mem_time
        std_err = abs(stats.std_mem_time / m.mem_time_std - 1.0)
        assert z_tot < 4.0, (L, n, z_tot)
        assert z_mem < 4.0, (L, n, z_mem)
        assert std_err < 0.05, (L, n, std_err)
        worst_z = max(worst_z, z_tot, z_mem)
        worst_std = max(worst_std, std_err)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"{len(CROSS_VALIDATION_CONFIGS)} configurations x 1e4 successes: "
              f"worst |z|={worst_z:.2f} (< 4), worst std error={worst_std:.2%} "
              f"(< 5%), {elapsed:.1f} s runtime")


def test_criterion_7_distribution_laws():
    start = time.perf_counter()
    # Normalization with declared tail across the working range.
    for p in (1e-3, 0.05, 0.5, 0.99):
        for n in (1, 2, 8, 32, 64):
            dist = combined_attempt_dist(p, n)
            assert abs(float(dist.probs.sum()) + dist.tail_mass - 1.0) < 1e-10
            assert dist.tail_mass <= 1e-12 + 1e-15
    # Single-link reduction.
    for p in (1e-3, 0.1, 0.5, 0.9):
        reduced = combined_attempt_dist(p, 1)
        single = p * (1.0 - p) ** (reduced.attempt_numbers - 1)
        np.testing.assert_allclose(reduced.probs, single, rtol=1e-12, atol=1e-12)
    # Goodness of fit of 1e6 sampled chain rounds against the analytic law.
    p, n, size = 0.3, 3, 10**6
    draws = _round_attempts(trial_rng(3, 0).random(n * size), n, math.log1p(-p), np.empty(size))
    dist = combined_attempt_dist(p, n)
    expected = dist.probs * size
    cut = int(np.argmax(expected < 5.0))
    observed = np.bincount(draws.astype(np.int64), minlength=dist.probs.size + 1)[1:]
    obs_bins = np.append(observed[:cut], observed[cut:].sum())
    exp_bins = np.append(expected[:cut], expected[cut:].sum() + dist.tail_mass * size)
    statistic = float(((obs_bins - exp_bins) ** 2 / exp_bins).sum())
    critical = float(scipy_stats.chi2.ppf(0.99, df=obs_bins.size - 1))
    assert statistic < critical
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"normalization ≤ 1e-10, n=1 reduction ≤ 1e-12, chi2 {statistic:.1f} "
              f"< {critical:.1f} on 1e6 samples, {elapsed:.1f} s runtime")


def test_criterion_8_simulation_determinism(capsys):
    argv = ["simulate", "--L", "500", "--n", "4", "--trials", "1000",
            "--seed", "42", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    argv_csv = argv[:-1] + ["csv"]
    assert main(argv_csv) == 0
    first_csv = capsys.readouterr().out
    assert main(argv_csv) == 0
    second_csv = capsys.readouterr().out
    assert first_csv.encode() == second_csv.encode()
    report(8, "simulate with fixed seed: machine output byte-identical across runs")
