from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repeaterchain.errors import (
    BeyondRepresentable,
    ConfigError,
    NonTerminatingProcess,
    SimulationAbort,
)
from repeaterchain.model import (
    DEFAULT_TOL,
    ChainConfig,
    ChannelParams,
    HardwareParams,
    _attempts_moments,
    _round_terms,
    combined_attempt_dist,
    ec_prob,
    metrics,
)
from repeaterchain import montecarlo
from repeaterchain.montecarlo import (
    _DRAW_BLOCK,
    _EXACT_ROUND_LIMIT,
    _KEY_BLOCK,
    TrialConfig,
    _philox_keys,
    _play_trials,
    _round_attempts,
    _sample_chain_rounds,
    _trial_rng,
    _trial_streams,
    sample_chain_round,
    simulate,
)

HW = HardwareParams()
CH = ChannelParams()


def test_trial_config_validation():
    chain = ChainConfig(total_length=500.0, link_count=4)
    for trials, seed in [(0, 1), (10, -1), (10, 2**64), (10.0, 1), (10.5, 1), (10, 1.5)]:
        with pytest.raises(ConfigError):
            TrialConfig(hw=HW, chain=chain, ch=CH, trials=trials, seed=seed)


def test_trial_config_takes_numpy_integers():
    chain = ChainConfig(total_length=500.0, link_count=4)
    cfg = TrialConfig(hw=HW, chain=chain, ch=CH, trials=np.int64(50), seed=np.uint64(7))
    assert type(cfg.trials) is int and type(cfg.seed) is int
    assert simulate(cfg) == simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=50, seed=7))
    TrialConfig(hw=HW, chain=chain, ch=CH, trials=1, seed=np.int32(0))
    for trials, seed in [(True, 1), (np.True_, 1), (10, False), (10, np.False_),
                         (np.float64(10.0), 1), (10, "1"), (np.int64(0), 1), (10, np.int64(-1))]:
        with pytest.raises(ConfigError):
            TrialConfig(hw=HW, chain=chain, ch=CH, trials=trials, seed=seed)


def test_trial_config_caps_trials_at_2_32():
    chain = ChainConfig(total_length=500.0, link_count=4)
    TrialConfig(hw=HW, chain=chain, ch=CH, trials=2**32, seed=1)
    with pytest.raises(ConfigError, match="trials"):
        TrialConfig(hw=HW, chain=chain, ch=CH, trials=2**32 + 1, seed=1)


# ---------------------------------------------------------------- trial streams

@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_philox_keys_match_seed_sequence(seed):
    indices = [0, 1, _KEY_BLOCK - 1, _KEY_BLOCK, 2 * _KEY_BLOCK - 1, 2 * _KEY_BLOCK, 2**32 - 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning may reach stderr
        block = _philox_keys(seed, 0, 2 * _KEY_BLOCK + 1)
        singles = {j: _philox_keys(seed, j, 1)[0] for j in indices}
    assert block.shape == (2 * _KEY_BLOCK + 1, 2) and block.dtype == np.uint64
    for j in indices:
        expected = np.random.SeedSequence(entropy=seed, spawn_key=(j,)).generate_state(2, np.uint64)
        np.testing.assert_array_equal(singles[j], expected)
        if j < block.shape[0]:
            np.testing.assert_array_equal(block[j], expected)


def test_trial_streams_match_per_trial_generators():
    # Across the first key-block edge, the re-keyed generator draws the
    # same numbers (uniform and normal) as a fresh per-trial generator.
    checked = {0, 1, _KEY_BLOCK - 1, _KEY_BLOCK, _KEY_BLOCK + 1}
    seen = []
    for j, rng in _trial_streams(42, _KEY_BLOCK + 2):
        if j in checked:
            ref = _trial_rng(42, j)
            assert rng.random() == ref.random()
            np.testing.assert_array_equal(rng.random((3, 5)), ref.random((3, 5)))
            assert rng.normal(2.0, 3.0) == ref.normal(2.0, 3.0)
            seen.append(j)
    assert seen == sorted(checked)


# ---------------------------------------------------------------- round sampler

def test_chain_round_certain_success():
    rng = _trial_rng(0, 0)
    assert all(sample_chain_round(1.0, n, rng) == 1 for n in (1, 5, 20))


def test_chain_round_rejects_zero_probability():
    with pytest.raises(NonTerminatingProcess):
        sample_chain_round(0.0, 2, _trial_rng(0, 0))


@pytest.mark.parametrize("n", [2**59, 10**30])  # 4 EiB of draws; more than numpy can index
def test_chain_round_too_large_for_memory_aborts(n):
    with pytest.raises(SimulationAbort, match="do not fit in memory"):
        sample_chain_round(0.5, n, _trial_rng(0, 0))


def test_chain_round_mean_two_links():
    draws = _sample_chain_rounds(0.5, 2, 10**6, _trial_rng(1, 0))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 8.0 / 3.0) < 3.0 * se


def test_chain_round_mean_single_link():
    draws = _sample_chain_rounds(0.1, 1, 10**6, _trial_rng(2, 0))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 10.0) < 3.0 * se


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 17])
@pytest.mark.parametrize("p", [1e-9, 1e-4, 0.3, 0.999])
def test_chain_round_row_max_equals_per_element_formula(p, n):
    # One log per round must give the max of the per-element inverse-CDF
    # draws exactly, on the same stream.
    for seed in (0, 1):
        kernel_rng, formula_rng = _trial_rng(seed, 0), _trial_rng(seed, 0)
        for size in (1, 5, 4097):
            r = formula_rng.random((size, n))
            per_element = np.maximum(np.ceil(np.log(1.0 - r) / math.log1p(-p)), 1.0)
            expected = per_element.max(axis=1)
            np.testing.assert_array_equal(_sample_chain_rounds(p, n, size, kernel_rng), expected)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 17])
@pytest.mark.parametrize("p", [1e-9, 0.3, 0.999, 1.0])
def test_round_attempts_on_raw_words_equal_those_on_doubles(p, n):
    # A deep trial draws raw Philox words: each round's largest word,
    # converted once, must give the attempt counts of the doubles that
    # Generator.random draws from the same key.  One double is drawn
    # first, as the rounds' count is, so the words start mid-block.
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    for size in (1, 5, 4097):
        word_rng, double_rng = _trial_rng(size, n), _trial_rng(size, n)
        assert word_rng.random() == double_rng.random()
        words = word_rng.bit_generator.random_raw(size * n)
        assert words.dtype == np.uint64
        from_words = _round_attempts(words, n, log_q, np.empty(size))
        from_doubles = _round_attempts(double_rng.random(size * n), n, log_q, np.empty(size))
        np.testing.assert_array_equal(from_words, from_doubles)
        assert word_rng.random() == double_rng.random()  # the streams go on alike


@pytest.mark.parametrize("n", [1, 3, 8])
def test_chain_round_on_mt19937_matches_per_element_formula(n):
    # A caller's generator may be MT19937, whose doubles take two 32-bit
    # words each: sample_chain_round must read the generator's doubles.
    p = 0.3
    rng = np.random.Generator(np.random.MT19937(7))
    reference = np.random.Generator(np.random.MT19937(7))
    for _ in range(50):
        u = reference.random(n)
        expected = np.maximum(np.ceil(np.log(1.0 - u) / math.log1p(-p)), 1.0).max()
        assert sample_chain_round(p, n, rng) == expected


@pytest.mark.parametrize("n", [1, 8, 17])
def test_chain_round_certain_success_draws_nothing(n):
    rng = _trial_rng(5, 0)
    np.testing.assert_array_equal(_sample_chain_rounds(1.0, n, 7, rng), np.ones(7))
    assert rng.random() == _trial_rng(5, 0).random()


def test_chain_round_histogram_matches_distribution():
    # Pearson chi-square against the analytical law at 1% significance.
    p, n, size = 0.3, 3, 10**5
    draws = _sample_chain_rounds(p, n, size, _trial_rng(3, 0))
    dist = combined_attempt_dist(p, n)
    expected = dist.probs * size
    cut = int(np.argmax(expected < 5.0))  # merge sparse tail bins
    observed = np.bincount(draws.astype(np.int64), minlength=dist.probs.size + 1)[1:]
    obs_bins = np.append(observed[:cut], observed[cut:].sum())
    exp_bins = np.append(expected[:cut], expected[cut:].sum() + dist.tail_mass * size)
    statistic = float(((obs_bins - exp_bins) ** 2 / exp_bins).sum())
    critical = scipy_stats.chi2.ppf(0.99, df=obs_bins.size - 1)
    assert statistic < critical


# ---------------------------------------------------------------- full simulation

def test_simulate_trivial_chain_is_exact():
    # Certain EC success, perfect swaps and retrieval, power-of-two clock:
    # every trial takes exactly one round of 2 L / c.
    hw = HardwareParams(detector_eff=1.0, memory_eff=1.0, emission_prob=1.0, mode_count=1000)
    ch = ChannelParams(attenuation=0.0, signal_speed=2.0e5)
    chain = ChainConfig(total_length=195.3125, link_count=1)  # L/c = 2^-10 s
    stats = simulate(TrialConfig(hw=hw, chain=chain, ch=ch, trials=64, seed=9))
    assert stats.mean_t_tot == 2.0 * 195.3125 / 2.0e5
    assert stats.se_t_tot == 0.0
    assert stats.std_mem_time == 0.0
    assert stats.rounds_total == 64
    assert stats.attempt_histogram == {1: 64}


# Full TrialStats by (L km, links, trials, seed[, memory_eff]), captured
# from the one-SeedSequence-per-trial sampler; the histogram is kept as the
# sha256 of its sorted json items.
GOLDEN_STATS = {
    (500.0, 8, 300, 0): {  # replays failed rounds and aggregates deep trials
        "trials": 300, "rounds_total": 1158743, "mean_attempts": 1.96,
        "se_attempts": 0.037999002509938054, "mean_t_tot": 12.013613541666667,
        "se_t_tot": 0.6748935872102915, "mean_mem_time": 0.0031124999999999994,
        "se_mem_time": 1.1874688284355644e-05, "std_mem_time": 0.0002056756343254688,
        "es_success_rate": 0.00025890124039584274,
        "attempt_histogram": "4fd45617bfef582c1f0ebe4c1c71d3636883598ec929ccce9c4137f5605b201c",
    },
    (1000.0, 16, 200, 2**64 - 1): {  # aggregation only, two-word seed
        "trials": 200, "rounds_total": 5219287245, "mean_attempts": 2.33,
        "se_attempts": 0.05403795427764233, "mean_t_tot": 149449.532353125,
        "se_t_tot": 10261.727899342333, "mean_mem_time": 0.005728125,
        "se_mem_time": 1.6886860711763232e-05, "std_mem_time": 0.00023881627444480942,
        "es_success_rate": 3.8319408496169095e-08,
        "attempt_histogram": "46a6586448820b044dc3e181cf95fd64bbb2a56acfa05094b64c7b9466537c1c",
    },
    (250.0, 1, 4100, 42): {  # crosses a key-block edge
        "trials": 4100, "rounds_total": 6123, "mean_attempts": 3019.920487804878,
        "se_attempts": 46.64561081233095, "mean_t_tot": 5.719687804878049,
        "se_t_tot": 0.08844981537365197, "mean_mem_time": 3.7761506097560975,
        "se_mem_time": 0.058307013515413696, "std_mem_time": 3.733470514528701,
        "es_success_rate": 0.6696064020904785,
        "attempt_histogram": "d732612c53c3283b0d346f29d832a8afe20162ee31c2bf84e6bb77f3af68fc40",
    },
    # memory_eff 0.3: attempt counts near 3e18, so failed-round sums pass
    # 2**53 and their bits depend on the summation order.
    (1000.0, 1, 2000, 0, 0.3): {
        "trials": 2000, "rounds_total": 28048, "mean_attempts": 2.9545240711899377e+18,
        "se_attempts": 6.35550997903916e+16, "mean_t_tot": 2.1333844085772707e+17,
        "se_t_tot": 4700610594804683.0, "mean_mem_time": 1.4772620355949686e+16,
        "se_mem_time": 317775498951958.06, "std_mem_time": 1.4211352344809828e+16,
        "es_success_rate": 0.0713063320022818,
        "attempt_histogram": "f229656e85c2eec1f4b1bf331202a253ae433f45d18ce68e92b2edf1553b5244",
    },
}


@pytest.mark.parametrize("key", list(GOLDEN_STATS), ids=lambda key: "-".join(map(str, key)))
def test_simulate_golden_streams(key):
    L, n, trials, seed, *memory_eff = key
    hw = HardwareParams(memory_eff=memory_eff[0]) if memory_eff else HW
    stats = simulate(TrialConfig(hw=hw, chain=ChainConfig(total_length=L, link_count=n),
                                 ch=CH, trials=trials, seed=seed))
    got = dataclasses.asdict(stats)
    histogram = json.dumps(sorted(got["attempt_histogram"].items())).encode()
    got["attempt_histogram"] = hashlib.sha256(histogram).hexdigest()
    assert got == GOLDEN_STATS[key]


def test_simulate_replays_a_trial_at_the_aggregation_boundary():
    # Trial 0 of this seed needs exactly _EXACT_ROUND_LIMIT + 1 rounds, the
    # most whose failed rounds are still replayed one by one.
    seed = 22908
    chain = ChainConfig(total_length=500.0, link_count=8)
    p = ec_prob(HW, chain, CH)
    success = _round_terms(HW, chain.total_length, 8, CH)[3]
    rng = _trial_rng(seed, 0)
    rounds = max(math.ceil(math.log(1.0 - rng.random()) / math.log1p(-success)), 1)
    assert rounds == _EXACT_ROUND_LIMIT + 1
    draws = rng.random((rounds, 8))
    k = np.maximum(np.ceil(np.log(1.0 - draws) / math.log1p(-p)), 1.0).max(axis=1)
    clock = chain.link_length / CH.signal_speed
    t_cc = chain.total_length / CH.signal_speed
    stats = simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=1, seed=seed))
    assert stats.rounds_total == rounds
    assert stats.mean_attempts == k[-1]
    assert stats.mean_t_tot == clock * (k[:-1].sum() + k[-1]) + rounds * t_cc


@pytest.mark.parametrize("block", [1, 64, _DRAW_BLOCK],
                         ids=["one-round", "middle", "default"])
def test_buffered_totals_match_one_trial_replays(block, monkeypatch):
    # Attempt counts near 3e18 make the failed-round sums pass 2**53, where
    # their bits depend on the order of summation: each trial's total must be
    # the sum of its own failed rounds, then its recorded round, wherever the
    # draw buffer settles between trials.
    monkeypatch.setattr(montecarlo, "_DRAW_BLOCK", block)
    hw = HardwareParams(memory_eff=0.3)
    chain = ChainConfig(total_length=1000.0, link_count=1)
    cfg = TrialConfig(hw=hw, chain=chain, ch=CH, trials=400, seed=0)
    p = ec_prob(hw, chain, CH)
    log_q_round = math.log1p(-_round_terms(hw, chain.total_length, 1, CH)[3])
    totals = _played(cfg, p, 1, log_q_round)[2]
    expected = []
    for j in range(cfg.trials):
        rng = _trial_rng(cfg.seed, j)
        rounds = max(math.ceil(math.log(1.0 - rng.random()) / log_q_round), 1)
        k = np.maximum(np.ceil(np.log(1.0 - rng.random(rounds)) / math.log1p(-p)), 1.0)
        expected.append((rounds, k[:-1].sum() + k[-1]))
    assert max(rounds for rounds, _ in expected) > 8  # past numpy's sequential sums
    assert min(total for _, total in expected) > 2.0**53
    assert totals.tolist() == [total for _, total in expected]


def _played(cfg, p, n, log_q_round):
    # Each trial's rounds played, recorded attempt count and total attempt
    # count, as _play_trials writes them into simulate's per-run arrays;
    # a slot it leaves unwritten reads -1 or nan.
    rounds = np.full(cfg.trials, -1, dtype=np.int64)
    recorded, total = np.full(cfg.trials, math.nan), np.full(cfg.trials, math.nan)
    _play_trials(cfg, p, n, log_q_round, rounds, recorded, total)
    return np.array([rounds, recorded, total])


def _replayed_trial(rng, n, log_q, log_q_round):
    # One trial as the sampler plays it without aggregation: its rounds,
    # recorded attempt count and attempt count over all rounds.
    rounds = max(math.ceil(math.log(1.0 - rng.random()) / log_q_round), 1)
    k = np.maximum(np.ceil(np.log(1.0 - rng.random((rounds, n))) / log_q), 1.0).max(axis=1)
    return rounds, k[-1], k[:-1].sum() + k[-1]


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("block", [1, 64, _DRAW_BLOCK],
                         ids=["one-round", "middle", "default"])
def test_buffered_totals_below_2_53_match_one_trial_replays(n, block, monkeypatch):
    # Below 2**53 a buffer's attempt counts sum exactly in any order, so the
    # whole buffer settles in one reduceat: each trial's total must still
    # be its own failed rounds plus its recorded round.
    monkeypatch.setattr(montecarlo, "_DRAW_BLOCK", block)
    chain = ChainConfig(total_length=500.0, link_count=n)
    cfg = TrialConfig(hw=HW, chain=chain, ch=CH, trials=300, seed=5)
    p = ec_prob(HW, chain, CH)
    log_q_round = math.log1p(-_round_terms(HW, chain.total_length, n, CH)[3])
    got = _played(cfg, p, n, log_q_round)
    expected = np.array([_replayed_trial(_trial_rng(cfg.seed, j), n, math.log1p(-p), log_q_round)
                         for j in range(cfg.trials)]).T
    assert expected[0].max() - 1 <= _EXACT_ROUND_LIMIT  # every failed round replayed
    assert expected[0].max() > 1  # some failed rounds to sum
    assert expected[2].sum() < 2.0**53  # so every buffer takes the reduceat path
    assert got.tolist() == expected.tolist()


def test_aggregated_totals_match_numpy_normal():
    # An aggregated trial draws one standard normal for its failed rounds;
    # Generator.normal(loc, scale) must read the same words and give the
    # same total, rounded and floored at one attempt per failed round.
    # The trials run past one key block, so the play loop's uniform and
    # normal draws are checked on both sides of its edge.
    _check_aggregated_totals()


@pytest.mark.parametrize("block", [1, 64], ids=["one-round", "middle"])
def test_aggregated_totals_past_the_buffer_match_numpy_normal(block, monkeypatch):
    # With a buffer of one draw every trial, aggregated ones included,
    # draws raw words and settles on its own; with 64, deep trials do.
    monkeypatch.setattr(montecarlo, "_DRAW_BLOCK", block)
    _check_aggregated_totals()


def _check_aggregated_totals():
    n = 8
    chain = ChainConfig(total_length=500.0, link_count=n)
    cfg = TrialConfig(hw=HW, chain=chain, ch=CH, trials=_KEY_BLOCK + 76, seed=3)
    p = ec_prob(HW, chain, CH)
    log_q_round = math.log1p(-_round_terms(HW, chain.total_length, n, CH)[3])
    mean_k, var_k = _attempts_moments(p, n, DEFAULT_TOL)
    got = _played(cfg, p, n, log_q_round)
    expected, aggregated = [], []
    for j in range(cfg.trials):
        rng = _trial_rng(cfg.seed, j)
        rounds = max(math.ceil(math.log(1.0 - rng.random()) / log_q_round), 1)
        failed = rounds - 1
        if failed <= _EXACT_ROUND_LIMIT:
            expected.append(_replayed_trial(_trial_rng(cfg.seed, j), n, math.log1p(-p),
                                            log_q_round))
            continue
        aggregated.append(j)
        failed_sum = max(round(rng.normal(failed * mean_k, math.sqrt(failed * var_k))), failed)
        k = np.maximum(np.ceil(np.log(1.0 - rng.random(n)) / math.log1p(-p)), 1.0).max()
        expected.append((rounds, k, k + failed_sum))
    assert 0 < len(aggregated) < cfg.trials
    assert aggregated[0] < _KEY_BLOCK <= aggregated[-1]
    assert got.tolist() == np.array(expected).T.tolist()


def test_simulate_raises_an_unrepresentable_total_before_a_later_abort():
    # Trial 0 aggregates a failed-round sum whose variance overflows; trial
    # 1 needs more than 10**9 rounds.  The earlier trial's error comes first.
    hw = HardwareParams(detector_eff=1.0, memory_eff=1.0, emission_prob=1.0, mode_count=1000)
    cfg = TrialConfig(hw=hw, chain=ChainConfig(total_length=3000.0, link_count=30),
                      ch=ChannelParams(attenuation=30.7), trials=2, seed=14)
    with pytest.raises(BeyondRepresentable, match="attempt count"):
        simulate(cfg)
    with pytest.raises(SimulationAbort, match="trial 1 needed"):
        simulate(dataclasses.replace(cfg, hw=dataclasses.replace(hw, memory_eff=0.999),
                                     ch=CH))


def test_simulate_rejects_statistics_past_the_float_range():
    # t_cc = L / c is 1e307 s: each round's time is finite, but a trial's
    # elapsed time over its rounds overflows, as the model's total does.
    chain = ChainConfig(total_length=500.0, link_count=4)
    ch = ChannelParams(signal_speed=5e-305)
    with pytest.raises(BeyondRepresentable, match="total distribution time"):
        metrics(HW, chain, ch)
    with pytest.raises(BeyondRepresentable, match="simulated statistics beyond representable"):
        simulate(TrialConfig(hw=HW, chain=chain, ch=ch, trials=10, seed=0))


def test_simulate_memory_stays_within_buffers():
    # Trials here replay thousands of rounds, so many draw raw words past
    # the buffer.  Alive at most: the draw buffer, one scratch of attempt
    # counts, one deep trial's n words per round (freed before the next
    # trial draws) and numpy's copy of its maxima as they are converted,
    # the per-trial arrays and at most 128 keys' Python lists.  The bound
    # counts n draws and one attempt count per buffered round and per
    # round of one deep trial, two per-trial arrays and 256 bytes per key
    # of a block.
    n, trials = 8, 10**3
    doubles = (_DRAW_BLOCK // n + _EXACT_ROUND_LIMIT + 1) * (n + 1) + 2 * trials
    bound = 8 * doubles + 256 * _KEY_BLOCK
    cfg = TrialConfig(hw=HW, chain=ChainConfig(total_length=500.0, link_count=n),
                      ch=CH, trials=trials, seed=0)
    simulate(dataclasses.replace(cfg, trials=1))  # numpy's own first-use allocations
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_simulate_is_deterministic():
    cfg = TrialConfig(hw=HW, chain=ChainConfig(total_length=500.0, link_count=4),
                      ch=CH, trials=2000, seed=42)
    assert simulate(cfg) == simulate(cfg)


def test_simulate_seed_changes_stream():
    chain = ChainConfig(total_length=500.0, link_count=4)
    a = simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=500, seed=1))
    b = simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=500, seed=2))
    assert a != b


@pytest.mark.parametrize("L,n", [(500.0, 4), (1000.0, 16)])
def test_simulate_matches_analytical_model(L, n):
    chain = ChainConfig(total_length=L, link_count=n)
    stats = simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=10**4, seed=123))
    m = metrics(HW, chain, CH)
    assert abs(stats.mean_t_tot - m.t_tot) < 3.0 * stats.se_t_tot
    assert abs(stats.mean_mem_time - m.mem_time_avg) < 3.0 * stats.se_mem_time
    assert stats.std_mem_time == pytest.approx(m.mem_time_std, rel=0.05)


def test_simulate_estimator_consistent_across_seeds():
    # An unbiased estimator should land within 4 standard errors for
    # essentially every seed, not just a lucky one.
    chain = ChainConfig(total_length=500.0, link_count=4)
    m = metrics(HW, chain, CH)
    hits = 0
    for seed in range(20):
        stats = simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=2000, seed=seed))
        if (abs(stats.mean_t_tot - m.t_tot) < 4.0 * stats.se_t_tot
                and abs(stats.mean_mem_time - m.mem_time_avg) < 4.0 * stats.se_mem_time):
            hits += 1
    assert hits >= 19


def test_simulate_memory_time_identity():
    # Each recorded round's storage time is (L0/c) * attempts + L/c, so the
    # sample means satisfy the same affine relation.
    chain = ChainConfig(total_length=800.0, link_count=4)
    stats = simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=3000, seed=7))
    clock = chain.link_length / CH.signal_speed
    t_cc = chain.total_length / CH.signal_speed
    assert stats.mean_mem_time == pytest.approx(
        clock * stats.mean_attempts + t_cc, rel=1e-12)
    assert sum(stats.attempt_histogram.values()) == stats.trials
    assert min(stats.attempt_histogram) >= 1


def test_simulate_success_rate_estimates_swap_probability():
    chain = ChainConfig(total_length=500.0, link_count=4)
    stats = simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=10**4, seed=5))
    m = metrics(HW, chain, CH)
    retrieval = (HW.memory_eff * HW.detector_eff) ** 2
    expected_rate = m.p_es * retrieval
    se = math.sqrt(expected_rate * (1 - expected_rate) * stats.rounds_total) / stats.rounds_total
    assert abs(stats.es_success_rate - expected_rate) < 5.0 * se


def test_simulate_aborts_on_hopeless_swap_chain():
    # 24 links: the expected rounds per success exceed the guard by orders
    # of magnitude, so the run must refuse instead of spinning.
    chain = ChainConfig(total_length=120.0, link_count=24)
    with pytest.raises(SimulationAbort):
        simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=1, seed=0))


def test_simulate_turns_memory_error_into_abort(monkeypatch):
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if shape == 2**32:
            raise MemoryError("cannot allocate")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(montecarlo.np, "empty", empty)
    chain = ChainConfig(total_length=500.0, link_count=4)
    with pytest.raises(SimulationAbort, match="memory"):
        simulate(TrialConfig(hw=HW, chain=chain, ch=CH, trials=2**32, seed=0))


def test_simulate_propagates_dead_source():
    chain = ChainConfig(total_length=100.0, link_count=1)
    with pytest.raises(NonTerminatingProcess):
        simulate(TrialConfig(hw=HardwareParams(emission_prob=0.0), chain=chain,
                             ch=CH, trials=1, seed=0))
