from __future__ import annotations

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeaterchain import model
from repeaterchain.errors import (
    ConfigError,
    ModelError,
    NonTerminatingProcess,
    UnreachableConfiguration,
)
from repeaterchain.model import (
    DEFAULT_TOL,
    AttemptDistribution,
    ChainConfig,
    ChannelParams,
    HardwareParams,
    _closed_form_moments,
    combined_attempt_dist,
    ec_prob,
    ec_prob_single_mode,
    expected_max_attempts,
    metrics,
)
from mp_oracle import mp_closed_form_moments

DEFAULT_HW = HardwareParams()
DEFAULT_CH = ChannelParams()


def unit_clock_setup(p1m: float, n: int) -> tuple[HardwareParams, ChainConfig, ChannelParams]:
    """Lossless fiber with 1 km/s signal speed and 1 km links, so the clock
    interval is exactly 1 s and the single-mode EC probability is ``p1m``."""
    hw = HardwareParams(detector_eff=1.0, memory_eff=1.0,
                        emission_prob=math.sqrt(2.0 * p1m), mode_count=1)
    return hw, ChainConfig(total_length=float(n), link_count=n), ChannelParams(
        attenuation=0.0, signal_speed=1.0)


# ---------------------------------------------------------------- parameter types

def test_defaults_match_reference_assumptions():
    assert DEFAULT_HW.detector_eff == DEFAULT_HW.memory_eff == DEFAULT_HW.emission_prob == 0.9
    assert DEFAULT_HW.mode_count == 100
    assert DEFAULT_CH.attenuation == 0.2
    assert DEFAULT_CH.signal_speed == 2.0e5


@pytest.mark.parametrize("kwargs", [
    {"detector_eff": 1.3},
    {"memory_eff": -0.1},
    {"emission_prob": 1.0001},
    {"mode_count": 0},
    {"mode_count": 2.5},
    {"mode_count": math.nan},
    {"detector_eff": math.nan},
])
def test_hardware_params_rejects_out_of_range(kwargs):
    with pytest.raises(ConfigError):
        HardwareParams(**kwargs)


@pytest.mark.parametrize("name", ["detector_eff", "memory_eff", "emission_prob"])
def test_hardware_probabilities_are_real_numbers(name):
    for value in ("0.9", True, np.True_, None, math.inf):
        with pytest.raises(ConfigError, match=name):
            HardwareParams(**{name: value})
    value = getattr(HardwareParams(**{name: np.float32(0.5)}), name)
    assert type(value) is float and value == 0.5


def test_channel_params_rejects_out_of_range():
    with pytest.raises(ConfigError):
        ChannelParams(attenuation=-0.1)
    with pytest.raises(ConfigError):
        ChannelParams(signal_speed=0.0)
    with pytest.raises(ConfigError):
        ChannelParams(attenuation=math.nan)
    with pytest.raises(ConfigError):
        ChannelParams(signal_speed=math.inf)


def test_chain_config_derives_link_length():
    chain = ChainConfig(total_length=1600.0, link_count=8)
    assert chain.link_length == 200.0
    with pytest.raises(ConfigError):
        ChainConfig(total_length=0.0, link_count=1)
    with pytest.raises(ConfigError):
        ChainConfig(total_length=100.0, link_count=0)
    with pytest.raises(ConfigError):
        ChainConfig(total_length=math.nan, link_count=1)
    with pytest.raises(ConfigError):
        ChainConfig(total_length=math.inf, link_count=1)


@pytest.mark.parametrize("length", [1600, np.float32(1600), np.float64(1600), np.int64(1600)])
@pytest.mark.parametrize("count", [8, 8.0, np.int64(8), np.float64(8.0)])
def test_chain_config_keeps_python_numbers(length, count):
    # numpy scalars and whole floats compute as the Python numbers they
    # equal: a float length, an int count, and the same metrics bit for bit.
    chain = ChainConfig(total_length=length, link_count=count)
    assert type(chain.total_length) is float and type(chain.link_count) is int
    assert chain == ChainConfig(total_length=1600.0, link_count=8)
    got = metrics(DEFAULT_HW, chain, DEFAULT_CH)
    assert got == metrics(DEFAULT_HW, ChainConfig(1600.0, 8), DEFAULT_CH)
    assert all(type(value) is float for value in vars(got).values())


@pytest.mark.parametrize("kwargs", [
    {"total_length": "1600", "link_count": 8},
    {"total_length": True, "link_count": 8},
    {"total_length": None, "link_count": 8},
    {"total_length": 1600.0, "link_count": True},
    {"total_length": np.float64(1600.0), "link_count": np.True_},
    {"total_length": np.True_, "link_count": 8},
    {"total_length": 1600.0, "link_count": 2.5},
    {"total_length": 1600.0, "link_count": "8"},
    {"total_length": 1600.0, "link_count": np.float64(2.5)},
])
def test_chain_config_rejects_what_is_no_number(kwargs):
    with pytest.raises(ConfigError):
        ChainConfig(**kwargs)


def test_parameter_fields_keep_python_numbers():
    hw = HardwareParams(detector_eff=np.float64(0.9), mode_count=np.int64(100))
    assert hw == DEFAULT_HW and type(hw.detector_eff) is float and type(hw.mode_count) is int
    assert type(HardwareParams(mode_count=100.0).mode_count) is int
    ch = ChannelParams(attenuation=np.float64(0.2), signal_speed=200_000)
    assert ch == DEFAULT_CH and type(ch.attenuation) is type(ch.signal_speed) is float
    for kwargs in ({"mode_count": True}, {"mode_count": 2.5}, {"mode_count": "100"}):
        with pytest.raises(ConfigError, match="mode_count must be an integer"):
            HardwareParams(**kwargs)
    for kwargs in ({"attenuation": "0.2"}, {"signal_speed": False}):
        with pytest.raises(ConfigError, match="must be a real number"):
            ChannelParams(**kwargs)


def test_link_counts_are_positive_ints():
    assert model._arg("count", np.int64(3), "n") == 3 and type(model._arg("count", 3.0, "n")) is int
    assert expected_max_attempts(0.1, 3.0) == expected_max_attempts(0.1, np.int64(3)) == (
        expected_max_attempts(0.1, 3))
    for n in (True, np.True_, 2.5, "3", None, math.nan, math.inf, 0, -1):
        with pytest.raises(ConfigError, match="link count must be"):
            expected_max_attempts(0.1, n)


# ---------------------------------------------------------------- EC probability

def test_single_mode_zero_loss_limit():
    hw = HardwareParams(detector_eff=1.0, emission_prob=1.0)
    ch = ChannelParams(attenuation=0.0)
    assert ec_prob_single_mode(hw, ChainConfig(total_length=100.0, link_count=1), ch) == 0.5


def test_single_mode_reference_point():
    # eta_d = rho = 0.9, 125 km link, 0.2 dB/km; frozen from a 40-digit evaluation
    p1m = ec_prob_single_mode(DEFAULT_HW, ChainConfig(total_length=125.0, link_count=1), DEFAULT_CH)
    assert p1m == pytest.approx(1.0373851864182368e-3, rel=1e-12)


def test_single_mode_no_emission():
    hw = HardwareParams(emission_prob=0.0)
    assert ec_prob_single_mode(hw, ChainConfig(total_length=125.0, link_count=1), DEFAULT_CH) == 0.0
    assert ec_prob(hw, ChainConfig(total_length=125.0, link_count=1), DEFAULT_CH) == 0.0


def test_multimode_reduces_to_single_mode_at_m_1():
    hw = HardwareParams(mode_count=1)
    chain = ChainConfig(total_length=125.0, link_count=1)
    assert ec_prob(hw, chain, DEFAULT_CH) == pytest.approx(
        ec_prob_single_mode(hw, chain, DEFAULT_CH), rel=1e-15)


def test_multimode_reference_point():
    p = ec_prob(DEFAULT_HW, ChainConfig(total_length=125.0, link_count=1), DEFAULT_CH)
    assert p == pytest.approx(0.09858755659173564, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    length=st.floats(min_value=1.0, max_value=2000.0),
    mode_count=st.integers(min_value=1, max_value=500),
    rho=st.floats(min_value=0.01, max_value=0.99),
    eta_d=st.floats(min_value=0.01, max_value=0.99),
)
def test_ec_prob_monotonicity(length, mode_count, rho, eta_d):
    def p(L=length, m=mode_count, r=rho, e=eta_d):
        hw = HardwareParams(detector_eff=e, emission_prob=r, mode_count=m)
        return ec_prob(hw, ChainConfig(total_length=L, link_count=1), DEFAULT_CH)

    base = p()
    assert p(m=mode_count + 1) >= base
    assert p(r=min(rho * 1.1, 1.0)) >= base
    assert p(e=min(eta_d * 1.1, 1.0)) >= base
    assert p(L=length * 1.1) <= base


# ---------------------------------------------------------------- attempt distributions

def test_single_link_dist_certain_success():
    dist = combined_attempt_dist(1.0, 1)
    assert dist.probs.tolist() == [1.0]
    assert dist.tail_mass == 0.0


def test_single_link_dist_geometric_halving():
    dist = combined_attempt_dist(0.5, 1)
    assert dist.probs[:3] == pytest.approx([0.5, 0.25, 0.125], rel=1e-14)


def test_single_link_dist_expectation():
    dist = combined_attempt_dist(0.1, 1, tol=1e-12)
    assert abs(dist.expectation() - 10.0) < 1e-9


def test_single_link_dist_rejects_zero_probability():
    with pytest.raises(NonTerminatingProcess):
        combined_attempt_dist(0.0, 1)


def test_combined_dist_reduces_to_single_link():
    p = 0.37
    combined = combined_attempt_dist(p, 1)
    geometric = p * (1.0 - p) ** (combined.attempt_numbers - 1)
    np.testing.assert_allclose(combined.probs, geometric, rtol=1e-12, atol=1e-12)
    assert combined.tail_mass == pytest.approx((1.0 - p) ** combined.probs.size, rel=1e-12)


def test_combined_dist_two_links_hand_values():
    # Two fair-coin links: P(max = 1) = (1/2)^2, P(max = 2) = (3/4)^2 - (1/2)^2.
    dist = combined_attempt_dist(0.5, 2)
    assert dist.probs[0] == pytest.approx(0.25, rel=1e-14)
    assert dist.probs[1] == pytest.approx(0.3125, rel=1e-14)
    assert dist.probs[2] == pytest.approx(0.203125, rel=1e-14)


def test_combined_dist_certain_success_any_n():
    for n in (1, 3, 17):
        dist = combined_attempt_dist(1.0, n)
        assert dist.probs.tolist() == [1.0]


@settings(max_examples=80, deadline=None)
@given(
    p=st.floats(min_value=1e-3, max_value=1.0),
    n=st.integers(min_value=1, max_value=64),
)
def test_combined_dist_normalization(p, n):
    dist = combined_attempt_dist(p, n)
    total = float(dist.probs.sum()) + dist.tail_mass
    assert abs(total - 1.0) < 1e-10
    assert dist.tail_mass <= 1e-12 + 1e-15


def test_attempt_distribution_validates_normalization():
    with pytest.raises(Exception):
        AttemptDistribution(probs=np.array([0.5, 0.2]), tail_mass=0.0)


def test_attempt_distribution_rejects_empty_and_out_of_range_entries():
    with pytest.raises(ModelError, match="empty attempt distribution"):
        AttemptDistribution(probs=np.array([]), tail_mass=1.0)
    # Normalized, but two entries lie outside [0, 1].
    with pytest.raises(ModelError, match=r"entries outside \[0, 1\]"):
        AttemptDistribution(probs=np.array([1.5, -0.5]), tail_mass=0.0)


# ---------------------------------------------------------------- expected max attempts

def test_expected_attempts_single_link_is_inverse_probability():
    for p in (1.0, 0.5, 0.1, 1e-3):
        assert expected_max_attempts(p, 1) == pytest.approx(1.0 / p, rel=1e-11)


def test_expected_attempts_two_links_fair_coin():
    assert expected_max_attempts(0.5, 2) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_expected_attempts_certain_success():
    for n in (1, 7, 40):
        assert expected_max_attempts(1.0, n) == 1.0


def test_expected_attempts_rejects_zero_probability():
    with pytest.raises(NonTerminatingProcess):
        expected_max_attempts(0.0, 4)


def test_expected_attempts_matches_closed_form_small_n():
    for p in np.geomspace(1e-3, 1.0, 12):
        for n in range(1, 21):
            series = expected_max_attempts(float(p), n)
            closed = mp_closed_form_moments(float(p), n)[0]
            assert series == pytest.approx(closed, rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1e-3, max_value=1.0),
    n=st.integers(min_value=1, max_value=32),
)
def test_expected_attempts_monotone(p, n):
    base = expected_max_attempts(p, n)
    assert expected_max_attempts(p, n + 1) >= base * (1.0 - 1e-12)
    smaller_p = p * 0.9
    if smaller_p > 0.0:
        assert expected_max_attempts(smaller_p, n) >= base * (1.0 - 1e-12)


def test_slowdown_factor_grows_slowly():
    # Doubling the link count never doubles the slowdown factor f(n, p).
    for p in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 1.0):
        for n in (1, 2, 4, 8, 16, 32):
            f_n = p * expected_max_attempts(p, n)
            f_2n = p * expected_max_attempts(p, 2 * n)
            assert 1.0 - 1e-12 <= f_n and f_2n / f_n <= 2.0 + 1e-12


def test_expected_attempts_tiny_probability_route():
    # So small that the series is impractical; exact 1/p must still come out.
    assert expected_max_attempts(1e-12, 1) == pytest.approx(1e12, rel=1e-10)
    # and the multi-link value stays above the single-link one
    assert expected_max_attempts(1e-12, 8) > 1e12


# ---------------------------------------------------------------- survival series

def full_chunk_survival_moments(p: float, n: int, tol: float) -> tuple[float, float]:
    """Both survival series with every chunk summed in full, in one array
    each: the reference the sized first chunk and the blocks must reproduce
    bit for bit."""
    lam = -math.log1p(-p)
    total, spread, k0 = 0.0, 0.0, 0
    while True:
        ks = np.arange(k0, k0 + model._CHUNK, dtype=np.float64)
        x = np.exp(-lam * ks)
        with np.errstate(divide="ignore"):
            summand = -np.expm1(n * np.log1p(-x))
        total += float(summand.sum())
        weights = 2.0 * ks - 1.0
        weights[ks == 0.0] = 0.0  # E[(K - 1)^2] = sum over k >= 1 of (2k - 1) S(k)
        spread += float((weights * summand).sum())
        k0 += model._CHUNK
        if summand[-1] <= tol * total and n * x[-1] <= 0.25:
            tail, spread_tail = model._survival_tail(p, n, k0)
            mean = total + tail
            return mean, max(spread + spread_tail - (mean - 1.0) ** 2, 0.0)
        assert k0 <= model._MAX_EXPLICIT_TERMS


def flip_point(holds, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent doubles ``(a, b)`` between ``lo`` and ``hi`` with ``holds(a)``
    false and ``holds(b)`` true, for a predicate that turns true once."""
    assert not holds(lo) and holds(hi)
    while math.nextafter(lo, hi) < hi:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            mid = math.nextafter(lo, hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_sized_first_chunk_sum_equals_full_chunk_sum():
    # Exact only while numpy sums pairwise in power-of-two halves; a numpy
    # whose summation tree differs fails here instead of changing outputs.
    rng = np.random.default_rng(6)
    grid = [(float(10 ** rng.uniform(-3.2, 0.0)), int(rng.integers(1, 129)))
            for _ in range(120)]
    grid += [(0.999, 1), (0.5, 128), (1e-5, 3)]  # shortest prefix; several chunks
    readme = ec_prob(DEFAULT_HW, ChainConfig(1600.0, 8), DEFAULT_CH)
    grid += [(readme, 8)]  # the README chain: 16384 of the first chunk's terms
    for n in (1, 7, 128):
        length = 128
        while length < model._CHUNK:
            edge = flip_point(lambda p: model._first_chunk_length(p, n) <= length,
                              1e-4, 1.0 - 1e-9)
            grid += [(p, n) for p in edge]
            length *= 2
    lengths = {model._first_chunk_length(p, n) for p, n in grid}
    assert lengths == {1 << j for j in range(7, 17)}
    for p, n in grid:
        assert model._survival_moments(p, n, DEFAULT_TOL) == full_chunk_survival_moments(
            p, n, DEFAULT_TOL), (p, n)
    # A tol so small that the stopping test fails on the prefix's last term
    # and on the full chunk's: the sums past the prefix add nothing.
    for p, n in ((0.01, 5), (0.3, 1), (2e-3, 128)):
        assert model._survival_moments(p, n, 1e-300) == full_chunk_survival_moments(
            p, n, 1e-300), (p, n)


def test_series_stops_at_a_prefix_shorter_than_a_chunk(monkeypatch):
    # Nothing past such a prefix moves the sums, whatever tol asks: at
    # 1e-30 the prefix's last term is above tol * total, and summing on
    # would evaluate a whole chunk that adds nothing.
    p = ec_prob(DEFAULT_HW, ChainConfig(1600.0, 8), DEFAULT_CH)
    sizes = []
    chunk_sum = model._chunk_sum
    monkeypatch.setattr(model, "_chunk_sum", lambda *args: sizes.append(args[3]) or chunk_sum(*args))
    for tol in (DEFAULT_TOL, 1e-30, 1e-300):
        sizes.clear()
        assert model._survival_moments(p, 8, tol) == full_chunk_survival_moments(p, 8, tol)
        assert sizes == [16384], tol


def allocating_chunk_sum(lam: float, n: int, k0: int, size: int):
    """:func:`model._chunk_sum` with a fresh array from every ufunc and the
    terms S(k) summed as they are: the reference its buffered blocks of
    -S(k) must reproduce bit for bit, signed zeros included."""
    step = min(size, model._BLOCK)
    sums = []
    with np.errstate(divide="ignore"):
        for start in range(k0, k0 + size, step):
            ks = np.arange(start, start + step, dtype=np.float64)
            x = np.exp(-lam * ks)
            summand = -np.expm1(n * np.log1p(-x))
            total, last = float(summand.sum()), float(summand[-1])
            if start == 0:
                summand[0] = 0.0
            summand *= 2.0 * ks - 1.0
            sums.append((total, float(summand.sum())))
    while len(sums) > 1:
        sums = [(a + c, b + d) for (a, b), (c, d) in zip(sums[::2], sums[1::2])]
    return *sums[0], float(x[-1]), last


def test_chunk_sum_equals_the_allocating_formula():
    # Chunks from k = 0 and far out, every size from 128 to one chunk, and
    # chunks whose q^k has underflowed, where every sum must stay +0.0.
    rng = np.random.default_rng(16)
    sizes = [1 << j for j in range(7, 17)]
    grid = [(float(10 ** rng.uniform(-6.0, -1e-3)), int(rng.integers(1, 300)),
             int(rng.choice([0, model._CHUNK * int(rng.integers(1, 80))])), size)
            for size in sizes for _ in range(12)]
    grid += [(0.5, n, k0, size) for n in (1, 8) for k0 in (1024, 2048, model._CHUNK)
             for size in (128, model._CHUNK)]
    zero_chunks = 0
    for p, n, k0, size in grid:
        lam = -math.log1p(-p)
        got = model._chunk_sum(lam, n, k0, size)
        assert repr(got) == repr(allocating_chunk_sum(lam, n, k0, size)), (p, n, k0, size)
        zero_chunks += got[0] == 0.0
        if got[0] == 0.0:
            assert repr(got) == repr((0.0, 0.0, 0.0, 0.0))
    assert zero_chunks >= 8


def test_block_indices_are_read_only():
    ks, weights = model._block_indices()
    assert ks.size == weights.size == model._BLOCK
    assert ks[-1] == model._BLOCK - 1 and weights[0] == -1.0
    for indices in (ks, weights):
        with pytest.raises(ValueError):
            indices[0] = 1.0
        with pytest.raises(ValueError):
            indices += 1.0
    assert model._block_indices()[0] is ks


def first_chunk_bounds_hold(p: float, n: int, length: int) -> bool:
    """Whether both tails past ``length`` terms stay below 2^-55 of what
    the prefix holds at least, with the prefix's sums taken term by term."""
    q = 1.0 - p
    ks = np.arange(float(length))
    powers = q**ks
    held = float(powers.sum())  # sum_{k < L} q^k <= sum_{k < L} S(k)
    held_weighted = float(((2.0 * ks[1:] - 1.0) * powers[1:]).sum())
    dropped = n * q**length / p  # >= sum_{k >= L} S(k)
    dropped_weighted = dropped * (2.0 * length - 1.0 + 2.0 * q / p)
    return dropped < 2.0**-55 * held and dropped_weighted < 2.0**-55 * held_weighted


def test_first_chunk_length_bounds_the_dropped_terms():
    # The dropped terms stay below 2^-55 of the prefix's own sums, under
    # half their ulp with a factor 2 to spare, and half the length would
    # not do.  A larger p never needs a longer prefix.
    rng = np.random.default_rng(17)
    ps = sorted({1e-4, 1.3e-3, 0.01, 0.2, 0.5, 0.9, 0.999,
                 *(float(p) for p in 10 ** rng.uniform(-4.5, -1e-3, 60))})
    for n in (1, 5, 8, 128):
        lengths = [model._first_chunk_length(p, n) for p in ps]
        assert lengths == sorted(lengths, reverse=True), n
        for p, length in zip(ps, lengths):
            assert length in {1 << j for j in range(7, 17)}
            assert length == model._CHUNK or first_chunk_bounds_hold(p, n, length), (p, n)
            assert length == 128 or not first_chunk_bounds_hold(p, n, length // 2), (p, n)
    readme = ec_prob(DEFAULT_HW, ChainConfig(1600.0, 8), DEFAULT_CH)
    assert model._first_chunk_length(readme, 8) == 16384  # 2^-70 of 1 asked for 32768


def doubling_first_chunk_length(p: float, n: int) -> int:
    """The first-chunk search that tests every power of two from 128: the
    reference the search that skips lengths bound to fail must equal."""
    log_q = math.log1p(-p)
    q = 1.0 - p
    length = 128
    while length < model._CHUNK:
        power = math.exp(length * log_q)
        held = -math.expm1(length * log_q) / p
        m = length - 1
        shorter = -math.expm1(m * log_q) / p
        held_weighted = q * (2.0 * (q * shorter - m * math.exp(m * log_q)) / p + shorter)
        dropped = n * power / p
        if (dropped < 2.0**-55 * held
                and dropped * (2 * length - 1 + 2.0 * q / p) < 2.0**-55 * held_weighted):
            break
        length *= 2
    return length


def at_each_power_of_two(test):
    # The p at which L0 = (55 ln 2 + ln n) / lambda is a whole power of two,
    # the edge of the lengths the search skips.
    for n in (1, 8, 1075):
        for j in range(7, 17):
            lam = (55.0 * math.log(2.0) + math.log(n)) / 2.0**j
            test = example(p=-math.expm1(-lam), n=n)(test)
    return test


@at_each_power_of_two
@settings(max_examples=300, deadline=None)
@given(p=st.floats(min_value=math.log(1e-6), max_value=math.log1p(-1e-9)).map(math.exp),
       n=st.integers(min_value=1, max_value=1075))
def test_first_chunk_length_skips_only_lengths_that_fail(p, n):
    assert model._first_chunk_length(p, n) == doubling_first_chunk_length(p, n)


def test_numpy_sums_a_chunk_along_the_block_tree():
    # _chunk_sum adds its block sums in pairs, assuming numpy's .sum() of
    # a chunk splits it in halves down to the blocks.  A numpy that sums
    # in another order fails here instead of changing outputs.
    rng = np.random.default_rng(4)
    chunk = rng.random(model._CHUNK) * 10.0 ** rng.uniform(-30.0, 0.0, model._CHUNK)
    sums = [float(block.sum()) for block in chunk.reshape(-1, model._BLOCK)]
    assert len(sums) == 8
    assert sum(sums) != float(chunk.sum())  # the data tells the orders apart
    pairwise = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + (
        (sums[4] + sums[5]) + (sums[6] + sums[7]))
    assert pairwise == float(chunk.sum())


@pytest.mark.parametrize("p, n", [(1e-3, 8), (1e-5, 3)])  # a full chunk; several chunks
def test_survival_sum_peaks_below_512_kib(p, n):
    model._survival_moments(p, n, DEFAULT_TOL)  # any one-off allocations
    tracemalloc.start()
    try:
        model._survival_moments(p, n, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_survival_sum_falls_back_to_closed_form_past_the_term_cap(monkeypatch):
    # A loose tol makes the series look feasible, but the summand is still
    # above the tail's validity bound when the term cap is reached.
    p, n, tol = -math.expm1(-2e-7), 2, 0.9
    assert model._explicit_feasible(p, n, tol)
    calls = []
    closed_form = model._closed_form_moments
    monkeypatch.setattr(model, "_closed_form_moments",
                        lambda *args: calls.append(args) or closed_form(*args))
    moments = model._survival_moments(p, n, tol)
    assert calls == [(p, n)]
    assert moments == closed_form(p, n)
    assert moments[0] == 7500000.5


def test_moments_match_mp_oracle_across_the_seam():
    # Tolerances are the worst case measured on this grid.  The variance is
    # E[(K - 1)^2] - (E[K] - 1)^2, both from survival series with analytic
    # tails; the subtraction cancels about log2((E[K] - 1)^2 / var) bits,
    # most at large n (worst here at n = 91, p = 4.05e-5).
    rng = np.random.default_rng(4)
    grid = [(float(10 ** rng.uniform(-6.0, 0.0)), int(round(2 ** rng.uniform(0.0, 7.0))))
            for _ in range(60)]
    for n in (1, 128):
        seam = flip_point(lambda p: model._explicit_feasible(p, n, DEFAULT_TOL), 1e-6, 1e-4)
        grid += [(p, n) for p in seam]
    routes = {model._explicit_feasible(p, n, DEFAULT_TOL) for p, n in grid}
    assert routes == {True, False}
    worst_mean = worst_variance = 0.0
    for p, n in grid:
        mean, variance = model._attempts_moments(p, n, DEFAULT_TOL)
        oracle_mean, oracle_variance = mp_closed_form_moments(p, n)
        worst_mean = max(worst_mean, abs(mean - oracle_mean) / oracle_mean)
        worst_variance = max(worst_variance, abs(variance - oracle_variance) / oracle_variance)
    assert worst_mean <= 3.5e-16
    assert worst_variance <= 9.4e-15


def test_closed_form_variance_keeps_its_bits_near_p_one():
    # second - mean^2 cancels about log2(1 / (1 - p)) = 33 bits here; the
    # exact variance of one geometric variable is (1 - p) / p^2.
    from mpmath import mp

    p = 1.0 - 1e-10
    with mp.workprec(300):
        exact = float((mp.one - mp.mpf(p)) / mp.mpf(p) ** 2)
    assert _closed_form_moments(p, 1)[1] == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_decimal_closed_form_equals_mp_oracle():
    # The same sums at the same precision, in decimal digits instead of
    # bits: both are good to 70 bits past a double, so their floats could
    # differ only where the exact value lies within about 2^-70 of a
    # rounding midpoint.  p is drawn down to the smallest subnormal and n
    # up to 1075; large n are few, since their cost grows as about n^2.
    rng = np.random.default_rng(12)
    log_p = (math.log10(5e-324), -4.0)
    grid = [(float(10 ** rng.uniform(*log_p)), int(round(64 ** rng.uniform(0.0, 1.0))))
            for _ in range(1000)]
    grid += [(float(10 ** rng.uniform(*log_p)), int(rng.integers(65, 1076)))
             for _ in range(24)]
    grid += [(5e-324, 1), (5e-324, 1075), (1e-4, 1075)]
    for n in (1, 8, 128, 1075):
        seam = flip_point(lambda p: model._explicit_feasible(p, n, DEFAULT_TOL), 1e-6, 1e-4)
        grid += [(p, n) for p in seam]
    # The term-cap fallback case and the guard bits near p = 1.
    grid += [(-math.expm1(-2e-7), 2), (1.0 - 1e-10, 1), (1.0 - 1e-10, 8)]
    assert min(p for p, _ in grid) == 5e-324
    mismatched = [(p, n) for p, n in grid
                  if _closed_form_moments(p, n) != mp_closed_form_moments(p, n)]
    assert mismatched == []


def test_closed_form_takes_at_most_1075_links():
    # No round of 1076 links succeeds, and the closed form's cost grows as
    # n^2: 20000 links once ran for minutes and 2^63 overflowed decimal's
    # precision.  The series keeps any n.
    assert expected_max_attempts(1e-9, 1075) == pytest.approx(7.557756646352442e9, rel=1e-12)
    for p, n in ((1e-9, 1076), (1e-9, 20000), (1e-9, 2**63), (5e-324, 2**63)):
        with pytest.raises(ModelError, match="at most 1075 links"):
            expected_max_attempts(p, n)
    assert expected_max_attempts(0.5, 2**63) == pytest.approx(64.33, abs=0.005)


# ---------------------------------------------------------------- chain metrics

def test_metrics_reference_point_1600km_8_links():
    # Frozen from a 40-digit evaluation of the closed forms.
    m = metrics(DEFAULT_HW, ChainConfig(total_length=1600.0, link_count=8), DEFAULT_CH)
    assert m.ec_prob == pytest.approx(3.2751786723447968e-3, rel=1e-12)
    assert m.expected_attempts == pytest.approx(828.9750992109782, rel=1e-10)
    assert m.t_ec == pytest.approx(0.8289750992109782, rel=1e-10)
    assert m.t_cc == 0.008
    assert m.p_es == pytest.approx(4.088653383026254e-4, rel=1e-12)
    assert m.t_tot == pytest.approx(3120.0546790554133, rel=1e-10)
    assert m.mem_time_avg == pytest.approx(0.8369750992109782, rel=1e-10)
    assert m.mem_time_std == pytest.approx(0.3767319816329104, rel=1e-8)


def test_metrics_identities():
    m = metrics(DEFAULT_HW, ChainConfig(total_length=1000.0, link_count=5), DEFAULT_CH)
    assert m.mem_time_avg == m.t_ec + m.t_cc  # same code path, exact
    assert m.t_tot >= m.t_ec + m.t_cc
    assert 0.0 < m.p_es <= 1.0


def test_metrics_single_link_perfect_retrieval():
    # One link, perfect memories and detectors: t_tot = (L/c) * (1/p + 1).
    hw, chain, ch = unit_clock_setup(0.3, 1)
    m = metrics(hw, chain, ch)
    assert m.t_tot == pytest.approx((1.0 / 0.3 + 1.0), rel=1e-10)
    assert m.p_es == 1.0


def test_metrics_errors():
    with pytest.raises(NonTerminatingProcess):
        metrics(HardwareParams(emission_prob=0.0),
                ChainConfig(total_length=100.0, link_count=1), DEFAULT_CH)
    with pytest.raises(UnreachableConfiguration):
        metrics(HardwareParams(memory_eff=0.0),
                ChainConfig(total_length=100.0, link_count=2), DEFAULT_CH)
    # p_es = (r/2)^166 is still normal, but p_es * r underflows to zero.
    with pytest.raises(UnreachableConfiguration):
        metrics(HardwareParams(memory_eff=0.3, detector_eff=0.5),
                ChainConfig(total_length=1000.0, link_count=167), DEFAULT_CH)


def test_metrics_next_to_the_seam_peaks_below_512_kib():
    # p = 5.7e-6 at one link: the series needs 4.9e6 terms, next to the
    # 5e6 the series route allows, and still no array longer than a block.
    chain = ChainConfig(total_length=338.0, link_count=1)
    assert model._explicit_feasible(ec_prob(DEFAULT_HW, chain, DEFAULT_CH), 1, DEFAULT_TOL)
    metrics(DEFAULT_HW, chain, DEFAULT_CH)  # any one-off allocations
    tracemalloc.start()
    try:
        metrics(DEFAULT_HW, chain, DEFAULT_CH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_metrics_checks_round_success_before_moments(monkeypatch):
    # A tiny EC probability sends the moments to the n-term closed form at
    # more than n bits; an underflowing round must raise before that.
    def moments_not_expected(*args):
        raise AssertionError("attempt moments computed for an unreachable chain")

    monkeypatch.setattr(model, "_attempts_moments", moments_not_expected)
    with pytest.raises(UnreachableConfiguration):
        metrics(HardwareParams(emission_prob=1e-6, mode_count=1),
                ChainConfig(total_length=1600.0, link_count=30000), DEFAULT_CH)


def test_metrics_computes_the_round_terms_once(monkeypatch):
    # The reach check, the total time and the figures all read one set of
    # round terms.
    calls = []
    round_terms = model._round_terms
    monkeypatch.setattr(model, "_round_terms",
                        lambda *args: calls.append(args) or round_terms(*args))
    metrics(DEFAULT_HW, ChainConfig(total_length=1600.0, link_count=8), DEFAULT_CH)
    assert len(calls) == 1


def test_repeater_metrics_are_built_only_by_the_model():
    # Every RepeaterMetrics of the package, whether from metrics, the
    # link-count optimizer or a fixed-link plan, comes out of model._metrics
    # and so passes the same checks.
    builders = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and "RepeaterMetrics" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None))]
        functions = [node for node in ast.walk(tree)  # breadth first: outer before inner
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in calls:
            owners = [f.name for f in functions if f.lineno <= call.lineno <= f.end_lineno]
            builders.append((path.name, owners[-1] if owners else None))
    assert builders == [("model.py", "_metrics")]


# ---------------------------------------------------------------- memory time spread

def test_memory_std_zero_at_certain_success():
    hw = HardwareParams(detector_eff=1.0, emission_prob=1.0, mode_count=10000)
    ch = ChannelParams(attenuation=0.0)
    chain = ChainConfig(total_length=100.0, link_count=4)
    assert ec_prob(hw, chain, ch) == 1.0
    assert metrics(hw, chain, ch).mem_time_std == 0.0


def test_memory_std_single_link_geometric():
    # Unit clock, p = 1/2: std of a geometric is sqrt(1 - p) / p = sqrt(2).
    hw, chain, ch = unit_clock_setup(0.5, 1)
    assert metrics(hw, chain, ch).mem_time_std == pytest.approx(math.sqrt(2.0), rel=1e-8)


def test_memory_std_two_links_brute_force_value():
    # Frozen brute-force sum over k <= 200 with a 1e-15 tail at p = 1/2.
    hw, chain, ch = unit_clock_setup(0.5, 2)
    assert metrics(hw, chain, ch).mem_time_std == pytest.approx(1.6329931618554520655, rel=1e-8)


def test_memory_std_shrinks_as_success_gets_certain():
    hw, chain, ch = unit_clock_setup(0.2, 3)
    spreads = []
    for p1m in (0.2, 0.35, 0.5):
        hw_p = HardwareParams(detector_eff=1.0, memory_eff=1.0,
                              emission_prob=math.sqrt(2.0 * p1m), mode_count=1)
        spreads.append(metrics(hw_p, chain, ch).mem_time_std)
    assert spreads[0] > spreads[1] > spreads[2] > 0.0


def test_memory_std_matches_metrics_field():
    chain = ChainConfig(total_length=800.0, link_count=4)
    p = ec_prob(DEFAULT_HW, chain, DEFAULT_CH)
    clock = chain.link_length / DEFAULT_CH.signal_speed
    assert metrics(DEFAULT_HW, chain, DEFAULT_CH).mem_time_std == pytest.approx(
        clock * math.sqrt(_closed_form_moments(p, 4)[1]), rel=1e-8)
