"""The attempt layer of the protocol oracle against ``ec_prob``.

Each configuration plays 10**6 attempts at its own fixed seed and compares
the success count with ``attempts * ec_prob`` by a two-sided z-test,
``|z| < 4.5``.  For a correct model and a fresh seed each test raises a
false alarm with probability 6.8e-6, so the six together do with at most
4.1e-5 (Bonferroni).  A 5% error in the attempt probability moves z by
about 16 at p near 0.1, where the planted-defect tests put it.
"""

from __future__ import annotations

import functools
import math

import pytest

from repeaterchain import model, planner
from repeaterchain.model import ChainConfig, ChannelParams, HardwareParams, ec_prob
from protocol_oracle import attempt_successes

CH = ChannelParams()
ATTEMPTS = 10**6
Z_MAX = 4.5

# label -> (hardware, chain, seed).  The last four have p near 0.1.
CONFIGS = {
    "default-1600-8": (HardwareParams(), ChainConfig(1600.0, 8), 1),
    "default-250-1": (HardwareParams(), ChainConfig(250.0, 1), 2),
    "default-500-4": (HardwareParams(), ChainConfig(500.0, 4), 3),
    "m-10-300-4": (HardwareParams(mode_count=10), ChainConfig(300.0, 4), 4),
    "rho-0.5-400-4": (HardwareParams(emission_prob=0.5), ChainConfig(400.0, 4), 5),
    "eta-d-0.6-400-4": (HardwareParams(detector_eff=0.6), ChainConfig(400.0, 4), 6),
}
NEAR_TENTH = ("default-500-4", "m-10-300-4", "rho-0.5-400-4", "eta-d-0.6-400-4")


@functools.cache
def oracle_successes(label: str) -> int:
    hw, chain, seed = CONFIGS[label]
    return attempt_successes(hw, chain, CH, ATTEMPTS, seed)


def z_score(label: str) -> float:
    hw, chain, _ = CONFIGS[label]
    p = ec_prob(hw, chain, CH)
    return (oracle_successes(label) - ATTEMPTS * p) / math.sqrt(ATTEMPTS * p * (1.0 - p))


@pytest.mark.parametrize("label", CONFIGS)
def test_attempt_frequency_matches_ec_prob(label):
    assert abs(z_score(label)) < Z_MAX


@pytest.mark.parametrize("factor", [0.95, 1.05])
@pytest.mark.parametrize("name", ["_single_mode_prob", "_multimode_prob"])
def test_a_five_percent_error_in_the_attempt_probability_fails(monkeypatch, name, factor):
    right = getattr(model, name)
    for module in (model, planner):
        monkeypatch.setattr(module, name, lambda *args: factor * right(*args))
    for label in NEAR_TENTH:
        assert abs(z_score(label)) >= Z_MAX, label
