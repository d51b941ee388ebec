"""Reference oracle for the distribution protocol, played event by event
from its description rather than from the model's formulas.  It takes
only the parameter classes from the package.

Attempt layer: in each attempt of one elementary link, a mode is heralded
when both of its photons are emitted (``emission_prob``), survive half a
link of fiber (``attenuation`` dB/km over half of ``link_length`` km) and
are detected (``detector_eff``); each heralded mode's midpoint Bell-state
measurement then succeeds with 1/2.  The attempt succeeds when any of its
``mode_count`` modes does.
"""

from __future__ import annotations

import numpy as np

from repeaterchain.model import ChainConfig, ChannelParams, HardwareParams


def photon_arrival_prob(hw: HardwareParams, chain: ChainConfig, ch: ChannelParams) -> float:
    # One photon: emitted, through half a link of fiber, detected.
    half_link_db = ch.attenuation * chain.link_length / 2.0
    return hw.emission_prob * 10.0 ** (-half_link_db / 10.0) * hw.detector_eff


def attempt_successes(hw: HardwareParams, chain: ChainConfig, ch: ChannelParams,
                      attempts: int, seed: int) -> int:
    """How many of ``attempts`` played attempts succeed, from a generator
    seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    both = photon_arrival_prob(hw, chain, ch) ** 2  # the link's two photons, independently
    heralded = rng.binomial(hw.mode_count, both, size=attempts)
    bsm_successes = rng.binomial(heralded, 0.5)
    return int(np.count_nonzero(bsm_successes))
