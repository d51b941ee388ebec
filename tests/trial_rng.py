"""Reference for the Monte Carlo streams: the generator of one trial,
built the plain way from numpy's SeedSequence, against which the
sampler's re-keyed generator and its draws are checked."""

from __future__ import annotations

import numpy as np


def trial_rng(seed: int, index: int) -> np.random.Generator:
    # SeedSequence spreads the (seed, index) pair into well-distributed key
    # material; raw structured Philox keys measurably bias the stream.
    return np.random.Generator(
        np.random.Philox(seed=np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )
