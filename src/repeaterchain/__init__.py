"""Entanglement-distribution performance of semihierarchical quantum-repeater chains.

Three layers:

* :mod:`repeaterchain.model` — closed-form metrics for one configuration,
* :mod:`repeaterchain.planner` — link-count optimization, fixed-link
  planning, direct-transmission baseline, crossover search, sweeps,
* :mod:`repeaterchain.montecarlo` — seeded discrete-event sampler that
  independently estimates every analytical quantity.

The ``repeaterchain`` console script (see :mod:`repeaterchain.cli`) exposes
all of it as subcommands.
"""

from .errors import (
    BeyondRepresentable,
    ConfigError,
    ModelError,
    NoCrossoverInRange,
    NonTerminatingProcess,
    SimulationAbort,
    UnreachableConfiguration,
)
from .model import (
    DEFAULT_TOL,
    AttemptDistribution,
    ChainConfig,
    ChannelParams,
    HardwareParams,
    RepeaterMetrics,
    combined_attempt_dist,
    ec_prob,
    ec_prob_single_mode,
    expected_max_attempts,
    metrics,
)
from .montecarlo import TrialConfig, TrialStats, sample_chain_round, simulate
from .planner import (
    FixedLinkPlan,
    OptimizationResult,
    SweepRecord,
    SweepSpec,
    crossover_with_direct,
    direct_transmission_time,
    optimize_link_count,
    plan_fixed_link,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AttemptDistribution",
    "BeyondRepresentable",
    "ChainConfig",
    "ChannelParams",
    "ConfigError",
    "DEFAULT_TOL",
    "FixedLinkPlan",
    "HardwareParams",
    "ModelError",
    "NoCrossoverInRange",
    "NonTerminatingProcess",
    "OptimizationResult",
    "RepeaterMetrics",
    "SimulationAbort",
    "SweepRecord",
    "SweepSpec",
    "TrialConfig",
    "TrialStats",
    "UnreachableConfiguration",
    "combined_attempt_dist",
    "crossover_with_direct",
    "direct_transmission_time",
    "ec_prob",
    "ec_prob_single_mode",
    "expected_max_attempts",
    "metrics",
    "optimize_link_count",
    "plan_fixed_link",
    "run_sweep",
    "sample_chain_round",
    "simulate",
]
