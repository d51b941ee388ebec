"""Entanglement-distribution performance of semihierarchical quantum-repeater chains.

Three layers:

* :mod:`repeaterchain.model` — closed-form metrics for one configuration,
* :mod:`repeaterchain.planner` — link-count optimization, fixed-link
  planning, direct-transmission baseline, crossover search, sweeps,
* :mod:`repeaterchain.montecarlo` — seeded discrete-event sampler that
  estimates the model's times, attempt counts and memory times.  It takes
  the attempt probability and each round's success, clock and t_cc from
  the model, and one round's attempt moments for aggregated trials; what
  it checks on its own is the max-of-geometrics law and its own
  arithmetic.

The ``repeaterchain`` console script (see :mod:`repeaterchain.cli`) exposes
all of it as subcommands.

The public names below are resolved on first access, so importing the
package loads none of the layers: each process pays only for the layers
it uses.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it: the one list of the
# package's public names.
_HOMES = {
    **dict.fromkeys((
        "BeyondRepresentable",
        "ConfigError",
        "ModelError",
        "NoCrossoverInRange",
        "NonTerminatingProcess",
        "SimulationAbort",
        "UnreachableConfiguration",
    ), "errors"),
    **dict.fromkeys((
        "DEFAULT_TOL",
        "AttemptDistribution",
        "ChainConfig",
        "ChannelParams",
        "HardwareParams",
        "RepeaterMetrics",
        "combined_attempt_dist",
        "ec_prob",
        "expected_max_attempts",
        "metrics",
    ), "model"),
    **dict.fromkeys(("TrialConfig", "TrialStats", "simulate"), "montecarlo"),
    **dict.fromkeys((
        "FixedLinkPlan",
        "OptimizationResult",
        "SweepRecord",
        "SweepSpec",
        "crossover_with_direct",
        "direct_transmission_time",
        "optimize_link_count",
        "plan_fixed_link",
        "run_sweep",
    ), "planner"),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
