"""The library's argument contract: every public callable, given one
hostile argument and valid others, returns finite Python numbers or raises
one of the package's own errors, within a time bound."""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import math
import random
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repeaterchain
from repeaterchain import model, montecarlo, planner
from repeaterchain import (
    DEFAULT_TOL,
    ChainConfig,
    ChannelParams,
    ConfigError,
    HardwareParams,
    ModelError,
    SimulationAbort,
    SweepRecord,
    SweepSpec,
    TrialConfig,
    combined_attempt_dist,
    crossover_with_direct,
    direct_transmission_time,
    ec_prob,
    expected_max_attempts,
    metrics,
    optimize_link_count,
    plan_fixed_link,
    run_sweep,
    simulate,
)
from repeaterchain.model import _KINDS

HW, CH, CHAIN = HardwareParams(), ChannelParams(), ChainConfig(500.0, 4)
CFG = TrialConfig(hw=HW, chain=CHAIN, ch=CH, trials=20, seed=0)
SPEC = SweepSpec("emission_prob", (0.5, 0.9), HW, CH, total_length=1000.0)

# Values no kind may let through as an error outside the package's own.
HOSTILE = [
    True, False, np.True_, np.False_, "1", "abc", None,
    10**400, -10**400, 2**63, 1e308, -1e308, math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 0, 0.0, -1, 2.5,
    np.float64(2.5), np.float32(math.nan), np.float64(5e-324), np.float64(1e308),
    np.int64(0), np.int64(-1), np.int64(2**62), np.uint64(2**64 - 1),
    object(), random.Random(0), np.array([1.0, 2.0]), HW, CH, CHAIN,
]

# callable -> {argument: (kind, valid value)}.  A kind is a key of the
# table ``_KINDS``, a tuple of them for a sequence of that many values
# (one for a grid of any length), or None for a choice the table leaves
# out.  TrialConfig and SweepSpec are run as well as built: their values
# are checked where they are used, some of them point by point.
SIGNATURES = {
    ChannelParams: {"attenuation": ("non-negative real", 0.2),
                    "signal_speed": ("positive real", 2.0e5)},
    HardwareParams: {"detector_eff": ("probability", 0.9), "memory_eff": ("probability", 0.9),
                     "emission_prob": ("probability", 0.9), "mode_count": ("count", 100)},
    ChainConfig: {"total_length": ("positive real", 500.0), "link_count": ("count", 4)},
    TrialConfig: {"hw": ("hw", HW), "chain": ("chain", CHAIN), "ch": ("ch", CH),
                  "trials": ("trials", 20), "seed": ("seed", 0)},
    SweepSpec: {"swept_parameter": (None, "emission_prob"), "grid": (("probability",), (0.5, 0.9)),
                "hw": ("hw", HW), "ch": ("ch", CH), "total_length": ("positive real", 1000.0),
                "fixed_link_length": ("positive real", None), "n_max": ("n_max", None),
                "source_rate": ("positive real", None)},
    ec_prob: {"hw": ("hw", HW), "chain": ("chain", CHAIN), "ch": ("ch", CH)},
    metrics: {"hw": ("hw", HW), "chain": ("chain", CHAIN), "ch": ("ch", CH),
              "tol": ("tol", DEFAULT_TOL)},
    expected_max_attempts: {"p": ("success probability", 0.5), "n": ("count", 8)},
    combined_attempt_dist: {"p": ("success probability", 0.5), "n": ("count", 8),
                            "tol": ("tol", DEFAULT_TOL)},
    simulate: {"cfg": ("cfg", CFG)},
    direct_transmission_time: {"L": ("non-negative real", 500.0), "ch": ("ch", CH),
                               "source_rate": ("positive real", 1e10)},
    optimize_link_count: {"hw": ("hw", HW), "total_length": ("positive real", 1600.0),
                          "ch": ("ch", CH), "n_max": ("n_max", None)},
    plan_fixed_link: {"hw": ("hw", HW), "total_length": ("real", 1600.0), "ch": ("ch", CH),
                      "link_length": ("positive real", 125.0)},
    crossover_with_direct: {"hw": ("hw", HW), "ch": ("ch", CH),
                            "source_rate": ("positive real", 1e10),
                            "bracket": (("positive real", "positive real"), (10.0, 1e4))},
    run_sweep: {"spec": ("spec", SPEC)},
}
RUN = {TrialConfig: lambda **kw: simulate(TrialConfig(**kw)),
       SweepSpec: lambda **kw: run_sweep(SweepSpec(**kw))}
INSTANCE_KINDS = {"hw": HardwareParams, "ch": ChannelParams, "chain": ChainConfig,
                  "cfg": TrialConfig, "spec": SweepSpec}


def accepted(cls) -> list:
    """Instances of ``cls`` built with one hostile field that it takes."""
    out = []
    for field, (kind, valid) in SIGNATURES[cls].items():
        for value in hostile(kind):
            with contextlib.suppress(ConfigError):
                out.append(cls(**{**valid_arguments(cls), field: value}))
    return out


def hostile(kind) -> list:
    if isinstance(kind, tuple) and len(kind) == 1:  # a grid
        return HOSTILE + [(value,) for value in HOSTILE]
    if isinstance(kind, tuple):  # a pair
        return HOSTILE + [(value, 1e4) for value in HOSTILE] + [(10.0, value) for value in HOSTILE]
    if kind in INSTANCE_KINDS:
        return HOSTILE + accepted(INSTANCE_KINDS[kind])
    return HOSTILE


def valid_arguments(call) -> dict:
    return {name: valid for name, (_, valid) in SIGNATURES[call].items()}


SLOTS = [(call, name) for call in SIGNATURES for name in SIGNATURES[call]]
HOSTILE_BY_SLOT = {(call, name): hostile(SIGNATURES[call][name][0]) for call, name in SLOTS}
CASES = st.sampled_from(SLOTS).flatmap(
    lambda slot: st.tuples(st.just(slot), st.sampled_from(HOSTILE_BY_SLOT[slot])))


class CallTimedOut(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise CallTimedOut(f"call still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def assert_finite_numbers(value, where: str) -> None:
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            optional = field.default is None or (
                isinstance(value, SweepRecord) and value.error is not None)
            if not (item is None and optional):
                assert_finite_numbers(item, f"{where}.{field.name}")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            assert_finite_numbers(item, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_finite_numbers(key, f"{where} key")
            assert_finite_numbers(item, f"{where}[{key!r}]")
    elif isinstance(value, np.ndarray):
        assert np.isfinite(value).all(), where
    elif not isinstance(value, str) and not where.endswith("runner_up_ratio"):
        assert type(value) is int or type(value) is float and math.isfinite(value), (where, value)


def test_contract_covers_the_public_api_and_every_kind():
    functions = {name for name in repeaterchain.__all__
                 if inspect.isfunction(getattr(repeaterchain, name))}
    parameter_classes = {"ChainConfig", "ChannelParams", "HardwareParams", "TrialConfig",
                         "SweepSpec"}
    assert {call.__name__ for call in SIGNATURES} == functions | parameter_classes
    # Each table entry lists its callable's parameters in order.  Only
    # metrics and combined_attempt_dist take a tol: the planner and
    # expected_max_attempts sum at DEFAULT_TOL, since no tolerance moves the
    # moments (test_model's test_moments_are_the_same_at_every_tolerance).
    for call, signature in SIGNATURES.items():
        assert list(inspect.signature(call).parameters) == list(signature), call.__name__
    kinds = set()
    for signature in SIGNATURES.values():
        for kind, _ in signature.values():
            kinds.update(kind if isinstance(kind, tuple) else [kind])
    assert kinds - {None} == set(_KINDS)


# Escapes of the argument checks before they went through one table.
@settings(max_examples=400, deadline=None)
@given(case=CASES)
@example(case=((metrics, "tol"), "1"))
@example(case=((metrics, "tol"), None))
@example(case=((combined_attempt_dist, "tol"), "1"))
@example(case=((combined_attempt_dist, "tol"), None))
@example(case=((combined_attempt_dist, "tol"), 5e-324))
@example(case=((expected_max_attempts, "p"), "1"))
@example(case=((expected_max_attempts, "p"), None))
@example(case=((combined_attempt_dist, "p"), "1"))
@example(case=((combined_attempt_dist, "p"), None))
@example(case=((expected_max_attempts, "p"), 5e-324))
@example(case=((combined_attempt_dist, "p"), 5e-324))
@example(case=((expected_max_attempts, "n"), 10**400))
@example(case=((combined_attempt_dist, "n"), 10**400))
@example(case=((expected_max_attempts, "n"), 1e308))
@example(case=((combined_attempt_dist, "n"), 1e308))
@example(case=((expected_max_attempts, "n"), 2**63))
@example(case=((metrics, "hw"), None))
@example(case=((TrialConfig, "hw"), None))
def test_public_calls_return_finite_numbers_or_raise_package_errors(case):
    (call, name), value = case
    arguments = {**valid_arguments(call), name: value}
    with time_limit(5.0):
        try:
            result = RUN.get(call, call)(**arguments)
        except (ConfigError, ModelError, SimulationAbort):
            return
    assert_finite_numbers(result, f"{call.__name__}({name}={value!r})")


DISTANCE_SPEC = SweepSpec("total_length", (400.0, 800.0, 1200.0, 1600.0), HW, CH,
                          source_rate=1e10)


@pytest.mark.parametrize("call,conversions", [
    (lambda: crossover_with_direct(HW, CH, 1e10), 5),
    (lambda: optimize_link_count(HW, 1600.0, CH), 3),
    (lambda: plan_fixed_link(HW, 1600.0, CH, 125.0), 4),
    (lambda: direct_transmission_time(500.0, CH, 1e10), 3),
    (lambda: metrics(HW, CHAIN, CH), 4),
    (lambda: simulate(CFG), 1),
    (lambda: run_sweep(DISTANCE_SPEC), 1),
], ids=["crossover_with_direct", "optimize_link_count", "plan_fixed_link",
        "direct_transmission_time", "metrics", "simulate", "run_sweep"])
def test_a_public_call_converts_each_argument_once(call, conversions, monkeypatch):
    # Arguments are converted at the boundary; the helpers behind it trust
    # them, however many distances a crossover bisects or a sweep visits.
    # (A sweep over m or rho, or at a fixed link length, re-checks some
    # fields per point by design, so it is left out.)
    counted = []
    for module in (model, planner, montecarlo):
        def convert(*args, _arg=module._arg):
            counted.append(args)
            return _arg(*args)
        monkeypatch.setattr(module, "_arg", convert)
    call()
    assert len(counted) == conversions, counted
