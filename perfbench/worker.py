"""In-process workloads, run in a fresh worker process per benchmark run.

``curves``: the README's four figure sweeps, ``optimize`` and
``fixed-link`` at 1600 km, ``optimize`` with ``n_max=5000``, the crossover
with 10 GHz direct fiber, and seven extra distances drawn from the seed.
``montecarlo``: ``simulate`` at the eleven cross-validation configurations
of acceptance criterion 6, 10^4 successes each, seeded with the seed.

Each workload is a closed loop with one caller.  Passes repeat for about
``--seconds`` and at least ``MIN_PASSES`` times; every call is timed, the
host-speed reference kernel runs after it, and every result is checked
after its pass, outside the timing.  Prints one JSON line for ``run.py``.

Usage: python3 perfbench/worker.py --workload curves --seed 0 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

from common import (
    DEFAULT_SEED,
    KERNEL_NOMINAL_S,
    OUT_DIR,
    SRC,
    another_pass,
    kernel_reference_s,
    load_refs,
    mismatches,
    traced_summary,
)

import repeaterchain
from repeaterchain import montecarlo, planner
from repeaterchain.errors import ModelError
from repeaterchain.model import ChainConfig, ChannelParams, HardwareParams, metrics
from repeaterchain.montecarlo import TrialConfig
from repeaterchain.planner import SweepSpec

HW = HardwareParams()
CH = ChannelParams()
DIRECT_RATE_HZ = 1.0e10
FIGURE_GRID = (200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0)

# (L km, links) of acceptance criterion 6.
MC_CONFIGS = [
    (250.0, 1), (250.0, 4),
    (500.0, 1), (500.0, 4), (500.0, 8),
    (750.0, 8), (750.0, 16),
    (1000.0, 1), (1000.0, 4), (1000.0, 8), (1000.0, 16),
]
MC_TRIALS = 10**4
MC_MAX_Z = 4.0
MC_MAX_SPREAD_ERROR = 0.05

# Enough passes that the op tail has ten samples beyond it (see run.py)
# and that every deterministic result is compared with a repeat of itself.
MIN_PASSES = {"curves": 4, "montecarlo": 2}
TRACED_MIN_PASSES = 2


def curves_extras(seed: int) -> list[float]:
    """One distance within 25 km of each midpoint 300, 500, ..., 1500 km.
    Drawn near fixed points so the work per pass barely depends on the seed."""
    rng = random.Random(seed)
    return [round(mid + rng.uniform(-25.0, 25.0), 1) for mid in range(300, 1600, 200)]


def curves_ops(seed: int) -> list[tuple[str, object]]:
    """(label, call) pairs; calls look entry points up on their module at
    call time, so a traced run sees them through the wrappers."""
    def sweep(param, grid, **kw):
        return lambda: planner.run_sweep(SweepSpec(param, grid, HW, CH, **kw))

    ops = [
        ("sweep-L", sweep("total_length", FIGURE_GRID, source_rate=DIRECT_RATE_HZ)),
        ("sweep-L-L0-125", sweep("total_length", FIGURE_GRID, fixed_link_length=125.0,
                                 source_rate=DIRECT_RATE_HZ)),
        ("sweep-m", sweep("mode_count", (10.0, 20.0, 50.0, 100.0, 200.0), total_length=1000.0)),
        ("sweep-rho", sweep("emission_prob", (0.3, 0.5, 0.7, 0.9), total_length=1000.0)),
        ("optimize-1600", lambda: planner.optimize_link_count(HW, 1600.0, CH)),
        ("fixed-link-1600", lambda: planner.plan_fixed_link(HW, 1600.0, CH, 125.0)),
        ("optimize-1600-nmax-5000", lambda: planner.optimize_link_count(HW, 1600.0, CH, 5000)),
        ("crossover", lambda: planner.crossover_with_direct(HW, CH, DIRECT_RATE_HZ)),
    ]
    for L in curves_extras(seed):
        ops.append((f"extra-{L}", lambda L=L: planner.optimize_link_count(HW, L, CH)))
    return ops


def montecarlo_ops(seed: int) -> list[tuple[str, object]]:
    return [
        (f"simulate-{L:g}-{n}", lambda L=L, n=n: montecarlo.simulate(
            TrialConfig(hw=HW, chain=ChainConfig(L, n), ch=CH, trials=MC_TRIALS, seed=seed)))
        for L, n in MC_CONFIGS
    ]


def summary(result):
    """Plain JSON form of a result, as stored in the reference file.  A
    Monte Carlo histogram can hold ~10^4 bins, so it is kept as a digest."""
    if isinstance(result, list):
        result = [dataclasses.asdict(r) for r in result]
    elif dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    if isinstance(result, dict) and "attempt_histogram" in result:
        hist = json.dumps(sorted(result["attempt_histogram"].items())).encode()
        result["attempt_histogram"] = {"bins": len(result["attempt_histogram"]),
                                       "sha256": hashlib.sha256(hist).hexdigest()}
    return json.loads(json.dumps(result))


def check_extra(L: float, result) -> list[str]:
    """An extra distance's optimum is not beaten by its neighbours and
    its metrics equal a fresh model evaluation."""
    errors = []
    best = result.best_n
    lo, hi = result.scanned_range
    for n in (best - 1, best + 1):
        if lo <= n <= hi:
            try:
                t = metrics(HW, ChainConfig(L, n), CH).t_tot
            except ModelError:
                continue
            if t < result.metrics.t_tot:
                errors.append(f"extra-{L}: n={n} beats best_n={best}")
    if metrics(HW, ChainConfig(L, best), CH) != result.metrics:
        errors.append(f"extra-{L}: metrics differ from a fresh evaluation")
    return errors


class Checker:
    """Checks every result of a workload: the first of each call against
    the references and the model; a repeat must equal the first, and then
    shares its verdict."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        refs = load_refs()[workload]
        self.refs = refs.get(str(seed), {}) if workload == "montecarlo" else refs
        self.first: dict[str, tuple[object, list[str]]] = {}
        if workload == "montecarlo":
            self.model = {f"simulate-{L:g}-{n}": metrics(HW, ChainConfig(L, n), CH)
                          for L, n in MC_CONFIGS}

    def check(self, label: str, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"{label}: {type(result).__name__}: {result}"]
        if label in self.first:
            first, errors = self.first[label]
            return errors if result == first else [f"{label}: differs from the first pass"]
        errors = []
        if label in self.refs:
            errors += [f"{label}: {m}" for m in mismatches(summary(result), self.refs[label])]
        if label.startswith("extra-"):
            errors += check_extra(float(label[len("extra-"):]), result)
        if self.workload == "montecarlo":
            errors += self._gates(label, result)
        self.first[label] = (result, errors)
        return errors

    def _gates(self, label: str, stats) -> list[str]:
        m = self.model[label]
        z_tot = abs(stats.mean_t_tot - m.t_tot) / stats.se_t_tot
        z_mem = abs(stats.mean_mem_time - m.mem_time_avg) / stats.se_mem_time
        spread = abs(stats.std_mem_time / m.mem_time_std - 1.0)
        if z_tot < MC_MAX_Z and z_mem < MC_MAX_Z and spread < MC_MAX_SPREAD_ERROR:
            return []
        return [f"{label}: |z| {z_tot:.2f}/{z_mem:.2f} or spread error {spread:.3f} out of gate"]


def run_passes(ops, checker: Checker, seconds: float, min_passes: int, tracer=None) -> dict:
    """Closed loop: pass after pass until ``seconds`` and ``min_passes``.
    A pass's wall time is the sum of its calls' latencies; the reference
    kernel runs after each call, outside the timing."""
    walls, latencies, errors, failed, ref = [], [], [], 0, []
    start = time.perf_counter()
    while another_pass(start, len(walls), min_passes, seconds):
        results = []
        for label, call in ops:
            t = time.perf_counter()
            try:
                if tracer is None:
                    out = call()
                else:
                    out = tracer.call("op", call, attrs={"op": label})
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            latencies.append(time.perf_counter() - t)
            ref.append(kernel_reference_s())
            results.append((label, out))
        walls.append(sum(latencies[-len(ops):]))
        for label, out in results:
            problems = checker.check(label, out)
            failed += bool(problems)
            errors += problems
    return {"pass_wall_s": walls, "op_latency_s": latencies, "attempted": len(latencies),
            "failed": failed, "errors": errors, "ref_s": ref}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MIN_PASSES), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if SRC not in Path(repeaterchain.__file__).resolve().parents:
        print(f"repeaterchain imported from {repeaterchain.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = (curves_ops if args.workload == "curves" else montecarlo_ops)(args.seed)
    checker = Checker(args.workload, args.seed)
    out: dict[str, object] = {"min_samples": len(ops) * MIN_PASSES[args.workload]}
    if args.workload == "montecarlo":
        out["trials_per_pass"] = MC_TRIALS * len(ops)
    if not args.trace:
        out.update(run_passes(ops, checker, args.seconds, MIN_PASSES[args.workload]))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer, install, layer_metrics

        plain = run_passes(ops, checker, args.seconds / 2, TRACED_MIN_PASSES)
        tracer = Tracer()
        install(tracer)
        traced = run_passes(ops, checker, args.seconds / 2, TRACED_MIN_PASSES, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        out.update(traced_summary(plain, traced, KERNEL_NOMINAL_S))
        out["layers"] = layer_metrics([tracer.spans], len(traced["pass_wall_s"]))
        out["layers"]["trace.overhead_s"] = out.pop("overhead_s")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
