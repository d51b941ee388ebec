"""Benchmark of the repeaterchain package, driven from outside it.

    python3 perfbench/run.py --workload {curves,montecarlo,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src``.  Workloads (see ``worker.py`` and ``cli_workload.py``):

* ``curves``: the README's figure sweeps and planning calls, in process;
* ``montecarlo``: ``simulate`` at the cross-validation configurations,
  in process;
* ``cli``: acceptance-gate commands, one ``repeaterchain`` process each.

The run and every process it starts are pinned to one CPU.  Set-up time
is measured first: fresh processes that import the package and its CLI,
one after another.  The workload then runs in a fresh worker process
(``cli`` starts its own processes).  End-to-end times are referred to the
host's speed during the run (see ``common.py``).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` half
of the time runs untraced and half traced, and it carries the per-layer
metrics, unscaled, and the tracing overhead.  The line before it holds
the details: environment, scale factors, unscaled values, sample counts,
tail percentile, failures, defect probes.  Metric names and units come
from ``BENCHMARK.json``; the metrics are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib import metadata

import cli_workload
from common import (
    DEFAULT_SEED,
    HERE,
    KERNEL_NOMINAL_S,
    PROCESS_NOMINAL_S,
    ROOT,
    SRC,
    ChildTimeout,
    child_env,
    median,
    pin_to_one_cpu,
    quantile,
    process_reference_s,
    run_child,
    tail_level,
)
from tracing import parse_importtime

WORKLOADS = ("curves", "montecarlo", "cli")
SETUP_PROBES = 7
SETUP_CODE = (
    "import time; t = time.perf_counter(); import repeaterchain, repeaterchain.cli; "
    "print(time.perf_counter() - t, repeaterchain.__file__)"
)
WORKER_TIMEOUT_S = 170.0
PROBE_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def measure_setup(env, trace: bool) -> dict:
    """Fresh processes importing the package, after one warm-up that
    fills the bytecode cache: their wall times, the import time inside
    them, and with ``trace`` the ``-X importtime`` split."""
    argv = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", SETUP_CODE]
    walls, imports, splits, ref = [], [], [], []
    for i in range(SETUP_PROBES + 1):
        child = run_child(argv, env, PROBE_TIMEOUT_S)
        ref.append(process_reference_s(env))
        if child.returncode != 0:
            raise BenchError(f"importing repeaterchain failed:\n{child.stderr}")
        seconds, path = child.stdout.split(maxsplit=1)
        if not os.path.realpath(path.strip()).startswith(str(SRC) + os.sep):
            raise BenchError(f"repeaterchain imported from {path.strip()}, not {SRC}")
        if i:
            walls.append(child.wall_s)
            imports.append(float(seconds))
            splits.append(parse_importtime(child.stderr))
    return {"wall_s": walls, "import_s": imports, "splits": splits, "ref_s": ref}


def run_worker(args, env) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = run_child(argv, env, WORKER_TIMEOUT_S)
    if child.returncode != 0 or not child.stdout.strip():
        raise BenchError(f"worker exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def time_scales(workload: str, res: dict, setup: dict) -> tuple[float, float]:
    """Factors that refer set-up and workload times to the nominal host
    speed (see common.py): set-up by the process reference, ``cli`` by the
    process reference, in-process workloads by the numpy kernel."""
    setup_scale = PROCESS_NOMINAL_S / median(setup["ref_s"])
    if workload == "cli":
        return setup_scale, PROCESS_NOMINAL_S / median(setup["ref_s"] + res["ref_s"])
    return setup_scale, KERNEL_NOMINAL_S / median(res["ref_s"])


def end_to_end(res: dict, setup: dict, level: float, scales=(1.0, 1.0)) -> dict[str, float]:
    """End-to-end metrics; ``scales`` multiply the set-up and workload times."""
    setup_scale, scale = scales
    latencies = res["op_latency_s"]
    return {
        "setup_s": setup_scale * median(setup["wall_s"]),
        "wall_s": scale * median(res["pass_wall_s"]),
        "op_p50_ms": scale * 1e3 * median(latencies),
        "op_tail_ms": scale * 1e3 * quantile(latencies, level),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict, setup: dict) -> dict[str, float]:
    values = dict(res["layers"])
    if "cli.proc_overhead_ms" not in values:  # no CLI process: the set-up probes'
        for name in setup["splits"][0]:
            values[name] = median([s[name] for s in setup["splits"]])
        values["cli.proc_overhead_ms"] = 1e3 * median(
            [w - i for w, i in zip(setup["wall_s"], setup["import_s"])])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repeaterchain" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    stamp = environment()
    stamp["pinned_cpu"] = pin_to_one_cpu()
    env = child_env()
    try:
        setup = measure_setup(env, bool(args.trace))
        if args.workload == "cli":
            res = cli_workload.run(args.seed, args.seconds, bool(args.trace), env)
        else:
            res = run_worker(args, env)
    except (BenchError, ChildTimeout) as exc:
        print(exc, file=sys.stderr)
        return 1

    level = tail_level(res["min_samples"])
    scales = time_scales(args.workload, res, setup)
    if args.trace:
        values = per_layer(res, setup)
    else:
        values = end_to_end(res, setup, level, scales)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": stamp,
        "time_scales": scales,
        "setup_wall_s": setup["wall_s"],
        "setup_import_s": setup["import_s"],
        "error_rate": res["failed"] / res["attempted"],
        "errors": res["errors"][:10],
    }
    if args.trace:
        details.update(plain_wall_s=res["plain_wall_s"], traced_wall_s=res["traced_wall_s"])
    else:
        details.update(unscaled=end_to_end(res, setup, level), pass_wall_s=res["pass_wall_s"],
                       op_samples=len(res["op_latency_s"]),
                       op_tail_percentile=round(100 * level))
        if "trials_per_pass" in res:
            details["trials_per_s"] = res["trials_per_pass"] / values["wall_s"]
    if "defect_probes" in res:
        details["defect_probes"] = res["defect_probes"]
        for label, outcome in res["defect_probes"].items():
            if outcome != "ok":
                print(f"known defect: {label}: {outcome}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
