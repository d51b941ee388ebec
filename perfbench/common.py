"""Helpers shared by the benchmark's processes: order statistics, output
comparison against the captured references, child-process runs, and the
host-speed reference.

Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS_PATH = HERE / "refs.json"
# Spans and run details land here, inside the checkout.
OUT_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 0
REL_TOL = 1e-8

# Host-speed references.  On a shared host the speed of the same code
# swings by up to 1.6x for seconds to minutes at a time as neighbours load
# the machine, which swamps the changes the benchmark exists to show.  So
# a fixed reference, which no change to the package can touch, is timed
# after every measured operation, and each end-to-end time a run reports
# is scaled by the reference's nominal time over its median in that run.
# In-process work is referred to a numpy kernel; process start-up and CLI
# processes to a process importing numpy.  The nominal times are about the
# references' medians on a 2-core 2.1 GHz cloud VM, so there the scaled
# times stay close to the raw ones, which each run reports as well.
KERNEL_NOMINAL_S = 1.5e-3
PROCESS_NOMINAL_S = 0.15
_REFERENCE_PROCESS = "import numpy"

# BLAS/OpenMP pools pinned to one thread: the benchmark targets a
# two-core machine and runs one child at a time.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def tail_level(min_samples: int) -> float:
    """Highest whole percentile that leaves at least ten of
    ``min_samples`` samples beyond it; more samples leave more."""
    return math.floor(100.0 * (1.0 - 10.0 / min_samples)) / 100.0


def another_pass(start: float, passes: int, min_passes: int, seconds: float) -> bool:
    """Whether a closed loop started at ``start`` runs one more pass: it has
    run fewer than ``min_passes``, or one more ends nearer ``seconds``."""
    spent = time.perf_counter() - start
    return passes < min_passes or spent + 0.5 * spent / max(passes, 1) < seconds


def mismatches(got, ref, where: str = "$") -> list[str]:
    """Differences between a parsed output and its reference: integers,
    strings and null exactly, floats within ``REL_TOL`` relative."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(ref)}"]
        return [m for k in ref for m in mismatches(got[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref)) for m in mismatches(g, r, f"{where}[{i}]")]
    if isinstance(ref, float) and isinstance(got, float):
        ok = got == ref or abs(got - ref) <= REL_TOL * abs(ref)
    else:
        ok = type(got) is type(ref) and got == ref
    return [] if ok else [f"{where}: {got!r} != {ref!r}"]


def non_finite(obj, where: str = "$") -> list[str]:
    """Paths of every NaN or infinite float inside a parsed output."""
    if isinstance(obj, dict):
        return [m for k, v in obj.items() for m in non_finite(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [m for i, v in enumerate(obj) for m in non_finite(v, f"{where}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [f"{where}: {obj!r}"]
    return []


def traced_summary(plain: dict, traced: dict, nominal_s: float) -> dict:
    """Result of a traced run from its untraced and traced halves.  The
    tracing overhead compares the halves' median pass times, each scaled
    by its own reference median to the ``nominal_s`` host speed."""
    def scaled_wall(half):
        return median(half["pass_wall_s"]) * nominal_s / median(half["ref_s"])

    return {
        "plain_wall_s": plain["pass_wall_s"],
        "traced_wall_s": traced["pass_wall_s"],
        "overhead_s": scaled_wall(traced) - scaled_wall(plain),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": plain["errors"] + traced["errors"],
        "ref_s": plain["ref_s"] + traced["ref_s"],
    }


def kernel_reference_s() -> float:
    """Seconds for the in-process reference: numpy ufuncs over 16k-element
    arrays, the faster of two back-to-back runs."""
    import numpy as np

    x = np.linspace(1e-3, 1.0, 16384)
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        for i in range(12):
            y = np.exp(-x * (1 + i))
            float((-np.expm1(8 * np.log1p(-y))).sum())
        best = min(best, time.perf_counter() - start)
    return best


def process_reference_s(env: dict[str, str]) -> float:
    """Wall seconds of the process reference: a fresh interpreter that
    imports numpy."""
    return run_child([sys.executable, "-c", _REFERENCE_PROCESS], env, 60.0).wall_s


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU, so the
    reference kernel runs where the measured work runs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's ``src`` first on the
    import path, thread pools pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


@dataclass(frozen=True)
class Child:
    """An ended child process: exit code, output, wall time from spawn to
    reap, and its own peak resident memory from ``wait4``."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


class ChildTimeout(RuntimeError):
    """A child outlived its time limit and was killed."""


def run_child(argv: list[str], env: dict[str, str], timeout: float) -> Child:
    """Run one child to completion and reap it with ``os.wait4``, so its
    resource usage is its own; kill it after ``timeout`` seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer = threading.Timer(timeout, proc.kill)
    reader.start()
    killer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= timeout:
        raise ChildTimeout(f"{argv[:4]} ran for more than {timeout:.0f} s")
    return Child(proc.returncode, out.decode(), err[0].decode() if err else "",
                 wall, usage.ru_maxrss / 1024.0)
