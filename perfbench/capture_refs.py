"""Capture the reference outputs the benchmark checks results against.

Run from the root of a checkout, only when outputs are meant to change:

    PYTHONPATH=src python3 perfbench/capture_refs.py

Curves: every seed-independent call.  Monte Carlo: every call at the
default seed.  CLI: every gate command in each output format.
"""

from __future__ import annotations

import json

import cli_workload
import worker
from common import DEFAULT_SEED, REFS_PATH, child_env, run_child


def main() -> None:
    curves = {label: worker.summary(call()) for label, call in worker.curves_ops(DEFAULT_SEED)
              if not label.startswith("extra-")}
    mc = {label: worker.summary(call()) for label, call in worker.montecarlo_ops(DEFAULT_SEED)}
    env = child_env()
    cli = {}
    for label, argv, code, _ in cli_workload.commands():
        if code != 0:
            continue
        child = run_child(cli_workload.process_argv(argv, False), env,
                          cli_workload.CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise SystemExit(f"{label} exited {child.returncode}:\n{child.stderr}")
        cli[label] = cli_workload.parse_output(child.stdout, label.rsplit("/", 1)[1])
    refs = {"curves": curves, "montecarlo": {str(DEFAULT_SEED): mc}, "cli": cli}
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
