"""The ``cli`` workload: one ``repeaterchain`` process at a time.

Each pass runs every acceptance-gate command in json and csv, plus the
error paths whose exit codes are part of the CLI contract, in an order
shuffled by the seed.  A process is started the way the console script
starts it, so import, parsing and output are paid on every call.  Each
output is checked after its pass: exit code, parseable output, finite
fields, and equality with the reference captured from the package.

``DEFECT_PROBES`` are inputs the CLI mishandles today (a traceback, and a
silent all-zero result).  They are run once per run, outside the timed
passes, and their outcome is reported next to the result.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
import time

from cli_child import MARKER
from common import (
    HERE,
    OUT_DIR,
    PROCESS_NOMINAL_S,
    another_pass,
    load_refs,
    median,
    mismatches,
    non_finite,
    process_reference_s,
    run_child,
    traced_summary,
)
from tracing import layer_metrics, parse_importtime

# The console script's own entry code.
ENTRY = "import sys; from repeaterchain.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60.0

GATE_COMMANDS = {
    "eval": ["eval", "--L", "1600", "--n", "8"],
    "optimize": ["optimize", "--L", "1600"],
    "fixed-link": ["fixed-link", "--L", "1600", "--L0", "125"],
    "sweep": ["sweep", "--param", "L", "--values", "200,400,600,800,1000,1200,1400,1600"],
    "crossover": ["crossover"],
    "simulate": ["simulate", "--L", "500", "--n", "4", "--trials", "1000", "--seed", "42"],
}
OUTPUT_FORMATS = ("json", "csv")
# label -> (argv, exit code, error code in the json error record)
ERROR_COMMANDS = {
    "eval-rho-1.5": (["eval", "--rho", "1.5"], 2, "config_error"),
    "simulate-L-2000-n-40": (["simulate", "--L", "2000", "--n", "40"], 4, "simulation_abort"),
    "crossover-source-rate-1": (["crossover", "--source-rate", "1"], 3, "no_crossover_in_range"),
}
DEFECT_PROBES = {
    "eval-L-nan": (["eval", "--L", "nan", "--n", "8"], 2, "config_error"),
    "eval-c-inf": (["eval", "--L", "1600", "--n", "8", "--c", "inf"], 2, "config_error"),
}
MIN_PASSES = 2


def commands() -> list[tuple[str, list[str], int, str | None]]:
    """(label, argv, expected exit code, expected error code) per process."""
    out = [(f"{name}/{fmt}", argv + ["--format", fmt], 0, None)
           for name, argv in GATE_COMMANDS.items() for fmt in OUTPUT_FORMATS]
    out += [(label, argv + ["--format", "json"], code, error)
            for label, (argv, code, error) in ERROR_COMMANDS.items()]
    return out


def _cell(raw: str):
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    return raw


def parse_output(text: str, fmt: str):
    """Parsed stdout: the json payload, or csv rows as typed dicts."""
    if fmt == "json":
        return json.loads(text)
    header, *body = csv.reader(io.StringIO(text))
    return [dict(zip(header, map(_cell, row))) for row in body]


def plain_stderr(stderr: str) -> list[str]:
    """Stderr lines the CLI itself wrote, without tracing output."""
    return [line for line in stderr.splitlines()
            if not line.startswith(("import time:", MARKER))]


def check(label: str, child, code: int, error: str | None, refs: dict) -> list[str]:
    """Problems with one process's outcome; empty when it is correct."""
    problems = []
    if child.returncode != code:
        problems.append(f"exit {child.returncode}, expected {code}")
    stderr = plain_stderr(child.stderr)
    if any(line.startswith("Traceback") for line in stderr):
        problems.append("traceback on stderr")
    if code == 0:
        try:
            parsed = parse_output(child.stdout, label.rsplit("/", 1)[1])
        except ValueError as exc:
            return problems + [f"unparseable output: {exc}"]
        problems += non_finite(parsed)
        if label not in refs:
            problems.append("no reference output")
        else:
            problems += mismatches(parsed, refs[label])
    elif child.stdout.strip():
        try:
            got = json.loads(child.stdout)["error"]["code"]
        except (ValueError, KeyError, TypeError):
            problems.append("unparseable error record")
        else:
            if got != error:
                problems.append(f"error code {got!r}, expected {error!r}")
    elif not any(line.startswith("error: ") for line in stderr):
        problems.append("no error message")
    return [f"{label}: {p}" for p in problems]


def process_argv(argv: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *argv]
    return [sys.executable, "-c", ENTRY, *argv]


def run_passes(cmds, refs, env, seconds: float, min_passes: int, traced: bool) -> dict:
    """Closed loop of processes, pass after pass until ``seconds`` and
    ``min_passes``; one child at a time.  A pass's wall time is the sum of
    its processes' wall times; the reference process runs after each
    process, outside the timing."""
    walls, latencies, errors, failed, rss, children, ref = [], [], [], 0, [], [], []
    start = time.perf_counter()
    while another_pass(start, len(walls), min_passes, seconds):
        done = []
        for label, argv, code, error in cmds:
            child = run_child(process_argv(argv, traced), env, CHILD_TIMEOUT_S)
            latencies.append(child.wall_s)
            rss.append(child.peak_rss_mb)
            done.append((label, child, code, error))
            ref.append(process_reference_s(env))
        walls.append(sum(latencies[-len(cmds):]))
        for label, child, code, error in done:
            problems = check(label, child, code, error, refs)
            failed += bool(problems)
            errors += problems
        children += [child for _, child, _, _ in done]
    return {"pass_wall_s": walls, "op_latency_s": latencies, "attempted": len(latencies),
            "failed": failed, "errors": errors, "peak_rss_mb": max(rss), "children": children,
            "ref_s": ref}


def _trace_record(child) -> dict:
    return next(json.loads(line[len(MARKER):]) for line in child.stderr.splitlines()
                if line.startswith(MARKER))


def write_spans(children) -> None:
    """All traced processes' spans, one JSON line each, tagged by process."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "trace-cli.jsonl", "w", encoding="utf-8") as fh:
        for process, child in enumerate(children):
            for span in _trace_record(child)["spans"]:
                fh.write(json.dumps({"process": process, **span}) + "\n")


def traced_layers(children, passes: int) -> dict[str, float]:
    """Per-layer figures from traced processes' marker lines and
    ``-X importtime`` output."""
    traces, imports, overheads = [], [], []
    for child in children:
        record = _trace_record(child)
        traces.append(record["spans"])
        imports.append(parse_importtime(child.stderr))
        overheads.append(child.wall_s - record["import_s"] - record["main_s"])
    layers = layer_metrics(traces, passes)
    for name in imports[0]:
        layers[name] = median([i[name] for i in imports])
    layers["cli.proc_overhead_ms"] = 1e3 * median(overheads)
    return layers


def run_probes(env) -> dict[str, str]:
    """Outcome of each defect probe: ``ok`` or what went wrong."""
    outcome = {}
    for label, (argv, code, error) in DEFECT_PROBES.items():
        child = run_child(process_argv(argv + ["--format", "json"], False), env, CHILD_TIMEOUT_S)
        problems = check(label, child, code, error, {})
        outcome[label] = "; ".join(p.split(": ", 1)[1] for p in problems) or "ok"
    return outcome


def run(seed: int, seconds: float, trace: bool, env) -> dict:
    cmds = commands()
    random.Random(seed).shuffle(cmds)
    refs = load_refs()["cli"]
    out = {"min_samples": len(cmds) * MIN_PASSES}
    if not trace:
        res = run_passes(cmds, refs, env, seconds, MIN_PASSES, traced=False)
        del res["children"]
        out.update(res)
    else:
        plain = run_passes(cmds, refs, env, seconds / 2, MIN_PASSES, traced=False)
        traced = run_passes(cmds, refs, env, seconds / 2, MIN_PASSES, traced=True)
        write_spans(traced["children"])
        out.update(traced_summary(plain, traced, PROCESS_NOMINAL_S))
        out["layers"] = traced_layers(traced["children"], len(traced["pass_wall_s"]))
        out["layers"]["trace.overhead_s"] = out.pop("overhead_s")
    out["defect_probes"] = run_probes(env)
    return out
