"""Command-line front end.

Subcommands: ``eval``, ``optimize``, ``fixed-link``, ``sweep``,
``crossover``, ``simulate``.  Parameters come from flags, optionally
layered over a flat ``key = value`` config file (flags win).  Output is
``human`` (SI-prefixed times), ``csv``, or ``json``; the machine formats
never prefix units and are byte-stable for a fixed seed.

:data:`PARAMETERS` declares every parameter once, and :data:`SCENARIOS`
maps each subcommand to a runner whose report one emitter formats.  No
flag sets a series tolerance: every scenario sums at ``DEFAULT_TOL``.

The command line is only split into flags: every flag arrives as text and
becomes a value the way a config-file value does, so a value that does
not parse or names no choice is a configuration error either way.
:func:`_split` takes a subcommand followed by its own flags, each written
``--flag value`` (the value may start with ``-``, as in ``--L -5``, but
is no flag) or ``--flag=value``; a repeated flag keeps its last value.  ``-h`` or
``--help`` in flag position asks for help, built from the same tables,
and any other argv is a configuration error naming the token it cannot
split.

Exit codes: 0 success, 2 configuration error, 3 model error
(non-terminating or unreachable configuration, no crossover), 4
simulation abort, 5 output error (stdout cannot take the report, error
record or help; silent for a closed pipe, as under ``| head``).  Only
stdout gives 5: a human error line that stderr cannot take leaves the
error's own status 2, 3 or 4.  Once the format is known, errors follow it:
under ``json`` they are a ``{"error": ...}`` record on stdout.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ConfigError, ModelError, SimulationAbort
from .model import (
    ChainConfig,
    ChannelParams,
    HardwareParams,
    RepeaterMetrics,
    metrics,
)

if TYPE_CHECKING:
    from .planner import FixedLinkPlan

__all__ = ["RunConfig", "execute", "main", "parse_config"]

FORMATS = ("human", "csv", "json")

# Column order of the machine-readable metrics schema.
METRIC_COLUMNS = (
    "L_km",
    "n",
    "L0_km",
    "p",
    "f_over_p",
    "t_ec_s",
    "t_cc_s",
    "p_es",
    "t_tot_s",
    "mem_avg_s",
    "mem_std_s",
)

# Swept parameter -> the SweepSpec field it sweeps.
_SWEPT = {"L": "total_length", "m": "mode_count", "rho": "emission_prob"}


def _grid(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


# key -> (type, default, help).  Every key is a config-file key and, when
# it has a help text, the flag ``--key`` with ``_`` written as ``-``.  A
# tuple type lists the choices.  Flag and file text alike become a value
# only through ``_parse_value``.
PARAMETERS: dict[str, tuple[object, object, str | None]] = {
    "L": (float, None, "total distance in km"),
    "n": (int, None, "number of elementary links"),
    "L0": (float, None, "elementary link length in km"),
    "m": (int, 100, "modes per attempt"),
    "rho": (float, 0.9, "source emission probability"),
    "eta_d": (float, 0.9, "detector efficiency"),
    "eta_m": (float, 0.9, "memory efficiency"),
    "alpha": (float, 0.2, "fiber attenuation in dB/km"),
    "c": (float, 2.0e5, "signal speed in km/s"),
    "trials": (int, 1000, "end-to-end successes to simulate"),
    "seed": (int, 0, "simulation seed (64-bit unsigned)"),
    "source_rate": (float, 1.0e10, "direct-transmission source rate in Hz"),
    "n_max": (int, None, "largest link count to scan"),
    "format": (FORMATS, "human", "output format: human, csv or json"),
    "param": (tuple(_SWEPT), None, "swept parameter: L, m or rho"),
    "values": (_grid, None, "comma-separated, strictly increasing grid"),
    "scenario": (str, None, None),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: scenario, physics parameters, and output
    selection, with the defaults of :data:`PARAMETERS` already applied."""

    scenario: str
    hw: HardwareParams
    ch: ChannelParams
    output: str
    total_length: float | None
    link_count: int | None
    link_length: float | None
    trials: int
    seed: int
    source_rate: float
    n_max: int | None
    sweep_param: str | None
    sweep_values: tuple[float, ...] | None


class _Report:
    """One scenario's result in every output format: the json document,
    the csv header and rows (a row without a column prints it empty), and
    the human lines."""

    __slots__ = ("payload", "columns", "rows", "lines")

    def __init__(self, payload: dict, columns: tuple[str, ...] = (),
                 rows: tuple[dict, ...] = (), lines: tuple[str, ...] = ()):
        self.payload, self.columns, self.rows, self.lines = payload, columns, rows, lines


class _Scenario:
    __slots__ = ("help", "run", "required", "flags")

    def __init__(self, help: str, run: Callable[[RunConfig], _Report],
                 required: tuple[str, ...] = (), flags: tuple[str, ...] = ()):
        self.help, self.run, self.required = help, run, required
        self.flags = flags  # parameters only this subcommand takes


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_value(key: str, raw: str, where: str):
    kind = PARAMETERS[key][0]
    try:
        if not isinstance(kind, tuple):
            return kind(raw)
        if raw in kind:
            return raw
    except ValueError:
        pass
    raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}")


def _read_config_file(path: str) -> dict[str, object]:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is no part of a key
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in PARAMETERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw, f"{path}:{lineno}")
    return out


def _argv_format(argv: list[str]) -> str | None:
    # The last ``--format X`` or ``--format=X`` of argv.
    fmt = None
    for arg, following in zip(argv, [*argv[1:], None]):
        if arg == "--format":
            fmt = following
        elif arg.startswith("--format="):
            fmt = arg.partition("=")[2]
    return fmt


def _flags(scenario: str) -> dict[str, tuple[str, str]]:
    """Subcommand ``scenario``'s flags in help order: flag -> (key, help)."""
    own_flags = {key for other in SCENARIOS.values() for key in other.flags}
    flags = {"--config": ("config", "flat key = value config file; flags override it")}
    for key, (_, _, text) in PARAMETERS.items():
        if text is not None and (key in SCENARIOS[scenario].flags or key not in own_flags):
            flags[_flag(key)] = (key, text)
    return flags


def _help(scenario: str | None) -> str:
    """Help for ``repeaterchain`` or one subcommand, from :data:`SCENARIOS`
    and :func:`_flags`: a usage line, then one line per entry."""
    if scenario is None:
        about = "Entanglement-distribution performance of semihierarchical repeater chains."
        heading = "subcommands, each with its own --help:"
        rows = {name: other.help for name, other in SCENARIOS.items()}
    else:
        about, heading = SCENARIOS[scenario].help, "flags, each --flag value or --flag=value:"
        rows = {"-h, --help": "show this help and exit",
                **{flag: text for flag, (_, text) in _flags(scenario).items()}}
    width = max(map(len, rows))
    return "".join(f"{line}\n" for line in (
        f"usage: repeaterchain {scenario or '<subcommand>'} [--flag value ...]", "", about, "",
        heading, *(f"  {name:<{width}}  {text}" for name, text in rows.items())))


def _split(argv: list[str]) -> dict[str, str | None]:
    """Split ``argv``, a subcommand followed by its own flags, each
    ``--flag value`` or ``--flag=value``, into key -> text (None for a flag
    not given); a repeated flag keeps its last value.  ``-h`` or ``--help``
    in flag position raises ``SystemExit(0)`` carrying :func:`_help` as
    ``help``; any other argv raises a :class:`ConfigError` naming the
    first token that does not split."""
    scenario = argv[0] if argv and argv[0] in SCENARIOS else None
    flags = _flags(scenario) if scenario else {}
    args = {"scenario": scenario, **{key: None for key, _ in flags.values()}}
    see = f" (see repeaterchain {scenario + ' ' if scenario else ''}--help)"
    rest = iter(argv[1:] if scenario else argv)
    for arg in rest:
        if arg in ("-h", "--help"):
            exit_0 = SystemExit(0)
            exit_0.help = _help(scenario)  # main writes it, then exits 0
            raise exit_0
        if scenario is None:
            raise ConfigError(f"unknown subcommand {arg!r}{see}")
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            raise ConfigError(f"unrecognized argument {arg!r}{see}")
        if not eq and ((value := next(rest, None)) is None or value in flags):
            raise ConfigError(f"{flag} needs a value{see}")  # at the end, or before a flag
        args[flags[flag][0]] = value
    if scenario is None:
        raise ConfigError(f"a subcommand is required{see}")
    return args


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve flags plus optional config file into a :class:`RunConfig`.

    Precedence: built-in defaults, then config-file keys, then flags.  A
    :class:`ConfigError` carries the output format as ``output``: the
    last one argv names, else the config file's.  Help raises
    ``SystemExit(0)`` with the unwritten help text as ``help``; argv that
    :func:`_split` cannot split raises a ConfigError naming its token.
    """
    if argv is None:
        argv = sys.argv[1:]
    merged = {key: default for key, (_, default, _) in PARAMETERS.items()}
    try:
        args = _split(argv)
        if args["config"]:
            file_values = _read_config_file(args["config"])
            file_scenario = file_values.pop("scenario", None)
            if file_scenario is not None and file_scenario != args["scenario"]:
                raise ConfigError(
                    f"scenario {file_scenario!r} from {args['config']} conflicts with "
                    f"subcommand {args['scenario']!r}"
                )
            merged.update(file_values)
        for key in PARAMETERS:
            raw = args.get(key)  # the subcommand is ``scenario``
            if raw is not None:
                merged[key] = _parse_value(key, raw, _flag(key))
        return _resolve(merged)
    except ConfigError as exc:
        fmt = _argv_format(argv) or merged["format"]
        exc.output = fmt if fmt in FORMATS else "human"
        raise


def _resolve(merged: dict[str, object]) -> RunConfig:
    hw = HardwareParams(detector_eff=merged["eta_d"], memory_eff=merged["eta_m"],
                        emission_prob=merged["rho"], mode_count=merged["m"])
    ch = ChannelParams(attenuation=merged["alpha"], signal_speed=merged["c"])

    scenario = merged["scenario"]
    for key in SCENARIOS[scenario].required:
        if merged[key] is None:
            raise ConfigError(f"{_flag(key)} is required for scenario {scenario!r}")
    sweep_param = None
    if scenario == "sweep":
        sweep_param = _SWEPT[merged["param"]]
        if sweep_param != "total_length" and merged["L"] is None:
            raise ConfigError("--L is required when it is not the swept parameter")
    link_length = merged["L0"]
    if scenario == "fixed-link" and link_length is None:
        link_length = 125.0
    return RunConfig(
        scenario=scenario, hw=hw, ch=ch, output=merged["format"],
        total_length=merged["L"], link_count=merged["n"], link_length=link_length,
        trials=merged["trials"], seed=merged["seed"], source_rate=merged["source_rate"],
        n_max=merged["n_max"], sweep_param=sweep_param,
        sweep_values=merged["values"] if sweep_param else None,
    )


def format_time(seconds: float) -> str:
    """SI-prefixed time with 4 significant digits: ms below 1 s, s up to
    an hour, h beyond."""
    if seconds < 1.0:
        return f"{seconds * 1e3:.4g} ms"
    if seconds < 3600.0:
        return f"{seconds:.4g} s"
    return f"{seconds / 3600.0:.4g} h"


def _metric_row(L: float, n: int, m: RepeaterMetrics) -> dict[str, float | int]:
    return dict(zip(METRIC_COLUMNS, (
        L, n, L / n, m.ec_prob, m.expected_attempts, m.t_ec, m.t_cc, m.p_es, m.t_tot,
        m.mem_time_avg, m.mem_time_std,
    )))


def _plan_row(L: float, plan: FixedLinkPlan) -> dict[str, float | int | str]:
    row = _metric_row(L, plan.node_count, plan.metrics)
    row["L0_km"] = plan.link_length
    row.update(
        node_span_km=plan.node_span,
        extension_km=plan.extension,
        side=plan.side,
    )
    return row


def _metric_report(scenario: str, row: dict, heading: tuple[str, ...] = (), **extra) -> _Report:
    # One metrics record: eval, optimize and fixed-link.
    lines = [
        f"L = {row['L_km']:g} km, n = {row['n']} links, L0 = {row['L0_km']:g} km",
        f"EC probability per attempt: {row['p']:.4g}",
        f"expected attempts until all links ready: {row['f_over_p']:.4g}",
        f"t_ec: {format_time(row['t_ec_s'])}    t_cc: {format_time(row['t_cc_s'])}",
        f"swap success probability: {row['p_es']:.4g}",
        f"average distribution time: {format_time(row['t_tot_s'])}",
        f"memory time: {format_time(row['mem_avg_s'])} +- {format_time(row['mem_std_s'])}",
    ]
    if "side" in row:
        lines.insert(1, f"nodes span {row['node_span_km']:g} km, extension "
                        f"{row['extension_km']:g} km ({row['side']})")
    return _Report({"scenario": scenario, "record": row, **extra},
                   METRIC_COLUMNS, (row,), (*heading, *lines))


# Runners import the planner and the sampler only when they run, so each
# process loads just the layers of its subcommand.  They look the entry
# points up at call time, ``metrics`` in this module's namespace and the
# others on their own module, so a wrapper installed there sees every call.

def _run_eval(cfg: RunConfig) -> _Report:
    chain = ChainConfig(total_length=cfg.total_length, link_count=cfg.link_count)
    m = metrics(cfg.hw, chain, cfg.ch)
    return _metric_report("eval", _metric_row(cfg.total_length, cfg.link_count, m))


def _run_optimize(cfg: RunConfig) -> _Report:
    from . import planner

    result = planner.optimize_link_count(cfg.hw, cfg.total_length, cfg.ch, cfg.n_max)
    lo, hi = result.scanned_range
    return _metric_report(
        "optimize",
        _metric_row(cfg.total_length, result.best_n, result.metrics),
        (f"best link count in [{lo}, {hi}]: {result.best_n}",),
        best_n=result.best_n,
        scanned_range=[lo, hi],
        # Infinite when a single link count is feasible: json has no such number.
        runner_up_ratio=result.runner_up_ratio if math.isfinite(result.runner_up_ratio) else None,
    )


def _run_fixed_link(cfg: RunConfig) -> _Report:
    from . import planner

    plan = planner.plan_fixed_link(cfg.hw, cfg.total_length, cfg.ch, cfg.link_length)
    return _metric_report("fixed-link", _plan_row(cfg.total_length, plan))


def _run_crossover(cfg: RunConfig) -> _Report:
    from . import planner

    km = planner.crossover_with_direct(cfg.hw, cfg.ch, cfg.source_rate)
    return _Report(
        {"scenario": "crossover", "crossover_km": km, "source_rate_hz": cfg.source_rate},
        ("crossover_km",),
        ({"crossover_km": km},),
        (f"chain beats direct transmission beyond ~{km:.0f} km "
         f"(source rate {cfg.source_rate:g} Hz)",),
    )


def _run_sweep(cfg: RunConfig) -> _Report:
    from . import planner

    swept_length = cfg.sweep_param == "total_length"
    spec = planner.SweepSpec(
        swept_parameter=cfg.sweep_param, grid=cfg.sweep_values, hw=cfg.hw, ch=cfg.ch,
        total_length=None if swept_length else cfg.total_length,
        fixed_link_length=cfg.link_length, n_max=cfg.n_max,
        source_rate=cfg.source_rate if swept_length else None,
    )
    lead = {"mode_count": "m", "emission_prob": "rho"}.get(cfg.sweep_param)  # swept column
    rows, lines = [], []
    for rec in planner.run_sweep(spec):
        if rec.metrics is None:
            row = {**dict.fromkeys(METRIC_COLUMNS, ""), "L_km": rec.total_length,
                   "error": rec.error}
            lines.append(f"{rec.value:g}: error: {rec.error}")
        else:
            if rec.plan is not None:
                row = _plan_row(rec.total_length, rec.plan)
            else:
                row = _metric_row(rec.total_length, rec.best_n, rec.metrics)
            lines.append(f"{rec.value:g}: n={row['n']} t_tot={format_time(row['t_tot_s'])} "
                         f"mem={format_time(row['mem_avg_s'])}")
        if lead is not None:
            row[lead] = int(rec.value) if lead == "m" else rec.value
        if rec.direct_time is not None:
            row["direct_s"] = rec.direct_time
        rows.append(row)
    optional = tuple(c for c in ("direct_s", "error") if any(c in row for row in rows))
    return _Report({"scenario": "sweep", "swept_parameter": cfg.sweep_param, "records": rows},
                   ((lead,) if lead else ()) + METRIC_COLUMNS + optional, tuple(rows), tuple(lines))


def _run_simulate(cfg: RunConfig) -> _Report:
    from . import montecarlo

    chain = ChainConfig(total_length=cfg.total_length, link_count=cfg.link_count)
    stats = montecarlo.simulate(montecarlo.TrialConfig(hw=cfg.hw, chain=chain, ch=cfg.ch,
                                                       trials=cfg.trials, seed=cfg.seed))
    row = {
        "L_km": cfg.total_length,
        "n": cfg.link_count,
        "trials": stats.trials,
        "seed": cfg.seed,
        "rounds": stats.rounds_total,
        "mean_attempts": stats.mean_attempts,
        "se_attempts": stats.se_attempts,
        "mean_t_tot_s": stats.mean_t_tot,
        "se_t_tot_s": stats.se_t_tot,
        "mean_mem_s": stats.mean_mem_time,
        "se_mem_s": stats.se_mem_time,
        "std_mem_s": stats.std_mem_time,
        "es_success_rate": stats.es_success_rate,
    }
    histogram = {str(k): v for k, v in sorted(stats.attempt_histogram.items())}
    return _Report(
        {"scenario": "simulate", "record": {**row, "attempt_histogram": histogram}},
        tuple(row),
        (row,),
        (
            f"simulated {stats.trials} successes over {stats.rounds_total} rounds "
            f"(seed {cfg.seed})",
            f"attempts per round: {stats.mean_attempts:.4g} +- {stats.se_attempts:.4g}",
            f"distribution time: {format_time(stats.mean_t_tot)} "
            f"+- {format_time(stats.se_t_tot)}",
            f"memory time: {format_time(stats.mean_mem_time)} "
            f"+- {format_time(stats.se_mem_time)} (spread {format_time(stats.std_mem_time)})",
        ),
    )


# Subcommands in help order.
SCENARIOS: dict[str, _Scenario] = {
    "eval": _Scenario("metrics for one (L, n) configuration", _run_eval, ("L", "n")),
    "optimize": _Scenario("scan link counts for the fastest chain", _run_optimize, ("L",)),
    "fixed-link": _Scenario("plan a chain with fixed link length", _run_fixed_link, ("L",)),
    "crossover": _Scenario("distance where the chain beats direct transmission",
                           _run_crossover),
    "sweep": _Scenario("tabulate metrics over a grid", _run_sweep, ("param", "values"),
                       flags=("param", "values")),
    "simulate": _Scenario("Monte Carlo validation run", _run_simulate, ("L", "n")),
}


def _emit(report: _Report, fmt: str) -> str:
    # Each writer loads only when its format is asked for.
    if fmt == "json":
        import json

        return json.dumps(report.payload, sort_keys=True) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            cells = (row.get(c, "") for c in report.columns)
            writer.writerow([repr(v) if isinstance(v, float) else v for v in cells])
        return buf.getvalue()
    return "".join(line + "\n" for line in report.lines)


def execute(cfg: RunConfig) -> str:
    """Run the scenario and return its report in the selected format."""
    scenario = SCENARIOS.get(cfg.scenario)
    if scenario is None:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    return _emit(scenario.run(cfg), cfg.output)


# Exit status of each error class; a subclass takes its base's.
_STATUS = {ConfigError: 2, ModelError: 3, SimulationAbort: 4}


def _write(name: str, text: str) -> OSError | None:
    """Write ``text`` to ``sys.stdout`` or ``sys.stderr`` and flush it.  On
    failure, or when the stream is None, point its descriptor at devnull, so
    the exit flush cannot fail again, and return the error."""
    stream = sys.stdout if name == "stdout" else sys.stderr
    try:
        if stream is None:
            raise OSError(f"{name} is closed")
        stream.write(text)
        stream.flush()
    except OSError as exc:
        if stream is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code, or raises
    ``SystemExit(0)`` once help is written.  It alone writes output: one
    report, help text, json error record or human error line, through
    :func:`_write`.

    Registers :func:`gc.freeze` to run at exit, once per process, so the
    interpreter's shutdown collections skip the objects still alive then.
    """
    atexit.unregister(gc.freeze)  # once, however often main runs
    atexit.register(gc.freeze)
    fmt, status, help_exit, stream = "human", 0, None, "stdout"
    try:
        cfg = parse_config(argv)
        fmt = cfg.output
        out = execute(cfg)
    except SystemExit as exc:  # help, raised unwritten
        out, help_exit = exc.help, exc
    except tuple(_STATUS) as exc:
        status = next(code for kind, code in _STATUS.items() if isinstance(exc, kind))
        if getattr(exc, "output", fmt) == "json":
            code = re.sub(r"\B(?=[A-Z])", "_", type(exc).__name__).lower()
            out = _emit(_Report({"error": {"code": code, "message": str(exc)}}), "json")
        else:  # an error line stderr cannot take keeps the error's status
            stream, out = "stderr", f"error: {exc}\n"
    failure = _write(stream, out)
    if failure is not None and stream == "stdout":
        if not isinstance(failure, BrokenPipeError):  # a closed pipe exits quietly
            _write("stderr", f"error: cannot write the report: {failure}\n")
        return 5
    if help_exit is not None:
        raise help_exit
    return status


if __name__ == "__main__":
    sys.exit(main())
