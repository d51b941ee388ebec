from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeaterchain import cli, errors
from repeaterchain.cli import (
    FORMATS,
    METRIC_COLUMNS,
    PARAMETERS,
    SCENARIOS,
    execute,
    format_time,
    main,
    parse_config,
)
from repeaterchain.errors import ConfigError


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------- configuration

def test_parse_config_fills_reference_defaults():
    cfg = parse_config(["eval", "--L", "1600", "--n", "8"])
    assert cfg.scenario == "eval"
    assert cfg.hw.memory_eff == cfg.hw.detector_eff == cfg.hw.emission_prob == 0.9
    assert cfg.hw.mode_count == 100
    assert cfg.ch.attenuation == 0.2
    assert cfg.ch.signal_speed == 2.0e5
    assert cfg.output == "human"


def test_parse_config_rejects_out_of_range_probability():
    with pytest.raises(ConfigError):
        parse_config(["eval", "--L", "100", "--n", "1", "--rho", "1.3"])


def test_parse_config_requires_scenario_parameters():
    with pytest.raises(ConfigError):
        parse_config(["eval", "--n", "8"])
    with pytest.raises(ConfigError):
        parse_config(["eval", "--L", "100"])
    with pytest.raises(ConfigError):
        parse_config(["sweep", "--param", "m", "--values", "10,100"])


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("m = 10\nrho = 0.5\n")
    cfg = parse_config(["eval", "--L", "100", "--n", "1",
                        "--config", str(config), "--m", "100"])
    assert cfg.hw.mode_count == 100  # flag wins
    assert cfg.hw.emission_prob == 0.5  # file value survives


def test_config_file_repeated_key_takes_last_value_and_unused_keys_pass(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("m = 10\nm = 20\nvalues = 1,2\nparam = rho\nn_max = 3\n")
    cfg = parse_config(["eval", "--L", "100", "--n", "1", "--config", str(config)])
    assert cfg.hw.mode_count == 20
    assert cfg.sweep_values is None  # eval ignores the sweep keys


def test_config_file_reports_line_numbers(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m = 10\nbogus_key = 3\n")
    code, _, err = run_cli(capsys, "eval", "--L", "100", "--n", "1",
                           "--config", str(config))
    assert code == 2
    assert "2" in err and "bogus_key" in err


@pytest.mark.parametrize("fmt", FORMATS)
def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys, fmt):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, "eval", "--L", "100", "--n", "2",
                             "--config", str(config), "--format", fmt)
    assert code == 2
    message = f"cannot read config file {config}: 'utf-8' codec can't decode"
    if fmt == "json":
        assert err == ""
        error = json.loads(out)["error"]
        assert error["code"] == "config_error" and error["message"].startswith(message)
    else:
        assert out == ""
        assert err.startswith(f"error: {message}")


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    # Windows editors start a UTF-8 file with U+FEFF, which is no part of its first key.
    text = "L = 1600\nn = 8\nm = 50\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert (parse_config(["eval", "--config", str(marked)])
            == parse_config(["eval", "--config", str(plain)]))


def test_config_file_scenario_conflict(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("scenario = eval\nL = 100\nn = 1\n")
    code, _, err = run_cli(capsys, "optimize", "--config", str(config))
    assert code == 2
    assert "conflict" in err


# One non-default value per parameter key, and the flags of a sweep that
# every one of them fits into.
KEY_VALUES = {
    "L": "1234.5", "n": "7", "L0": "150", "m": "20", "rho": "0.5", "eta_d": "0.8",
    "eta_m": "0.7", "alpha": "0.25", "c": "190000", "trials": "50",
    "seed": "9", "source_rate": "1e9", "n_max": "40", "format": "csv", "param": "m",
    "values": "10,20",
}
SWEEP_BASE = {"param": "rho", "values": "0.5", "L": "1000"}
# One value per key that does not parse; ``format`` and ``param`` take a
# name outside their choices.
BAD_VALUES = {
    **{key: "abc" for key in KEY_VALUES}, "n": "1.5", "m": "1e2", "trials": "1e3",
    "seed": "-", "n_max": "4.0", "values": "1,x", "format": "xml", "param": "n",
}


@pytest.mark.parametrize("key", list(KEY_VALUES))
def test_config_file_key_matches_flag(tmp_path, key):
    flag = "--" + key.replace("_", "-")
    base = ["sweep"]
    for other, value in SWEEP_BASE.items():
        if other != key:
            base += ["--" + other, value]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {KEY_VALUES[key]}\n")
    from_flag = parse_config(base + [flag, KEY_VALUES[key]])
    assert parse_config(base + ["--config", str(config)]) == from_flag
    reference = [a for k, v in SWEEP_BASE.items() for a in ("--" + k, v)]
    assert from_flag != parse_config(["sweep", *reference])

    config.write_text(f"{key} = {BAD_VALUES[key]}\n")
    with pytest.raises(ConfigError) as file_error:
        parse_config(base + ["--config", str(config)])
    with pytest.raises(ConfigError) as flag_error:
        parse_config(base + [f"{flag}={BAD_VALUES[key]}"])
    file_prefix, flag_prefix = f"{config}:1: ", f"{flag}: "
    assert str(file_error.value).startswith(file_prefix)
    assert str(flag_error.value).startswith(flag_prefix)
    assert (str(file_error.value).removeprefix(file_prefix)
            == str(flag_error.value).removeprefix(flag_prefix))


def test_config_file_can_supply_everything(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# full run from file\nscenario = eval\nL = 1600\nn = 8\nformat = json\n")
    code, out, _ = run_cli(capsys, "eval", "--config", str(config))
    assert code == 0
    assert json.loads(out)["record"]["n"] == 8


# ---------------------------------------------------------------- output formats

def test_eval_csv_json_round_trip(capsys):
    args = ("eval", "--L", "1600", "--n", "8")
    code_csv, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    code_json, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code_csv == code_json == 0
    row = parse_csv(out_csv)[0]
    record = json.loads(out_json)["record"]
    assert list(row) == list(METRIC_COLUMNS)
    for column in METRIC_COLUMNS:
        assert float(row[column]) == pytest.approx(float(record[column]), rel=1e-12)


def test_optimize_reports_best_link_count(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--L", "1600", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_n"] == 8
    assert payload["record"]["mem_avg_s"] == pytest.approx(0.84, rel=0.05)


def test_fixed_link_defaults_to_125km_links(capsys):
    code, out, _ = run_cli(capsys, "fixed-link", "--L", "1600", "--format", "json")
    assert code == 0
    record = json.loads(out)["record"]
    assert record["L0_km"] == 125.0
    assert record["mem_avg_s"] == pytest.approx(0.0265, rel=0.08)


@pytest.mark.parametrize("argv, node_count", [
    (["--L", "1.5e308", "--L0", "1e308", "--alpha", "0"], 1),
    (["--L", "1.7976931348623157e308", "--L0", "8.988465674761003e+307", "--alpha", "0"], 1),
])
def test_fixed_link_plans_below_a_span_that_overflows(capsys, argv, node_count):
    code, out, err = run_cli(capsys, "fixed-link", *argv, "--format", "json")
    assert (code, err) == (0, "")
    record = json.loads(out)["record"]
    assert (record["n"], record["side"]) == (node_count, "below")
    assert math.isfinite(record["t_tot_s"]) and record["extension_km"] > 0.0


def test_fixed_link_whose_one_plan_never_succeeds_exits_3(capsys):
    code, out, err = run_cli(capsys, "fixed-link", "--L", "1.7976931348623157e308",
                             "--L0", "8.988465674761003e+307", "--format", "json")
    assert (code, err) == (3, "")
    assert json.loads(out)["error"]["code"] == "non_terminating_process"


def readme_commands() -> list[str]:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    return [line.split("#", 1)[0].strip() for line in readme.read_text().splitlines()
            if line.startswith("repeaterchain ")]


def test_readme_commands_run(capsys):
    # Every example command of the README, as written, succeeds and prints
    # output that its format's reader takes.
    commands = readme_commands()
    assert len(commands) == 10
    for command in commands:
        argv = shlex.split(command)[1:]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out, command
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "human"
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            assert parse_csv(out), command


def test_readme_error_lines_are_what_the_cli_prints(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([^`]*)` \| `(error: [^`]*)` \|$", readme, re.MULTILINE)
    assert len(rows) == 4
    for command, line in rows:
        argv = [token for token in shlex.split(command) if token != "repeaterchain"]
        assert run_cli(capsys, *argv) == (2, "", line + "\n"), command


def test_crossover_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--format", "csv")
    assert code == 0
    row = parse_csv(out)[0]
    assert 400.0 <= float(row["crossover_km"]) <= 550.0


def test_sweep_csv_has_swept_column_and_direct_baseline(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--param", "m", "--values", "10,100",
                           "--L", "1000", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert [r["m"] for r in rows] == ["10", "100"]

    code, out, _ = run_cli(capsys, "sweep", "--param", "L", "--values", "250,500",
                           "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[1]["direct_s"]) == pytest.approx(1.0, rel=1e-12)


def test_sweep_csv_reports_point_errors_inline(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--param", "L", "--values", "100,500",
                           "--L0", "125", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["error"] and rows[0]["t_tot_s"] == ""
    assert rows[1]["error"] == "" and float(rows[1]["t_tot_s"]) > 0.0


def test_sweep_csv_json_round_trip(capsys):
    args = ("sweep", "--param", "L", "--values", "400,900,1600")
    _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    rows = parse_csv(out_csv)
    records = json.loads(out_json)["records"]
    assert len(rows) == len(records) == 3
    for row, record in zip(rows, records):
        for column in METRIC_COLUMNS:
            assert float(row[column]) == pytest.approx(float(record[column]), rel=1e-12)


def test_simulate_csv_json_round_trip(capsys):
    args = ("simulate", "--L", "500", "--n", "4", "--trials", "300", "--seed", "11")
    _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    row = parse_csv(out_csv)[0]
    record = json.loads(out_json)["record"]
    for key, value in row.items():
        assert float(value) == pytest.approx(float(record[key]), rel=1e-12)


def test_simulate_machine_output_is_reproducible(capsys):
    args = ("simulate", "--L", "500", "--n", "4", "--trials", "500",
            "--seed", "42", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, csv_a, _ = run_cli(capsys, *args[:-1], "csv")
    _, csv_b, _ = run_cli(capsys, *args[:-1], "csv")
    assert csv_a == csv_b


# Exact human output of the benchmark gate commands and of three sweeps,
# one with an infeasible point.
HUMAN_OUTPUT = {
    "eval --L 1600 --n 8": (
        "L = 1600 km, n = 8 links, L0 = 200 km\n"
        "EC probability per attempt: 0.003275\n"
        "expected attempts until all links ready: 829\n"
        "t_ec: 829 ms    t_cc: 8 ms\n"
        "swap success probability: 0.0004089\n"
        "average distribution time: 3120 s\n"
        "memory time: 837 ms +- 376.7 ms\n"
    ),
    "optimize --L 1600": (
        "best link count in [1, 64]: 8\n"
        "L = 1600 km, n = 8 links, L0 = 200 km\n"
        "EC probability per attempt: 0.003275\n"
        "expected attempts until all links ready: 829\n"
        "t_ec: 829 ms    t_cc: 8 ms\n"
        "swap success probability: 0.0004089\n"
        "average distribution time: 3120 s\n"
        "memory time: 837 ms +- 376.7 ms\n"
    ),
    "fixed-link --L 1600 --L0 125": (
        "L = 1600 km, n = 13 links, L0 = 125 km\n"
        "nodes span 1625 km, extension -25 km (above)\n"
        "EC probability per attempt: 0.09859\n"
        "expected attempts until all links ready: 31.14\n"
        "t_ec: 19.46 ms    t_cc: 8.25 ms\n"
        "swap success probability: 1.553e-06\n"
        "average distribution time: 23.88 h\n"
        "memory time: 27.71 ms +- 7.549 ms\n"
    ),
    "sweep --param L --values 200,400,600,800,1000,1200,1400,1600": (
        "200: n=2 t_tot=16.41 ms mem=3.533 ms\n"
        "400: n=4 t_tot=234 ms mem=5.42 ms\n"
        "600: n=5 t_tot=1.814 s mem=13.78 ms\n"
        "800: n=6 t_tot=11.01 s mem=27.44 ms\n"
        "1000: n=6 t_tot=55.96 s mem=139.5 ms\n"
        "1200: n=7 t_tot=230.1 s mem=188.2 ms\n"
        "1400: n=8 t_tot=882.2 s mem=236.7 ms\n"
        "1600: n=8 t_tot=3120 s mem=837 ms\n"
    ),
    "crossover": (
        "chain beats direct transmission beyond ~488 km (source rate 1e+10 Hz)\n"
    ),
    "simulate --L 500 --n 4 --trials 1000 --seed 42": (
        "simulated 1000 successes over 41227 rounds (seed 42)\n"
        "attempts per round: 20.28 +- 0.3538\n"
        "distribution time: 632.4 ms +- 19.74 ms\n"
        "memory time: 15.17 ms +- 0.2211 ms (spread 6.993 ms)\n"
    ),
    "sweep --param m --values 10,100 --L 1000": (
        "10: n=7 t_tot=503.3 s mem=411.6 ms\n"
        "100: n=6 t_tot=55.96 s mem=139.5 ms\n"
    ),
    "sweep --param rho --values 0.3,0.9 --L 1000": (
        "0.3: n=7 t_tot=453.7 s mem=371 ms\n"
        "0.9: n=6 t_tot=55.96 s mem=139.5 ms\n"
    ),
    "sweep --param L --values 100,500 --L0 125": (
        "100: error: total_length 100.0 km is shorter than one link (125.0 km)\n"
        "500: n=4 t_tot=663 ms mem=15.36 ms\n"
    ),
}


@pytest.mark.parametrize("command", list(HUMAN_OUTPUT))
def test_human_output_is_pinned(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == HUMAN_OUTPUT[command]


def test_human_output_prefixes_times(capsys):
    code, out, _ = run_cli(capsys, "eval", "--L", "1600", "--n", "8")
    assert code == 0
    assert "ms" in out and "km" in out


def test_format_time_prefixes():
    assert format_time(0.02651) == "26.51 ms"
    assert format_time(3.14159) == "3.142 s"
    assert format_time(7200.0) == "2 h"


# ---------------------------------------------------------------- exit codes

def test_exit_code_2_on_bad_probability(capsys):
    code, _, err = run_cli(capsys, "eval", "--L", "100", "--n", "1", "--rho", "1.3")
    assert code == 2
    assert "rho" in err or "emission" in err


def test_exit_code_3_on_model_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--L", "100", "--n", "1", "--rho", "0")
    assert code == 3
    assert "non-terminating" in err


def test_exit_code_3_when_round_success_underflows(capsys):
    code, _, err = run_cli(capsys, "eval", "--L", "1000", "--n", "167",
                           "--eta-m", "0.3", "--eta-d", "0.5")
    assert code == 3
    assert "unreachable" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--L", "nan", "--n", "8"],
    ["eval", "--L", "inf", "--n", "8"],
    ["eval", "--L", "1600", "--n", "8", "--alpha", "nan"],
    ["eval", "--L", "1600", "--n", "8", "--c", "inf"],
    ["eval", "--L", "1600", "--n", "9" * 400],
    ["simulate", "--L", "500", "--n", "4", "--alpha", "nan"],
    ["optimize", "--L", "nan"],
    ["fixed-link", "--L", "1600", "--L0", "inf"],
    ["crossover", "--source-rate", "nan"],
])
def test_exit_code_2_on_non_finite_input(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "must be finite" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--L", "8000", "--n", "1", "--trials", "3"],  # spreads overflow
    ["simulate", "--L", "16000", "--n", "1", "--trials", "3"],  # attempt counts overflow
    ["simulate", "--L", "120000", "--n", "8", "--trials", "2"],  # aggregated sum overflows
    ["eval", "--L", "14000", "--n", "1"],  # variance overflows
    ["optimize", "--L", "14000", "--n-max", "1"],  # the best chain's variance overflows
])
def test_exit_code_3_when_output_would_overflow(src_env, argv):
    # In a fresh process, so that a numpy warning would reach stderr.
    result = subprocess.run([sys.executable, "-m", "repeaterchain.cli", *argv, "--format", "json"],
                            env=src_env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (3, "")
    assert json.loads(result.stdout)["error"]["code"] == "beyond_representable"


def test_sweep_reports_spread_overflow_inline(capsys):
    # t_tot stays finite at 14000 km with one link; only the spread overflows.
    code, out, _ = run_cli(capsys, "sweep", "--param", "L", "--values", "1000,14000",
                           "--n-max", "1", "--format", "json")
    assert code == 0

    def reject(constant):
        raise AssertionError(f"non-finite {constant} in json output")

    first, second = json.loads(out, parse_constant=reject)["records"]
    assert "error" not in first and first["mem_std_s"] > 0.0
    assert second["error"] == "memory time spread beyond representable"
    assert second["t_tot_s"] == ""


UNDERFLOW = "unreachable configuration: end-to-end success probability underflows"


@pytest.mark.parametrize("argv", [
    ["fixed-link", "--L", "1600", "--L0", "5e-324"],
    ["fixed-link", "--L", "1e300", "--L0", "1e-300"],
    # The ratio snaps to 27104560595068764 links; that count and the one
    # below span more than a float holds, lossy or not.
    ["fixed-link", "--L", "1.7976931348623157e308", "--L0", "6.632437845863389e+291"],
    ["fixed-link", "--L", "1.7976931348623157e308", "--L0", "6.632437845863389e+291",
     "--alpha", "0"],
])
def test_fixed_link_with_more_links_than_a_float_counts(capsys, argv):
    # L / L0 overflows, or the spans of its node counts do; a finite but
    # huge ratio already underflows the round success, and so does this one.
    assert run_cli(capsys, *argv) == (3, "", f"error: {UNDERFLOW}\n")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (3, "")
    assert json.loads(out) == {"error": {"code": "unreachable_configuration",
                                         "message": UNDERFLOW}}
    finite_ratio = run_cli(capsys, "fixed-link", "--L", "1600", "--L0", "1e-300",
                           "--format", "json")
    assert finite_ratio == (code, out, err)


def test_sweep_reports_link_count_overflow_inline(capsys):
    code, out, err = run_cli(capsys, "sweep", "--param", "L", "--values", "1000,1600",
                             "--L0", "5e-324", "--format", "json")
    assert (code, err) == (0, "")
    records = json.loads(out)["records"]
    assert [(r["L_km"], r["error"]) for r in records] == [(1000.0, UNDERFLOW),
                                                         (1600.0, UNDERFLOW)]


@pytest.mark.parametrize("argv, error", [
    # At 10000 km no link count is feasible; the scan raises before the
    # direct time, which overflows there too, is looked at.
    (["crossover", "--alpha", "50"], "unreachable_configuration"),
    (["crossover", "--source-rate", "1e-320"], "beyond_representable"),
    (["crossover", "--source-rate", "1"], "no_crossover_in_range"),
])
def test_crossover_error_codes(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (3, "")
    assert json.loads(out)["error"]["code"] == error


def test_exit_code_3_json_carries_machine_code(capsys):
    code, out, _ = run_cli(capsys, "eval", "--L", "100", "--n", "1", "--rho", "0",
                           "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"]["code"] == "non_terminating_process"


def test_exit_code_2_json_carries_machine_code(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("format = json\n")
    for fmt in (["--format", "json"], ["--config", str(config)]):
        code, out, err = run_cli(capsys, "eval", "--rho", "1.5", *fmt)
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert payload["error"]["code"] == "config_error"
        assert "emission_prob" in payload["error"]["message"]


# argv that argparse could not split either, and the token each error names.
@pytest.mark.parametrize("argv, token", [
    (["eval", "--", "--L", "1600", "--n", "8"], "'--' "),
    (["eval", "--L", "1600", "--n", "8", "1600"], "'1600' "),
    (["eval", "--L", "1600", "--n", "8", "--bogus", "1"], "'--bogus' "),
    (["bogus"], "unknown subcommand 'bogus' (see repeaterchain --help)"),
    (["eval", "--L", "1600", "--n", "8", "--form=json"], "'--form=json' "),  # a prefix is no flag
    (["simulate", "--L", "500", "--n", "4", "--tri=5"], "'--tri=5' (see repeaterchain simulate"),
], ids=[f"argv{i}" for i in range(6)])
def test_argv_argparse_cannot_split_exits_2_in_its_format(capsys, argv, token):
    see = f"(see repeaterchain {argv[0] + ' ' if argv[0] in SCENARIOS else ''}--help)"
    for fmt in (["--format", "json"], ["--format=json"]):
        code, out, err = run_cli(capsys, *argv, *fmt)
        assert (code, err) == (2, "")
        error = json.loads(out)["error"]
        assert error["code"] == "config_error"
        assert token in error["message"] and error["message"].endswith(see)
        assert out.count("\n") == 1
    for fmt in ([], ["--format", "csv"], ["--format", "xml"]):
        code, out, err = run_cli(capsys, *argv, *fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith(see + "\n")
        assert token in err


@pytest.mark.parametrize("argv, message", [
    ([], "error: a subcommand is required (see repeaterchain --help)\n"),
    (["--L", "1600"], "error: unknown subcommand '--L' (see repeaterchain --help)\n"),
    (["eval", "--L", "1600", "--n"], "error: --n needs a value (see repeaterchain eval --help)\n"),
    (["eval", "--L", "--n", "8"], "error: --L needs a value (see repeaterchain eval --help)\n"),
    (["eval", "--param", "L"],  # a flag of another subcommand
     "error: unrecognized argument '--param' (see repeaterchain eval --help)\n"),
])
def test_argv_that_does_not_split_names_its_token(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("argv, message", [
    (["eval", "--L", "-inf", "--n", "8"], "total_length must be finite, got -inf"),
    (["eval", "--L", "-5", "--n", "8"], "total_length must be > 0, got -5.0"),
    (["eval", "--L=-5", "--n", "8"], "total_length must be > 0, got -5.0"),
    (["sweep", "--param", "L", "--values", "-5,100"], "total_length must be > 0, got -5.0"),
    (["eval", "--L", "1600", "--n", "-8"], "link_count must be a positive integer, got -8"),
])
def test_a_value_starting_with_a_dash_reaches_its_range_check(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    record = json.dumps({"error": {"code": "config_error", "message": message}}, sort_keys=True)
    assert run_cli(capsys, *argv, "--format", "json") == (2, record + "\n", "")


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("where", ["flag", "file"])
def test_a_tolerance_is_no_option(tmp_path, capsys, where, fmt):
    # Every scenario sums at the model's DEFAULT_TOL: neither argv nor a
    # config file may set one.
    config = tmp_path / "run.cfg"
    config.write_text("tol = 1e-6\n")
    if where == "flag":
        extra = ["--tol", "1e-6"]
        message = "unrecognized argument '--tol' (see repeaterchain eval --help)"
    else:
        extra = ["--config", str(config)]
        message = f"{config}:1: unknown key 'tol'"
    code, out, err = run_cli(capsys, "eval", "--L", "1600", "--n", "8", *extra, "--format", fmt)
    if fmt == "json":
        record = {"error": {"code": "config_error", "message": message}}
        assert (code, json.loads(out), err) == (2, record, "")
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repeaterchain eval")


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: repeaterchain <subcommand> [--flag value ...]\n"),
    (["-h"], "usage: repeaterchain <subcommand> [--flag value ...]\n"),
    (["eval", "-h"], "usage: repeaterchain eval [--flag value ...]\n"),
    (["eval", "--L", "1600", "-h", "--bogus"], "usage: repeaterchain eval [--flag value ...]\n"),
    (["sweep", "--format=json", "--help"], "usage: repeaterchain sweep [--flag value ...]\n"),
])
def test_help_in_flag_position_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage) and err == ""


def test_help_lists_every_subcommand_and_each_of_its_flags(capsys):
    # Built from the tables the splitter reads: one line per entry.
    def help_lines(*argv):
        with pytest.raises(SystemExit):
            main(list(argv))
        return capsys.readouterr().out.splitlines()

    assert [line.split()[0] for line in help_lines("--help")[5:]] == list(SCENARIOS)
    for name, scenario in SCENARIOS.items():
        lines = help_lines(name, "--help")
        assert lines[2] == scenario.help
        rows = {line.split()[0]: line for line in lines[6:]}
        assert list(rows) == list(cli._flags(name))
        for flag, (_, text) in cli._flags(name).items():
            assert rows[flag].endswith(f"  {text}")


def test_exit_code_4_on_simulation_abort(capsys):
    code, _, err = run_cli(capsys, "simulate", "--L", "120", "--n", "24",
                           "--trials", "1", "--seed", "0")
    assert code == 4
    assert "abort" in err


def test_exit_code_2_on_too_many_trials(capsys):
    # Rejected before anything is allocated for the trials.
    code, out, err = run_cli(capsys, "simulate", "--L", "500", "--n", "4",
                             "--trials", "1000000000000")
    assert code == 2
    assert out == ""
    assert "trials" in err and "Traceback" not in err


# ---------------------------------------------------------------- import cost

# Runs a module's import, then ``main(argv)`` when argv is given, and prints
# the exit code, main's stdout and which of the probed modules were
# executed.  numpy is probed through a submodule its ``__init__`` always
# imports, so a placeholder in ``sys.modules`` would not count.  The record
# is printed with ``repr``, so json counts only when the CLI loads it.
LOAD_PROBE = """
import contextlib, importlib, io, sys
module, *argv = sys.argv[1:]
out, code = io.StringIO(), None
with contextlib.redirect_stdout(out):
    imported = importlib.import_module(module)
    if argv:
        try:
            code = imported.main(argv)
        except SystemExit as exit:
            code = exit.code
probes = {"numpy": "numpy.linalg", "mpmath": "mpmath", "decimal": "decimal",
          "planner": "repeaterchain.planner", "montecarlo": "repeaterchain.montecarlo",
          "argparse": "argparse", "csv": "csv", "json": "json"}
loaded = sorted(name for name, probe in probes.items() if probe in sys.modules)
print(repr({"code": code, "stdout": out.getvalue(), "loaded": loaded}))
"""
CLI = "repeaterchain.cli"


# label -> (module, argv, exit code, probed modules loaded): the package and
# CLI imports, the six gate commands, one closed-form eval, the three error
# paths of the contract, help, and a value that starts with "-".  Only the
# format written loads its writer, and no process loads argparse.
LOAD_CASES = {
    "import-package": ("repeaterchain", [], None, []),
    "import-cli": (CLI, [], None, []),
    "eval": (CLI, ["eval", "--L", "1600", "--n", "8"], 0, ["numpy"]),
    "eval-csv": (CLI, ["eval", "--L", "1600", "--n", "8", "--format", "csv"], 0, ["csv", "numpy"]),
    "eval-json": (CLI, ["eval", "--L=1600", "--n=8", "--format=json"], 0, ["json", "numpy"]),
    # On the closed-form route: stdlib decimal, no numpy.
    "eval-closed-form": (CLI, ["eval", "--L", "600", "--n", "1"], 0, ["decimal"]),
    "optimize": (CLI, ["optimize", "--L", "1600"], 0, ["numpy", "planner"]),
    "fixed-link": (CLI, ["fixed-link", "--L", "1600", "--L0", "125"], 0, ["numpy", "planner"]),
    "sweep": (CLI, ["sweep", "--param", "L", "--values", "200,400,600,800,1000,1200,1400,1600"],
              0, ["numpy", "planner"]),
    "crossover": (CLI, ["crossover"], 0, ["numpy", "planner"]),
    "simulate": (CLI, ["simulate", "--L", "500", "--n", "4", "--trials", "1000", "--seed", "42"],
                 0, ["montecarlo", "numpy"]),
    # Rejected while parsing.
    "eval-rho-1.5": (CLI, ["eval", "--rho", "1.5", "--format", "json"], 2, ["json"]),
    # Rejected by the round-success check, before any draw.
    "simulate-L-2000-n-40": (CLI, ["simulate", "--L", "2000", "--n", "40", "--format", "json"],
                             4, ["json", "montecarlo"]),
    "crossover-source-rate-1": (CLI, ["crossover", "--source-rate", "1", "--format", "json"],
                                3, ["json", "numpy", "planner"]),
    "help": (CLI, ["--help"], 0, []),
    "eval-help": (CLI, ["eval", "--help"], 0, []),
    # -inf is the value of --L, rejected by its range check.
    "eval-L-inf": (CLI, ["eval", "--L", "-inf", "--n", "8", "--format", "json"], 2, ["json"]),
}


@pytest.mark.parametrize("module, argv, code, loaded", LOAD_CASES.values(), ids=LOAD_CASES)
def test_process_loads_only_the_layers_it_runs(src_env, module, argv, code, loaded):
    # No process loads mpmath.  decimal only serves the closed-form route,
    # which only eval-closed-form takes: at 1600 km the ordered scan never
    # evaluates n = 1..4, and the crossover's bounds and scans stay on the
    # series route.
    result = subprocess.run([sys.executable, "-c", LOAD_PROBE, module, *argv], env=src_env,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    record = ast.literal_eval(result.stdout)
    assert (record["code"], record["loaded"]) == (code, loaded)
    if argv[:1] == ["optimize"]:
        assert record["stdout"].startswith("best link count in [1, 64]: 8\n")
    if argv == ["crossover"]:
        assert record["stdout"] == ("chain beats direct transmission beyond ~488 km "
                                    "(source rate 1e+10 Hz)\n")
    if "--help" in argv:
        assert record["stdout"].startswith("usage: repeaterchain ")
    if "-inf" in argv:
        assert "total_length must be finite, got -inf" in record["stdout"]


# ---------------------------------------------------------------- exit cost

# The console script's entry; NO_FREEZE runs it with gc.freeze a no-op.
ENTRY = "import sys; from repeaterchain.cli import main; sys.exit(main())"
NO_FREEZE = "import gc; gc.freeze = lambda: None; " + ENTRY
# A probe registered before main: atexit runs handlers last in, first out,
# so it reports the freeze count after the CLI's hook has run.
FREEZE_PROBE = ("import atexit, gc\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n" + ENTRY)
GATE_ARGV = {label: LOAD_CASES[label][1]
             for label in ("eval", "optimize", "fixed-link", "sweep", "crossover", "simulate")}
ERROR_ARGV = {
    "eval-rho-1.5": ["eval", "--rho", "1.5"],
    "simulate-L-2000-n-40": ["simulate", "--L", "2000", "--n", "40"],
    "crossover-source-rate-1": ["crossover", "--source-rate", "1"],
}
# A report larger than a pipe buffer: about 110 KB of csv.
LONG_SWEEP = ["sweep", "--param", "L", "--values", ",".join(str(100 + 5 * i) for i in range(600)),
              "--format", "csv"]
EXIT_CASES = {
    **{f"{label}-{fmt}": [*argv, "--format", fmt]
       for label, argv in GATE_ARGV.items() for fmt in FORMATS},
    **{f"{label}-{fmt}": [*argv, "--format", fmt]
       for label, argv in ERROR_ARGV.items() for fmt in ("human", "json")},
    "sweep-600-csv": LONG_SWEEP,
}


def test_main_leaves_the_collector_alone_and_registers_its_exit_hook_once(capsys):
    hooks = []

    def unregister(func):
        hooks[:] = [hook for hook in hooks if hook != func]

    state = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
    with patch("atexit.register", hooks.append), patch("atexit.unregister", unregister):
        for argv in (GATE_ARGV["eval"], ERROR_ARGV["eval-rho-1.5"], GATE_ARGV["eval"]):
            main(argv)
    assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == state
    assert hooks == [gc.freeze]


@pytest.mark.parametrize("argv, code", [
    ([*GATE_ARGV["eval"], "--format", "json"], 0),
    ([*ERROR_ARGV["simulate-L-2000-n-40"], "--format", "json"], 4),
], ids=["eval", "simulate-L-2000-n-40"])
def test_cli_process_freezes_its_heap_at_exit(src_env, argv, code):
    result = subprocess.run([sys.executable, "-c", FREEZE_PROBE, *argv], env=src_env,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (code, "")
    label, count = result.stdout.splitlines()[-1].split()
    assert label == "frozen" and int(count) > 0


@pytest.mark.parametrize("argv", EXIT_CASES.values(), ids=EXIT_CASES)
def test_freezing_at_exit_changes_no_output(src_env, argv):
    # Both children run at once; each outcome is compared byte for byte.
    children = [subprocess.Popen([sys.executable, "-c", code, *argv], env=src_env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for code in (ENTRY, NO_FREEZE)]
    outcomes = [(*child.communicate(timeout=60), child.returncode) for child in children]
    assert outcomes[0] == outcomes[1]
    if argv is LONG_SWEEP:
        out = outcomes[0][0]
        assert len(out) > 100_000 and out.endswith(b"\n") and out.count(b"\n") == 601


# ---------------------------------------------------------------- output path

# Every class of errors.py -> main's exit status and its json error code.
ERROR_STATUS = {
    "ConfigError": (2, "config_error"),
    "ModelError": (3, "model_error"),
    "NonTerminatingProcess": (3, "non_terminating_process"),
    "UnreachableConfiguration": (3, "unreachable_configuration"),
    "BeyondRepresentable": (3, "beyond_representable"),
    "NoCrossoverInRange": (3, "no_crossover_in_range"),
    "SimulationAbort": (4, "simulation_abort"),
}


def test_every_error_class_has_its_exit_status_and_code(capsys):
    # A new error class without a status fails here.
    classes = {name: obj for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert set(classes) == set(ERROR_STATUS)
    for name, error in classes.items():
        status, code = ERROR_STATUS[name]
        record = json.dumps({"error": {"code": code, "message": "boom"}}, sort_keys=True)
        with patch.object(cli, "execute", side_effect=error("boom")):
            assert run_cli(capsys, *GATE_ARGV["eval"]) == (status, "", "error: boom\n"), name
            assert run_cli(capsys, *GATE_ARGV["eval"], "--format", "json") == (
                status, record + "\n", ""), name


def test_main_alone_writes_stdout(capsys):
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree)  # breadth first: outer before inner
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]

    def owner(node):
        owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
        return owners[-1] if owners else None

    def is_stream(node):
        return (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "sys"
                and node.attr in ("stdout", "stderr", "__stdout__", "__stderr__"))

    def calls(name):
        return [node for node in nodes if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == name]

    # Both streams are named only in _write, which only main calls.
    nodes = list(ast.walk(tree))
    streams = [node for node in nodes if is_stream(node)]
    assert {node.attr for node in streams} == {"stdout", "stderr"}
    assert {owner(node) for node in streams} == {"_write"}
    assert calls("_write") and {owner(node) for node in calls("_write")} == {"main"}
    assert calls("print") == []
    # execute returns the report that main writes, and writes nothing itself.
    for fmt in FORMATS:
        argv = [*GATE_ARGV["optimize"], "--format", fmt]
        report = execute(parse_config(argv))
        assert isinstance(report, str) and capsys.readouterr() == ("", "")
        assert run_cli(capsys, *argv) == (0, report, "")


# label -> (argv, exit status) of commands whose stdout cannot be written.
# A human error record goes to stderr, so that run keeps its own status.
UNWRITTEN_CASES = {
    "sweep-600-human": ([*LONG_SWEEP[:-1], "human"], 5),
    "sweep-600-csv": (LONG_SWEEP, 5),
    "sweep-600-json": ([*LONG_SWEEP[:-1], "json"], 5),
    "error-json": ([*ERROR_ARGV["eval-rho-1.5"], "--format", "json"], 5),
    "error-human": (ERROR_ARGV["eval-rho-1.5"], 2),
    "eval-help": (["eval", "--help"], 5),
}
# How a child's stdout fails -> the one line its failure leaves on stderr.
STDOUT_STATES = {
    "closed-pipe": "",  # exits quietly, as under ``| head``
    "full-device": "error: cannot write the report: [Errno 28] No space left on device\n",
    "closed-stdout": "error: cannot write the report: stdout is closed\n",
}


def spawn_without_stdout(state: str, argv: list[str], env: dict[str, str]) -> subprocess.Popen:
    """The console script's entry, run with a stdout in ``state``: a pipe
    whose read end is closed before the child starts, a full device, or no
    descriptor 1 at all."""
    if state == "closed-stdout":
        return subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                                stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    if state == "closed-pipe":
        read, stdout = os.pipe()
        os.close(read)
    else:
        stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        return subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                                stdout=stdout, stderr=subprocess.PIPE)
    finally:
        os.close(stdout)


@pytest.mark.parametrize("state", STDOUT_STATES)
@pytest.mark.parametrize("argv, status", UNWRITTEN_CASES.values(), ids=UNWRITTEN_CASES)
def test_unwritable_stdout_exits_5_without_a_traceback(src_env, state, argv, status):
    if state == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    buffered = {key: value for key, value in src_env.items() if key != "PYTHONUNBUFFERED"}
    # Buffered, the write fails at main's flush; unbuffered, at its write.
    children = [spawn_without_stdout(state, argv, env)
                for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"})]
    for child in children:
        err = child.communicate(timeout=60)[1].decode()
        assert "Traceback" not in err and "Exception ignored" not in err
        if status == 5:
            assert (child.returncode, err) == (5, STDOUT_STATES[state])
        else:
            assert child.returncode == status and err.startswith("error: ")
            assert err.count("\n") == 1


# label -> (argv, exit status) of commands that end in a human error line.
STDERR_CASES = {
    "eval-rho-2": (["eval", "--rho", "2"], 2),
    "crossover-source-rate-1": (["crossover", "--source-rate", "1"], 3),
    "simulate-L-2000-n-40": (["simulate", "--L", "2000", "--n", "40"], 4),
}


def spawn_without_stderr(state: str, argv: list[str], env: dict[str, str],
                         stdout=subprocess.PIPE) -> subprocess.Popen:
    """The console script's entry, run with a full device as stderr, or
    with no descriptor 2 at all."""
    if state == "closed-stderr":
        return subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                                stdout=stdout, preexec_fn=lambda: os.close(2))
    stderr = os.open("/dev/full", os.O_WRONLY)
    try:
        return subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                                stdout=stdout, stderr=stderr)
    finally:
        os.close(stderr)


def buffered_and_unbuffered(env: dict[str, str]) -> list[dict[str, str]]:
    buffered = {key: value for key, value in env.items() if key != "PYTHONUNBUFFERED"}
    return [buffered, {**buffered, "PYTHONUNBUFFERED": "1"}]


@pytest.mark.parametrize("state", ["full-device", "closed-stderr"])
@pytest.mark.parametrize("argv, status", STDERR_CASES.values(), ids=STDERR_CASES)
def test_unwritable_stderr_keeps_the_error_status(src_env, state, argv, status):
    # Buffered, an exit flush that fails again would exit 120; unbuffered, a
    # write that raises would exit 1.
    if state == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    children = [spawn_without_stderr(state, argv, env) for env in buffered_and_unbuffered(src_env)]
    for child in children:
        out = child.communicate(timeout=60)[0]
        assert (child.returncode, out) == (status, b"")


def test_unwritable_stdout_and_stderr_exit_5(src_env):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        children = [spawn_without_stderr("full-device", GATE_ARGV["optimize"], env, stdout)
                    for env in buffered_and_unbuffered(src_env)]
    finally:
        os.close(stdout)
    for child in children:
        child.wait(timeout=60)
        assert child.returncode == 5


def test_every_public_name_resolves():
    import importlib

    import repeaterchain

    for name in repeaterchain.__all__:
        home = importlib.import_module(f"repeaterchain.{repeaterchain._HOMES[name]}")
        assert getattr(repeaterchain, name) is getattr(home, name)
    assert set(repeaterchain.__all__) <= set(dir(repeaterchain))
    with pytest.raises(AttributeError):
        getattr(repeaterchain, "not_a_name")


def test_layer_modules_import_from_the_package(src_env):
    # In a fresh process, where no layer is loaded yet.
    probe = ("from repeaterchain import cli, montecarlo, planner\n"
             "assert callable(planner.optimize_link_count) and callable(montecarlo.simulate)\n"
             "from repeaterchain import *\n"
             "assert callable(run_sweep) and callable(simulate)\n")
    result = subprocess.run([sys.executable, "-c", probe], env=src_env,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")


def test_concurrent_first_numeric_calls_both_succeed(src_env):
    # Two threads reach numpy's first use at once: both must see the
    # complete module and compute the same metrics.
    probe = """
import sys, threading
from repeaterchain.model import ChainConfig, ChannelParams, HardwareParams, metrics
assert "numpy.linalg" not in sys.modules
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(2)
results = []
def first_call():
    barrier.wait()
    results.append(metrics(HardwareParams(), ChainConfig(1600.0, 8), ChannelParams()))
threads = [threading.Thread(target=first_call) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60.0)
    assert not thread.is_alive()
assert len(results) == 2 and results[0] == results[1], results
"""
    result = subprocess.run([sys.executable, "-c", probe], env=src_env,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")


def test_machine_output_does_not_depend_on_blas_threads(src_env):
    # OpenBLAS splits long dot products across its threads, which changes
    # the order of the additions; no output may depend on that.
    probe = ("import sys; from repeaterchain.cli import main\n"
             "for argv in (['eval', '--L', '250', '--n', '1'], ['optimize', '--L', '1600'],\n"
             "             ['fixed-link', '--L', '1600', '--L0', '125']):\n"
             "    for fmt in ('csv', 'json'):\n"
             "        assert main([*argv, '--format', fmt]) == 0\n")
    outputs = []
    for threads in ("1", "2"):
        env = {**src_env, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


# numpy's SIMD dispatch targets that put an AVX-512 host on the AVX2 path.
OTHER_SIMD_PATH = "X86_V4 AVX512_ICL AVX512_SPR"
CROSS_PATH_COMMANDS = [
    ["eval", "--L", "1600", "--n", "8"], ["eval", "--L", "250", "--n", "1"],
    ["optimize", "--L", "1600"], ["optimize", "--L", "1600", "--n-max", "5000"],
    ["fixed-link", "--L", "1600", "--L0", "125"], ["fixed-link", "--L", "1650", "--L0", "125"],
    ["crossover"], ["crossover", "--source-rate", "1e9"], ["crossover", "--source-rate", "1e11"],
    ["sweep", "--param", "L", "--values", "200,400,600,800,1000,1200,1400,1600"],
    ["sweep", "--param", "L", "--values", "200,400,600,800,1000,1200,1400,1600", "--L0", "125"],
    ["sweep", "--param", "m", "--values", "10,20,50,100,200", "--L", "1000"],
    ["sweep", "--param", "rho", "--values", "0.3,0.5,0.7,0.9", "--L", "1000"],
    ["simulate", "--L", "500", "--n", "4", "--trials", "1000", "--seed", "42"],
    ["eval", "--rho", "1.5"], ["simulate", "--L", "2000", "--n", "40"],
    ["crossover", "--source-rate", "1"], ["eval", "--L", "1600", "--n", "2000"],
]


def assert_within_ulps(here, there, where, key=None):
    """Equal json documents, but for floats within 2 ulps, or 12 for the
    memory-time spread; a crossover distance is equal too."""
    if isinstance(here, float) and isinstance(there, float) and key != "crossover_km":
        ulps = 12 if key == "mem_std_s" else 2
        assert abs(here - there) <= ulps * math.ulp(max(abs(here), abs(there))), \
            (where, key, here, there)
    elif isinstance(here, dict) and isinstance(there, dict):
        assert here.keys() == there.keys(), where
        for name in here:
            assert_within_ulps(here[name], there[name], where, name)
    elif isinstance(here, list) and isinstance(there, list):
        assert len(here) == len(there), (where, key)
        for a, b in zip(here, there):
            assert_within_ulps(a, b, where, key)
    else:
        assert here == there, (where, key)


def test_machine_output_barely_depends_on_the_simd_path(src_env):
    # numpy picks its transcendental loops by the CPU, and its AVX-512 ones
    # may return other last bits than its AVX2 ones.  Every decision (exit
    # code, message, link count, crossover distance) must be the same on
    # both paths and every float within a few ulps.
    probe = ("import contextlib, io, json\n"
             "try:\n"
             "    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
             "except ImportError:  # numpy < 2\n"
             "    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
             "from repeaterchain.cli import main\n"
             "print(json.dumps([f for f in __cpu_dispatch__ if __cpu_features__.get(f)]))\n"
             f"for argv in {CROSS_PATH_COMMANDS!r}:\n"
             "    out = io.StringIO()\n"
             "    with contextlib.redirect_stdout(out):\n"
             "        code = main([*argv, '--format', 'json'])\n"
             "    print(json.dumps([code, json.loads(out.getvalue())]))\n")

    def run(env):
        # The dispatch targets numpy runs, and each command's exit code and output.
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        active, *outputs = map(json.loads, result.stdout.splitlines())
        return set(active), outputs

    targets = set(OTHER_SIMD_PATH.split())
    active, outputs = run(src_env)
    if not targets <= active:
        pytest.skip(f"numpy does not dispatch to {OTHER_SIMD_PATH} here")
    active, switched = run({**src_env, "NPY_DISABLE_CPU_FEATURES": OTHER_SIMD_PATH})
    assert not targets & active
    assert len(outputs) == len(switched) == len(CROSS_PATH_COMMANDS)
    assert {code for code, _ in outputs} == {0, 2, 3, 4}
    for argv, output, other in zip(CROSS_PATH_COMMANDS, outputs, switched):
        assert_within_ulps(output, other, argv)


def test_execute_rejects_an_unknown_scenario():
    cfg = dataclasses.replace(parse_config(["eval", "--L", "1600", "--n", "8"]), scenario="bogus")
    with pytest.raises(ConfigError, match="unknown scenario 'bogus'"):
        execute(cfg)


@pytest.mark.parametrize("argv", [
    ("--param", "rho", "--values", "0.5", "--L", "-5"),
    ("--param=L", "--values=-5,100"),
    ("--param", "L", "--values", "0,100"),
])
def test_sweep_rejects_distances_at_or_below_zero(capsys, argv):
    # A fixed and a swept distance get the same check, before any point.
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: total_length must be > 0, got ")


# ---------------------------------------------------------------- input domain

EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "5e-324", "2.2250738585072014e-308",
               "1e300", "-1e300", "1" + "0" * 400, "-" + "1" * 400)


def plausible(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


# Each key's values in its physical range; up to two keys then take a
# hostile value: an edge value, any float or any int.
CLI_DOMAIN = {
    "L": plausible(1.0, 5000.0),
    "L0": plausible(1.0, 500.0),
    "m": st.integers(min_value=1, max_value=1000).map(str),
    "rho": plausible(0.0, 1.0),
    "eta_d": plausible(0.0, 1.0),
    "eta_m": plausible(0.0, 1.0),
    "alpha": plausible(0.0, 1.0),
    "c": plausible(1e3, 1e6),
    "source_rate": plausible(1.0, 1e14),
}
HOSTILE = st.one_of(st.sampled_from(EDGE_VALUES), st.floats().map(repr), st.integers().map(str))


def config_files():
    """``(file bytes, keys it sets, file_wins)`` of a ``--config`` file.
    Most files are ``key = value`` lines in the argv domain: keys with
    plausible values, repeats allowed (the last value wins), and at most
    one hostile line (any known key with a hostile value or a scenario or
    format name).  The rest add one junk line (an unknown key, or any
    text as a value) or are random bytes.  With ``file_wins`` the argv
    leaves out the flags for the keys the file sets, so that the file's
    values stand."""
    domain = {**CLI_DOMAIN, "n": st.integers(min_value=1, max_value=64).map(str),
              "n_max": st.integers(min_value=1, max_value=5000).map(str)}
    plausible_line = st.sampled_from(list(domain)).flatmap(
        lambda key: st.tuples(st.just(key), domain[key]))
    hostile_line = st.tuples(st.sampled_from(list(PARAMETERS)),
                             st.one_of(HOSTILE, st.sampled_from([*SCENARIOS, *FORMATS])))
    junk_line = st.tuples(
        st.one_of(st.sampled_from(list(PARAMETERS)),
                  st.text(alphabet="abcdefghijklmnopqrstuvwxyzL0_", min_size=1, max_size=6)),
        st.text(max_size=8))

    def encode(pairs):
        return "".join(f"{k} = {v}\n" for k, v in pairs).encode(), {k for k, _ in pairs}

    lines = st.tuples(st.lists(plausible_line, max_size=5), st.lists(hostile_line, max_size=1))
    lines = lines.map(lambda drawn: drawn[0] + drawn[1])
    junk = st.tuples(lines, junk_line).map(lambda drawn: [*drawn[0], drawn[1]])
    files = st.one_of(lines, lines, junk).flatmap(st.permutations).map(encode)
    raw = st.binary(max_size=64).map(lambda data: (data, set()))
    return st.tuples(st.one_of(files, raw), st.booleans()).map(
        lambda drawn: (*drawn[0], drawn[1]))


CONFIG = st.one_of(st.none(), config_files())


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    """One path that each drawn ``--config`` file overwrites."""
    return tmp_path_factory.mktemp("domain") / "run.cfg"


@settings(max_examples=150, deadline=None)
@given(
    scenario=st.sampled_from(["crossover", "fixed-link"]),
    fmt=st.sampled_from(["human", "csv", "json"]),
    values=st.fixed_dictionaries({"L": CLI_DOMAIN["L"]}, optional={k: v for k, v in CLI_DOMAIN.items() if k != "L"}),
    hostile=st.dictionaries(st.sampled_from(list(CLI_DOMAIN)), HOSTILE, max_size=2),
    config=CONFIG,
)
@example(scenario="fixed-link", fmt="csv", values={"L": "1e-300"},
         hostile={"L0": "1e-300", "c": "1e300"}, config=None)  # t_cc = L / c underflows
@example(scenario="fixed-link", fmt="json", values={"L": "1600"}, hostile={},
         config=(b"L0 = 100\nL0 = 1e-300\nc = 1e300\n", {"L0", "c"}, True))  # a repeated key
@example(scenario="crossover", fmt="json", values={"L": "1600"}, hostile={},
         config=(b"\xff\xfe\x00", set(), False))
@example(scenario="fixed-link", fmt="json", values={"L": "abc"}, hostile={},
         config=None)  # a float flag that does not parse
def test_crossover_and_fixed_link_close_the_input_domain(config_path, scenario, fmt, values,
                                                         hostile, config):
    check_domain_run(domain_argv(scenario, fmt, values, hostile, config, config_path), fmt)


def run_cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def non_finite_fields(fmt: str, text: str) -> list[str]:
    """Every json number or csv cell of ``text`` that is NaN or infinite;
    json's NaN and Infinity constants raise."""
    def reject(constant):
        raise AssertionError(f"non-finite {constant} in json output")

    if fmt == "json":
        found = []

        def walk(value):
            if isinstance(value, dict):
                for item in value.values():
                    walk(item)
            elif isinstance(value, list):
                for item in value:
                    walk(item)
            elif isinstance(value, float) and not math.isfinite(value):
                found.append(repr(value))

        walk(json.loads(text, parse_constant=reject))
        return found
    if fmt == "csv":
        cells = [cell for row in csv.reader(io.StringIO(text)) for cell in row]
        return [cell for cell in cells if cell.lower().lstrip("+-") in ("nan", "inf", "infinity")]
    return []


def total_times(fmt: str, text: str) -> list[float]:
    """The total time (``t_tot_s``, or ``mean_t_tot_s`` of a simulation) of
    every record of a json or csv output that has one; a sweep's error
    rows have none."""
    if fmt == "json":
        payload = json.loads(text)
        records = payload.get("records") or [payload.get("record", {})]
    elif fmt == "csv":
        records = parse_csv(text)
    else:
        return []
    return [float(record[key]) for record in records for key in ("t_tot_s", "mean_t_tot_s")
            if record.get(key, "") != ""]


def check_domain_run(argv: list[str], fmt: str) -> None:
    """Run ``argv``: it exits 0, 2, 3 or 4 without a traceback, and its
    output holds no NaN or infinity and no total time of 0 s or less.
    Under json a failure is one error record on stdout and nothing else."""
    code, out, err = run_cli_in_process(argv)
    assert code in {0, 2, 3, 4}, (argv, err)
    assert "Traceback" not in err
    if fmt == "json" and code != 0:
        assert err == "", (argv, err)
        assert out.count("\n") == 1 and out.endswith("\n"), (argv, out)
        payload = json.loads(out)
        assert list(payload) == ["error"], (argv, out)
        assert set(payload["error"]) == {"code", "message"}, (argv, out)
    if out:
        assert non_finite_fields(fmt, out) == [], argv
    if code == 0:
        assert all(t > 0.0 for t in total_times(fmt, out)), (argv, out)


def domain_argv(scenario: str, fmt: str, values: dict, hostile: dict, config=None,
                config_path=None) -> list[str]:
    """The argv of one domain run; a drawn ``config`` (see
    :func:`config_files`) is written to ``config_path`` first."""
    argv = [scenario, f"--format={fmt}"]
    flags = {**values, **hostile}
    if config is not None:
        raw, keys, file_wins = config
        config_path.write_bytes(raw)
        argv.append(f"--config={config_path}")
        if file_wins:
            flags = {key: value for key, value in flags.items() if key not in keys}
    return argv + [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]


N_MAX_EDGES = ("0", "-1", "1", "2", "5000", "1" + "0" * 400, "-" + "1" * 400)
PLAN_DOMAIN = {
    **{key: CLI_DOMAIN[key] for key in
       ("L", "L0", "m", "rho", "eta_d", "eta_m", "alpha", "c")},
    "n_max": st.integers(min_value=1, max_value=5000).map(str),
}
# Each swept parameter's grid values in its physical range.
SWEEP_GRIDS = {
    "L": st.floats(min_value=1.0, max_value=5000.0),
    "m": st.integers(min_value=1, max_value=1000),
    "rho": st.floats(min_value=0.0, max_value=1.0),
}


def sweep_values(param: str):
    """``(param, values)``: an increasing grid in the physical range, or
    up to three hostile values in any order."""
    plausible = st.lists(SWEEP_GRIDS[param], min_size=1, max_size=3, unique=True).map(
        lambda grid: ",".join(map(repr, sorted(grid))))
    hostile = st.lists(HOSTILE, min_size=1, max_size=3).map(",".join)
    return st.tuples(st.just(param), st.one_of(plausible, hostile))


@settings(max_examples=150, deadline=None)
@given(
    scenario=st.sampled_from(["optimize", "sweep"]),
    fmt=st.sampled_from(["human", "csv", "json"]),
    values=st.fixed_dictionaries({"L": PLAN_DOMAIN["L"]},
                                 optional={k: v for k, v in PLAN_DOMAIN.items() if k != "L"}),
    hostile=st.dictionaries(
        st.sampled_from(list(PLAN_DOMAIN)),
        st.one_of(HOSTILE, st.sampled_from(N_MAX_EDGES)), max_size=2),
    sweep=st.sampled_from(list(SWEEP_GRIDS)).flatmap(sweep_values),
    config=CONFIG,
)
@example(scenario="sweep", fmt="json", values={"L": "1e-300"}, hostile={"c": "1e300"},
         sweep=("rho", "0.5"), config=None)  # t_cc = L / c underflows at every point
@example(scenario="sweep", fmt="csv", values={"L": "nan"}, hostile={}, sweep=("m", "1"),
         config=None)
@example(scenario="sweep", fmt="csv", values={"L": "500"}, hostile={}, sweep=("m", "inf"),
         config=None)
@example(scenario="optimize", fmt="csv", values={"L": "1600"}, hostile={}, sweep=("m", "1"),
         config=(b"n_max = 0\nn = 3\nvalues = nan\nn_max = 1\n", {"n_max", "n", "values"},
                 True))  # keys optimize ignores
def test_optimize_and_sweep_close_the_input_domain(config_path, scenario, fmt, values, hostile,
                                                   sweep, config):
    argv = domain_argv(scenario, fmt, values, hostile, config, config_path)
    if scenario == "sweep":
        argv += [f"--param={sweep[0]}", f"--values={sweep[1]}"]
    check_domain_run(argv, fmt)


@settings(max_examples=150, deadline=None)
@given(
    scenario=st.sampled_from(["eval", "simulate"]),
    fmt=st.sampled_from(["human", "csv", "json"]),
    values=st.fixed_dictionaries(
        {"L": CLI_DOMAIN["L"], "n": st.integers(min_value=1, max_value=64).map(str)},
        optional={k: v for k, v in CLI_DOMAIN.items() if k != "L"}),
    hostile=st.dictionaries(st.sampled_from([*CLI_DOMAIN, "n"]), HOSTILE, max_size=2),
    trials=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    config=CONFIG,
)
@example(scenario="eval", fmt="csv", values={"L": "5e-324", "n": "1"}, hostile={},
         trials=1, seed=0, config=None)  # t_cc = L / c underflows
@example(scenario="simulate", fmt="json", values={"L": "5e-324", "n": "1"}, hostile={},
         trials=10, seed=0, config=None)
@example(scenario="eval", fmt="json", values={"L": "1600", "n": "8"}, hostile={},
         trials=1, seed=0, config=(b"L = 600\nn = 1\nL = inf\n", {"L", "n"}, True))
@example(scenario="eval", fmt="json", values={"L": "1600", "n": "8"}, hostile={"m": "1.5"},
         trials=1, seed=0, config=None)  # an int flag that does not parse
@example(scenario="eval", fmt="csv", values={"L": "1600", "n": "8"}, hostile={"form": "json"},
         trials=1, seed=0, config=None)  # prefixes of flags are unknown flags
@example(scenario="simulate", fmt="json", values={"L": "500", "n": "4"}, hostile={"tri": "5"},
         trials=1, seed=0, config=None)
def test_eval_and_simulate_close_the_input_domain(config_path, scenario, fmt, values, hostile,
                                                  trials, seed, config):
    argv = domain_argv(scenario, fmt, values, hostile, config, config_path)
    if scenario == "simulate":
        argv += [f"--trials={trials}", f"--seed={seed}"]
    check_domain_run(argv, fmt)


# Tokens of argv the CLI splits or refuses: every flag of every subcommand,
# values that start with "-" or are empty, and tokens argparse treats apart
# (help, "--", flag prefixes, a single dash).
ARGV_FLAGS = ["--config", *("--" + key.replace("_", "-") for key in PARAMETERS)]
ARGV_VALUES = ["", "-5", "-inf", "1e3", "8", "1600", "0.5", "L", "json", "csv", "a=b", "-", "=x"]
ARGV_TOKENS = ["--", "-h", "--help", "--form", "--tri", "--et", "-L", "--L0=", "bogus"]


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once split argv with, kept as the
    reference that ``cli._split`` must agree with wherever it splits.  An
    error raises ConfigError and help SystemExit, neither written."""

    class Parser(argparse.ArgumentParser):
        # Subcommand parsers share this class, so every error and help request lands here.
        def error(self, message: str):
            raise ConfigError(f"{message} (see {self.prog} --help)")

        def print_help(self, file=None):
            raise SystemExit(0)

    parser = Parser(
        prog="repeaterchain",
        allow_abbrev=False,
        description="Entanglement-distribution performance of semihierarchical repeater chains.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, scenario in SCENARIOS.items():
        scenario_parser = sub.add_parser(name, help=scenario.help, allow_abbrev=False)
        for flag, (key, text) in cli._flags(name).items():
            scenario_parser.add_argument(flag, dest=key, help=text)
    return parser


def argv_chunks():
    """Mostly a flag and its value, as two tokens or one ``--flag=value``;
    sometimes one token of any pool."""
    pairs = st.tuples(st.sampled_from(ARGV_FLAGS), st.sampled_from(ARGV_VALUES))
    return st.one_of(
        pairs.map(list),
        pairs.map(lambda drawn: [f"{drawn[0]}={drawn[1]}"]),
        pairs.map(list),
        st.sampled_from([*ARGV_FLAGS, *ARGV_VALUES, *ARGV_TOKENS, *SCENARIOS]).map(
            lambda token: [token]),
    )


def run_main(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or help's ``SystemExit`` code), stdout and stderr of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = ("exit", exit_info.code)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    head=st.one_of(st.sampled_from(list(SCENARIOS)), st.sampled_from(list(SCENARIOS)),
                   st.sampled_from(ARGV_TOKENS + ARGV_VALUES), st.none()),
    chunks=st.lists(argv_chunks(), max_size=4),
)
@example(head="eval", chunks=[["--L", "1600"], ["--n", "8"], ["--L=1e3"]])
@example(head="sweep", chunks=[["--param=L"], ["--values", "1e3"], ["--format", "csv"]])
@example(head="eval", chunks=[["--L", ""], ["--n="]])
@example(head="eval", chunks=[["--L", "-5"], ["--n", "8"]])
@example(head="eval", chunks=[["--L=-inf"], ["--n", "8"], ["--format", "json"]])
@example(head="eval", chunks=[["--help"]])
@example(head="eval", chunks=[["--L", "8"], ["--n"]])
@example(head="eval", chunks=[["--param", "L"]])  # a flag of another subcommand
@example(head=None, chunks=[])
def test_split_argv_matches_argparse(head, chunks):
    argv = [*([head] if head is not None else []), *(token for chunk in chunks for token in chunk)]
    try:
        split = cli._split(argv)
    except SystemExit as exit_info:  # help
        split = exit_info
        assert exit_info.code == 0 and exit_info.help.startswith("usage: repeaterchain "), argv
    except ConfigError as exc:  # one line that names the help to read
        split = exc
        assert "\n" not in str(exc) and str(exc).endswith(" --help)"), argv
    with contextlib.suppress(ConfigError, SystemExit):  # argparse refuses argv or gives help
        assert split == vars(reference_parser().parse_args(argv)), argv
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4, ("exit", 0)) and "Traceback" not in err, argv
    if code == 2:  # one error line, or one config_error record under json
        if out:
            assert err == "" and out.count("\n") == 1, argv
            assert json.loads(out)["error"]["code"] == "config_error", argv
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, argv
    if isinstance(split, ConfigError):
        assert code == 2 and str(split) in out + err, argv


def test_optimize_n_max_beyond_every_float_scans_like_5000(capsys):
    # Every n past the overflow point (641 at 1600 km) is infeasible, so a
    # 400-digit n_max finds the same chain; only the reported range differs.
    huge = "1" + "0" * 400
    runs = {n_max: {fmt: run_cli(capsys, "optimize", "--L", "1600", "--n-max", n_max,
                                 "--format", fmt)
                    for fmt in FORMATS}
            for n_max in (huge, "5000")}
    for n_max in runs:
        assert all(code == 0 and err == "" for code, _, err in runs[n_max].values())
    assert runs[huge]["csv"][1] == runs["5000"]["csv"][1]
    payload = {n_max: json.loads(runs[n_max]["json"][1]) for n_max in runs}
    assert payload[huge].pop("scanned_range") == [1, int(huge)]
    assert payload["5000"].pop("scanned_range") == [1, 5000]
    assert payload[huge] == payload["5000"]
    human = {n_max: runs[n_max]["human"][1].splitlines() for n_max in runs}
    assert human[huge][0] == f"best link count in [1, {huge}]: 8"
    assert human[huge][1:] == human["5000"][1:]


def test_single_feasible_link_count_reports_no_runner_up(capsys):
    # With one link count there is no runner-up: the ratio is null in json,
    # not the Infinity json cannot carry.
    code, out, err = run_cli(capsys, "optimize", "--L", "1600", "--n-max", "1",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out, parse_constant=lambda c: pytest.fail(c))["runner_up_ratio"] is None


def test_optimize_rejects_a_total_time_that_underflows(capsys):
    # t_cc = L / c underflows to 0 s at every link count: none can be ranked.
    code, out, err = run_cli(capsys, "optimize", "--L", "5e-324", "--format", "json")
    assert (code, err) == (3, "")
    assert json.loads(out)["error"]["code"] == "beyond_representable"
