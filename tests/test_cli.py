from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeaterchain.cli import FORMATS, METRIC_COLUMNS, format_time, main, parse_config
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
    assert cfg.tol == 1e-12
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


def test_config_file_reports_line_numbers(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m = 10\nbogus_key = 3\n")
    code, _, err = run_cli(capsys, "eval", "--L", "100", "--n", "1",
                           "--config", str(config))
    assert code == 2
    assert "2" in err and "bogus_key" in err


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
    "eta_m": "0.7", "alpha": "0.25", "c": "190000", "tol": "1e-10", "trials": "50",
    "seed": "9", "source_rate": "1e9", "n_max": "40", "format": "csv", "param": "m",
    "values": "10,20",
}
SWEEP_BASE = {"param": "rho", "values": "0.5", "L": "1000"}


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
])
def test_fixed_link_with_more_links_than_a_float_counts(capsys, argv):
    # L / L0 overflows; a finite but huge ratio already underflows the
    # round success, and so does this one.
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

def test_import_leaves_mpmath_unloaded(src_env):
    # mpmath only serves the closed-form route; importing the CLI must not load it.
    probe = "import sys, repeaterchain.cli; sys.exit('mpmath' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=src_env)
    assert result.returncode == 0


def test_optimize_1600km_leaves_mpmath_unloaded(src_env):
    # The ordered scan never evaluates n = 1..4 at 1600 km, the only link
    # counts whose moments need the closed form.
    probe = ("import sys; from repeaterchain.cli import main; "
             "code = main(['optimize', '--L', '1600']); "
             "sys.exit(code or 'mpmath' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=src_env, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(b"best link count in [1, 64]: 8\n")


def test_crossover_leaves_mpmath_unloaded(src_env):
    # The bounds settle every far distance, and near the crossover the
    # ordered scans evaluate only link counts on the series route.
    probe = ("import sys; from repeaterchain.cli import main; "
             "code = main(['crossover']); "
             "sys.exit(code or 'mpmath' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=src_env, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"chain beats direct transmission beyond ~488 km (source rate 1e+10 Hz)\n"


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
    "tol": plausible(1e-15, 0.5),
    "source_rate": plausible(1.0, 1e14),
}
HOSTILE = st.one_of(st.sampled_from(EDGE_VALUES), st.floats().map(repr), st.integers().map(str))


@settings(max_examples=150, deadline=None)
@given(
    scenario=st.sampled_from(["crossover", "fixed-link"]),
    fmt=st.sampled_from(["human", "csv", "json"]),
    values=st.fixed_dictionaries({"L": CLI_DOMAIN["L"]}, optional={k: v for k, v in CLI_DOMAIN.items() if k != "L"}),
    hostile=st.dictionaries(st.sampled_from(list(CLI_DOMAIN)), HOSTILE, max_size=2),
)
@example(scenario="fixed-link", fmt="csv", values={"L": "1e-300"},
         hostile={"L0": "1e-300", "c": "1e300"})  # t_cc = L / c underflows
def test_crossover_and_fixed_link_close_the_input_domain(scenario, fmt, values, hostile):
    check_domain_run(domain_argv(scenario, fmt, values, hostile), fmt)


def run_cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value of the wrong type
            code = exc.code
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
    output holds no NaN or infinity and no total time of 0 s or less."""
    code, out, err = run_cli_in_process(argv)
    assert code in {0, 2, 3, 4}, (argv, err)
    assert "Traceback" not in err
    if out:
        assert non_finite_fields(fmt, out) == [], argv
    if code == 0:
        assert all(t > 0.0 for t in total_times(fmt, out)), (argv, out)


def domain_argv(scenario: str, fmt: str, values: dict, hostile: dict) -> list[str]:
    return [scenario, f"--format={fmt}"] + [f"--{key.replace('_', '-')}={value}"
                                             for key, value in {**values, **hostile}.items()]


N_MAX_EDGES = ("0", "-1", "1", "2", "5000", "1" + "0" * 400, "-" + "1" * 400)
PLAN_DOMAIN = {
    **{key: CLI_DOMAIN[key] for key in
       ("L", "L0", "m", "rho", "eta_d", "eta_m", "alpha", "c", "tol")},
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
)
@example(scenario="sweep", fmt="json", values={"L": "1e-300"}, hostile={"c": "1e300"},
         sweep=("rho", "0.5"))  # t_cc = L / c underflows at every point
@example(scenario="sweep", fmt="csv", values={"L": "nan"}, hostile={}, sweep=("m", "1"))
@example(scenario="sweep", fmt="csv", values={"L": "500"}, hostile={}, sweep=("m", "inf"))
def test_optimize_and_sweep_close_the_input_domain(scenario, fmt, values, hostile, sweep):
    argv = domain_argv(scenario, fmt, values, hostile)
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
)
@example(scenario="eval", fmt="csv", values={"L": "5e-324", "n": "1"}, hostile={},
         trials=1, seed=0)  # t_cc = L / c underflows
@example(scenario="simulate", fmt="json", values={"L": "5e-324", "n": "1"}, hostile={},
         trials=10, seed=0)
def test_eval_and_simulate_close_the_input_domain(scenario, fmt, values, hostile, trials,
                                                  seed):
    argv = domain_argv(scenario, fmt, values, hostile)
    if scenario == "simulate":
        argv += [f"--trials={trials}", f"--seed={seed}"]
    check_domain_run(argv, fmt)


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
