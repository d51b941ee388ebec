from __future__ import annotations

import csv
import io
import json

import pytest

from repeaterchain.cli import METRIC_COLUMNS, format_time, main, parse_config
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


def test_exit_code_3_json_carries_machine_code(capsys):
    code, out, _ = run_cli(capsys, "eval", "--L", "100", "--n", "1", "--rho", "0",
                           "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"]["code"] == "non_terminating_process"


def test_exit_code_4_on_simulation_abort(capsys):
    code, _, err = run_cli(capsys, "simulate", "--L", "120", "--n", "24",
                           "--trials", "1", "--seed", "0")
    assert code == 4
    assert "abort" in err
