from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(src_env, demo):
    result = subprocess.run([sys.executable, str(demo)], env=src_env,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout
    if demo.stem == "monte_carlo_crosscheck":
        # Rows read "L n | t_tot model, MC, z | mem model, MC, z | std err".
        rows = [line.split("|") for line in result.stdout.splitlines() if line.count("|") == 3]
        z = [float(part.split()[2]) for row in rows[1:] for part in row[1:3]]
        assert len(z) == 10
        assert all(abs(value) < 4.0 for value in z), z
