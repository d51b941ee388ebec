"""Deterministic CLI output is byte-identical to the corpus in
``golden_cli.json`` (see ``golden_cli.py``), on numpy's recorded SIMD
path; on any other, every exit status, stderr and non-float token is
identical and every float within a few ulps."""

from __future__ import annotations

import csv
import io
import json
import re

import pytest

import golden_cli
from test_cli import assert_within_ulps

CORPUS = golden_cli.load()
SAME_PATH = {key: CORPUS[key] for key in ("numpy", "avx512")} == golden_cli.dispatch()

# A float as the CLI writes one (repr): a point or an exponent.
FLOAT = re.compile(r"-?\d+(?:\.\d*(?:e[-+]?\d+)?|e[-+]?\d+)")


def parsed(fmt: str, text: str):
    """``text``'s values, each float cell of a csv table a float."""
    if fmt == "json":
        return json.loads(text)
    rows = csv.DictReader(io.StringIO(text))
    return [{key: float(cell) if FLOAT.fullmatch(cell) else cell for key, cell in row.items()}
            for row in rows]


def test_the_corpus_has_every_entry():
    assert [entry["argv"] for entry in CORPUS["entries"]] == golden_cli.entries()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=lambda entry: " ".join(entry["argv"]))
def test_cli_output_matches_the_corpus(entry):
    got = golden_cli.run(entry["argv"])
    if SAME_PATH:
        assert got == entry
        return
    assert (got["status"], got["stderr"]) == (entry["status"], entry["stderr"])
    assert FLOAT.sub("#", got["stdout"]) == FLOAT.sub("#", entry["stdout"])
    fmt = entry["argv"][-1] if entry["argv"][-2:-1] == ["--format"] else None
    if fmt in ("csv", "json"):
        assert_within_ulps(parsed(fmt, got["stdout"]), parsed(fmt, entry["stdout"]),
                           entry["argv"])
    else:
        assert got["stdout"] == entry["stdout"]
