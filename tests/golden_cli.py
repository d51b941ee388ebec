"""The byte-identity corpus of the CLI: each entry's argv, with the exit
status, stdout and stderr that ``repeaterchain.cli.main`` gives it in
process.  ``tests/test_golden_cli.py`` checks the program against it.

    python tests/golden_cli.py --write

rewrites ``tests/golden_cli.json`` from this checkout's ``src/`` and
prints each entry that changed.  A change that moves an entry is a change
of the program's output and is named, with its reason, in CHANGES.md.

numpy's AVX-512 transcendentals may return other last bits than its other
loops, so the corpus records numpy's version and whether those loops were
dispatched; only a run on the same path is held to the bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).with_name("golden_cli.json")

# numpy's SIMD dispatch targets of the AVX-512 path.
AVX512_TARGETS = {"X86_V4", "AVX512_ICL", "AVX512_SPR"}


def entries() -> list[list[str]]:
    """The argv of every entry, in the corpus's order."""
    from test_cli import CROSS_PATH_COMMANDS

    return [
        *([*argv, "--format", fmt] for argv in CROSS_PATH_COMMANDS for fmt in ("csv", "json")),
        ["--help"],
        ["eval", "--help"],
        ["optimize", "--L", "2000", "--format", "json"],  # the link-count scan's cap
    ]


def dispatch() -> dict:
    """numpy's version, and whether its AVX-512 loops run here."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    active = {target for target in __cpu_dispatch__ if __cpu_features__.get(target)}
    return {"numpy": numpy.__version__, "avx512": AVX512_TARGETS <= active}


def run(argv: list[str]) -> dict:
    """One entry: ``argv`` run through ``main`` in this process."""
    from repeaterchain.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:  # help
            status = exc.code
    return {"argv": list(argv), "status": status, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def write() -> None:
    import difflib

    old = {json.dumps(e["argv"]): e for e in load()["entries"]} if CORPUS.exists() else {}
    corpus = {**dispatch(), "entries": [run(argv) for argv in entries()]}
    for entry in corpus["entries"]:
        before = old.get(json.dumps(entry["argv"]))
        if before != entry:
            print("changed:" if before else "new:", " ".join(entry["argv"]))
            for stream in ("stdout", "stderr"):
                lines = difflib.unified_diff((before or {}).get(stream, "").splitlines(),
                                             entry[stream].splitlines(), stream, stream,
                                             lineterm="")
                print(*lines, sep="\n")
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write()
