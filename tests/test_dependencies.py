"""The package's runtime dependencies: numpy and the standard library."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import repeaterchain

PACKAGE = Path(repeaterchain.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in ``path``, wherever it
    sits: module level or inside a function."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = {path.name: sorted(imported_top_level_modules(path)
                                 - set(sys.stdlib_module_names) - {"numpy"})
               for path in modules}
    assert outside == {path.name: [] for path in modules}


def test_no_package_module_imports_argparse():
    # The CLI splits every command line itself, help included.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [path.name for path in modules if "argparse" in imported_top_level_modules(path)] == []


def test_pyproject_lists_numpy_as_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]]
    assert names == ["numpy"]


def unused_imports(path: Path) -> list[str]:
    """Names that ``path`` imports, wherever, and never reads as a name.
    ``from __future__`` features are no names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [name for name in imported if name not in read]


def test_package_modules_use_every_name_they_import():
    # A private helper whose last caller went keeps no import alive.
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.name: unused_imports(path) for path in modules} == {
        path.name: [] for path in modules}
