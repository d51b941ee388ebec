from __future__ import annotations

import os
from pathlib import Path

import pytest

import repeaterchain


@pytest.fixture
def src_env() -> dict[str, str]:
    """Environment for a child Python process that imports this checkout's package."""
    src = str(Path(repeaterchain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
