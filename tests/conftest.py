from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def children_import_src():
    """Child interpreters started by the tests import torlog from src/, as the tests do.

    pytest puts src/ on its own path (``pythonpath`` in pyproject.toml); a
    subprocess sees only the environment, so PYTHONPATH gets src/ in front.
    """
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, old) if p)
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old
