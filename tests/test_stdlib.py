"""The library stays stdlib-only: every absolute import under src/torlog is a stdlib module."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "torlog").glob("*.py"))


def absolute_imports(source: str) -> set[str]:
    """Top-level package names of the absolute imports in one module's source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_imports_only_the_standard_library():
    assert len(MODULES) > 1
    for path in MODULES:
        outside = absolute_imports(path.read_text(encoding="utf-8")) - sys.stdlib_module_names
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_scan_sees_nested_and_non_stdlib_imports():
    source = ("import os.path\nfrom . import fans\nfrom .laurent import exact\n"
              "def f():\n    from hypothesis import given\n    import numpy as np\n")
    assert absolute_imports(source) == {"os", "hypothesis", "numpy"}
