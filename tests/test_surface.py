"""Every public function and class of the library has a caller beyond its unit tests.

A name that only its own tests call is surface kept alive by those tests.
Each public module-level function or class of src/torlog (``__init__`` aside,
which only re-exports) must be named somewhere in the library beyond its own
definition, in scripts/ or perfbench/, in the acceptance suite, or in
REFERENCES.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "torlog").glob("*.py") if p.stem != "__init__")
CALLERS = (sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

# the inverse-first pipeline and the matrix derivation, kept as the references
# the tests build and compare the fused kernels against
REFERENCES = {"obstruction_cocycle", "matrix_delta"}


def public_definitions(source: str) -> set[str]:
    """Names of the public functions and classes at the top level of one module's source."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def names_used(source: str) -> set[str]:
    """Every name one source reads, imports or takes as an attribute, or spells as a whole str."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def called() -> set[str]:
    """Every name the library, the scripts, the bench and the acceptance suite use."""
    return set().union(*(names_used(read(path)) for path in MODULES + CALLERS))


def test_every_public_name_has_a_caller_beyond_its_unit_tests():
    assert len(MODULES) > 1 and all(path.exists() for path in CALLERS)
    used = called()
    uncalled = sorted(f"{path.stem}.{name}" for path in MODULES
                      for name in public_definitions(read(path)) - used - REFERENCES)
    assert not uncalled, f"only the unit tests call {uncalled}"


def test_each_reference_is_defined_and_otherwise_uncalled():
    defined = set().union(*(public_definitions(read(path)) for path in MODULES))
    assert REFERENCES <= defined
    assert not REFERENCES & called()


def test_the_definition_scan_keeps_public_top_level_names():
    source = ("def f():\n    def g():\n        pass\nclass C:\n    def m(self):\n        pass\n"
              "def _h():\n    pass\nclass _D:\n    pass\nx = 1\nasync def a():\n    pass\n")
    assert public_definitions(source) == {"f", "C", "a"}


def test_the_name_scan_sees_imports_attributes_calls_and_whole_strings():
    source = ("from .cocycles import a as b\nimport c\nx = d.e\nf(g)\n"
              "TRACED = [('corpus', 'h')]\n'''A docstring naming i.'''\n"
              "def j():\n    pass\n")
    assert names_used(source) == {"a", "c", "x", "d", "e", "f", "g", "TRACED", "corpus", "h",
                                  "A docstring naming i."}
