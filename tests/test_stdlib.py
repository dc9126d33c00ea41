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


def torlog_imports(source: str) -> set[str]:
    """Names of the torlog modules one module's source imports, relatively or absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("torlog."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.ImportFrom) and node.module == "torlog":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("torlog."))
    return names


def test_the_linear_algebra_kernel_sits_at_the_bottom_of_the_import_graph():
    source = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert torlog_imports(source["linalg"]) == set()
    assert torlog_imports(source["fans"]) == {"linalg"}


def test_the_torlog_scan_sees_every_import_form():
    source = ("import os\nfrom . import fans\nfrom .laurent import exact\nimport torlog.cli\n"
              "from torlog import bundles\nfrom torlog.corpus import f\n"
              "def g():\n    from .splitting import h\n")
    assert torlog_imports(source) == {"fans", "laurent", "cli", "bundles", "corpus", "splitting"}


def private_imports(source: str) -> set[tuple[str, str]]:
    """(torlog module, name) for each private name one module's source imports from another."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.level or node.module.startswith("torlog.")):
            found.update((node.module.split(".")[-1], alias.name) for alias in node.names
                         if alias.name.startswith("_") and alias.name != "__future__")
    return found


def test_private_names_cross_modules_only_where_pinned():
    crossing = {(path.stem, module, name) for path in MODULES
                for module, name in private_imports(path.read_text(encoding="utf-8"))}
    assert crossing == {("cli", "laurent", "_poly"), ("splitting", "laurent", "_sparse_rows")}


def test_the_private_scan_sees_relative_and_absolute_imports():
    source = ("from __future__ import annotations\nfrom .laurent import _poly, exact\n"
              "from torlog.fans import _adder\nfrom os import _exit\n"
              "def f():\n    from .cocycles import _basis\n")
    assert private_imports(source) == {("laurent", "_poly"), ("fans", "_adder"),
                                       ("cocycles", "_basis")}


def definitions(source: str) -> tuple[set[str], set[tuple[str, str]]]:
    """(names defined at any depth, (class, base name) pairs) in one module's source.

    A definition is a function, a class or an assignment target; a base is
    named by its last attribute, so ``laurent.LaurentPoly`` reads as LaurentPoly.
    """
    names, bases = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            bases.update((node.name, b.attr if isinstance(b, ast.Attribute) else b.id)
                         for b in node.bases if isinstance(b, (ast.Name, ast.Attribute)))
    return names, bases


def test_one_exact_coefficient_rule_and_one_polynomial_type():
    found = {path.stem: definitions(path.read_text(encoding="utf-8")) for path in MODULES}
    for name in ("exact", "Coeff"):
        assert [m for m, (names, _) in found.items() if name in names] == ["linalg"], name
    assert not [m for m, (names, _) in found.items() if "canonical" in names]
    assert not [(m, cls) for m, (_, bases) in found.items() for cls, base in bases
                if base == "LaurentPoly"]


def test_the_definition_scan_sees_functions_aliases_and_subclasses():
    source = ("Coeff = int\nx: int = 1\ndef exact(c):\n    def canonical(d):\n        pass\n"
              "class P(laurent.LaurentPoly):\n    pass\nclass Q(LaurentPoly, Generic[T]):\n"
              "    pass\n")
    names, bases = definitions(source)
    assert names == {"Coeff", "x", "exact", "canonical", "P", "Q"}
    assert bases == {("P", "LaurentPoly"), ("Q", "LaurentPoly")}


def attribute_names(source: str) -> set[str]:
    """Attribute names one module's source reads or writes, with ``obj.name`` or as a str."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_each_cocycle_fact_is_recorded_in_one_module():
    found = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert not [m for m, source in found.items() if "gated_triple_identity" in definitions(source)[0]]
    assert [m for m, source in found.items() if "_record" in attribute_names(source)] == ["cocycles"]


def test_the_attribute_scan_sees_reads_writes_and_strings():
    source = ("x = a._record\nb.c._kept = 1\ngetattr(d, '_named', None)\n"
              "def f():\n    '''A docstring.'''\n    return e.g\n")
    assert attribute_names(source) == {"_record", "c", "_kept", "_named", "A docstring.", "g"}


def test_the_never_raised_error_and_the_addend_product_stay_deleted():
    found = {path.stem: definitions(path.read_text(encoding="utf-8"))[0] for path in MODULES}
    assert not [m for m, names in found.items() if {"NoSolutionError", "mul_add"} & names]
