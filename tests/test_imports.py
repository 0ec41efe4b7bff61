"""No module of the package, and no test module, imports a name it
never uses, and no test module imports another test module.

A stdlib `ast` check: a name bound by an import counts as used when it
is read anywhere in the module or listed in the module's `__all__`;
`from __future__` imports are skipped.  What several test modules share
lives in a helper module (`defects.py`, `helpers.py`), never in a
`test_*.py`.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "superyangian"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def imported_test_modules(source: str) -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    return [name for name in modules if name.split(".")[0].startswith("test_")]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["os (line 2)", "b (line 3)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_a_test_module_import():
    source = "import defects\nimport test_a\nfrom test_b import c\nfrom helpers import d\n"
    assert imported_test_modules(source) == ["test_a", "test_b"]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_test_module_imports_another(path):
    assert imported_test_modules(path.read_text()) == []
