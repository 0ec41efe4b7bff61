"""Every generator letter comes from its algebra's letter table.

A stdlib `ast` check: no module of the package calls `GenIndex(...)`
(or `GenIndex._make(...)`) anywhere but inside `Algebra.letter`, so each
algebra holds exactly one object per letter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superyangian"


def _makes_genindex(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "GenIndex"
    if isinstance(func, ast.Attribute):
        return func.attr == "GenIndex" or (
            func.attr == "_make" and _makes_genindex(func.value))
    return False


def letters_made_outside_the_table(source: str) -> list[int]:
    tree = ast.parse(source)
    inside = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Algebra":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "letter":
                    inside |= {id(node) for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and _makes_genindex(node.func))


def test_the_check_sees_a_letter_made_outside_the_table():
    source = (
        "class Algebra:\n"
        "    def letter(self, i, j, r):\n"
        "        return GenIndex(i, j, r)\n"
        "    def gens(self):\n"
        "        return [GenIndex(1, 1, 1)]\n"
        "def f(g):\n"
        "    return algebra.GenIndex(*g), GenIndex._make(g), letter(1, 1, 1)\n"
    )
    assert letters_made_outside_the_table(source) == [5, 7, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_letters_come_from_the_algebra(path):
    assert letters_made_outside_the_table(path.read_text()) == []
