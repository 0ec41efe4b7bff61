"""Every public function and method of the package is reached.

A stdlib `ast` check.  The roots are `cli.main`, `suites.compute`, the
names in `__all__`, every dunder method and all module-level code (class
bodies, decorators and default values included, and so every check that
the suite table names as a claim); a root reaches every function and
method of its name.  From a reached body, a module-level function is
reached when the body reads its name, as a bare name or as an
attribute, and a method only when the body reads an attribute of its
name: a local variable that shares a method's name does not reach it.
Names are matched by name alone, so a method is reached as soon as
reached code reads any attribute of that name: the check may miss dead
code, but it never flags code that something runs.

A public name that only tests reach goes, or it goes on `ALLOWED` with
the reason it stays.
"""

import ast
from collections import defaultdict
from pathlib import Path

from superyangian import __all__ as EXPORTED

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superyangian"

ROOTS = {"main", "compute", *EXPORTED}

# qualified name -> why it stays although nothing in the package reaches it
ALLOWED = {
    "Algebra.normal_order": "an entry point of perfbench/tracer.py (ROADMAP item 1)",
    "supertrace_cyclicity_check": "to become a basis certificate (ROADMAP item 8)",
    "supertrace": "read by supertrace_cyclicity_check (ROADMAP item 8)",
    "partial_supertrace": "to be checked on a basis with the cyclicity (ROADMAP item 8)",
    "EndoOperator.scalar_value": "read by the supertrace checks (ROADMAP item 8)",
    "parse_operator_dump": "the operator half of counterexample replay (ROADMAP item 2)",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names_read(node: ast.AST) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names read in `node`."""
    names: set[str] = set()
    attrs: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
    return names, attrs


def _module_level_names(tree: ast.Module) -> set[str]:
    """The names read outside function bodies: module and class bodies,
    decorators and default values, which run when the module loads."""
    names: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, FUNCTIONS):
            for part in [*node.decorator_list, *node.args.defaults,
                         *filter(None, node.args.kw_defaults)]:
                names.update(*_names_read(part))
            return
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return names


def unreached(sources: dict[str, str], roots: set[str]) -> set[str]:
    """The qualified names of the public module-level functions and
    methods of `sources` (module name -> text) that no root reaches."""
    trees = [ast.parse(text) for text in sources.values()]
    defs: dict[str, ast.AST] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        defs[f"{node.name}.{item.name}"] = item
    by_name = defaultdict(list)
    for qualname, node in defs.items():
        by_name[node.name].append(qualname)
    # (name, read as an attribute): a bare name reaches only functions
    everything = set(roots).union(*map(_module_level_names, trees))
    everything |= {node.name for node in defs.values()
                   if node.name.startswith("__") and node.name.endswith("__")}
    todo = {(name, True) for name in everything}
    seen: set[tuple[str, bool]] = set()
    reached: set[str] = set()
    while todo:
        name, attr = todo.pop()
        seen.add((name, attr))
        for qualname in by_name[name]:
            if attr or "." not in qualname:
                reached.add(qualname)
                names, attrs = _names_read(defs[qualname])
                todo |= ({(n, False) for n in names} | {(a, True) for a in attrs}) - seen
    return {q for q, node in defs.items() if q not in reached and not node.name.startswith("_")}


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_function_is_reached_or_allowed():
    allowed_names = {qualname.rsplit(".", 1)[-1] for qualname in ALLOWED}
    assert unreached(package_sources(), ROOTS | allowed_names) == set()


def test_every_allowed_name_is_otherwise_unreached():
    assert set(ALLOWED) <= unreached(package_sources(), ROOTS)


def test_the_check_flags_a_planted_unreached_function():
    sources = package_sources()
    sources["suites"] += (
        "\n\ndef planted(x):\n"
        "    return helper(x)\n"
        "\n\ndef helper(x):\n"
        "    return x\n"
        "\n\nclass Planted:\n"
        "    def method(self):\n"
        "        return planted(self)\n"
        "\n    def shadowed(self):\n"
        "        return 0\n"
        "\n    def read(self):\n"
        "        return 1\n"
        "\n    def __len__(self):\n"
        "        shadowed = helper(1)\n"
        "        return shadowed + self.read()\n"
    )
    got = unreached(sources, ROOTS)
    # helper is reached from a dunder; planted only from a method nothing reads
    assert {"planted", "Planted.method"} <= got
    assert "helper" not in got
    # a local variable does not reach the method of its name; an attribute does
    assert "Planted.shadowed" in got
    assert "Planted.read" not in got
