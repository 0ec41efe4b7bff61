"""Gate: every executable line of `src/superyangian` runs under a pytest run.

A stdlib line collector (`sys.settrace`), for where `coverage` is not
installed.  Run it from anywhere; extra arguments go to pytest:

    python tools/unrun_lines.py [--list] [pytest arguments]

It sorts the lines the run never reached into three kinds: failure
branches, the lines of an `if` body that records a `failure(...)` or
`_op_failure(...)` (ROADMAP item 19: a check whose failure no defect
reaches); lines of an `ALLOWED` entry; and every other line.  It prints
the count of each, with `--list` each line as `path:line` under its
kind, and exits 1 when a line of the third kind is left, or when an
`ALLOWED` entry names nothing.  Code that runs in a subprocess is not
seen.  Tracing makes the tests run several times slower (about 130 s
for the whole suite), so the tool is not part of the suite itself.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superyangian"
FAILURE_CALLS = ("failure", "_op_failure")

# module, or module.qualified name -> why its lines may stay unrun
ALLOWED = {
    "__main__": "runs only as `python -m superyangian`, in a subprocess",
    "tensors.partial_supertrace": "to be checked on a basis with the cyclicity (ROADMAP item 8)",
    "tensors.EndoOperator.scalar_value": "read by the supertrace checks (ROADMAP item 8)",
}

_inside: dict[str, str | None] = {}  # co_filename -> its real path, None outside PACKAGE
hit: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _inside:
        real = os.path.realpath(name)
        _inside[name] = real if Path(real).parent == PACKAGE else None
    if _inside[name] is None:
        return None
    hit.add((_inside[name], frame.f_lineno))
    return _trace


def executable_lines(source: str) -> set[int]:
    lines, todo = set(), [compile(source, "<source>", "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def failure_branch_lines(source: str) -> set[int]:
    """The lines of every `if` (or `else`) body that is the innermost
    branch around a `failure(...)` or `_op_failure(...)` call."""
    lines: set[int] = set()

    def visit(node: ast.AST, branch: list | None) -> None:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in FAILURE_CALLS and branch):
            lines.update(range(branch[0].lineno, branch[-1].end_lineno + 1))
        if isinstance(node, ast.If):
            visit(node.test, branch)
            for body in (node.body, node.orelse):
                for stmt in body:
                    visit(stmt, body)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, branch)

    visit(ast.parse(source), None)
    return lines


def _functions(tree: ast.Module):
    """(qualified name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def allowed_lines(sources: dict[str, str]) -> dict[str, set[int]]:
    """Module -> the lines of `sources` (module -> text) that `ALLOWED`
    covers.  An entry that names no module, function or method there
    raises ValueError."""
    lines: dict[str, set[int]] = {module: set() for module in sources}
    for key in ALLOWED:
        module, _, name = key.partition(".")
        source = sources.get(module, "")
        spans = {qualname: range(node.lineno, node.end_lineno + 1)
                 for qualname, node in _functions(ast.parse(source))}
        spans[""] = range(source.count("\n") + 2)  # the whole module, line 0 included
        if module not in sources or name not in spans:
            raise ValueError(f"ALLOWED entry {key!r} names nothing")
        lines[module].update(spans[name])
    return lines


def classify(source: str, unrun: set[int], allowed: set[int]) -> dict[str, list[int]]:
    """The `unrun` lines of `source` by kind: `failure`, `allowed`, `other`."""
    failures = failure_branch_lines(source)
    kinds: dict[str, list[int]] = {"failure": [], "allowed": [], "other": []}
    for line in sorted(unrun):
        kind = "allowed" if line in allowed else "failure" if line in failures else "other"
        kinds[kind].append(line)
    return kinds


def main(argv: list[str]) -> int:
    show = "--list" in argv
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    os.chdir(ROOT)
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *(a for a in argv if a != "--list")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    paths = sorted(PACKAGE.glob("*.py"))
    sources = {path.stem: path.read_text() for path in paths}
    try:
        allowed = allowed_lines(sources)
    except ValueError as exc:
        print(exc)
        return 1
    total = 0
    found: dict[str, list[str]] = {"failure": [], "allowed": [], "other": []}
    for path in paths:
        lines = executable_lines(sources[path.stem])
        total += len(lines)
        unrun = lines - {line for name, line in hit if name == str(path)}
        for kind, missed in classify(sources[path.stem], unrun, allowed[path.stem]).items():
            found[kind] += [f"{path.relative_to(ROOT)}:{line}" for line in missed]
    if show:
        for kind, title in (("other", "unrun, not allowed"),
                            ("failure", "failure branches (ROADMAP item 19)"),
                            ("allowed", "allowed")):
            print(f"-- {title}: {len(found[kind])}", *found[kind], sep="\n")
    print(f"{sum(map(len, found.values()))} of {total} executable src/ lines never ran: "
          f"{len(found['failure'])} in failure branches, {len(found['allowed'])} allowed, "
          f"{len(found['other'])} other")
    return 1 if found["other"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
