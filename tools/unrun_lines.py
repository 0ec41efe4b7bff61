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
seen.  A code object is traced only until each of its lines has run.
Tracing still makes the tests run several times slower (about 90 s for
the whole suite), so the tool is not part of the suite itself.
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


def own_lines(code) -> set[int]:
    """The executable lines of one code object, without those of the code
    objects nested in it."""
    return {line for _, _, line in code.co_lines() if line is not None}


def executable_lines(source: str) -> set[int]:
    lines, todo = set(), [compile(source, "<source>", "exec")]
    while todo:
        code = todo.pop()
        lines |= own_lines(code)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def line_collector(path_of):
    """A `sys.settrace` function that records each line run in a file
    `path_of(co_filename)` names a path for (None: not traced), as
    (path, line) in `hit`.  Returns (trace, hit, files), where `files`
    maps each traced file name to {code object: its `own_lines` not yet
    run}.  Once none is left, new frames of that code object are not
    traced: they could only add lines already in `hit`."""
    hit: set[tuple[str, int]] = set()
    files: dict[str, dict | None] = {}
    paths: dict[str, str] = {}

    def trace(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in files:
            paths[name] = path_of(name)
            files[name] = None if paths[name] is None else {}
        codes = files[name]
        if codes is None:
            return None
        unhit = codes.get(code)
        if unhit is None:
            unhit = codes[code] = own_lines(code)
        return local(frame, event, arg) if unhit else None

    def local(frame, event, arg):
        code = frame.f_code
        line = frame.f_lineno
        hit.add((paths[code.co_filename], line))
        files[code.co_filename][code].discard(line)
        return local

    return trace, hit, files


def _package_path(name: str) -> str | None:
    real = os.path.realpath(name)
    return real if Path(real).parent == PACKAGE else None


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
    trace, hit, _ = line_collector(_package_path)
    threading.settrace(trace)
    sys.settrace(trace)
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
