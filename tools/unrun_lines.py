"""Count the executable lines of `src/superyangian` that a pytest run never runs.

A stdlib line collector (`sys.settrace`), for where `coverage` is not
installed.  Run it from anywhere; extra arguments go to pytest:

    python tools/unrun_lines.py [--list] [pytest arguments]

It prints how many executable lines the run never reached, and with
`--list` each of them as `path:line`.  Code that runs in a subprocess is
not seen.  Tracing makes the tests run several times slower.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superyangian"
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


def executable_lines(path: Path) -> set[int]:
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


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
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - {line for name, line in hit if name == str(path)})
        total, unrun = total + len(lines), unrun + len(missed)
        if show:
            print("\n".join(f"{path.relative_to(ROOT)}:{line}" for line in missed))
    print(f"{unrun} of {total} executable src/ lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
