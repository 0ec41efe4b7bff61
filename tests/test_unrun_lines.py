"""The line classifier of `tools/unrun_lines.py`, on small sources.

The traced run itself takes about six times the suite's time, so only
the classifier runs here: which unrun lines are failure branches, which
an `ALLOWED` entry covers, and which are left to fail the gate.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_lines.py"
_spec = importlib.util.spec_from_file_location("unrun_lines", TOOL)
unrun_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun_lines)

SOURCE = '''\
def check(x):
    failures = []
    if x:
        y = 1
        failures.append(failure({"a": y},
                                "residual"))
        return failures
    if x is None:
        for k in range(3):
            if k:
                failures.append(_op_failure({}, k))
    elif x == 0:
        raise ValueError("zero")
    else:
        failures.append(failure({}, "else"))
    ok = not failures
    return [] if ok else [failure({}, "inline")]


class Kept:
    def method(self):
        return 1

    def other(self):
        return 2
'''


def test_a_failure_branch_is_the_innermost_if_body_around_a_failure_call():
    # the body of `if x`, of `if k` (not of `if x is None`) and the else;
    # not the `elif` raise, nor a conditional expression
    assert unrun_lines.failure_branch_lines(SOURCE) == {4, 5, 6, 7, 11, 15}


def test_unrun_lines_split_into_failure_allowed_and_other():
    unrun = {4, 5, 9, 13, 17, 22, 25}
    kinds = unrun_lines.classify(SOURCE, unrun, allowed=set(range(21, 23)))
    assert kinds == {"failure": [4, 5], "allowed": [22], "other": [9, 13, 17, 25]}


def test_an_allowed_entry_covers_its_function_method_or_module(monkeypatch):
    monkeypatch.setattr(unrun_lines, "ALLOWED", {"mod.Kept.method": "why", "mod.check": "why",
                                                 "main": "why"})
    lines = unrun_lines.allowed_lines({"mod": SOURCE, "main": "import sys\nsys.exit(0)\n",
                                       "other": SOURCE})
    assert lines == {"mod": set(range(1, 18)) | {21, 22}, "main": {0, 1, 2, 3},
                     "other": set()}


@pytest.mark.parametrize("entry", ["mod.Kept.gone", "mod.gone", "gone", "gone.check"])
def test_an_allowed_entry_that_names_nothing_is_an_error(entry, monkeypatch):
    monkeypatch.setattr(unrun_lines, "ALLOWED", {entry: "why"})
    with pytest.raises(ValueError, match="names nothing"):
        unrun_lines.allowed_lines({"mod": SOURCE})


def test_every_allowed_entry_names_package_code():
    sources = {path.stem: path.read_text() for path in unrun_lines.PACKAGE.glob("*.py")}
    lines = unrun_lines.allowed_lines(sources)
    assert all(lines[key.partition(".")[0]] for key in unrun_lines.ALLOWED)
