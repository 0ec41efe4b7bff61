"""Common result shape for verification checks.

Every check returns a CheckResult: `info` records what was verified
(bounds, orders, certificates), and `failures` holds machine-checkable
counterexamples (location plus a residual in the element or operator
grammar).  A result passes exactly when `failures` is empty, which is
how `suites.run_suite` reads it, so a PASS cannot carry a
counterexample nor a FAIL lack one.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    info: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def failure(location: dict, residual_text: str, kind: str = "element") -> dict:
    return {"location": location, "kind": kind, "residual": residual_text}
