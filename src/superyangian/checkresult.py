"""Common result shape for verification checks.

Every check returns a CheckResult: `ok` is the verdict, `info` records
what was verified (bounds, orders, certificates), and `failures` holds
machine-checkable counterexamples (location plus a residual in the
element or operator grammar).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckResult:
    ok: bool
    info: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def failure(location: dict, residual_text: str, kind: str = "element") -> dict:
    return {"location": location, "kind": kind, "residual": residual_text}
