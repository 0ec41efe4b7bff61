"""A fixed reference kernel that measures how fast the machine runs now.

On a small shared virtual machine the speed of a core switches between
a fast and a slow level (a ratio of about 1.7) every few seconds, as
other tenants come and go on the host; the two cores switch
independently.  A pass of the program slows down with its core, so raw
pass times spread by a fifth or more between runs and cannot show a
regression of a few percent.  The benchmark therefore times this kernel
between the suites of a pass, after every `INTERVAL_S` of suite time,
and scales the time of the suites between two bursts of samples to the
kernel's nominal speed (`scaled`).

The kernel uses only the standard library and does the kind of work the
program does: exact `Fraction` products accumulated in dicts keyed by
index tuples, and rewriting of tuple words to a sorted normal form.  It
never touches the program, so a change to the program cannot change the
kernel's time.  The cyclic garbage collector is off while it runs, so the
size of the program's heap does not slow it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# A typical kernel time on the machine the benchmark was defined on
# (2-CPU Intel Xeon under KVM, Python 3.11.7; about 0.011 s when its core
# runs fast and 0.02 s when slow).  It only sets the scale of the scaled
# times; comparisons between two commits do not depend on it.
NOMINAL_S = 0.015
# Least suite time between two samples inside a pass.
INTERVAL_S = 0.1
# A burst takes one more sample per this much suite time before it.
BURST_S = 0.4
MAX_BURST = 8

_ENTRIES = {((i % 7, i % 5), (i % 11, i % 3)): Fraction(i % 13 - 6, i % 5 + 1)
            for i in range(300)}
_WORDS = [tuple((i * 7 + k * 5) % 11 for k in range(7)) for i in range(4)]


def _sparse_square(entries: dict) -> dict:
    by_row: dict = {}
    for (row, col), v in entries.items():
        by_row.setdefault(row, []).append((col, v))
    out: dict = {}
    for (row, mid), a in entries.items():
        for col, b in by_row.get(mid, ()):
            key = (row, col)
            out[key] = out.get(key, 0) + a * b
    return out


def _normal_form(word: tuple, memo: dict) -> dict:
    """Sort a word by adjacent swaps; each swap also emits the shorter
    word without the pair, with coefficient 1/2."""
    got = memo.get(word)
    if got is not None:
        return got
    for p in range(len(word) - 1):
        if word[p] > word[p + 1]:
            acc: dict = {}
            swapped = word[:p] + (word[p + 1], word[p]) + word[p + 2:]
            for w, c in _normal_form(swapped, memo).items():
                acc[w] = acc.get(w, 0) + c
            for w, c in _normal_form(word[:p] + word[p + 2:], memo).items():
                acc[w] = acc.get(w, 0) + c / 2
            result = {w: c for w, c in acc.items() if c}
            break
    else:
        result = {word: Fraction(1)}
    memo[word] = result
    return result


def kernel() -> None:
    _sparse_square(_ENTRIES)
    for word in _WORDS:
        _normal_form(word, {})


def sample() -> float:
    """Time of one kernel run, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_nominal(seconds: float, samples: list[float]) -> float:
    """`seconds` measured while the kernel took `samples`, scaled to the
    nominal speed by the mean sample.  The speed switches between two
    levels, so a mean tracks the share of time spent at each where a
    median would jump between them."""
    return seconds * NOMINAL_S * len(samples) / sum(samples)


def burst(span: float) -> list[float]:
    """Samples to take after `span` seconds of suite time."""
    return [sample() for _ in range(min(MAX_BURST, 1 + int(span / BURST_S)))]


def scaled(intervals: list[tuple[float, list[float], list[float]]]) -> float:
    """Total time of `intervals` at nominal speed; each interval is
    (seconds, samples just before, samples just after)."""
    return sum(at_nominal(sec, before + after) for sec, before, after in intervals)
