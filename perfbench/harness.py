"""Measurement bookkeeping shared by the benchmark runner and its self-test.

Nothing here imports numpy or the package under test: percentiles, the
tail-percentile rule, judging and counting operation outcomes, and span
recording with self-time accounting are plain Python, so the self-test
can drive them with synthetic data.
"""
from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

# Outcome of one operation.
OK = "ok"            # returned, and its output passed the check
KNOWN = "known"      # a hard case from the ledger that did not produce a result
FAILED = "failed"    # raised unexpectedly, or returned an output that failed its check


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly interpolated p-th percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the p-th percentile rank."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n: int, min_beyond: int = 10) -> int:
    """Highest whole percentile with at least min_beyond of n samples above it."""
    if n <= min_beyond:
        raise ValueError(f"{n} samples cannot leave {min_beyond} beyond any percentile")
    return max(p for p in range(100) if samples_beyond(n, p) >= min_beyond)


class NoResult(Exception):
    """Raised by an output check when the output carries no usable result."""


def judge(op: Any, out: Any, error: Optional[BaseException],
          no_result: tuple[type, ...]) -> tuple[str, str]:
    """(outcome, note) of one operation that returned out or raised error.

    An error of a no_result type, or a check raising one, means the
    operation produced no result: a known outcome for a hard case from the
    ledger (op.hard_case set), a failure otherwise.  Any other exception, or
    a check that returns a reason, is a failure even for a hard case.
    """
    if error is None:
        try:
            problem = op.check(out)
        except no_result as exc:
            error = exc
        except Exception as exc:  # a check that cannot read the output fails it
            return FAILED, f"check raised {exc!r}"
        else:
            return (FAILED, problem) if problem else (OK, "")
    if not isinstance(error, no_result):
        return FAILED, "".join(traceback.format_exception_only(error)).strip()
    return (KNOWN if op.hard_case else FAILED), f"no result: {type(error).__name__}: {error}"


@dataclass
class Tally:
    attempted: int = 0
    ok: int = 0
    known: int = 0
    failed: int = 0

    @property
    def failed_share(self) -> float:
        """Operations without a correct result over operations attempted."""
        return (self.known + self.failed) / self.attempted

    @property
    def solved_share(self) -> float:
        return self.ok / self.attempted


def tally(outcomes: Iterable[str]) -> Tally:
    t = Tally()
    for outcome in outcomes:
        if outcome not in (OK, KNOWN, FAILED):
            raise ValueError(f"unknown outcome {outcome!r}")
        t.attempted += 1
        setattr(t, outcome, getattr(t, outcome) + 1)
    return t


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span, None at top level
    op: Optional[str]       # operation the span belongs to
    error: Optional[str] = None  # exception class name when the call raised
    info: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread.

    Recording is off unless `op` names the operation in progress, so the
    benchmark's own output checks, which call the same functions, leave no
    spans behind.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op: Optional[str] = None
        self._stack: list[int] = []

    def open(self, name: str) -> Optional[int]:
        if self.op is None:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: Optional[int], error: Optional[str] = None) -> None:
        if idx is None:
            return
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span = self.spans[idx]
        span.end = self.clock()
        span.error = error

    def add(self, counter: str, amount: float) -> None:
        if self.op is not None:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out
