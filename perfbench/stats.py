"""Small statistics the benchmark reports with: quantiles, self time, tallies.

Kept free of numpy and of the ``repro`` package so the unit tests run on
their own and the rules here stay easy to read.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the "p90" would be set by one or two outliers.
MIN_BEYOND = 10


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def tail_quantile(samples: list[float], q: float) -> float | None:
    """Nearest-rank ``q`` quantile, or None when too few samples lie beyond.

    With ``n`` samples the nearest-rank index is ``ceil(q * n)``; the samples
    ranked above it are the ones "beyond" the quantile.  p90 therefore needs
    100 samples, p99 needs 1000.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def typed_quantiles(samples: list[tuple[str, float]]) -> tuple[float,
                                                               float | None]:
    """``(p50, p90)`` of a mix of operation types, each type weighed alike.

    ``samples`` are ``(type, value)`` pairs.  The p50 is the geometric mean
    over types of each type's median, so it does not jump between the
    types' modes when the mix shifts by an operation or two.  The p90 is
    that p50 times the pooled 90th percentile of every value over its
    type's median (None under the rule of :func:`tail_quantile`).
    """
    by_type: dict[str, list[float]] = {}
    for kind, value in samples:
        by_type.setdefault(kind, []).append(value)
    if not by_type:
        raise ValueError("quantiles of no samples")
    medians = {kind: median(v) for kind, v in by_type.items()}
    p50 = math.exp(statistics.fmean(math.log(m) for m in medians.values()))
    ratio = tail_quantile([v / medians[k] for k, v in samples], 0.9)
    return p50, None if ratio is None else p50 * ratio


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` spans."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass(frozen=True)
class Span:
    """One timed call: ``name`` covered ``[start, end)``; ``parent`` is the
    span it ran under (None at the top)."""

    name: str
    start: float
    end: float
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval its children cover (children clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = s.duration - union_length(children.get(i, []))
        out[s.name] = out.get(s.name, 0.0) + own
    return out


@dataclass
class Tally:
    """Operations attempted against operations failed, with reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1
