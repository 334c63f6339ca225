"""Fold samples and traces into metrics, and print the readable report."""

from __future__ import annotations

import statistics
import sys

from spec import PER_LAYER, UNITS
from stats import Tally, median, tail_quantile, typed_quantiles


def end_to_end(samples, setup_s: list[float],
               rss_mb: float) -> dict[str, float]:
    """Gated figures of one untraced run, from ``(kind, wall_ms, cpu_ms)``
    samples: the CPU time an operation costs (see ``stats.typed_quantiles``
    for how operation types are weighed), set-up time and memory.

    The p90 needs at least 10 samples beyond it: the gated workloads take
    about a thousand, the ungated ones too few and report none.
    """
    if not samples:
        raise RuntimeError("no operation succeeded")
    p50, p90 = typed_quantiles([(kind, cpu) for kind, _, cpu in samples])
    out = {"setup_s": median(setup_s), "cpu_p50_ms": p50}
    if p90 is not None:
        out["cpu_p90_ms"] = p90
    out["peak_rss_mb"] = rss_mb
    return out


def layer_metrics(trace: dict, base_p50_ms: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A layer's time is the mean over operation types of its median per
    call where the timed path called it, else the mean over programs of one
    direct call on the same inputs.  Counts are totals over the traced
    phase, or per-operation medians (dispatches, claims, lock ops).
    ``trace.unattributed_ms`` is, per operation type, the median latency
    minus the median sum of its layers, averaged over the types.
    """
    per_type = {label: {k: median(v) for k, v in rows.items()}
                for label, rows in trace["per_type"].items() if rows}
    if not per_type:
        raise RuntimeError("the traced phase completed no operation")
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        if name.startswith(("trace.", "caller.")):
            continue
        if name in trace["counts"]:
            values[name] = float(trace["counts"][name])
            continue
        typed = [r[name] for r in per_type.values() if name in r]
        if typed:
            values[name] = statistics.fmean(typed)
            continue
        direct = [r[name] for r in trace["per_program"].values() if name in r]
        if not direct:
            raise RuntimeError(f"layer metric {name} was not measured")
        # Counts over programs add up (failed baseline builds); times are
        # per call.
        values[name] = (sum(direct) if UNITS[name] == "count"
                        else statistics.fmean(direct))
    values["trace.unattributed_ms"] = statistics.fmean(
        r["e2e_ms"] - r["attributed_ms"] for r in per_type.values())
    p50 = median(trace["e2e"])
    values["trace.overhead_pct"] = 100.0 * (p50 - base_p50_ms) / base_p50_ms
    return values


def as_result(metrics: dict[str, float], correct: bool, tally: Tally) -> dict:
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.3f}"


def describe(samples, split) -> list[str]:
    """Wall p50 and, where the quantile rule allows, p90, per group of
    ``(op, wall_ms, cpu_ms)`` samples; ``split(op, ms)`` yields the
    ``(group, ms)`` pairs an operation adds."""
    groups: dict[str, list[float]] = {}
    for op, ms, _ in samples:
        for key, value in split(op, ms):
            groups.setdefault(key, []).append(value)
    out = ["wall-clock latency:"]
    for key in sorted(groups):
        lat = groups[key]
        out.append(f"  {key:<34} n={len(lat):<5} p50={_fmt(median(lat))} ms "
                   f"p90={_fmt(tail_quantile(lat, 0.9))} ms")
    return out


def describe_cpu(samples) -> list[str]:
    """CPU time p50 per operation type of ``(kind, wall_ms, cpu_ms)``."""
    kinds: dict[str, list[float]] = {}
    for kind, _, cpu_ms in samples:
        kinds.setdefault(kind, []).append(cpu_ms)
    out = ["CPU time per operation:"]
    for kind in sorted(kinds):
        out.append(f"  {kind:<34} n={len(kinds[kind]):<5} "
                   f"p50={_fmt(median(kinds[kind]))} ms")
    return out


def emit(lines: list[str]) -> None:
    print("\n".join(lines), file=sys.stderr, flush=True)


def metric_lines(metrics: dict[str, float]) -> list[str]:
    return [f"  {name:<30} {value:14.4f} {UNITS[name]}"
            for name, value in metrics.items()]
