"""The repository benchmark: caller-seen latency of the coalescing system.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-spec      # (re)write BENCHMARK.json

Run from the root of a checkout.  With ``--trace 0`` the run measures the
end-to-end metrics with nothing traced; with ``--trace 1`` it measures the
per-layer metrics (see README.md).  The last line of standard output is the
result as one JSON object; the readable report goes to standard error.
Exits 1 without a result when the system cannot be set up, and 2 when the
checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that would overrun this many seconds is stopped and torn down.
WALL_LIMIT_S = 170
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Share of a traced run's seconds measured untraced, for the overhead.
UNTRACED_SHARE = 0.3


class Overrun(BaseException):
    """The wall-clock limit or a termination signal interrupted the run."""


def _interrupt(signum, frame):
    raise Overrun(f"signal {signum}")


def parse(argv):
    sys.path[:0] = [str(HERE)]
    import spec

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[
        n for n, _ in spec.WORKLOADS + spec.UNGATED_WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)
    if not args.write_spec and args.workload is None:
        ap.error("--workload is required")
    return args, spec


def main(argv=None) -> int:
    args, spec = parse(argv)
    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Everything the run and the cluster write stays inside the checkout,
    # and no run reads a cache another run (or ~/.cache/repro) filled.
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ.pop("REPRO_NO_CACHE", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    tempfile.tempdir = None
    sys.path[:0] = [str(ROOT / "src")]
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    signal.alarm(WALL_LIMIT_S)
    try:
        return measure(args, work)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass


def make_workload(name: str, ctx):
    import churn
    import hybrid
    import programs
    import served

    if name == "serve_small":
        return served.ServedWorkload(ctx, programs.small_programs(),
                                     ("json", "wire", "shm"))
    if name == "serve_large":
        return served.ServedWorkload(ctx, programs.large_programs(),
                                     ("wire", "shm"))
    if name == "compile_churn":
        return churn.ChurnWorkload(ctx)
    return hybrid.HybridWorkload(ctx)


def split(op, ms):
    """Report groups: each operation type, plus transport or phase."""
    if hasattr(op, "compile_ms"):
        return [("compile", op.compile_ms), ("first_run", ms - op.compile_ms),
                ("compile+first_run", ms)]
    transport = getattr(op, "transport", None)
    out = [(op.label, ms)]
    if transport:
        out.append((f"all/{transport}", ms))
    return out


def by_kind(samples):
    """``(op, wall_ms, cpu_ms)`` samples keyed by operation type instead."""
    return [(getattr(op, "kind", op.label), ms, cpu)
            for op, ms, cpu in samples]


def measure(args, work: Path) -> int:
    import report
    from cluster import SetupError, child_pids, shm_segments, stop_all
    from common import Context, cpu_ticks, host_stamp, steal_pct
    from stats import Tally, typed_quantiles

    ctx = Context(work, args.seed, dict(os.environ))
    host = host_stamp(args.seed)
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    shm_before = shm_segments()
    wl = make_workload(args.workload, ctx)
    tally = Tally()
    setup_s: list[float] = []
    # Earlier set-ups are stopped only when the run ends, all at once: an
    # idle cluster costs the measurement nothing, a shutdown takes seconds.
    retired = []
    try:
        for rep in range(1 if args.trace else SETUP_REPS):
            retired += wl.retire()
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        ticks = cpu_ticks()
        if args.trace:
            untraced = time.monotonic() + args.seconds * UNTRACED_SHARE
            samples = wl.measure(untraced, tally)
            if not samples:
                raise SetupError("no untraced operation succeeded")
            base_p50 = report.median([ms for _, ms, _ in samples])
            tr = wl.trace(time.monotonic()
                          + args.seconds * (1 - UNTRACED_SHARE), tally)
            metrics = report.layer_metrics(tr, base_p50)
            metrics["caller.wall_p50_ms"], _ = typed_quantiles(
                [(kind, ms) for kind, ms, _ in by_kind(samples)])
        else:
            samples = wl.measure(time.monotonic() + args.seconds, tally)
            metrics = report.end_to_end(by_kind(samples), setup_s,
                                        wl.peak_rss_mb())
        host["steal_pct"] = round(steal_pct(ticks, cpu_ticks()), 2)
    except SetupError as exc:
        report.emit(lines + [f"error: setup failed: {exc}"])
        return 1
    finally:
        # Teardown is bounded by its own deadlines; nothing interrupts it.
        signal.alarm(0)
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, signal.SIG_IGN)
        retired += wl.retire()
        stop_all(retired)
        stop_resource_tracker()
    leaks = leak_report(shm_before, shm_segments(), child_pids(os.getpid()))
    lines.append("setup_s " + " ".join(f"{s:.3f}" for s in setup_s))
    lines += report.describe(samples, split)
    lines += report.describe_cpu(by_kind(samples))
    lines += report.metric_lines(metrics)
    if args.trace:
        share = metrics["trace.unattributed_ms"] / report.median(tr["e2e"])
        lines.append(f"unattributed = {100 * share:+.1f}% of the traced p50 "
                     "(gate: within 10%)")
        lines += baseline_lines(tr)
    lines.append(f"attempted={tally.attempted} failed={tally.failed}")
    lines += [f"  failed x{n}: {r}" for r, n in tally.reasons.most_common(10)]
    lines += leaks
    lines.append("host " + json.dumps(host))
    report.emit(lines)
    result = report.as_result(metrics, tally.failed == 0 and not leaks, tally)
    print(json.dumps({"host": host}))
    print(json.dumps(result), flush=True)
    return 0


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` started to track this
    process's shared-memory segments, and wait for it (it would otherwise
    outlive the run by a moment)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def baseline_lines(tr: dict) -> list[str]:
    """Serial-C reference per program (reported, never gated)."""
    out = ["baseline (single-thread compiled C, no OpenMP):"]
    for label, row in tr["per_program"].items():
        if row.get("baseline.c_failures"):
            out.append(f"  {label:<34} FAILED: the C backend cannot build it")
        elif "baseline.serial_c_ms" in row:
            out.append(f"  {label:<34} {row['baseline.serial_c_ms']:.3f} ms")
    return out


def leak_report(shm_before: set, shm_after: set, children: set) -> list[str]:
    """Segments or processes this run created that outlived it.  Leaked
    segments are unlinked after being reported."""
    out = []
    for name in sorted(shm_after - shm_before):
        out.append(f"leak: shm segment /dev/shm/{name}")
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass
    for pid in sorted(children):
        out.append(f"leak: process {pid} still running")
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Overrun as exc:
        print(f"error: run interrupted ({exc})", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        sys.exit(130)
