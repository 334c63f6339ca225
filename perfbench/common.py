"""Run context, the closed measurement loop, and the host stamp."""

from __future__ import annotations

import http.client
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.parallel.errors import ParallelError
from repro.service.client import ServiceError
from stats import Tally

#: Exceptions that fail one operation (counted) rather than the run.
OP_ERRORS = (
    ServiceError, TimeoutError, OSError, http.client.HTTPException,
    ParallelError, ValueError, KeyError,
)

#: Worker processes per pool, everywhere: the host has two cores.
WORKERS = 2


@dataclass
class Context:
    """What one benchmark run knows about its checkout and its inputs."""

    work: Path  # this run's private scratch directory inside the checkout
    seed: int
    env: dict  # environment for the cluster subprocess

    def fresh_dir(self, name: str) -> Path:
        n = 0
        while (self.work / f"{name}{n}").exists():
            n += 1
        return self.work / f"{name}{n}"


class CpuMeter:
    """CPU time used by this process and by every process of one session
    (the cluster's), in seconds, to the nanosecond.

    CPU time is what an operation costs the host, and unlike wall time it
    does not grow while the hypervisor runs other guests on our CPUs (the
    kernel leaves stolen time out of it).  Each read scans the session
    anew, so processes started during an operation count from zero; those
    that ended count through their parent's reaped-children time.
    """

    def __init__(self, session: int | None = None) -> None:
        self.session = session

    @staticmethod
    def own() -> float:
        """This process and its reaped children."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + children.ru_utime + children.ru_stime

    def others(self) -> float:
        """The session's processes (none without a session)."""
        total = 0.0
        if self.session is None:
            return total
        for entry in os.scandir("/proc"):
            if not entry.name.isdigit():
                continue
            try:
                with open(f"/proc/{entry.name}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
                if int(fields[3]) != self.session:
                    continue
                # The process's own CPU clock, and its reaped children's
                # time (fields cutime and cstime, in clock ticks).
                total += time.clock_gettime(_cpu_clock(int(entry.name)))
                total += (int(fields[13]) + int(fields[14])) / _CLK_TCK
            except (OSError, ValueError, IndexError):
                continue  # it ended while being read
        return total


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _cpu_clock(pid: int) -> int:
    """The clock id of process ``pid``'s CPU-time clock, as the C library's
    ``clock_getcpuclockid`` makes it: ``(~pid << 3) | CPUCLOCK_SCHED``."""
    return (~pid << 3) | 2


def closed_loop(deadline: float, order, call, check, tally: Tally,
                cpu: CpuMeter):
    """One caller, one operation at a time, until ``deadline``.

    ``call(op)`` performs the operation (the only part measured); ``check(op,
    out)`` returns None or a failure reason.  Returns ``(op, wall_ms,
    cpu_ms)`` for every operation that succeeded, where ``cpu_ms`` is what
    ``cpu`` counted during the call.
    """
    samples: list[tuple[object, float, float]] = []
    for op in order:
        if time.monotonic() >= deadline:
            break
        # This process's clock is read next to the call, so the cost of
        # scanning the session stays outside the interval.
        others0 = cpu.others()
        own0 = cpu.own()
        t0 = time.perf_counter()
        try:
            out = call(op)
        except OP_ERRORS as exc:
            tally.fail(f"{type(exc).__name__}: {str(exc)[:120]}")
            continue
        dt = time.perf_counter() - t0
        used = cpu.own() - own0
        used += cpu.others() - others0
        reason = check(op, out)
        if reason is None:
            tally.ok()
            samples.append((op, dt * 1e3, used * 1e3))
        else:
            tally.fail(reason)
    return samples


def _version(cmd: list[str]) -> str | None:
    if shutil.which(cmd[0]) is None:
        return None
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.splitlines()
    return lines[0].strip() if lines else None


def host_stamp(seed: int) -> dict:
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "gcc": _version(["gcc", "--version"]),
        "clang": _version(["clang", "--version"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        # The benchmark has no reduced mode: every run is a full run.
        "smoke": False,
        "seed": seed,
    }


def cpu_ticks() -> list[int]:
    """The host's cumulative CPU ticks (user, nice, system, idle, iowait,
    irq, softirq, steal, ...) from ``/proc/stat``."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between.
    Slow runs on a shared host come with high steal; the report records
    it so such runs can be told apart from slow code."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return 100.0 * delta[7] / total if total else 0.0
