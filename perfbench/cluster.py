"""A ``python -m repro cluster`` subprocess, and the process/shm checks.

The cluster runs in its own session, so teardown can signal the router,
its replica and every worker the replica forked as one process group, and
the leak check can ask the kernel whether anything in that group is left.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.parallel.shm import SEGMENT_PREFIX
from repro.service.client import ServiceClient

#: Seconds allowed for the router to print its port, and for a graceful stop.
START_DEADLINE_S = 60.0
STOP_DEADLINE_S = 15.0
#: Per-request client timeout: every call the benchmark makes is bounded.
REQUEST_TIMEOUT_S = 30.0

_PORT_LINE = re.compile(r"router on http://[\d.]+:(\d+)")


class SetupError(RuntimeError):
    """The system under test could not be brought up or failed a check."""


class Cluster:
    """One router plus one replica, with fresh artifact stores.

    ``cache_dir`` is the ``--cache-dir`` store (compile results, the
    ``/compile`` kernel prewarm, what ``/metrics`` reports).  The run path
    resolves kernels from the process-default store instead, so the
    cluster also gets its own empty ``REPRO_CACHE_DIR``, ``run_store``, as
    a deployment with a separate default store would; both are counted.
    """

    def __init__(self, cache_dir: Path, env: dict) -> None:
        self.cache_dir = cache_dir
        self.run_store = cache_dir.with_name(cache_dir.name + "-run")
        self.env = {**env, "REPRO_CACHE_DIR": str(self.run_store)}
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None
        self.replica_client: ServiceClient | None = None
        self.replica_pid = 0
        self._stderr: list[str] = []

    def start(self) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=False)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "cluster", "--replicas", "1",
             "--port", "0", "--cache-dir", str(self.cache_dir)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=self.env,
            start_new_session=True,
        )
        lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._drain, args=(lines,), daemon=True).start()
        deadline = time.monotonic() + START_DEADLINE_S
        port = None
        while port is None:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise SetupError("cluster did not start: "
                                 + " | ".join(self._stderr[-5:]))
            try:
                line = lines.get(timeout=min(left, 0.5))
            except queue.Empty:
                continue
            match = _PORT_LINE.search(line)
            if match:
                port = int(match.group(1))
        self.client = ServiceClient(port=port, timeout=REQUEST_TIMEOUT_S)
        replica = self.client.metrics()["cluster"]["per_replica"][0]
        self.replica_pid = int(replica["pid"])
        self.replica_client = ServiceClient(
            port=int(replica["port"]), timeout=REQUEST_TIMEOUT_S
        )

    def _drain(self, lines: queue.Queue) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line.rstrip())
            del self._stderr[:-20]
            lines.put(line)

    def _terminate(self) -> None:
        for c in (self.client, self.replica_client):
            if c is not None:
                c.close()
        if self.proc is not None:
            _signal_group(self.proc.pid, signal.SIGTERM)

    def _reap(self) -> None:
        """Wait for a graceful exit, then SIGKILL whatever is left."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        deadline = time.monotonic() + STOP_DEADLINE_S
        try:
            self.proc.wait(timeout=STOP_DEADLINE_S)
        except subprocess.TimeoutExpired:
            pass
        while group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        _signal_group(pgid, signal.SIGKILL)
        try:
            self.proc.wait(timeout=STOP_DEADLINE_S)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable
            pass
        self.proc = None

    def replica_children(self) -> set[int]:
        return child_pids(self.replica_pid)

    def replica_peak_rss_mb(self) -> float:
        return peak_rss_mb(self.replica_pid)

    def replica_metrics(self) -> dict:
        return self.replica_client.metrics()

    def c_builds(self) -> int:
        return (count_c_builds(self.cache_dir)
                + count_c_builds(self.run_store))

    def store_bytes(self) -> int:
        return store_bytes(self.cache_dir) + store_bytes(self.run_store)


def count_c_builds(cache_dir: Path) -> int:
    """C libraries in a store: one per gcc build (entries of kind ``clib``
    or ``chunk_clib``), counted from the directory."""
    n = 0
    for meta in (cache_dir / "objects").glob("*/meta.json"):
        try:
            text = meta.read_text()
        except OSError:
            continue
        if '"kind": "chunk_clib"' in text or '"kind": "clib"' in text:
            n += 1
    return n


def stop_all(clusters: list[Cluster]) -> None:
    """SIGTERM every cluster's process group at once, then reap each."""
    for c in clusters:
        c._terminate()
    for c in clusters:
        c._reap()


def store_bytes(cache_dir: Path) -> int:
    """Bytes held in a store's published entries."""
    return sum(f.stat().st_size
               for f in (cache_dir / "objects").glob("*/*") if f.is_file())


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def group_alive(pgid: int) -> bool:
    """Whether any process of the group still exists (zombies included
    until reaped)."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - not ours any more
        return False
    return True


def child_pids(pid: int) -> set[int]:
    """Direct children of ``pid``, from ``/proc/<pid>/task/*/children``."""
    out: set[int] = set()
    for f in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            out.update(int(x) for x in f.read_text().split())
        except (OSError, ValueError):
            continue
    return out


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for pid {pid}")


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm")
                if n.startswith(SEGMENT_PREFIX)}
    except FileNotFoundError:  # pragma: no cover - no /dev/shm
        return set()
