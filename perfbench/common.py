"""Shared plumbing: checkout paths, child processes, statistics, output.

Every workload process is a fresh interpreter started with the
checkout's ``src/`` on ``PYTHONPATH``.  Its peak RSS comes from
``os.wait4`` (a ``resource.struct_rusage`` for exactly that child), so
the figure belongs to the workload process and not to the benchmark.
"""

from __future__ import annotations

import compileall
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for sinks, span dumps and per-run files; removed at exit.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: Exit code for "this checkout has no program to measure".
EXIT_NO_SOURCE = 2


def require_source() -> None:
    """Exit non-zero (without a result line) if ``src/repro`` is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program source at {SRC}/repro; "
            "run from a full checkout\n"
        )
        sys.exit(EXIT_NO_SOURCE)


def add_source_path() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def precompile() -> None:
    """Byte-compile ``src/`` once so every timed set-up reads warm ``.pyc``."""
    compileall.compile_dir(SRC, quiet=1, workers=1)


def make_tmpdir(tag: str) -> str:
    path = os.path.join(TMP_ROOT, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_tmpdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)  # only succeeds once no other run uses it
    except OSError:
        pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def host_steal_s() -> float:
    """CPU time the host took from this machine's cores (0 where unknown).

    Recorded around each run: a run with a large figure was measured
    while the host was busy elsewhere.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_split() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """(the core for the server, the cores for the load generator).

    Pinning the server to a core of its own, and the generator to the
    rest, keeps the scheduler from stacking both on one core for part of
    a run: unpinned, the same serve run read a p50 anywhere from 4 ms to
    12 ms.  ``(None, None)`` below 2 cores.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


class Child:
    """One workload process: spawn time, a line protocol, peak RSS at exit."""

    def __init__(self, argv: Sequence[str], cpus: Optional[Set[int]] = None):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        self.peak_rss_mb: Optional[float] = None

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"workload process {self.proc.args!r} exited before answering"
            )
        return line.rstrip("\n")

    def wait_for(self, prefix: str) -> str:
        """Skip output lines until one starts with ``prefix``."""
        while True:
            line = self.readline()
            if line.startswith(prefix):
                return line

    def interrupt(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)

    def reap(self, timeout: float = 60.0) -> int:
        """Wait for exit (killing on timeout) and record peak RSS."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is KiB on Linux
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.returncode is None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc.returncode is None:
            self.reap(timeout=10.0)


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]); NaN when empty."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = q * (len(data) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values: Iterable[float]) -> float:
    return quantile(values, 0.5)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit_record(record: Dict[str, object]) -> None:
    """Context line (workload, seed, cores, fingerprints, diagnostics)."""
    print(json.dumps({"perfbench": record}, sort_keys=True), flush=True)


def emit_result(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, object]
) -> None:
    """The contract line: always the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )


def log(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.stderr.flush()
