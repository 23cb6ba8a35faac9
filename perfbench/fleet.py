"""Child-process supervision for the benchmark's validator and site fleets.

Every child binds an ephemeral loopback port and announces it with one
``LISTENING host port`` line; it exits when its stdin is closed.  A fleet
is always stopped in a ``finally``: stdin closed, a bounded wait, then
SIGKILL, then a reap, so no child outlives the benchmark on any exit path.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


class FleetError(RuntimeError):
    pass


class Watchdog:
    """Last-resort deadline: kill and reap every child, then exit non-zero."""

    def __init__(self, timeout_s: float):
        self.live: List[subprocess.Popen] = []
        self._timer = threading.Timer(timeout_s, self._expire)
        self._timer.daemon = True
        self._timer.start()

    def _expire(self) -> None:
        print(f"perfbench: run exceeded its deadline; killing {len(self.live)} children",
              file=sys.stderr, flush=True)
        for proc in list(self.live):
            proc.kill()
            proc.wait()
        os._exit(3)

    def cancel(self) -> None:
        self._timer.cancel()


class Fleet:
    """A set of launcher processes (validators or sites) of one workload."""

    def __init__(self, src_dir: str, out_dir: str, watchdog: Watchdog):
        self.watchdog = watchdog
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src_dir, HERE] + [p for p in [os.environ.get("PYTHONPATH", "")] if p]
        )
        self.out_dir = out_dir
        self.procs: Dict[str, subprocess.Popen] = {}
        self.addrs: Dict[str, Tuple[str, int]] = {}
        self.trace_files: List[str] = []

    def spawn(self, script: str, name: str, args: List[str], trace: bool) -> None:
        cmd = [sys.executable, os.path.join(HERE, script)] + args
        if trace:
            path = os.path.join(self.out_dir, f"spans-{name}.jsonl")
            self.trace_files.append(path)
            cmd += ["--trace", path]
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self.env,
            text=True,
        )
        self.procs[name] = proc
        self.watchdog.live.append(proc)

    def wait_listening(self, timeout_s: float) -> Dict[str, Tuple[str, int]]:
        """Collect every child's ``LISTENING`` line (fails on death/timeout)."""
        for name, proc in self.procs.items():
            line = _readline(proc, timeout_s)
            if not line.startswith("LISTENING"):
                raise FleetError(f"{name} failed to boot: {line!r}")
            _, host, port = line.split()
            self.addrs[name] = (host, int(port))
        return self.addrs

    def tell(self, name: str, line: str) -> None:
        proc = self.procs[name]
        proc.stdin.write(line + "\n")
        proc.stdin.flush()

    def peak_rss_mb(self) -> float:
        """Largest VmHWM (peak resident set) among live children, in MB."""
        peak = 0
        for proc in self.procs.values():
            try:
                with open(f"/proc/{proc.pid}/status", encoding="ascii") as status:
                    for row in status:
                        if row.startswith("VmHWM:"):
                            peak = max(peak, int(row.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def stop(self, timeout_s: float = 15.0) -> List[str]:
        """Stop every child; returns the names of those that had to be killed."""
        for proc in self.procs.values():
            try:
                proc.stdin.close()
            except OSError:
                pass
        deadline = time.monotonic() + timeout_s
        killed = []
        for name, proc in self.procs.items():
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                killed.append(name)
            if proc.stdout:
                proc.stdout.close()
            self.watchdog.live.remove(proc)
        self.procs = {}
        return killed


def _readline(proc: subprocess.Popen, timeout_s: float) -> str:
    box: List[Optional[str]] = [None]

    def read() -> None:
        box[0] = proc.stdout.readline()

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout_s)
    if reader.is_alive():
        raise FleetError(f"pid {proc.pid} printed nothing in {timeout_s:.0f}s")
    return (box[0] or "").strip()
