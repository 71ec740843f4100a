"""``repro server`` subprocesses: start, wait for ready, measure, reap.

Every server the benchmark starts is registered in a :class:`Fleet`,
whose ``close`` terminates and waits for each one; ``run.py`` closes the
fleet in a ``finally`` and on SIGTERM, so no ``repro server`` outlives a
run, including a failed one.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional

from stats import vm_hwm_mb

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: How long a server may take to print its ready banner.
READY_TIMEOUT_S = 60.0

_URL = re.compile(r"repro://(\S+?);")


class Server:
    """One running ``repro server`` process."""

    def __init__(self, dataset: str, workers: int, traced: bool) -> None:
        args = ["server", "--dataset", dataset, "--port", "0",
                "--workers", str(workers), "--log-level", "warning"]
        if traced:
            # The launcher installs the benchmark's spans in the server
            # process when it receives SIGUSR1.
            command = [sys.executable, str(HERE / "traced_server.py")] + args
        else:
            command = [sys.executable, "-m", "repro.cli"] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            command, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.address: Optional[str] = None
        self.peak_rss_mb = 0.0

    def wait_ready(self, deadline: float) -> str:
        """Block until the banner names the bound address; return it."""
        result: List[str] = []

        def read() -> None:
            for line in self.process.stdout:
                match = _URL.search(line)
                if match:
                    result.append(match.group(1))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(max(0.0, deadline - time.monotonic()))
        if not result:
            raise RuntimeError(
                f"server {self.process.pid} printed no ready banner "
                f"(exit code {self.process.poll()})")
        self.address = result[0]
        return self.address

    @property
    def url(self) -> str:
        return f"repro://{self.address}"

    def start_tracing(self) -> None:
        self.process.send_signal(signal.SIGUSR1)

    def sample_rss(self) -> float:
        if self.process.poll() is None:
            try:
                self.peak_rss_mb = max(self.peak_rss_mb,
                                       vm_hwm_mb(self.process.pid))
            except (OSError, RuntimeError):
                pass
        return self.peak_rss_mb

    def stop(self) -> None:
        if self.process.poll() is None:
            self.sample_rss()
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def kill(self) -> None:
        """Stop hard, for a watchdog: in-flight requests then fail fast."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)


class Fleet:
    """Every server one run started; ``close`` reaps them all.

    ``on_start(pid, index)`` is called for each server process started,
    with its index among the servers started together (the run hands its
    processes to :class:`affinity.Rotator`, one slot per index).
    """

    def __init__(self, on_start: Callable[[int, int], None]
                 = lambda pid, index: None) -> None:
        self.servers: List[Server] = []
        self._lock = threading.Lock()
        self._on_start = on_start

    def start(self, dataset: str, count: int, workers: int,
              traced: bool) -> List[Server]:
        """Start ``count`` servers at once and wait for all to be ready."""
        started = []
        for index in range(count):
            server = Server(dataset, workers, traced)
            with self._lock:
                self.servers.append(server)
            self._on_start(server.process.pid, index)
            started.append(server)
        deadline = time.monotonic() + READY_TIMEOUT_S
        for server in started:
            server.wait_ready(deadline)
        return started

    def stop(self, servers: List[Server]) -> None:
        for server in servers:
            server.stop()

    def kill_all(self) -> None:
        with self._lock:
            servers = list(self.servers)
        for server in servers:
            server.kill()

    def close(self) -> None:
        with self._lock:
            servers = list(self.servers)
        for server in servers:
            server.stop()
