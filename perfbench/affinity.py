"""Spread the benchmark's processes evenly over the CPUs it may use.

On a virtual machine whose CPUs run at different speeds — one shares its
physical core with a busy neighbour, and which one changes from minute to
minute — a single-threaded run that stays on one CPU measures that CPU's
speed, not the program's.  :class:`Rotator` moves every thread of each
registered process to the next CPU every ``PERIOD_S``: a process in slot
``s`` runs on CPU ``(s + turn) mod n``.  Every run thus spends equal time
on every CPU; processes that take turns (a closed-loop client and its
server) share a slot, so each request/response is a context switch on one
CPU rather than a wake-up of another; processes that work in parallel
(the shards' servers) get different slots.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict

PERIOD_S = 0.1


class Rotator:
    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.slots: Dict[int, int] = {os.getpid(): 0}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-affinity")

    def start(self) -> "Rotator":
        if len(self.cpus) > 1:
            self._thread.start()
        return self

    def register(self, pid: int, slot: int) -> None:
        with self._lock:
            self.slots[pid] = slot

    def _run(self) -> None:
        turn = 0
        # A jittered period, so nothing periodic in the run can lock onto
        # the rotation and always land on the same CPU.
        jitter = random.Random(0)
        while not self._stop.wait(PERIOD_S * jitter.uniform(0.5, 1.5)):
            live = []
            with self._lock:
                for pid, slot in list(self.slots.items()):
                    try:
                        live.append((slot, os.listdir(f"/proc/{pid}/task")))
                    except OSError:
                        del self.slots[pid]  # the process has exited
            for slot, tasks in live:
                cpu = self.cpus[(slot + turn) % len(self.cpus)]
                for task in tasks:
                    try:
                        os.sched_setaffinity(int(task), {cpu})
                    except OSError:
                        pass  # the thread has exited
            turn += 1

    def stop(self) -> None:
        """Stop rotating and give every live process all its CPUs back."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(5.0)
        with self._lock:
            pids = list(self.slots)
        for pid in pids:
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for task in tasks:
                try:
                    os.sched_setaffinity(int(task), self.cpus)
                except OSError:
                    pass
