"""Process and host counters read from ``/proc`` at job boundaries.

The benchmark host may have a single core, so nothing here samples in a
background thread: every counter is cumulative and the caller takes a
:class:`Snapshot` before and after each job and subtracts.

Ray Data starts and tears down worker processes inside a job (actor
pools end with their execution) and the raylet reaps them without
adding their CPU to its own ``cutime``, so the CPU of a worker that
exits between two snapshots is gone from every per-process file.  It
is still in the machine-wide ``/proc/stat`` counters.  Worker CPU is
therefore derived: the machine's busy time (user + nice + system) minus
the driver and every other live process that is not a Ray worker.  This
assumes the benchmark owns the machine (a VM or container with its own
``/proc/stat``); the per-job record keeps the CPU of those other
processes and the steal share so that a busy host shows.
"""

from __future__ import annotations

import glob
import os
import re
import signal
import time
from dataclasses import dataclass

CLK_TCK = os.sysconf("SC_CLK_TCK")
_WORKER_LOG = re.compile(r"python-core-worker-[0-9a-f]+_(\d+)\.log$")


def _read(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return f.read().decode("utf-8", "replace")
    except OSError:     # the process exited between listing and reading
        return None


def _stat_fields(pid: int) -> list[str] | None:
    """Fields 3.. of /proc/<pid>/stat (the comm field may hold spaces)."""
    s = _read(f"/proc/{pid}/stat")
    if s is None:
        return None
    return s[s.rindex(")") + 2:].split()


def _cpu_s(fields: list[str]) -> float:
    return (int(fields[11]) + int(fields[12])) / CLK_TCK       # utime+stime


def _rchar(pid: int) -> int:
    s = _read(f"/proc/{pid}/io")
    if s is None:
        return 0
    for line in s.splitlines():
        if line.startswith("rchar:"):
            return int(line.split()[1])
    return 0


def _vm_hwm_kb(pid: int) -> int:
    s = _read(f"/proc/{pid}/status")
    if s is None:
        return 0
    for line in s.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _reset_hwm(pid: int) -> None:
    """Set the process's VmHWM back to its current RSS (Linux >= 4.0)."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
    except OSError:     # the process exited
        pass


def _all_stats() -> dict[int, list[str]]:
    """pid -> stat fields for every visible process."""
    fields: dict[int, list[str]] = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            f = _stat_fields(int(d))
            if f is not None:
                fields[int(d)] = f
    return fields


def _descendants(root: int, fields: dict[int, list[str]]
                 ) -> dict[int, list[str]]:
    """pid -> stat fields for every live descendant of ``root``."""
    children: dict[int, list[int]] = {}
    for pid, f in fields.items():
        children.setdefault(int(f[1]), []).append(pid)
    out: dict[int, list[str]] = {}
    stack = [root]
    while stack:
        for c in children.get(stack.pop(), []):
            out[c] = fields[c]
            stack.append(c)
    return out


def _is_worker(pid: int) -> bool:
    """A Ray worker: retitled ``ray::...``, or still starting."""
    cmd = _read(f"/proc/{pid}/cmdline") or ""
    return cmd.startswith("ray::") or "default_worker.py" in cmd


def host_cpu() -> tuple[float, int, int]:
    """(busy seconds, steal jiffies, total jiffies) from the aggregate
    line of /proc/stat.  Busy is user + nice + system: the time that
    processes' own utime/stime account for (guest time is inside user;
    interrupt time is charged to no process)."""
    line = (_read("/proc/stat") or "cpu 0").splitlines()[0].split()[1:]
    vals = [int(v) for v in line] + [0] * 8
    return sum(vals[:3]) / CLK_TCK, vals[7], sum(vals[:8])


def load1() -> float:
    return float((_read("/proc/loadavg") or "0").split()[0])


@dataclass
class Snapshot:
    driver_cpu_s: float
    worker_cpu_s: float
    other_cpu_s: float
    rchar: dict[tuple[int, str], int]   # (pid, start time) -> bytes read
    hwm_mb: float
    workers_started: int
    steal: int
    ticks: int


class ProcCounters:
    """Cumulative counters for one driver process and its Ray workers."""

    def __init__(self, ray_log_glob: str | None = None):
        self.pid = os.getpid()
        self.ray_log_glob = ray_log_glob
        self.seen_workers: set[int] = set()
        self.all_pids: dict[int, str] = {}     # pid -> start time

    def _workers(self, stats: dict[int, list[str]]) -> list[int]:
        desc = _descendants(self.pid, stats)
        self.all_pids.update({p: f[19] for p, f in desc.items()})
        return [p for p in desc if _is_worker(p)]

    def reset_peaks(self) -> None:
        """Restart the VmHWM of the driver and the live workers, so the
        next snapshot's ``hwm_mb`` is the peak since this call."""
        for p in [self.pid, *self._workers(_all_stats())]:
            _reset_hwm(p)

    def snapshot(self) -> Snapshot:
        busy, steal, ticks = host_cpu()
        stats = _all_stats()
        workers = self._workers(stats)
        driver_cpu = _cpu_s(stats[self.pid])
        other_cpu = sum(_cpu_s(f) for p, f in stats.items()
                        if p != self.pid and p not in workers)
        self.seen_workers.update(workers)
        if self.ray_log_glob:
            for path in glob.glob(self.ray_log_glob):
                m = _WORKER_LOG.search(path)
                if m:
                    self.seen_workers.add(int(m.group(1)))
        return Snapshot(
            driver_cpu_s=driver_cpu,
            worker_cpu_s=busy - driver_cpu - other_cpu,
            other_cpu_s=other_cpu,
            rchar={(p, stats[p][19]): _rchar(p)
                   for p in [self.pid, *workers]},
            hwm_mb=(_vm_hwm_kb(self.pid)
                    + sum(_vm_hwm_kb(p) for p in workers)) / 1024.0,
            workers_started=len(self.seen_workers),
            steal=steal, ticks=ticks)


def job_delta(a: Snapshot, b: Snapshot) -> dict:
    """Per-job counters between two snapshots, plus the host-noise record."""
    ticks = max(1, b.ticks - a.ticks)
    return {
        "driver_cpu_s": round(b.driver_cpu_s - a.driver_cpu_s, 3),
        "worker_cpu_s": round(b.worker_cpu_s - a.worker_cpu_s, 3),
        "other_cpu_s": round(b.other_cpu_s - a.other_cpu_s, 3),
        # per process, so a worker that exited does not subtract its
        # reads; what it read after the first snapshot is lost
        "rchar": sum(v - a.rchar.get(k, 0) for k, v in b.rchar.items()),
        "worker_starts": b.workers_started - a.workers_started,
        "steal_pct": round(100.0 * (b.steal - a.steal) / ticks, 3),
        "load1": load1(),
    }


def wait_gone(pids: dict[int, str], timeout_s: float = 15.0) -> list[int]:
    """Wait for the processes ``pids`` (pid -> start time) to exit and
    SIGKILL what is left; returns the pids that had to be killed.  The
    start time guards against signalling a recycled pid."""
    def alive(p: int) -> bool:
        f = _stat_fields(p)
        return f is not None and f[0] != "Z" and f[19] == pids[p]

    deadline = time.monotonic() + timeout_s
    left = {p for p in pids if alive(p)}
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = {p for p in left if alive(p)}
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    return sorted(left)
