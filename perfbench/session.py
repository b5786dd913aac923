"""Ray session lifecycle and process memory sampling for the benchmark.

The benchmark owns its Ray session (the library never calls ``ray.init``).
Everything the session writes lives under the checkout, and stopping the
session waits until every process it started has exited.
"""
from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time

# A Ray socket path is <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/
# plasma_store; AF_UNIX caps it at 107 bytes.
_SOCKET_SUFFIX = 72
_AF_UNIX_MAX = 107


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after its ')'
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], list(kids.get(pid, ()))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, ()))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


class RaySession:
    """One local Ray session whose files stay inside ``state_dir``."""

    def __init__(self, repo_root: str, state_dir: str) -> None:
        self.repo_root = repo_root
        self.temp_dir = os.path.join(state_dir, "ray")
        if len(self.temp_dir) + _SOCKET_SUFFIX > _AF_UNIX_MAX:
            # the checkout path is too long for Ray's sockets: fall back to
            # a short private directory, removed again by stop()
            self.temp_dir = None
        self._made_temp = None

    def start(self, num_cpus: int) -> None:
        """Start the session with ``num_cpus`` logical CPUs."""
        import ray

        env = os.environ
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        # workers import the package and the benchmark's own wrappers
        path = env.get("PYTHONPATH", "")
        if self.repo_root not in path.split(os.pathsep):
            env["PYTHONPATH"] = os.pathsep.join(p for p in (self.repo_root, path) if p)
        temp_dir = self.temp_dir
        if temp_dir is None:
            temp_dir = self._made_temp = tempfile.mkdtemp(prefix="pb")
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            log_to_driver=False,
            object_store_memory=400 * 1024 * 1024,
            _temp_dir=temp_dir,
        )
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False

    def stop(self, timeout: float = 30.0) -> None:
        """Shut Ray down and wait for every process it started to exit."""
        import ray

        if ray.is_initialized():
            pids = descendants(os.getpid())
            ray.shutdown()
            deadline = time.monotonic() + timeout
            while any(_alive(p) for p in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            for p in pids:
                if _alive(p):
                    try:
                        os.kill(p, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            while any(_alive(p) for p in pids):
                time.sleep(0.05)
        # session logs are not kept between runs
        for d in (self.temp_dir, self._made_temp):
            if d:
                shutil.rmtree(d, ignore_errors=True)
        self._made_temp = None


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# Seconds between memory samples, and between rescans for new worker pids.
SAMPLE_INTERVAL = 0.1
RESCAN_INTERVAL = 1.0


class PeakMemory:
    """Sample the memory of this process and the Ray workers during a job.

    Counted: this process and every ``ray::`` worker (task workers, actors,
    Ray Data's own actors) with their children.  Ray's daemons (GCS,
    raylet, agents) are left out.  Memory is the proportional set size, so
    object-store pages shared by several processes count once.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _pids(self) -> list[int]:
        kids = _children_map()
        me = os.getpid()
        out, todo = [me], list(kids.get(me, ()))
        while todo:
            p = todo.pop()
            if _cmdline(p).startswith("ray::"):
                sub = [p]
                while sub:
                    q = sub.pop()
                    out.append(q)
                    sub.extend(kids.get(q, ()))
            else:
                todo.extend(kids.get(p, ()))
        return out

    def _run(self) -> None:
        pids, scanned = self._pids(), time.monotonic()
        while True:
            self.peak_kb = max(self.peak_kb, sum(_pss_kb(p) for p in pids))
            if self._stop.wait(SAMPLE_INTERVAL):
                return
            if time.monotonic() - scanned >= RESCAN_INTERVAL:
                pids, scanned = self._pids(), time.monotonic()

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024
