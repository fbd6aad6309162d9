"""Run harness: Ray session, per-run directories, watchdog, memory peak.

Everything a run starts is owned by :class:`Run`: its directory (removed
at exit), its Ray session (shut down on every exit path), the watchdog
timers and the memory sampler thread.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import threading
import time
import uuid
from contextlib import contextmanager

#: checkout root (the directory holding ``tilers_tools_ray``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: per-run scratch directories live here; each run removes its own
RUNS_DIR = os.path.join(ROOT, "perfbench", ".runs")
#: traced runs write their span file here (kept after the run)
TRACE_DIR = os.path.join(ROOT, "perfbench", ".traces")

NUM_CPUS = 4
#: the whole run must end before this many seconds after start
RUN_DEADLINE_S = 170.0
#: Unix socket paths are limited to 107 bytes; Ray puts its plasma
#: socket at "<temp>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store"
#: (57 bytes + the driver's pid), so a longer temp dir falls back to Ray's
#: default
_RAY_SOCKET_BUDGET = 107 - 57


class OpStalled(Exception):
    """An operation outlived its watchdog timeout."""


class Run:
    def __init__(self):
        self.t_start = time.monotonic()
        self.dir = os.path.join(RUNS_DIR, uuid.uuid4().hex[:8])
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self._ray = False
        #: Ray's session dir when it had to go outside the run dir
        self._ray_session = None
        self._mem = _MemSampler()

    # -- Ray session -----------------------------------------------------
    def start_ray(self):
        """Start a 4-CPU local session whose workers can import the
        package from the checkout, whatever the caller's cwd."""
        path = os.environ.get("PYTHONPATH", "")
        os.environ["PYTHONPATH"] = ROOT + (os.pathsep + path if path else "")
        import ray

        kwargs = {}
        temp = os.path.join(self.dir, "ray")
        if len(temp) + len(str(os.getpid())) <= _RAY_SOCKET_BUDGET:
            kwargs["_temp_dir"] = temp
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=768 * 1024 * 1024,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            **kwargs,
        )
        self._ray = True
        if not kwargs:
            self._ray_session = ray._private.worker._global_node.get_session_dir_path()
        import ray.data as rd

        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

        @ray.remote(num_cpus=1)
        def _warm():
            import tilers_tools_ray.pipelines.pyramid  # noqa: F401
            import tilers_tools_ray.relational.queries  # noqa: F401

            return os.getpid()

        ray.get([_warm.remote() for _ in range(NUM_CPUS)])

    def stop_ray(self):
        if self._ray:
            import ray

            ray.shutdown()
            self._ray = False
        if self._ray_session:
            shutil.rmtree(self._ray_session, ignore_errors=True)
            self._ray_session = None

    # -- operations --------------------------------------------------------
    def remaining(self):
        return RUN_DEADLINE_S - (time.monotonic() - self.t_start)

    def op(self, timeout_s):
        """Context manager around one timed operation: counts it as
        attempted, and as failed if it raises or stalls. A stall (no
        return within the timeout or before the run deadline) interrupts
        the main thread and ends the run."""
        return _Op(self, min(timeout_s, max(self.remaining() - 15.0, 1.0)))

    def mem_window(self):
        return self._mem.window()

    @property
    def peak_mem_mb(self):
        return self._mem.peak / 1e6

    # -- exit ----------------------------------------------------------------
    def close(self):
        self._mem.stop()
        try:
            self.stop_ray()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
            try:
                os.rmdir(RUNS_DIR)
            except OSError:
                pass


class _Op:
    def __init__(self, run, timeout_s):
        self.run = run
        self.timeout_s = timeout_s
        self.fired = False
        self._timer = None
        self._hard = None

    def _fire(self):
        # a real SIGINT (not _thread.interrupt_main) also breaks a main
        # thread blocked in a system call
        self.fired = True
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    def __enter__(self):
        self.run.attempted += 1
        self._timer = threading.Timer(self.timeout_s, self._fire)
        self._timer.daemon = True
        self._timer.start()
        # if the main thread cannot be interrupted (blocked in C), stop
        # the whole process tree after a grace period and report
        self._hard = threading.Timer(self.timeout_s + 20.0, _hard_stop, (self.run,))
        self._hard.daemon = True
        self._hard.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._timer.cancel()
        self._hard.cancel()
        if exc_type is None:
            return False
        self.run.failed += 1
        if self.fired or exc_type is KeyboardInterrupt:
            raise OpStalled(f"operation stalled after {self.timeout_s:.0f} s") from exc
        return False


def _hard_stop(run):
    run.failed += 1  # the operation still running
    print(json.dumps(result(False, run.attempted, run.failed, {})), flush=True)
    try:
        run.close()
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# memory: peak summed PSS of this process and every descendant
# ---------------------------------------------------------------------------


def _tree_pids(root_pid):
    """root_pid and every process below it."""
    children = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _pss_bytes(pids):
    """Summed proportional set size: a page shared by k processes (the
    plasma store mapping, shared libraries) counts 1/k in each, so the
    sum counts it once."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            pass
    return total * 1024


class _MemSampler:
    #: reading smaps_rollup walks each process's page tables (~35 ms for
    #: a whole 4-CPU session), so sampling faster would take CPU from the
    #: timed calls
    INTERVAL_S = 1.0

    def __init__(self):
        self.peak = 0
        self._active = 0
        self._lock = threading.Lock()
        self._thread = None
        self._stop = threading.Event()

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _sample(self):
        self.peak = max(self.peak, _pss_bytes(_tree_pids(os.getpid())))

    def _loop(self):
        while not self._stop.wait(self.INTERVAL_S):
            with self._lock:
                if not self._active:
                    continue
            self._sample()

    @contextmanager
    def window(self):
        """Sample while the block runs (and once at each end)."""
        with self._lock:
            self._active += 1
        if self._thread is None:
            self._thread = threading.Thread(target=self._loop, daemon=True)
            self._thread.start()
        self._sample()
        try:
            yield
        finally:
            self._sample()
            with self._lock:
                self._active -= 1


# ---------------------------------------------------------------------------
# result line
# ---------------------------------------------------------------------------


def result(correct, attempted, failed, metrics):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def emit(res):
    """The result is the LAST line of stdout (Ray output goes elsewhere:
    the session runs with ``log_to_driver=False``)."""
    sys.stderr.flush()
    print(json.dumps(res), flush=True)
