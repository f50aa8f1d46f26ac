"""Process hygiene: a watchdog for overrunning runs and a residue check.

A run must leave nothing behind: no child process, no extra thread, no
socket and no new ``/dev/shm`` segment.  :func:`snapshot` records what the
process holds before a run and :func:`residue` lists what is left over
afterwards.  :func:`stop_resource_tracker` ends the ``multiprocessing``
resource-tracker child, which otherwise lives until the interpreter
exits.
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time

SHM_DIR = "/dev/shm"


class RunTimeout(BaseException):
    """Raised in the main thread when a run overruns its time limit.

    A ``BaseException``, so that the per-operation ``except Exception``
    that records a failed operation cannot swallow it: it unwinds every
    ``with`` block up to the run's entry point.
    """


def _children() -> set[int]:
    pids: set[int] = set()
    task_dir = f"/proc/{os.getpid()}/task"
    for task in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{task}/children") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            continue  # the thread ended while we looked
    return pids


def _sockets() -> set[str]:
    found = set()
    fd_dir = f"/proc/{os.getpid()}/fd"
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(f"{fd_dir}/{fd}")
        except OSError:
            continue
        if target.startswith("socket:"):
            found.add(target)
    return found


def _shm() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def snapshot() -> dict:
    return {"threads": set(threading.enumerate()), "sockets": _sockets(),
            "shm": _shm(), "children": _children()}


def residue(before: dict, ports=(), grace: float = 5.0) -> list[str]:
    """What this process holds now that it did not hold in ``before``.

    Threads and child processes get ``grace`` seconds to finish.
    ``ports`` are local ports a server listened on; each must refuse a
    connection.
    """
    deadline = time.monotonic() + grace
    while True:
        threads = [thread for thread in threading.enumerate()
                   if thread not in before["threads"] and thread.is_alive()]
        children = _children() - before["children"]
        if not (threads or children) or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    problems = [f"thread left running: {thread.name} "
                f"(daemon={thread.daemon})" for thread in threads]
    problems += [f"child process left running: pid {pid}"
                 for pid in sorted(children)]
    problems += [f"socket left open: {name}"
                 for name in sorted(_sockets() - before["sockets"])]
    problems += [f"shared-memory segment left: {SHM_DIR}/{name}"
                 for name in sorted(_shm() - before["shm"])]
    for port in ports:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            if probe.connect_ex(("127.0.0.1", port)) == 0:
                problems.append(f"port {port} still listening")
        finally:
            probe.close()
    return problems


def stop_resource_tracker() -> None:
    """End (and reap) the ``multiprocessing`` resource-tracker child.

    The shared-memory data plane registers its segments with the tracker,
    which starts it as a child of this process; it only exits on its own
    when the interpreter does.  Stopping it here lets the residue check
    demand zero children.
    """
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


class Watchdog:
    """Aborts a run that overruns ``soft`` seconds, kills it at ``hard``.

    At ``soft`` it dumps every thread's stack to stderr and a SIGALRM
    raises :class:`RunTimeout` in the main thread, so every ``with`` block
    unwinds and closes its session, server and pool.  If the run is still
    alive at ``hard`` (a teardown that hangs on a wedged pool), a timer
    thread calls ``on_kill``, kills the pool workers, lets the resource
    tracker unlink the pool's shared-memory segments, kills any other
    child and exits with code 3.
    """

    def __init__(self, soft: float, hard: float, on_kill=None):
        self.soft = soft
        self.hard = hard
        self.on_kill = on_kill
        self._previous = None
        self._timer: threading.Timer | None = None

    def _alarm(self, signum, frame):
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        raise RunTimeout(f"run exceeded its {self.soft:.0f} s limit")

    def _kill(self):
        if self.on_kill is not None:
            self.on_kill()
        for child in multiprocessing.active_children():
            child.kill()
            child.join(timeout=5.0)
        # The tracker unlinks every shared-memory segment still registered
        # (the wedged pool never closed its own) before it exits.
        stop_resource_tracker()
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (OSError, ChildProcessError):
                pass
        os._exit(3)

    def __enter__(self) -> "Watchdog":
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, self.soft)
        self._timer = threading.Timer(self.hard, self._kill)
        self._timer.daemon = True
        self._timer.start()
        return self

    def disarm_soft(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __exit__(self, *exc) -> None:
        self.disarm_soft()
        signal.signal(signal.SIGALRM, self._previous)
        self._timer.cancel()
        self._timer.join()
