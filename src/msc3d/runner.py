"""Run one function over a list of tasks in this process and forked children.

Every ``batch --jobs`` value runs through ``results``: this process runs
its share of the tasks and forked children, none at ``jobs == 1``, run the
rest. Before each fork this process hands its free heap back to the OS
(glibc's ``malloc_trim``; nothing where the C library lacks it), so neither
side pays copy-on-write faults for memory that an earlier call in a
long-lived caller freed. Where this process may use at least as many CPUs
as there are processes, process ``k`` runs on the ``k``-th of them, this
one being process 0, so no two share a CPU: it takes each child's CPU just
before forking it, and a CPU the OS refuses places nothing. The caller gets
its own affinity set back when the generator ends, however it ends.
"""

from __future__ import annotations

import ctypes
import os
import signal
from collections import deque
from collections.abc import Callable, Iterator
from multiprocessing.connection import Connection, Pipe, wait


def _release_free_heap() -> None:
    """Hand this process's free heap pages back to the OS with glibc's
    ``malloc_trim(0)``; a no-op where the C library has no such symbol
    (musl, macOS)."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def _start_child(run: Callable, tasks: list, share: list[int]) -> tuple[int, Connection]:
    """Fork a child that runs ``run(tasks[i])`` for each ``i`` of ``share``,
    in order, and sends each result down its own pipe as soon as it has it.

    Returns the child's pid and the pipe's read end. Nothing is pickled on
    the way in: the child starts with this process's memory, tasks included.
    That memory is trimmed first, so free heap pages are not shared, and
    later reuse of them costs neither side a copy-on-write fault.
    """
    reader, writer = Pipe(duplex=False)
    _release_free_heap()
    try:
        pid = os.fork()
    except OSError:
        reader.close()
        writer.close()
        raise
    if pid == 0:
        try:
            reader.close()
            for i in share:
                writer.send(run(tasks[i]))
        finally:
            os._exit(0)
    writer.close()
    return pid, reader


def results(run: Callable, tasks: list, jobs: int) -> Iterator[tuple[int, object]]:
    """Yield ``(i, run(tasks[i]))`` for every index of ``tasks``, in the
    order the results arrive.

    The process count ``P`` is ``jobs``, or for 0 one per CPU in this
    process's affinity set (the CPU count where the OS keeps none), at most
    one per task and at least one; it is 1 where ``os.fork`` is missing.
    Task ``i`` runs in process ``i % P``. After each of its own tasks this
    process takes whatever results have arrived, so no child waits long on a
    full pipe; then it waits for the rest. A child whose pipe closes before
    it has reported its whole share was killed on its first unreported task:
    that task yields ``(i, None)``, and the rest of the share goes to a
    fresh child. A share that cannot be forked runs in this process, and no
    task is blamed for it. No child outlives the generator.
    """
    held = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    procs = max(1, min(jobs or len(held) or os.cpu_count() or 1, len(tasks))) if hasattr(os, "fork") else 1
    cpus = sorted(held) if hasattr(os, "sched_setaffinity") and 1 < procs <= len(held) else []
    mine = deque(range(0, len(tasks), procs))
    children = {}  # pipe read end -> (pid, indices the child has yet to report)

    def place(i: int | None) -> None:
        """Run this process, and the children it forks from now on, on the
        CPU of the process that runs task ``i``; on ``held`` for None."""
        if cpus:
            try:
                os.sched_setaffinity(0, held if i is None else {cpus[i % procs]})
            except OSError:
                pass

    def start(share: list[int]) -> None:
        # A fresh child after a kill gets the CPU of the one it replaces.
        place(share[0])
        try:
            pid, reader = _start_child(run, tasks, share)
        except OSError:
            mine.extend(share)
        else:
            children[reader] = (pid, deque(share))
        finally:
            place(0)

    try:
        for k in range(1, procs):
            start(list(range(k, len(tasks), procs)))
        while mine or children:
            if mine:
                i = mine.popleft()
                yield i, run(tasks[i])
                ready = wait(list(children), 0) if children else ()
            else:
                ready = wait(list(children))
            for reader in ready:
                pid, share = children[reader]
                try:
                    while reader.poll():
                        result = reader.recv()
                        yield share.popleft(), result
                except (EOFError, OSError):  # the child has exited
                    del children[reader]
                    reader.close()
                    os.waitpid(pid, 0)
                    if share:
                        yield share.popleft(), None
                        if share:
                            start(list(share))
    finally:
        for reader, (pid, _) in children.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        place(None)
