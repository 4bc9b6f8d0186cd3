"""Run independent tasks in forked worker processes beside this one.

``run_tasks(n, task, width)`` calls ``task(i)`` once for every ``i`` in
``range(n)`` and returns the results by index. The indices wait in a work
queue: a pipe holding one byte per index, whose write end is closed
before any fork. This process and ``width - 1`` forked workers each claim
the next index with ``os.read(fd, 1)`` until end of file, so indices are
claimed in ascending order and the load balances itself. A worker
announces each claim and streams each result back through its own pipe as
a length-prefixed pickle, then leaves with ``os._exit``; the parent reads
the reports once its own claims run out. Every process forks from the
same state, so a result does not depend on which process computed it.

Forking is safe only in a process with one thread: a thread that holds a
lock at the fork (a BLAS thread pool's, say) leaves that lock held in the
child for good. ``processes`` therefore allows more than one process only
where ``os.fork`` exists, ``/proc/self/task`` lists exactly one thread
(any error reading it counts as unsafe), numpy's BLAS was loaded with one
thread (``priorwave`` loads it so unless told otherwise), and at least
two CPUs and two tasks are there; otherwise this process drains the queue
alone, the same loop with no fork. The BLAS condition matters because
OpenBLAS stops its pool at every fork and restarts it at its next
threaded call: a process that loaded numpy with threads can show one
thread for a while, and its workers would then each start their own pool.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
import traceback
from typing import Callable, NoReturn

from . import _ONE_BLAS_THREAD

__all__ = ["processes", "run_tasks", "leave_if_orphaned"]

# Length prefix of every message a worker sends.
_LENGTH = struct.Struct("<Q")
# The pid of a worker's parent, set in the worker right after its fork.
_parent: int | None = None


def _one_thread() -> bool:
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def processes(n_tasks: int) -> int:
    """How many processes should drain a queue of ``n_tasks``: ``min(n_tasks,
    CPUs)`` where forking is safe (module docstring), else 1."""
    if n_tasks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return min(n_tasks, cpus) if cpus >= 2 and _ONE_BLAS_THREAD and _one_thread() else 1


def leave_if_orphaned() -> None:
    """In a worker whose parent is gone, exit at once; elsewhere do nothing.

    Long tasks call this at their natural boundaries, so that a worker
    does not run on for nobody once its parent has been killed.
    """
    if _parent is not None and os.getppid() != _parent:
        _flush()
        os._exit(1)


def _flush() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass


def _send(fd: int, message) -> None:
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    view = memoryview(_LENGTH.pack(len(blob)) + blob)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int) -> list:
    """Every whole message a worker sent, read up to end of file; a
    message cut short by the worker's death is dropped."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    data, at, messages = b"".join(chunks), 0, []
    while at + _LENGTH.size <= len(data):
        (size,) = _LENGTH.unpack_from(data, at)
        at += _LENGTH.size
        if at + size > len(data):
            break
        messages.append(pickle.loads(data[at:at + size]))
        at += size
    return messages


def _work(queue: int, report: int, task: Callable[[int], object], parent: int) -> NoReturn:
    """A worker's whole life: claim, announce, run and report until the
    queue is empty, then exit (1 if anything raised)."""
    global _parent
    _parent = parent
    code = 0
    try:
        while claimed := os.read(queue, 1):
            _send(report, (claimed[0],))
            _send(report, (claimed[0], task(claimed[0])))
    except BaseException:  # noqa: BLE001 - nothing may unwind past the fork
        traceback.print_exc()
        code = 1
    finally:
        _flush()
        os._exit(code)


def run_tasks(n_tasks: int, task: Callable[[int], object], width: int
              ) -> tuple[dict[int, object], dict[int, int]]:
    """Run ``task(i)`` for ``i`` in ``range(n_tasks)`` on ``width``
    processes, this one included (module docstring). Each index is one
    byte of the queue, so ``n_tasks`` is at most 256.

    Returns the results by index, and for each index whose worker died
    before reporting it, that worker's exit status
    (``os.waitstatus_to_exitcode``). Every worker is reaped before this
    returns; if this process raises meanwhile, each worker still running
    gets SIGTERM first.
    """
    indices = bytes(range(n_tasks))
    queue, fill = os.pipe()
    os.write(fill, indices)
    os.close(fill)
    results: dict[int, object] = {}
    lost: dict[int, int] = {}
    workers: dict[int, int] = {}  # pid -> read end of its report pipe
    dead: list[int] = []  # exit statuses of the workers that did not finish
    try:
        if width > 1:
            _flush()  # or each worker would print what is buffered again
        parent = os.getpid()
        for _ in range(width - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                for fd in (read_end, *workers.values()):
                    os.close(fd)
                _work(queue, write_end, task, parent)
            os.close(write_end)
            workers[pid] = read_end
        while claimed := os.read(queue, 1):
            results[claimed[0]] = task(claimed[0])
        for pid, read_end in list(workers.items()):
            claims = set()
            for message in _receive(read_end):  # (i,) announces a claim, (i, result) ends it
                if len(message) == 1:
                    claims.add(message[0])
                else:
                    results[message[0]] = message[1]
                    claims.discard(message[0])
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(read_end)
            del workers[pid]
            lost.update(dict.fromkeys(claims, code))
            if code or claims:
                dead.append(code)
        # A worker that died between claiming an index and announcing it.
        for i in range(n_tasks):
            if i not in results and i not in lost:
                lost[i] = dead[0]
    finally:
        os.close(queue)
        for pid, read_end in workers.items():
            os.close(read_end)
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return results, lost
