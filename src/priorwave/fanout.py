"""Run independent tasks in forked worker processes beside this one.

This module alone decides whether and how wide the package forks, and
sets the BLAS thread default that forking needs (the package loads it first).

``run_tasks(n, task)`` calls ``task(i)`` once for every ``i`` in
``range(n)`` on ``processes(n)`` processes and returns the results by
index. The indices wait in a work queue: a pipe holding one byte per
index, whose write end is closed before any fork. This process and the
forked workers each claim the next index with ``os.read(fd, 1)`` until
end of file, so indices are claimed in ascending order and the load
balances itself. A worker announces each claim and streams each result
back through its own pipe, one ``pickle.dump`` after another, then leaves
with ``os._exit``; the parent reads the reports with ``pickle.load`` once
its own claims run out. Every process forks from the same state, so a
result does not depend on which process computed it.

Forking is safe only in a process with one thread: a thread that holds a
lock at the fork (a BLAS thread pool's, say) leaves that lock held in the
child for good. ``processes`` therefore allows more than one process only
where ``os.fork`` exists, ``/proc/self/task`` lists exactly one thread
(any error reading it counts as unsafe), numpy's BLAS was loaded with one
thread (below), and at least two CPUs and two tasks are there; otherwise
this process drains the queue alone, the same loop with no fork. The
BLAS condition matters because OpenBLAS stops its pool at every fork and
restarts it at its next threaded call: a process that loaded numpy with
threads can show one thread for a while, and its workers would then each
start their own pool.

OpenBLAS reads its thread count once, as numpy loads. So when this module
loads before numpy and ``OPENBLAS_NUM_THREADS`` is unset, it loads numpy
with the variable set to 1 and then removes it again, so that child
processes see the environment they were given. Otherwise the user's
choice stands, and only an explicit 1 counts as one BLAS thread.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import BinaryIO, Callable, NoReturn

if "OPENBLAS_NUM_THREADS" in os.environ or "numpy" in sys.modules:
    _ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401
    del os.environ["OPENBLAS_NUM_THREADS"]
    _ONE_BLAS_THREAD = True

__all__ = ["processes", "run_tasks", "leave_if_orphaned"]

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


def _receive(report: BinaryIO) -> list:
    """Every whole message a worker sent, read up to end of file; a
    message cut short by the worker's death ends the stream there."""
    messages = []
    try:
        while True:
            messages.append(pickle.load(report))
    except (EOFError, pickle.UnpicklingError):
        return messages


def _work(queue: int, report_fd: int, task: Callable[[int], object], parent: int
          ) -> NoReturn:
    """A worker's whole life: claim, announce, run and report until the
    queue is empty, then exit (1 if anything raised)."""
    global _parent
    _parent = parent
    code = 0
    try:
        report = os.fdopen(report_fd, "wb")
        while claimed := os.read(queue, 1):
            pickle.dump((claimed[0],), report, pickle.HIGHEST_PROTOCOL)
            report.flush()
            pickle.dump((claimed[0], task(claimed[0])), report, pickle.HIGHEST_PROTOCOL)
            report.flush()
    except BaseException:  # noqa: BLE001 - nothing may unwind past the fork
        traceback.print_exc()
        code = 1
    finally:
        _flush()
        os._exit(code)


def run_tasks(n_tasks: int, task: Callable[[int], object]
              ) -> tuple[dict[int, object], dict[int, int], int]:
    """Run ``task(i)`` for ``i`` in ``range(n_tasks)`` on
    ``processes(n_tasks)`` processes, this one included (module
    docstring). Each index is one byte of the queue, so ``n_tasks`` is at
    most 256; more raise ``ValueError`` before anything is opened or forked.

    Returns the results by index; for each index whose worker died
    before reporting it, that worker's exit status
    (``os.waitstatus_to_exitcode``); and the number of processes. Every
    worker is reaped before this returns; if this process raises
    meanwhile, each worker still running gets SIGTERM first.
    """
    if n_tasks > 256:
        raise ValueError(f"run_tasks queues at most 256 tasks, one byte each; got {n_tasks}")
    width = processes(n_tasks)
    queue, fill = os.pipe()
    os.write(fill, bytes(range(n_tasks)))
    os.close(fill)
    results: dict[int, object] = {}
    lost: dict[int, int] = {}
    reports: dict[int, BinaryIO] = {}  # pid -> read end of its report pipe
    dead: list[int] = []  # exit statuses of the workers that did not finish
    try:
        if width > 1:
            _flush()  # or each worker would print what is buffered again
            import numpy.random  # noqa: F401 - loaded once here, not lazily in each worker
        parent = os.getpid()
        for _ in range(width - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                for report in reports.values():
                    report.close()
                _work(queue, write_end, task, parent)
            os.close(write_end)
            reports[pid] = os.fdopen(read_end, "rb")
        while claimed := os.read(queue, 1):
            results[claimed[0]] = task(claimed[0])
        for pid, report in list(reports.items()):
            claims = set()
            for message in _receive(report):  # (i,) announces a claim, (i, result) ends it
                if len(message) == 1:
                    claims.add(message[0])
                else:
                    results[message[0]] = message[1]
                    claims.discard(message[0])
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            report.close()
            del reports[pid]
            lost.update(dict.fromkeys(claims, code))
            if code or claims:
                dead.append(code)
        # A worker that died between claiming an index and announcing it.
        for i in range(n_tasks):
            if i not in results and i not in lost:
                lost[i] = dead[0]
    finally:
        os.close(queue)
        for pid, report in reports.items():
            report.close()
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    return results, lost, width
