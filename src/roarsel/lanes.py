"""Independent jobs on every usable CPU, in forked lanes.

``fork_map(job, n, lost)`` returns ``[job(0), ..., job(n - 1)]``. A process
that runs a single OS thread on Linux computes them in ``lane_count(n)``
lanes, itself included: it claims job 0, forks the other lanes, and every
lane then claims the next index from one shared counter. A forked lane sends
its results back once the counter runs out. So the results do not depend on
the lanes as long as each job depends on its index alone; a job's result
must pickle.
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import Callable, TypeVar

T = TypeVar("T")


def lane_count(n_jobs: int) -> int:
    """How many processes run ``n_jobs`` jobs: one per usable CPU and at most
    one per job. It is one when this process runs more than one OS thread,
    since forking a threaded process is unsafe (OpenBLAS starts threads at
    import unless pinned to one), or has no ``/proc/self/task``."""
    try:
        threads = len(os.listdir("/proc/self/task"))
        cpus = len(os.sched_getaffinity(0))
    except (OSError, AttributeError):
        return 1
    return min(cpus, n_jobs) if threads == 1 else 1


class _LaneTraceback(Exception):
    """The traceback text of an exception raised in a forked lane."""


def fork_map(job: Callable[[int], T], n: int,
             lost: Callable[[list[int]], Exception]) -> list[T]:
    """``[job(0), ..., job(n - 1)]``, computed in ``lane_count(n)`` lanes.

    With one lane this process runs the jobs in index order. A forked lane
    whose job raises ends every lane's claims, and its exception is raised
    here, once this process has finished its current job, with the lane's
    traceback as its cause. A lane that exits without sending loses its
    jobs, and ``lost(indices)`` is raised. Any exception here terminates and
    joins every lane before it propagates.
    """
    lanes = lane_count(n)
    if lanes < 2:
        return [job(i) for i in range(n)]

    # imported here: they cost every other command 15-20 ms of start-up
    import multiprocessing
    import signal
    import traceback

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("i", 1)  # job 0 is this process's

    def claims():
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= n:
                return
            yield i

    def lane(conn):
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles it
        with conn:
            try:
                done = {i: job(i) for i in claims()}
            except Exception as exc:
                with counter.get_lock():
                    counter.value = n  # no process claims another job
                conn.send((exc, traceback.format_exc()))
            else:
                conn.send((done, None))

    results: dict[int, T] = {}
    procs, readers = [], []
    sys.stdout.flush()  # a forked lane would write out a copy of any buffer
    sys.stderr.flush()
    try:
        for _ in range(lanes - 1):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            with writer:  # the lane holds the only writing end
                proc = ctx.Process(target=lane, args=(writer,), daemon=True)
                proc.start()
            procs.append(proc)
        for i in itertools.chain([0], claims()):
            results[i] = job(i)
        for reader in readers:
            try:
                sent, lane_traceback = reader.recv()
            except EOFError:  # the lane exited without sending
                continue
            if lane_traceback is not None:
                raise sent from _LaneTraceback(lane_traceback)
            results.update(sent)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for reader in readers:
            reader.close()
    missing = [i for i in range(n) if i not in results]
    if missing:
        raise lost(missing)
    return [results[i] for i in range(n)]
