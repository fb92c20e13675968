"""The package's one process-parallel map, shared by ``simulate.replicate``,
the study readers of ``data_io.load_multistudy`` and the study writers of
``data_io.write_multistudy``, and alone decides how many children it forks.
No other module calls ``os.fork`` or ``os.pipe``."""

from __future__ import annotations

import os
import pickle
import signal


class ChildEnded(RuntimeError):
    """A forked child ended before it sent the outcome of ``item``."""

    def __init__(self, item):
        super().__init__(f"the process computing item {item!r} ended early")
        self.item = item


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing (anything but Linux)."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def forked_map(fn, items, workers: int | None = None):
    """Yield ``fn(item)`` for each item of the sequence ``items`` in order,
    or raise an item's exception at that item's turn.

    With W = min(len(items), ``usable_cpus()``, ``workers`` when given)
    ≥ 2, forked child w computes items w, w + W, … and sends each
    outcome, pickled, through its own pipe; this process reads them back
    in item order, and a child that ends early raises ``ChildEnded``.
    Closing the generator, or an exception, kills and reaps every child.
    With W < 2, ``fn`` runs in this process."""
    workers = min(len(items), usable_cpus(),
                  len(items) if workers is None else workers)
    if workers < 2:
        for item in items:
            yield fn(item)
        return
    pipes, pids = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[w::workers], write_fd, pipes)
            finally:
                os.close(write_fd)
            pids.append(pid)
        for i, item in enumerate(items):
            try:
                ok, outcome = pickle.load(pipes[i % workers])
            except (EOFError, pickle.UnpicklingError):
                raise ChildEnded(item) from None
            if not ok:
                raise outcome
            yield outcome
    finally:
        for fh in pipes:
            fh.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, items, write_fd: int, pipes) -> None:
    # The body of a child; it never returns. It closes every read end, so a
    # write fails rather than blocks once the parent is gone. It flushes
    # each outcome once pickled, so none computed waits in a buffer, stops
    # after an exception, and leaves by os._exit, running none of the
    # parent's clean-up code; an outcome that cannot be pickled ends it.
    try:
        for fh in pipes:
            fh.close()
        with open(write_fd, "wb") as out:
            for item in items:
                try:
                    outcome = True, fn(item)
                except Exception as exc:
                    outcome = False, exc
                pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
                if not outcome[0]:
                    break
    finally:
        os._exit(0)
