"""Two-thread runner for the FFT-bound loops (the Picard march and the
algebra-constant pairs).

numpy's FFTs and large ufuncs release the interpreter lock, so two threads
doing transform work overlap on two cores. Both halves run on worker
threads named fracheat-<role>-1 and fracheat-<role>-2, and the calling
thread only waits for them. Large transforms run faster off the calling
thread: glibc trims the main arena's top back after each free, so a
transform's scratch is faulted in afresh on every call there, while a
worker's arena keeps it. The workers run only untraced helpers:
perfbench's tracer keeps one span stack per process, which a layer entered
from a second thread would corrupt.
"""

from __future__ import annotations

import threading
from typing import Callable

# how often the waiting thread wakes to take a pending interrupt
_JOIN_POLL_S = 0.05


def run_two(first: Callable[[], None], second: Callable[[], None],
            abort: Callable[[], None], role: str) -> None:
    """Run first() and second() on two workers; return when both have
    ended.

    The first failure calls abort(), which must make the other half return
    promptly (release what it waits on, stop what it draws), and is raised
    on this thread once both workers have been joined, so no thread
    outlives the call. An interrupt that lands on this thread while it
    waits (KeyboardInterrupt) aborts both halves the same way and is
    raised once they have been joined.
    """
    failure = []

    def worker(half):
        try:
            half()
        except BaseException as exc:  # re-raised on the calling thread
            failure.append(exc)
            abort()

    threads = [threading.Thread(target=worker, args=(half,),
                                name=f"fracheat-{role}-{i}")
               for i, half in enumerate((first, second), 1)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            # a timed join, so that an interrupt is taken while waiting
            while thread.is_alive():
                thread.join(_JOIN_POLL_S)
    except BaseException:
        abort()
        for thread in threads:
            try:
                thread.join()
            except RuntimeError:  # it was never started
                pass
        raise
    if failure:
        raise failure[0]
