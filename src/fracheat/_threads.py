"""Two-thread runner for the FFT-bound loops (the Picard march and the
algebra-constant pairs).

numpy's FFTs and large ufuncs release the interpreter lock, so two threads
doing transform work overlap on two cores. One half runs on the calling
thread and the other on one worker thread named fracheat-<role>. The
worker runs only untraced helpers: perfbench's tracer keeps one span stack
per process, which a layer entered from a second thread would corrupt.
"""

from __future__ import annotations

import threading
from typing import Callable


def run_two(here: Callable[[], None], there: Callable[[], None],
            abort: Callable[[], None], role: str) -> None:
    """Run here() on this thread and there() on a worker; return when both
    have ended.

    The first failure calls abort(), which must make the other half return
    promptly (release what it waits on, stop what it draws), and is raised
    once the worker has been joined, so no thread outlives the call.
    """
    failure = []

    def worker():
        try:
            there()
        except BaseException as exc:  # re-raised on the calling thread
            failure.append(exc)
            abort()

    thread = threading.Thread(target=worker, name=f"fracheat-{role}")
    thread.start()
    try:
        here()
    except BaseException:
        abort()
        raise
    finally:
        thread.join()
    if failure:
        raise failure[0]
