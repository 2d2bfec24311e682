"""The one fan-out, shared by the forests.

Cross-validation splits its folds, and importance ranking its repeats, into
independent index ranges, grows each range's forests as one lockstep block
and stitches the blocks back in range order, so results never depend on the
worker count.  The caller grows the first range itself; every other range
runs in a child process of its own.  Feature extraction and selection run in
the calling process.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence, TypeVar

from .errors import BadParameters, ImufreshError

T = TypeVar("T")


def check_workers(workers: int) -> None:
    """Reject a worker count below 1 (BadParameters), before any work runs."""
    if workers < 1:
        raise BadParameters(f"workers must be >= 1, got {workers}")


def _send_range(conn, fn: Callable, shared: Sequence, r: range) -> None:
    """Child process body: send ``(True, fn(*shared, r))``, or ``(False,
    exc)`` if it raised, for the caller to re-raise."""
    try:
        result = (True, fn(*shared, r))
    except Exception as exc:
        result = (False, exc)
    conn.send(result)
    conn.close()


def map_ranges(
    fn: Callable[..., T], shared: Sequence, n: int, workers: int
) -> list[T]:
    """``[fn(*shared, r) for r in ranges]`` over consecutive ranges covering
    ``range(n)``, in range order.

    With ``workers <= 1`` (or ``n <= 1``) this is one in-process call on
    ``range(n)``.  Otherwise ``range(n)`` is cut into at most ``workers``
    ranges of ``ceil(n / workers)`` items (the last may be shorter): each
    range is one lockstep block of forests of about the same cost each, so
    equal ranges keep the processes equally busy.  The caller runs the first
    range while a child process from multiprocessing's default context runs
    each other one; their results are then read from pipes in range order.
    A child's exception is re-raised here, a child that exits without a
    result raises ImufreshError naming its exit code, and no child outlives
    the call.  *fn* and *shared* must pickle where the default start method
    is not fork.
    """
    if workers <= 1 or n <= 1:
        return [fn(*shared, range(n))]
    size = -(-n // workers)
    first, *rest = [range(lo, min(lo + size, n)) for lo in range(0, n, size)]
    children = []
    try:
        for r in rest:
            receive, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_send_range, args=(send, fn, shared, r))
            child.start()
            children.append((child, receive, r))
            # Only the child may hold the sending end, so that its exit
            # ends the caller's read.
            send.close()
        results = [fn(*shared, first)]
        for child, receive, r in children:
            try:
                ok, value = receive.recv()
            except EOFError:
                child.join()
                raise ImufreshError(
                    f"the process for range [{r.start}, {r.stop}) exited with code "
                    f"{child.exitcode} before sending its result"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for child, receive, _ in children:
            if child.is_alive():
                child.terminate()
            child.join()
            receive.close()
