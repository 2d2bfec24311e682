"""The one process-pool fan-out, shared by the forests.

Cross-validation splits its folds, and importance ranking its repeats, into
independent index ranges and stitches the blocks back in range order, so
results never depend on the worker count.  Feature extraction and selection
run in the calling process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import BadParameters

T = TypeVar("T")

# (fn, shared) of the pool this worker process belongs to.  Only the pool
# initializer sets it, so the shared data reaches each worker once instead
# of being pickled again with every range.
_WORK: tuple = ()


def _init_worker(fn: Callable, shared: tuple) -> None:
    global _WORK
    _WORK = (fn, shared)


def _run_range(r: range):
    fn, shared = _WORK
    return fn(*shared, r)


def check_workers(workers: int) -> None:
    """Reject a worker count below 1 (BadParameters), before any work runs."""
    if workers < 1:
        raise BadParameters(f"workers must be >= 1, got {workers}")


def map_ranges(
    fn: Callable[..., T], shared: Sequence, n: int, workers: int
) -> list[T]:
    """``[fn(*shared, r) for r in ranges]`` over consecutive ranges covering
    ``range(n)``, in range order.

    With ``workers <= 1`` (or ``n <= 1``) this is one in-process call on
    ``range(n)``.  Otherwise ``range(n)`` is cut into at most ``workers``
    ranges of ``ceil(n / workers)`` items (the last may be shorter), one per
    pool process: each fold or repeat trains one forest of about the same
    cost, so equal ranges keep the workers equally busy, and more ranges
    would only add result round trips.  *fn* and *shared* must pickle.
    """
    if workers <= 1 or n <= 1:
        return [fn(*shared, range(n))]
    size = -(-n // workers)
    ranges = [range(lo, min(lo + size, n)) for lo in range(0, n, size)]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(ranges)),
        initializer=_init_worker,
        initargs=(fn, tuple(shared)),
    ) as pool:
        return list(pool.map(_run_range, ranges))
