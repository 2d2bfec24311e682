"""The fan-out contract of ``parallel.map_ranges``: results in range order,
range 0 in the caller and each other range in a child of its own, errors
carried back to the caller, and no process left running."""

import multiprocessing
import os
import threading
import time

import pytest

from imufresh.errors import BadParameters, ImufreshError
from imufresh.parallel import map_ranges


@pytest.fixture(autouse=True)
def no_process_left():
    yield
    assert multiprocessing.active_children() == []


def _squares(offset, r):
    return [offset + i * i for i in r]


def _range_and_pid(r):
    return r, os.getpid()


def _reject_child_ranges(r):
    if r.start > 0:
        raise BadParameters(f"range starting at {r.start} rejected")
    return list(r)


def _caller_fails_while_children_sleep(r):
    if r.start == 0:
        time.sleep(0.2)
        raise ValueError("caller's range failed")
    time.sleep(60)


def _children_exit_with_code_3(r):
    if r.start > 0:
        os._exit(3)
    return list(r)


def _within(seconds, call):
    """The exception *call* raises, run in a thread that must end within
    *seconds*."""
    raised = []

    def target():
        try:
            call()
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    assert len(raised) == 1, "returned instead of raising"
    return raised[0]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_blocks_in_range_order_equal_the_in_process_call(workers):
    for n in range(8):
        blocks = map_ranges(_squares, (5,), n, workers)
        assert [v for block in blocks for v in block] == _squares(5, range(n))
        size = -(-n // workers) if workers > 1 else n
        assert [len(block) for block in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert len(blocks) <= workers


def test_first_range_in_caller_and_each_other_in_its_own_child():
    blocks = map_ranges(_range_and_pid, (), 7, 4)
    assert [r for r, _ in blocks] == [range(0, 2), range(2, 4), range(4, 6), range(6, 7)]
    pids = [pid for _, pid in blocks]
    assert pids[0] == os.getpid()
    assert len(set(pids[1:])) == 3 and os.getpid() not in pids[1:]


def test_child_exception_reaches_the_caller():
    with pytest.raises(BadParameters, match="range starting at 3 rejected"):
        map_ranges(_reject_child_ranges, (), 5, 2)


def test_caller_range_exception_ends_the_running_children():
    exc = _within(20, lambda: map_ranges(_caller_fails_while_children_sleep, (), 3, 3))
    assert isinstance(exc, ValueError) and str(exc) == "caller's range failed"


def test_child_exiting_without_a_result_names_its_exit_code():
    exc = _within(20, lambda: map_ranges(_children_exit_with_code_3, (), 4, 2))
    assert isinstance(exc, ImufreshError)
    assert str(exc) == "the process for range [2, 4) exited with code 3 before sending its result"
