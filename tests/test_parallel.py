import multiprocessing
import os
import signal
import time
import warnings

import pytest

from fairprep import parallel
from fairprep.tabular import DataError


def _fails(message):
    raise DataError(message)


def _warns_then_returns(message):
    warnings.warn(message, UserWarning)
    return "returned"


def test_forked_raises_the_childs_error_with_its_type_and_message():
    with pytest.raises(DataError, match="^failed in the child$"):
        with parallel.forked(_fails, "failed in the child"):
            pass
    assert multiprocessing.active_children() == []


def test_forked_re_emits_the_childs_warnings_and_returns_its_value():
    with pytest.warns(UserWarning, match="warned in the child"):
        with parallel.forked(_warns_then_returns, "warned in the child") as handle:
            pass
    assert handle.result() == "returned"


def test_forked_child_sees_the_callers_memory_without_pickling(tmp_path):
    unpicklable = lambda: None  # noqa: E731 - a lambda cannot be pickled
    with parallel.forked(lambda path, fn: path.write_text(repr(fn is not None)), tmp_path / "x", unpicklable):
        pass
    assert (tmp_path / "x").read_text() == "True"


def test_forked_child_that_dies_without_reporting_is_an_error():
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        with parallel.forked(os._exit, 3):
            pass


def test_an_error_in_the_block_kills_the_child_and_is_raised():
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="block failed"):
        with parallel.forked(time.sleep, 60):
            raise RuntimeError("block failed")
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# map


def _square_unless(fails, x):
    if x in fails:
        time.sleep(0.2 * (x == min(fails)))  # the earlier failure is met last
        raise DataError(f"call {x} failed")
    return x * x


def test_map_returns_the_values_in_call_order_on_children_and_in_process():
    calls = [((), x) for x in range(5)]
    assert parallel.map(_square_unless, calls, 2) == [0, 1, 4, 9, 16]
    assert parallel.map(_square_unless, calls, 1) == [0, 1, 4, 9, 16]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [1, 2])
def test_map_raises_the_first_error_in_call_order(processes):
    # on 2 children, call 4 is the last of share 0 and call 1 the first of share 1
    with pytest.raises(DataError, match="^call 1 failed$"):
        parallel.map(_square_unless, [({1, 4}, x) for x in range(5)], processes)
    assert multiprocessing.active_children() == []


def _warns_for(x):
    warnings.warn(f"call {x}", UserWarning)
    return x


def test_map_re_emits_the_childrens_warnings_in_call_order():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parallel.map(_warns_for, [(x,) for x in range(5)], 2) == list(range(5))
    assert [str(w.message) for w in caught] == [f"call {x}" for x in range(5)]


def _first_dies(x):
    if x == 0:
        os._exit(7)
    time.sleep(60)


def test_map_child_that_dies_without_reporting_is_an_error():
    # the first child forked dies; its EOF arrives only if no later child holds its pipe
    start = time.monotonic()
    with pytest.raises(ChildProcessError, match="exited with code 7"):
        parallel.map(_first_dies, [(x,) for x in range(3)], 3)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def test_an_interrupt_while_map_waits_kills_and_reaps_every_child():
    previous = signal.signal(signal.SIGALRM, _interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            parallel.map(time.sleep, [(60,)] * 3, 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_map_children_see_the_callers_memory_without_pickling(tmp_path):
    unpicklable = lambda: None  # noqa: E731 - a lambda cannot be pickled
    paths = [tmp_path / str(x) for x in range(4)]
    parallel.map(lambda path, fn: path.write_text(repr(fn is not None)), [(p, unpicklable) for p in paths], 2)
    assert [p.read_text() for p in paths] == ["True"] * 4
