import errno
import multiprocessing
import os
import signal
import threading
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


def _call(fn, *args):
    return fn(*args)


def _raise(error):
    raise error


@pytest.fixture
def cpus(monkeypatch):
    """Offer `parallel.map` the usable CPU count the test sets."""
    def offer(count):
        monkeypatch.setattr(parallel, "worker_count", lambda: count)
    return offer


def test_map_raises_the_childs_error_with_its_type_and_message(cpus):
    cpus(2)
    missing = FileNotFoundError(errno.ENOENT, "No such file or directory", "in/the/child")
    with pytest.raises(FileNotFoundError) as raised:
        parallel.map(_call, [(abs, -1), (_raise, missing)])
    assert (raised.value.errno, raised.value.filename) == (errno.ENOENT, "in/the/child")
    with pytest.raises(DataError, match="^failed in the child$"):
        parallel.map(_call, [(abs, -1), (_fails, "failed in the child")])
    assert multiprocessing.active_children() == []


def test_map_re_emits_the_childs_warnings_and_returns_its_value(cpus):
    cpus(2)
    with pytest.warns(UserWarning, match="warned in the child") as record:
        assert parallel.map(_warns_then_returns, [("warned in the child",)] * 2) == ["returned"] * 2
    assert [w.filename for w in record] == [__file__] * 2


def _exits_if_last(x):
    if x == 2:
        os._exit(3)
    return x


def test_forked_child_that_dies_without_reporting_is_an_error(cpus):
    # the last child forked dies, after the earlier ones have forked and may have reported
    cpus(3)
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        parallel.map(_exits_if_last, [(x,) for x in range(3)])
    assert multiprocessing.active_children() == []


def test_forked_child_sees_the_callers_memory_without_pickling(cpus):
    cpus(2)
    state = {"lock": threading.Lock()}  # a lock cannot be pickled
    seen = parallel.map(lambda key: (os.getpid(), key in state), [("lock",)] * 2)
    assert [found for _, found in seen] == [True, True]
    # the caller made call 0, a child call 1
    assert seen[0][0] == os.getpid() != seen[1][0]


@pytest.mark.parametrize("processes", [1, 2])
def test_map_calls_run_different_functions_through_a_trampoline(cpus, processes):
    cpus(processes)
    calls = [(abs, -3), (_warns_then_returns, "warned"), (divmod, 7, 2), (sorted, "cab")]
    with pytest.warns(UserWarning, match="^warned$"):
        assert parallel.map(_call, calls) == [3, "returned", (3, 1), ["a", "b", "c"]]
    with pytest.raises(DataError, match="^second$"):
        parallel.map(_call, [(abs, -3), (_fails, "second"), (_fails, "third")])
    assert multiprocessing.active_children() == []


def _square_unless(fails, x):
    if x in fails:
        time.sleep(0.2 * (x == min(fails)))  # the earlier failure is met last
        raise DataError(f"call {x} failed")
    return x * x


def test_map_returns_the_values_in_call_order_on_children_and_in_process(cpus):
    calls = [((), x) for x in range(5)]
    for count in (2, 1):
        cpus(count)
        assert parallel.map(_square_unless, calls) == [0, 1, 4, 9, 16]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [1, 2])
def test_map_raises_the_first_error_in_call_order(cpus, processes):
    # on 2 CPUs, call 4 is the last of the caller's share and call 1 the first of the child's
    cpus(processes)
    with pytest.raises(DataError, match="^call 1 failed$"):
        parallel.map(_square_unless, [({1, 4}, x) for x in range(5)])
    assert multiprocessing.active_children() == []


def _warns_for(x):
    warnings.warn(f"call {x}", UserWarning)
    return x


def test_map_re_emits_the_childrens_warnings_in_call_order(cpus):
    cpus(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parallel.map(_warns_for, [(x,) for x in range(5)]) == list(range(5))
    assert [str(w.message) for w in caught] == [f"call {x}" for x in range(5)]


def _first_child_dies(x):
    if x == 1:
        os._exit(7)
    if x == 2:
        time.sleep(60)


def test_map_child_that_dies_without_reporting_is_an_error(cpus):
    # the first child forked dies; its EOF arrives only if no later child holds its pipe
    cpus(3)
    start = time.monotonic()
    with pytest.raises(ChildProcessError, match="exited with code 7"):
        parallel.map(_first_child_dies, [(x,) for x in range(3)])
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def test_an_interrupt_while_map_waits_kills_and_reaps_every_child(cpus):
    cpus(3)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            parallel.map(time.sleep, [(60,)] * 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_map_children_see_the_callers_memory_without_pickling(tmp_path, cpus):
    cpus(2)
    unpicklable = lambda: None  # noqa: E731 - a lambda cannot be pickled
    paths = [tmp_path / str(x) for x in range(4)]
    parallel.map(lambda path, fn: path.write_text(repr(fn is not None)), [(p, unpicklable) for p in paths])
    assert [p.read_text() for p in paths] == ["True"] * 4


@pytest.mark.parametrize("n_cpus, n_calls", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 5), (3, 2), (3, 7)])
def test_map_forks_one_child_fewer_than_it_makes_shares(monkeypatch, cpus, n_cpus, n_calls):
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    cpus(n_cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert parallel.map(abs, [(-x,) for x in range(n_calls)]) == list(range(n_calls))
    assert len(forks) == min(n_cpus, n_calls) - 1
