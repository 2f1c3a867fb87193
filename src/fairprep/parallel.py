"""Forked worker processes for seeded work whose results do not depend on
where it runs.

`Pool(processes)` forks that many workers, or with 0 runs every call in this
process, so a caller writes its schedule once and gets the same results
either way. `worker_count` gives the usable CPUs, which is 1 off Linux. Each
worker computes with one BLAS thread, and the warnings a call raises in a
worker are re-emitted through this process's filters when its result is
taken. `forked` runs one call in one forked child, with no pool, for a caller
that does the other share of the work itself.
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager
from itertools import repeat


def worker_count(n_tasks: int) -> int:
    """Processes to run `n_tasks` independent tasks in: one per usable CPU, at
    most one per task. The CPU affinity call exists only on Linux, which limits
    the pool to Linux; elsewhere this is 1."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _one_blas_thread() -> None:
    """Worker initializer: limit OpenBLAS, the BLAS numpy's wheels bundle, to one
    thread. The workers and the caller already share the usable CPUs, so BLAS
    threads on top of them only contend for the same cores. Another BLAS keeps
    its default, and so does OpenBLAS where its library cannot be found or
    loaded: an initializer that raised would break the pool."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.rpartition("/")[2]}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    for lib in libs:
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""), ("scipy_", "64_")):
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter(1)


def _call_in_worker(fn, *args):
    """`fn(*args)` in a worker process. Also returns the warnings raised on the
    way, as (warning, filename, lineno): a worker cannot show them to its
    parent's filters, so the parent re-emits them with `_rewarn`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.message, w.filename, w.lineno) for w in caught]


def _rewarn(caught) -> None:
    """Re-emit the warnings a worker recorded through this process's filters,
    with the module and registry that `warnings.warn` would have used."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        module = modules.get(filename)
        name = module.__name__ if module else None
        registry = vars(module).setdefault("__warningregistry__", {}) if module else None
        warnings.warn_explicit(message, type(message), filename, lineno, name, registry)


class Outcome:
    """A call made now, in this process: `result()` returns its value or raises
    its error, so a caller can decide which of several failures to raise."""

    def __init__(self, fn, *args):
        self._value = self._error = None
        try:
            self._value = fn(*args)
        except Exception as exc:  # noqa: BLE001 - raised again by result()
            self._error = exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class _Ready:
    """The value of a call already made in this process."""

    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class _Pending:
    """A call running in a worker; `result()` waits for it, re-emits its
    warnings, and returns its value or raises its error."""

    def __init__(self, future):
        self._future = future

    def result(self):
        value, caught = self._future.result()
        _rewarn(caught)
        return value


class Pool:
    """A context manager over `processes` forked workers, or over this process
    when `processes` is 0. `submit` and `map` behave the same on both, apart
    from where the work runs."""

    def __init__(self, processes: int):
        self.processes = processes
        self._executor = None

    def __enter__(self) -> "Pool":
        if self.processes:
            # imported here: the pool machinery holds about 1 MB that in-process callers never use
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            # fork: a worker starts from this process's memory, with no re-import
            self._executor = ProcessPoolExecutor(self.processes, mp_context=get_context("fork"),
                                                 initializer=_one_blas_thread)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown()

    def submit(self, fn, *args):
        """Start `fn(*args)`; the returned handle's `result()` gives its value or
        raises its error. In this process the call runs at once, and its error
        is raised at once."""
        if self._executor is None:
            return _Ready(fn(*args))
        return _Pending(self._executor.submit(_call_in_worker, fn, *args))

    def map(self, fn, *iterables):
        """`fn` over the zipped iterables, yielding results in order. In this
        process each call runs when its result is asked for, and the first error
        ends the iteration."""
        if self._executor is None:
            yield from map(fn, *iterables)
            return
        for value, caught in self._executor.map(_call_in_worker, repeat(fn), *iterables):
            _rewarn(caught)
            yield value


def _call_and_report(conn, fn, args) -> None:
    """`forked`'s child: make the call, then send its error, or None, and its warnings."""
    try:
        _, caught = _call_in_worker(fn, *args)
        outcome = None, caught
    except Exception as exc:  # noqa: BLE001 - raised again in the parent
        outcome = exc, []
    conn.send(outcome)


@contextmanager
def forked(fn, *args):
    """Run `fn(*args)` in one forked child while the block runs; its value is dropped.

    The child starts from this process's memory, so `args` are not pickled.
    A fork copies only the calling thread, so `fn` must not need a lock that
    another thread may hold, such as a BLAS thread pool's. When the block
    ends, this waits for the child, re-emits its warnings and raises its
    error. If the block raises, the child is killed first. A process with no
    executor and no helper thread: a `Pool` holds its executor threads'
    memory after it shuts down.
    """
    from multiprocessing import get_context

    ctx = get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_call_and_report, args=(sender, fn, args))
    try:
        child.start()
        sender.close()
        try:
            yield
            try:
                error, caught = receiver.recv()
            except EOFError:  # the child died before it could report
                child.join()
                raise ChildProcessError(f"forked child exited with code {child.exitcode}") from None
        except BaseException:
            child.kill()
            raise
        finally:
            child.join()
            child.close()
    finally:
        sender.close()
        receiver.close()
    _rewarn(caught)
    if error is not None:
        raise error
