"""Forked child processes for seeded work whose results do not depend on
where it runs.

A child starts from this process's memory, so its arguments reach it through
the fork and are never pickled; only its outcome comes back, through a pipe.
`map` is the one way work forks. It cuts the calls into runs of consecutive
calls, one per usable CPU: this process forks a child for each run but the
first, then makes the first itself as a plain loop, so with one usable CPU,
or one call, it forks nothing and is that loop. Every process computes with
OpenBLAS held at one thread. A child makes its calls in order up to its first
error and reports once: its values, the warnings they raised and its error.
This process shows each child's warnings through its own filters, then raises
its error, child by child in call order, so a caller writes its schedule once
and gets the same values, warnings and first error on any number of CPUs.
Its one user is `run_study`'s seeds. `worker_count` gives the usable CPUs,
which is 1 off Linux.
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager


def worker_count() -> int:
    """The usable CPUs, one process each. The CPU affinity call exists only
    on Linux, so work forks only there; elsewhere this is 1."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _blas_threads(n: int):
    """Set OpenBLAS, the BLAS numpy's wheels bundle, to compute with `n`
    threads; returns the count it had before (the first copy's, where two are
    loaded), or None where none is found. `map`'s processes already take every
    usable CPU, so BLAS threads on top of them only contend for the same
    cores. Another BLAS keeps its default, and so does OpenBLAS where its
    library cannot be found or loaded: the calls run correctly without the
    limit."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.rpartition("/")[2]}
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    previous = None
    for lib in libs:
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", ""), ("scipy_", "64_")):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = (), ctypes.c_int
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            if previous is None:
                previous = getter()
            setter(n)
    return previous


def _run_in_child(conn, fn, calls) -> None:
    """A forked child's work: its run of calls, in order up to the first error,
    with one BLAS thread. It sends one report, (values, warnings, error): the
    value of each call made, every warning they raised as (warning, filename,
    lineno), and the error or None. The warnings are held back so that the
    caller shows them through its own filters, in call order."""
    _blas_threads(1)
    values, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for args in calls:
                values.append(fn(*args))
        except Exception as exc:  # noqa: BLE001 - raised again by map
            error = exc
    conn.send((values, [(w.message, w.filename, w.lineno) for w in caught], error))


def _rewarn(caught) -> None:
    """Re-emit the warnings a child recorded through this process's filters,
    with the module and registry that `warnings.warn` would have used."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        module = modules.get(filename)
        name = module.__name__ if module else None
        registry = vars(module).setdefault("__warningregistry__", {}) if module else None
        warnings.warn_explicit(message, type(message), filename, lineno, name, registry)


@contextmanager
def _children(fn, runs):
    """One forked child per run of calls, as (process, receiving end of its
    pipe). Every child is reaped when the block ends, and killed first if the
    block raises. A fork copies only the calling thread, so `fn` must not need
    a lock that another thread may hold, such as a BLAS thread pool's."""
    from multiprocessing import get_context

    ctx = get_context("fork")
    children = []
    try:
        for calls in runs:
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_in_child, args=(sender, fn, calls))
            children.append((child, receiver))
            # closed before the next fork, so that only its own child holds it and a
            # child that dies makes its receiver see EOF
            with sender:
                child.start()
        yield children
    except BaseException:
        for child, _ in children:
            if child.pid is not None:
                child.kill()
        raise
    finally:
        for child, receiver in children:
            receiver.close()
            if child.pid is not None:
                child.join()
                child.close()


def map(fn, calls) -> list:  # noqa: A001 - the parallel form of map
    """`fn(*args)` for each `args` of `calls`, with the values in call order.

    With w = min(worker_count(), len(calls)) processes, the calls are cut into
    w runs of consecutive calls, the first never shorter than another. This
    process forks a child for each of runs 1 to w - 1, then makes run 0 itself
    as a plain loop with OpenBLAS held at one thread, and restores its thread
    count afterwards; an error there is raised at once, and the children are
    killed. It then reads each child's report in turn: it re-emits the
    child's warnings, takes its values and raises its error. So the values,
    the warnings and the first error come in call order on any number of CPUs.
    """
    calls = list(calls)
    w = max(min(worker_count(), len(calls)), 1)
    cuts = [-(-k * len(calls) // w) for k in range(w + 1)]
    with _children(fn, [calls[a:b] for a, b in zip(cuts[1:], cuts[2:])]) as children:
        previous = _blas_threads(1)
        try:
            values = [fn(*args) for args in calls[:cuts[1]]]
        finally:
            if previous is not None:
                _blas_threads(previous)
        for child, receiver in children:
            try:
                done, caught, error = receiver.recv()
            except EOFError:  # the child died before it reported
                child.join()
                raise ChildProcessError(f"forked child exited with code {child.exitcode}") from None
            _rewarn(caught)
            values += done
            if error is not None:
                raise error
    return values
