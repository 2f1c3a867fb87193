"""Forked child processes for seeded work whose results do not depend on
where it runs.

A child starts from this process's memory, so its arguments reach it through
the fork and are never pickled; only its outcome comes back, through a pipe.
`map` is the one way work forks. It deals calls out in shares, one per
usable CPU: this process makes the first share itself after it has forked a
child for each other share, so with one usable CPU, or one call, it forks
nothing. Every share computes with OpenBLAS held at one thread and makes its
calls in order up to its first error. The warnings each call raises are
recorded with its value and re-emitted through this process's filters in
call order, so a caller writes its schedule once and gets the same values,
warnings and first error on any number of CPUs. Its two users are
`run_study`'s seeds and the two halves of a large `write_csv`.
`worker_count` gives the usable CPUs, which is 1 off Linux.
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


def _record(fn, calls) -> tuple:
    """`fn(*args)` for each `args` of `calls`, in order, up to the first error.
    Returns (done, error): the value of each call made with the warnings it
    raised, as (warning, filename, lineno), and the error or None. The
    warnings are held back so that `_rewarn` shows every share's in call
    order."""
    done, error = [], None
    try:
        for args in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = fn(*args)
            done.append((value, [(w.message, w.filename, w.lineno) for w in caught]))
    except Exception as exc:  # noqa: BLE001 - raised again by _in_call_order
        error = exc
    return done, error


def _run_in_child(conn, fn, calls) -> None:
    """A forked child's work: its share of calls, recorded by `_record` with
    one BLAS thread, sent back to the parent."""
    _blas_threads(1)
    conn.send(_record(fn, calls))


def _rewarn(caught) -> None:
    """Re-emit the warnings a share recorded through this process's filters,
    with the module and registry that `warnings.warn` would have used."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in caught:
        module = modules.get(filename)
        name = module.__name__ if module else None
        registry = vars(module).setdefault("__warningregistry__", {}) if module else None
        warnings.warn_explicit(message, type(message), filename, lineno, name, registry)


@contextmanager
def _children(fn, shares):
    """One forked child per share of calls, as (process, receiving end of its
    pipe). Every child is reaped when the block ends, and killed first if the
    block raises. A fork copies only the calling thread, so `fn` must not need
    a lock that another thread may hold, such as a BLAS thread pool's."""
    from multiprocessing import get_context

    ctx = get_context("fork")
    children = []
    try:
        for calls in shares:
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


def _report(child, receiver):
    """Wait for a child's report, what `_record` returned there. A child that
    dies before it reports is an error."""
    try:
        return receiver.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(f"forked child exited with code {child.exitcode}") from None


def _in_call_order(reports, n_calls: int) -> list:
    """The values of `n_calls` calls dealt out strided over the shares that
    `reports` recorded, in call order, with each call's warnings re-emitted in
    that order. Raises the first error in call order: a share stops only at an
    error of its own, so every call before it was made and succeeded."""
    values = []
    for i in range(n_calls):
        done, error = reports[i % len(reports)]
        if i // len(reports) == len(done):
            raise error
        value, caught = done[i // len(reports)]
        _rewarn(caught)
        values.append(value)
    return values


def map(fn, calls) -> list:  # noqa: A001 - the parallel form of map
    """`fn(*args)` for each `args` of `calls`, with the values in call order.

    With w = min(worker_count(), len(calls)) shares, share k is the calls
    `calls[k::w]`. This process forks a child for each of shares 1 to w - 1,
    then makes share 0 itself with OpenBLAS held at one thread, and restores
    its thread count afterwards. `_in_call_order` then re-emits every share's
    warnings and raises the first error in call order.
    """
    calls = list(calls)
    w = max(min(worker_count(), len(calls)), 1)
    with _children(fn, [calls[k::w] for k in range(1, w)]) as children:
        previous = _blas_threads(1)
        try:
            reports = [_record(fn, calls[::w])]
        finally:
            if previous is not None:
                _blas_threads(previous)
        reports += [_report(*child) for child in children]
    return _in_call_order(reports, len(calls))
