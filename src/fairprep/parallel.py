"""Forked child processes for seeded work whose results do not depend on
where it runs.

A child starts from this process's memory, so its arguments reach it through
the fork and are never pickled; only its outcome comes back, through a pipe.
In the child, OpenBLAS computes with one thread and the calls are made in
order up to the first error. The warnings each call raises come back with
its value and are re-emitted through this process's filters. `map` is the one
way work forks: it deals calls out over several children while the caller
waits, or makes them in this process with one, so a caller writes its
schedule once and gets the same values, warnings and first error either way.
Its two users are `run_study`'s seeds and the two halves of a large
`write_csv`. `worker_count` gives the usable CPUs, which is 1 off Linux.
"""

from __future__ import annotations

import os
import sys
import warnings
from contextlib import contextmanager


def worker_count(n_tasks: int) -> int:
    """Processes to run `n_tasks` independent tasks in: one per usable CPU, at
    most one per task. The CPU affinity call exists only on Linux, so work
    forks only there; elsewhere this is 1."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _one_blas_thread() -> None:
    """In a child: limit OpenBLAS, the BLAS numpy's wheels bundle, to one
    thread. The children and the caller already share the usable CPUs, so BLAS
    threads on top of them only contend for the same cores. Another BLAS keeps
    its default, and so does OpenBLAS where its library cannot be found or
    loaded: the calls run correctly without the limit."""
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


def _run_in_child(conn, fn, calls) -> None:
    """A forked child's work: `fn(*args)` for each `args` of `calls`, in order,
    up to the first error. Sends back the value of each call made with the
    warnings it raised, as (warning, filename, lineno), then the error or None.
    A child cannot show its warnings to its parent's filters, so the parent
    re-emits them with `_rewarn`."""
    _one_blas_thread()
    done, error = [], None
    try:
        for args in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = fn(*args)
            done.append((value, [(w.message, w.filename, w.lineno) for w in caught]))
    except Exception as exc:  # noqa: BLE001 - raised again in the parent
        error = exc
    conn.send((done, error))


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
    """Wait for a child's report: the (value, warnings) of each call it made,
    and its error or None. A child that dies before it reports is an error."""
    try:
        return receiver.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(f"forked child exited with code {child.exitcode}") from None


def _in_call_order(reports, n_calls: int) -> list:
    """The values of `n_calls` calls dealt out strided over the children that
    sent `reports`, in call order, with each call's warnings re-emitted in that
    order. Raises the first error in call order: a child stops only at an error
    of its own, so every call before it was made and succeeded."""
    values = []
    for i in range(n_calls):
        done, error = reports[i % len(reports)]
        if i // len(reports) == len(done):
            raise error
        value, caught = done[i // len(reports)]
        _rewarn(caught)
        values.append(value)
    return values


def map(fn, calls, processes: int) -> list:  # noqa: A001 - the parallel form of map
    """`fn(*args)` for each `args` of `calls`, with the values in call order.

    With 2 or more `processes`, forked child `k` makes the calls
    `calls[k::processes]` while this process waits; `_in_call_order` then
    re-emits their warnings and raises the first error in call order. With one
    process, or one call, the calls are made here, in order.
    """
    calls = list(calls)
    processes = min(processes, len(calls))
    if processes <= 1:
        return [fn(*args) for args in calls]
    with _children(fn, [calls[k::processes] for k in range(processes)]) as children:
        reports = [_report(*child) for child in children]
    return _in_call_order(reports, len(calls))
