import multiprocessing
import os
import time
import warnings

import pytest

from fairprep import parallel
from fairprep.tabular import DataError


def _fails(message):
    raise DataError(message)


def _warns_then_returns(message):
    warnings.warn(message, UserWarning)
    return "dropped"


def test_forked_raises_the_childs_error_with_its_type_and_message():
    with pytest.raises(DataError, match="^failed in the child$"):
        with parallel.forked(_fails, "failed in the child"):
            pass
    assert multiprocessing.active_children() == []


def test_forked_re_emits_the_childs_warnings_and_drops_its_value():
    with pytest.warns(UserWarning, match="warned in the child"):
        with parallel.forked(_warns_then_returns, "warned in the child") as handle:
            assert handle is None


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
