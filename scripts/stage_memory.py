#!/usr/bin/env python3
"""Print the peak memory each stage of the rewrite path allocates.

    python3 scripts/stage_memory.py [--rows 100000]

Makes the benchmark's `rewrite-audit` inputs from `perfbench/workloads.py`:
a people CSV of `--rows` rows and an estimates CSV of twice as many, and a
debias model trained on 2000 other rows. It then runs, with the checkout's
own `src/`, the stages of one rewrite-audit pass: `load_csv` of the people
file, `transform` of that table, `write_csv` of the result, and
`fairprep audit` of the estimates.

For each stage one line gives the `tracemalloc` peak above what was live
when the stage began, and what the stage left live (its result). Both
count every Python and numpy allocation, so unlike RSS they are the same
on every run of the same checkout.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fairprep import cli, debias, tabular  # noqa: E402
from workloads import PEOPLE_SCHEMA, make_estimates, make_people, write_columns  # noqa: E402


def _measure(label: str, fn):
    """Run fn() under tracemalloc; print its peak and retained MB above the live set."""
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    result = fn()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"{label:<10} peak {(peak - base) / 1e6:7.1f} MB   kept {(current - base) / 1e6:7.1f} MB")
    return result


def _quiet(fn, *args):
    with redirect_stdout(io.StringIO()):
        return fn(*args)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=100_000)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        people, estimates = work / "people.csv", work / "estimates.csv"
        write_columns(people, make_people(rng, args.rows))
        write_columns(estimates, make_estimates(rng, 2 * args.rows))
        write_columns(work / "fit.csv", make_people(rng, 2000))
        model, _ = debias.train_debiaser(tabular.load_csv(work / "fit.csv", PEOPLE_SCHEMA),
                                         debias.DebiasConfig(epochs=2, seed=0))
        print(f"{args.rows} people rows, {2 * args.rows} estimates")
        table = _measure("load_csv", lambda: tabular.load_csv(people, PEOPLE_SCHEMA))
        rewritten = _measure("transform", lambda: debias.transform(model, table))
        del table
        _measure("write_csv", lambda: tabular.write_csv(rewritten, work / "rewritten.csv"))
        argv = ["audit", "--estimates", str(estimates), "--groups", "group",
                "--strata", "stratum", "--group-pair", "g1,g4"]
        code = _measure("audit", lambda: _quiet(cli.main, argv))
        if code != 0:
            raise SystemExit(f"fairprep audit exited {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
