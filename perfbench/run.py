#!/usr/bin/env python3
"""fairprep benchmark.

    python3 perfbench/run.py --workload studies --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload from the root of a source checkout (the program is imported
from `src/`, nothing is installed). Set-up makes the inputs from `--seed` and
warms every code path; it is repeated five times and `setup_s` is the median.
Timed passes then repeat for about `--seconds` seconds, each followed by its
correctness checks. The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`:

- `--trace 0`: the end-to-end metrics, measured untraced;
- `--trace 1`: the per-layer metrics, from passes run with every public
  fairprep function wrapped by `tracing.py`, alternating with untraced passes
  so the tracing overhead is their difference.

The workload's named end-to-end metrics (per-study times, rows per second)
print above that line. Every run writes `perfbench/out/<workload>-seed<n>-
trace<t>.json` with a provenance block; traced runs also write the spans of
their last traced pass. `--smoke` runs every workload at a tiny size in both
modes, checks each declared metric against BENCHMARK.json and shows that
each correctness check fails on a corrupted output.
"""

from __future__ import annotations

import os
import sys

# one BLAS thread, pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

PROCESS_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 5
# A traced run wants a second traced pass so its exact counts can be compared,
# but adds it only if the run still ends within this many seconds (a run must
# end within 180 s, and one studies pass alone can take 50 s on a busy host).
TRACED_PASSES, DEADLINE_S = 2, 150.0


def _blas() -> tuple:
    """BLAS name and the thread count the loaded library reports (None if it cannot say)."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info.get('version', '')}".strip()
    except (KeyError, TypeError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, fn()
    return name, None


def _git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None  # not a git checkout
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(wl, seed: int) -> dict:
    import numpy as np

    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "workload": wl.name,
        "workload_seed": seed,
        "config_digests": wl.config_digests(),
    }


def _median_metrics(runs: list) -> dict:
    """Median of each (value, unit) metric over passes; counts stay whole numbers."""
    out = {}
    for k, (_, unit) in runs[0].items():
        median = statistics.median_low if unit == "count" else statistics.median
        out[k] = (median(r[k][0] for r in runs), unit)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    from tracing import EXACT_COUNTS, Tracer, installed, layer_metrics
    from workloads import WORKLOADS, Op

    work = OUT / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](ROOT, work, seed, tiny)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        # traced runs alternate traced and untraced passes, starting traced
        if trace and len(traced) <= len(plain):
            tracer.reset()
            with installed(tracer):
                p = wl.run_pass()
            traced.append(p)
            layers.append(layer_metrics(tracer.summary(), tracer.counts, p.wall_s))
        else:
            p = wl.run_pass()
            plain.append(p)
        for op in p.ops:
            for failure in op.failures:
                print(f"FAILED {op.label}: {failure}")
        next_s = statistics.median(q.wall_s for q in plain + traced)
        now = time.perf_counter()
        wanted = (
            not plain
            or (trace and not traced)
            or (trace and len(traced) < TRACED_PASSES and now - PROCESS_START + next_s <= DEADLINE_S)
            or now - start + next_s <= seconds
        )
        if not wanted:
            break

    ops = [op for p in plain + traced for op in p.ops]
    if len(traced) > 1:
        for key in EXACT_COUNTS:
            values = {m[key][0] for m in layers}
            if len(values) > 1:
                ops.append(Op(f"count {key} repeats across traced passes", [f"values {sorted(values)}"]))
    failed = sum(1 for op in ops if op.failures)
    named = _median_metrics([p.metrics for p in plain])
    plain_s = statistics.median(p.wall_s for p in plain)
    if trace:
        traced_s = statistics.median(p.wall_s for p in traced)
        metrics = _median_metrics(layers)
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    else:
        metrics = {
            "wall_s": (plain_s, "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else "")
    record = {
        "provenance": provenance(wl, seed),
        "seconds": seconds,
        "tiny": tiny,
        "setup_s": setup_s,
        "counts_compared": len(traced) > 1,
        "untraced_passes": [asdict(p) for p in plain],
        "traced_passes": [asdict(p) for p in traced],
        "named_metrics": named,
        "per_layer_passes": layers,
        "span_summary": tracer.summary() if trace else None,
        "result": result,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if trace:
        tracer.save(OUT / f"{tag}-spans.npz")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {name}, seed {seed}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"set-up {statistics.median(setup_s):.3f} s (median of {SETUP_REPEATS})")
    for key, (value, unit) in named.items():
        print(f"  {key} = {value:.6g} {unit}  (median of {len(plain)} untraced passes)")
    print(f"  ops: {len(ops)} attempted, {failed} failed; results in {OUT.relative_to(ROOT) / tag}.json")
    return result


def smoke() -> int:
    """Tiny runs of every workload in both modes, plus each check on a corrupted output."""
    from smoke import negative_controls
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, seed=0, seconds=0, trace=trace, tiny=True)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {int(trace)}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ from BENCHMARK.json")
            if result["attempted"] < 1:
                problems.append(f"{name} trace {int(trace)}: no check ran")
    problems += negative_controls(OUT / "work" / "smoke")
    shutil.rmtree(OUT / "work", ignore_errors=True)
    for p in problems:
        print(f"SMOKE PROBLEM: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("studies", "synth-scale", "rewrite-audit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    src = ROOT / "src"
    if not (src / "fairprep" / "__init__.py").is_file():
        print(f"error: no fairprep source under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    warnings.simplefilter("ignore")  # the program's calibration warnings, as its scripts do
    OUT.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
