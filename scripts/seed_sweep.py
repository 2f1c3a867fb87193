#!/usr/bin/env python3
"""Run every bundled study over many seeds and report how often it misses its bands.

    python3 scripts/seed_sweep.py [--seeds 50] > sweep.md

Each study in `studies/` runs through `run_study` on seeds 0..N-1 under two
protocols: in sample (the debiaser fits on every row, `fit_debias_on:
full`, and the audit reads every row, `audit.on: all`) and held out (it
fits on the train split, `train`, and the audit reads the test rows,
`test`). The bands are the acceptance criteria's (`CRITERIA`, criteria
04-08 of `tests/test_acceptance.py`), which the suite checks on the medians
of seeds 0-4 in sample. Per study and protocol the script prints, as
Markdown:

- per stratum, the share of seeds whose post score misses its band (above
  the bound, or for a regression study not below the true values' score),
  and the quartiles of the post scores;
- the quartiles and the largest drop in accuracy or R² from the pre to the
  post model, and the share of seeds past the drop band;
- the share of the draws of 5 of the N seeds (every one of them) whose
  medians fail the study's whole criterion, and whether seeds 0-4 pass.

A seed's run is deterministic, so the same checkout prints the same bytes.
Warnings are not shown.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fairprep.studies import StudyConfig, run_study  # noqa: E402

STUDY_NAMES = ["compas", "absenteeism", "heart", "passnyc", "communities"]
# (fit_debias_on, audit.on) per protocol
PROTOCOLS = {"in sample": ("full", "all"), "held out": ("train", "test")}
# each study's acceptance criterion: the smallest pre score per stratum (None: any), the
# largest post score (None: below the true values' score) and the largest performance drop
CRITERIA = {
    "compas": ({"recid": 0.5, "non-recid": 0.5}, 0.30, 0.10),
    "absenteeism": ({"upper quart": 1.0}, 0.35, 0.10),
    "heart": ({"healthy": 0.15, "heart disease": 0.15}, 0.10, 0.10),
    "passnyc": (None, None, 0.25),
    "communities": (None, None, 0.20),
}
DRAW = 5  # the suite checks the medians of 5 seeds


def _sweep(cfg: StudyConfig, seeds: list) -> dict:
    """Per-seed arrays of each quantity a criterion reads, in seed order."""
    runs = run_study(cfg, seeds=seeds).runs
    out = {"perf_pre": np.array([r.pre.performance["value"] for r in runs]),
           "perf_post": np.array([r.post.performance["value"] for r in runs])}
    for side in ("pre", "post"):
        for stratum in runs[0].pre.bias_table.scores():
            out[side, stratum] = np.array([getattr(r, side).bias_table.scores()[stratum] for r in runs])
    if runs[0].pre.true_table is not None:
        for stratum in runs[0].pre.true_table.scores():
            out["true", stratum] = np.array([r.pre.true_table.scores()[stratum] for r in runs])
    return out


def _passes(name: str, q: dict) -> np.ndarray:
    """Whether each column of values (seeds, or medians of draws) meets the study's criterion."""
    pre_min, post_max, drop_max = CRITERIA[name]
    ok = q["perf_pre"] - q["perf_post"] <= drop_max
    for key in q:
        if key[0] != "post":
            continue
        stratum = key[1]
        if post_max is None:  # regression: pre above the true score, post below it
            ok = ok & (q["pre", stratum] > q["true", stratum]) & (q[key] < q["true", stratum])
        else:
            ok = ok & (q[key] <= post_max)
            if stratum in pre_min:
                ok = ok & (q["pre", stratum] >= pre_min[stratum])
    return ok


def _draw_failures(name: str, q: dict, draws: np.ndarray) -> float:
    """The share of the draws of DRAW seeds whose medians fail the criterion."""
    failed = 0
    for start in range(0, len(draws), 1 << 18):
        chunk = draws[start:start + (1 << 18)]
        medians = {key: np.sort(v[chunk], axis=1)[:, DRAW // 2] for key, v in q.items()}
        failed += int(np.count_nonzero(~_passes(name, medians)))
    return failed / len(draws)


def _quartiles(v) -> str:
    return " / ".join(f"{x:.3f}" for x in np.percentile(v, [25, 50, 75]))


def _report(name: str, protocol: str, q: dict, draws) -> tuple:
    """The study's rows of the per-stratum table and its row of the criterion table."""
    pre_min, post_max, drop_max = CRITERIA[name]
    n = len(q["perf_pre"])
    strata = []
    for key, post in q.items():
        if key[0] != "post":
            continue
        stratum = key[1]
        if post_max is None:
            band, missed = "< true", post >= q["true", stratum]
        else:
            band, missed = f"<= {post_max:.2f}", post > post_max
        strata.append(f"| {name} | {protocol} | {stratum} | {band} | {np.count_nonzero(missed)}/{n} "
                      f"| {_quartiles(post)} | {_quartiles(q['pre', stratum])} |")
    drop = q["perf_pre"] - q["perf_post"]
    odds = f"{_draw_failures(name, q, draws):.1%}" if draws is not None else "n/a"
    first = "n/a"
    if n >= DRAW:
        first = "pass" if _passes(name, {k: np.median(v[:DRAW]) for k, v in q.items()}) else "fail"
    criterion = (f"| {name} | {protocol} | <= {drop_max:.2f} | {np.count_nonzero(drop > drop_max)}/{n} "
                 f"| {_quartiles(drop)} | {drop.max():.3f} | {odds} | {first} |")
    return strata, criterion


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=50, help="run seeds 0..N-1 (default 50)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    seeds = list(range(args.seeds))
    draws = None
    if args.seeds >= DRAW:
        flat = itertools.chain.from_iterable(itertools.combinations(seeds, DRAW))
        draws = np.fromiter(flat, dtype=np.int16).reshape(-1, DRAW)

    strata, criteria, configs = [], [], []
    for name in STUDY_NAMES:
        cfg = StudyConfig.from_json(ROOT / "studies" / f"{name}.json")
        configs.append(f"- {name}: `{cfg.digest()[:12]}`, debias {cfg.debias}")
        for protocol, (fit_on, audit_on) in PROTOCOLS.items():
            variant = replace(cfg, fit_debias_on=fit_on, audit={**cfg.audit, "on": audit_on})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rows, row = _report(name, protocol, _sweep(variant, seeds), draws)
            strata += rows
            criteria.append(row)

    n = args.seeds
    print(f"# Seed sweep, seeds 0-{n - 1}\n")
    print("Post scores per stratum; quartiles are q1 / median / q3 over the seeds.\n")
    print("| study | protocol | stratum | post band | misses | post quartiles | pre quartiles |")
    print("|---|---|---|---|---|---|---|")
    print("\n".join(strata))
    print(f"\nThe drop in accuracy or R² (pre - post), and the study's whole criterion on the medians "
          f"of {DRAW} seeds: the share of all {math.comb(n, DRAW)} draws of {DRAW} seeds that fail it, "
          f"and seeds 0-{DRAW - 1}.\n")
    print("| study | protocol | drop band | misses | drop quartiles | max drop | draws failing | seeds 0-4 |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(criteria))
    print("\nConfigs (digest of the bundled config, and its debias block):\n")
    print("\n".join(configs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
