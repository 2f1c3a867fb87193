#!/usr/bin/env python3
"""Run all five bundled case studies end to end and print a summary table.

Writes per-study result JSON and the bias/histogram CSVs under results/
(override with --out). Uses each study's configured seed list.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fairprep.studies import StudyConfig, run_study  # noqa: E402

STUDY_NAMES = ["compas", "absenteeism", "heart", "passnyc", "communities"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=ROOT / "results", type=Path)
    parser.add_argument("--studies", nargs="*", default=STUDY_NAMES)
    parser.add_argument("--data-dir", default=None,
                        help="directory holding the real source datasets, if available")
    args = parser.parse_args()

    rows = []
    for name in args.studies:
        cfg = StudyConfig.from_json(ROOT / "studies" / f"{name}.json")
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_study(cfg, out_dir=args.out / name, data_dir=args.data_dir)
        elapsed = time.perf_counter() - start
        agg = result.aggregate
        for stratum, scores in agg["bias_scores"].items():
            true_part = ""
            if "true_bias_scores" in agg:
                true_part = f"  true={agg['true_bias_scores'][stratum]['median']:.2f}"
            rows.append(
                f"{name:<13} {stratum:<14} bias {scores['pre']['median']:.2f}"
                f" -> {scores['post']['median']:.2f}{true_part}"
            )
        perf = agg["performance"]
        rows.append(
            f"{name:<13} {perf['metric']:<14} {perf['pre']['median']:.3f}"
            f" -> {perf['post']['median']:.3f}   ({elapsed:.0f}s, {len(result.runs)} seeds)"
        )
        if result.source.get("warning"):
            rows.append(f"{name:<13} note: {result.source['warning']}")
    print("\n".join(rows))
    print(f"\nresults written under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
