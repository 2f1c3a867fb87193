"""Negative controls for the benchmark's correctness checks: each check must
pass on a good output and fail on a corrupted one, or it proves nothing."""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np

from workloads import (
    AUDIT_PAIR,
    audit_failures,
    audit_oracle,
    make_estimates,
    make_people,
    rewrite_expectation,
    rewrite_failures,
    study_failures,
    synth_failures,
    write_columns,
)


def _expect(problems: list, name: str, failures: list, should_fail: bool) -> None:
    if bool(failures) != should_fail:
        verdict = "passed a corrupted output" if should_fail else f"failed a good output: {failures}"
        problems.append(f"check {name} {verdict}")


def negative_controls(work: Path) -> list:
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    problems = []

    _expect(problems, "study good", study_failures({"s": 1.0}, {"s": 0.5}, {"s": 0.8}), False)
    _expect(problems, "study post>=pre", study_failures({"s": 1.0}, {"s": 1.0}, None), True)
    _expect(problems, "study post>=true", study_failures({"s": 2.0}, {"s": 1.0}, {"s": 0.9}), True)

    _expect(problems, "synth good", synth_failures(0.99, 0.52, 0.4, 0.2), False)
    _expect(problems, "synth weak pre probe", synth_failures(0.70, 0.52, 0.4, 0.2), True)
    _expect(problems, "synth leaky post probe", synth_failures(0.99, 0.65, 0.4, 0.2), True)
    _expect(problems, "synth bias not reduced", synth_failures(0.99, 0.52, 0.4, 0.4), True)

    people = make_people(rng, 50)
    expected = rewrite_expectation(people)
    path = work / "rewritten.csv"
    write_columns(path, people)
    _expect(problems, "rewrite good", rewrite_failures(expected, path), False)
    write_columns(path, {k: v[:-1] for k, v in people.items()})
    _expect(problems, "rewrite row dropped", rewrite_failures(expected, path), True)
    first = "B" if people["group"][0] == "A" else "A"
    write_columns(path, dict(people, group=[first] + people["group"][1:]))
    _expect(problems, "rewrite pass-through changed", rewrite_failures(expected, path), True)
    write_columns(path, {("grp" if k == "group" else k): v for k, v in people.items()})
    _expect(problems, "rewrite header changed", rewrite_failures(expected, path), True)

    oracle = audit_oracle(make_estimates(rng, 500), AUDIT_PAIR)
    good = {"bias_table": {"group_a": AUDIT_PAIR[0], "group_b": AUDIT_PAIR[1],
                           "strata": [dict(r, mu_diff=abs(r["mu_a"] - r["mu_b"])) for r in oracle]}}
    _expect(problems, "audit good", audit_failures(0, good, oracle), False)
    bad = copy.deepcopy(good)
    bad["bias_table"]["strata"][0]["bias_score"] *= 1.0 + 1e-6
    _expect(problems, "audit score perturbed", audit_failures(0, bad, oracle), True)
    bad = copy.deepcopy(good)
    bad["bias_table"]["strata"][-1]["n_b"] += 1
    _expect(problems, "audit count perturbed", audit_failures(0, bad, oracle), True)
    _expect(problems, "audit exit code", audit_failures(2, good, oracle), True)
    return problems
