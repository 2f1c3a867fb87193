"""The benchmark's workloads: inputs made from the workload seed, one timed
pass, and the per-operation correctness checks.

Each workload calls only fairprep's public functions, through their modules
(`tabular.load_csv`, not a local alias), so the tracer sees every call.

- `studies`: the paper's reproduction path, training-bound and full-batch.
- `synth-scale`: the mini-batch training path plus the leakage probe and the
  downstream fit at large n.
- `rewrite-audit`: the serving side, with no training in the timed part;
  here the table layer and the audit do the work.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from fairprep import cli, debias, studies, synth, tabular
from fairprep.tabular import ColumnSpec


@dataclass
class Op:
    """One checked operation: what it was, and why it failed (empty when it passed)."""

    label: str
    failures: list = field(default_factory=list)


@dataclass
class PassResult:
    wall_s: float  # sum of the timed operations; checks are not timed
    metrics: dict  # the workload's named end-to-end metrics: name -> (value, unit)
    ops: list


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _seeds(seed: int, k: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=k)]


# ---------------------------------------------------------------------------
# studies


STUDY_NAMES = ("compas", "absenteeism", "heart", "passnyc", "communities")


def study_failures(pre: dict, post: dict, true: dict | None) -> list:
    """Per-seed acceptance directions: post-debias below pre-debias in every
    stratum and, for regression studies, below the true values' own score."""
    failures = []
    for stratum, before in pre.items():
        after = post[stratum]
        if not after < before:
            failures.append(f"[{stratum}] post {after:.4f} >= pre {before:.4f}")
        if true is not None and not after < true[stratum]:
            failures.append(f"[{stratum}] post {after:.4f} >= true {true[stratum]:.4f}")
    return failures


def _study_files(name: str, seed: int) -> list:
    return [f"{name}_seed{seed}_{side}_{kind}.csv" for side in ("pre", "post") for kind in ("bias", "hist")]


class Studies:
    """All five bundled case studies through `run_study`, outputs written, on
    two seeds drawn from the workload seed (one seed and 3 epochs when tiny)."""

    name = "studies"

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.root, self.work, self.tiny = root, work, tiny
        self.seeds = _seeds(seed, 1 if tiny else 2)
        self.configs = []

    def setup(self) -> None:
        configs = [studies.StudyConfig.from_json(self.root / "studies" / f"{n}.json") for n in STUDY_NAMES]
        if self.tiny:
            configs = [replace(c, debias={**c.debias, "epochs": 3}) for c in configs]
        # warm every code path with a one-epoch run of each study
        for cfg in configs:
            warm = replace(cfg, debias={**cfg.debias, "epochs": 1})
            studies.run_study(warm, out_dir=self.work / "warm" / cfg.name, seeds=[0])
        self.configs = configs

    def config_digests(self) -> dict:
        return {cfg.name: cfg.digest() for cfg in self.configs}

    def run_pass(self) -> PassResult:
        metrics, ops, wall = {}, [], 0.0
        for cfg in self.configs:
            out = self.work / "out" / cfg.name
            t0 = time.perf_counter()
            result = studies.run_study(cfg, out_dir=out, seeds=self.seeds)
            dt = time.perf_counter() - t0
            wall += dt
            metrics[f"study.{cfg.name}_s"] = (dt, "s")
            for run in result.runs:
                true = run.pre.true_table.scores() if run.pre.true_table is not None else None
                failures = study_failures(run.pre.bias_table.scores(), run.post.bias_table.scores(), true)
                expected = [f"{cfg.name}_result.json"] + _study_files(cfg.name, run.seed)
                failures += [f"missing output {f}" for f in expected if not (out / f).is_file()]
                ops.append(Op(f"{cfg.name} seed {run.seed}", failures))
        return PassResult(wall, metrics, ops)


# ---------------------------------------------------------------------------
# synth-scale


def synth_failures(auc_pre: float, auc_post: float, bias_pre: float, bias_post: float) -> list:
    failures = []
    if not auc_pre >= 0.75:
        failures.append(f"probe AUC pre {auc_pre:.4f} < 0.75")
    if not auc_post <= 0.60:
        failures.append(f"probe AUC post {auc_post:.4f} > 0.60")
    if not bias_post < bias_pre:
        failures.append(f"mean bias post {bias_post:.4f} >= pre {bias_pre:.4f}")
    return failures


class SynthScale:
    """`synth_check` at n = 20 000 (mini-batch training: 5 batches of at most
    4096 rows per epoch) with the default debiaser cut to 30 epochs."""

    name = "synth-scale"

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        (s,) = _seeds(seed, 1)
        self.spec = synth.SyntheticSpec(n=1000 if tiny else 20_000, seed=s)
        # synth_check's own default configuration, with fewer epochs
        self.debias_cfg = debias.DebiasConfig(
            seed=s,
            latent_dim=self.spec.n_features,
            adversary_weight=6.0,
            epochs=3 if tiny else 30,
            adversary_steps=5,
            adversary_hidden=max(16, 2 * self.spec.n_features),
        )

    def setup(self) -> None:
        synth.synth_check(replace(self.spec, n=2000), replace(self.debias_cfg, epochs=1))

    def config_digests(self) -> dict:
        return {"spec": _digest(asdict(self.spec)), "debias": _digest(asdict(self.debias_cfg))}

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        r = synth.synth_check(self.spec, self.debias_cfg)
        dt = time.perf_counter() - t0
        failures = synth_failures(
            r.probe_auc_pre,
            r.probe_auc_post,
            statistics.fmean(r.bias_scores_pre.values()),
            statistics.fmean(r.bias_scores_post.values()),
        )
        return PassResult(dt, {"synth_check_s": (dt, "s")}, [Op(f"synth_check n={self.spec.n}", failures)])


# ---------------------------------------------------------------------------
# rewrite-audit


PEOPLE_SCHEMA = [
    ColumnSpec("age", "numeric"),
    ColumnSpec("income", "numeric"),
    ColumnSpec("tenure", "numeric"),
    ColumnSpec("balance", "numeric"),
    ColumnSpec("visits", "numeric"),
    ColumnSpec("score_a", "numeric"),
    ColumnSpec("score_b", "numeric"),
    ColumnSpec("region", "categorical", categories=("north", "south", "east", "west")),
    ColumnSpec("plan", "binary"),
    ColumnSpec("group", "categorical", "protected", ("A", "B", "C")),
    ColumnSpec("outcome", "binary", "target"),
]
PASS_THROUGH = ("group", "outcome")
AUDIT_GROUPS = ("g1", "g2", "g3", "g4", "g5", "g6")
AUDIT_PAIR = ("g1", "g4")


def write_columns(path: Path, columns: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns.values()))


def _fmt(values, missing=None) -> list:
    cells = [f"{v:.4f}" for v in values]
    if missing is not None:
        for i in np.flatnonzero(missing):
            cells[i] = ""
    return cells


def make_people(rng: np.random.Generator, n: int) -> dict:
    """CSV cells of a people table whose protected `group` leaks through
    `income` and `region`; about 1% of incomes are missing."""
    group = rng.integers(0, 3, size=n)
    base = rng.standard_normal((n, 6))
    region = np.where(rng.random(n) < 0.6, group, rng.integers(0, 4, size=n))
    outcome = (rng.random(n) < 1.0 / (1.0 + np.exp(-(base[:, 0] + 0.5 * group - 0.5)))).astype(int)
    return {
        "age": _fmt(40.0 + 12.0 * base[:, 0]),
        "income": _fmt(50.0 + 8.0 * group + 10.0 * base[:, 1], missing=rng.random(n) < 0.01),
        "tenure": _fmt(np.abs(5.0 + 3.0 * base[:, 2])),
        "balance": _fmt(1000.0 * base[:, 3]),
        "visits": _fmt(np.round(np.abs(4.0 + 2.0 * base[:, 4]))),
        "score_a": _fmt(base[:, 5]),
        "score_b": _fmt(0.5 * base[:, 5] + 0.5 * rng.standard_normal(n)),
        "region": [("north", "south", "east", "west")[r] for r in region],
        "plan": [str(v) for v in rng.integers(0, 2, size=n)],
        "group": [("A", "B", "C")[g] for g in group],
        "outcome": [str(v) for v in outcome],
    }


def make_estimates(rng: np.random.Generator, n: int) -> dict:
    """CSV cells of a model-agnostic estimates file: six groups of unequal
    size, two strata, estimates in (0, 1) shifted by group and stratum."""
    group = rng.choice(len(AUDIT_GROUPS), size=n, p=[0.3, 0.2, 0.15, 0.15, 0.1, 0.1])
    stratum = (rng.random(n) < 0.4).astype(int)
    z = 0.3 * group - 0.8 + 1.2 * stratum + rng.standard_normal(n)
    return {
        "estimate": [f"{v:.6f}" for v in 1.0 / (1.0 + np.exp(-z))],
        "group": [AUDIT_GROUPS[g] for g in group],
        "stratum": [f"s{s}" for s in stratum],
    }


def audit_oracle(columns: dict, pair) -> list:
    """The two-group bias table, per stratum in first-appearance order, in numpy."""
    est = np.array(columns["estimate"], dtype=float)
    groups = np.array(columns["group"])
    strata = np.array(columns["stratum"])
    rows = []
    for st in dict.fromkeys(columns["stratum"]):
        a = est[(groups == pair[0]) & (strata == st)]
        b = est[(groups == pair[1]) & (strata == st)]
        sigma_avg = 0.5 * (a.std() + b.std())
        rows.append({"stratum": st, "n_a": a.size, "n_b": b.size, "mu_a": a.mean(), "mu_b": b.mean(),
                     "sigma_a": a.std(), "sigma_b": b.std(),
                     "bias_score": abs(a.mean() - b.mean()) / sigma_avg})
    return rows


def audit_failures(exit_code: int, report: dict | None, oracle: list) -> list:
    if exit_code != 0 or report is None:
        return [f"audit exited {exit_code}"]
    table = report["bias_table"]
    if (table["group_a"], table["group_b"]) != AUDIT_PAIR:
        return [f"compared {table['group_a']!r}/{table['group_b']!r}, expected {AUDIT_PAIR}"]
    got = table["strata"]
    if [r["stratum"] for r in got] != [r["stratum"] for r in oracle]:
        return [f"strata {[r['stratum'] for r in got]} != {[r['stratum'] for r in oracle]}"]
    failures = []
    for g, o in zip(got, oracle):
        for key, want in o.items():
            if key == "stratum":
                continue
            if not np.isclose(g[key], want, rtol=1e-9, atol=1e-12):
                failures.append(f"[{o['stratum']}] {key} {g[key]!r} != oracle {float(want)!r}")
    return failures


def rewrite_expectation(people: dict) -> dict:
    """What a rewrite of `people` must keep: header, row count, pass-through cells."""
    return {"header": list(people), "rows": len(people["age"]),
            "pass_through": {name: people[name] for name in PASS_THROUGH}}


def rewrite_failures(expected: dict, path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header != expected["header"]:
        return [f"header {header} != {expected['header']}"]
    if len(body) != expected["rows"]:
        return [f"{len(body)} rows written, {expected['rows']} read"]
    failures = []
    for name, cells in expected["pass_through"].items():
        j = header.index(name)
        changed = sum(1 for row, cell in zip(body, cells) if row[j] != cell)
        if changed:
            failures.append(f"pass-through column {name!r} changed in {changed} rows")
    return failures


class RewriteAudit:
    """Apply a debias model saved at set-up to a 100k-row CSV, then audit a
    200k-row estimates file through the CLI (2k and 4k rows when tiny)."""

    name = "rewrite-audit"

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.work, self.seed = work, seed
        self.rows, self.audit_rows = (2000, 4000) if tiny else (100_000, 200_000)
        self.model_cfg = debias.DebiasConfig(seed=_seeds(seed, 1)[0], epochs=30, adversary_steps=3)

    def _inputs(self, rng, tag: str, rows: int, audit_rows: int) -> dict:
        people = make_people(rng, rows)
        estimates = make_estimates(rng, audit_rows)
        paths = {k: self.work / f"{tag}_{k}" for k in ("people.csv", "rewritten.csv", "estimates.csv", "audit.json")}
        write_columns(paths["people.csv"], people)
        write_columns(paths["estimates.csv"], estimates)
        return {"rewrite": rewrite_expectation(people), "n_estimates": audit_rows,
                "oracle": audit_oracle(estimates, AUDIT_PAIR), "paths": paths}

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.main = self._inputs(rng, "main", self.rows, self.audit_rows)
        fit_path = self.work / "fit_people.csv"
        write_columns(fit_path, make_people(rng, 2000))
        model, _ = debias.train_debiaser(tabular.load_csv(fit_path, PEOPLE_SCHEMA), self.model_cfg)
        self.model_path = self.work / "model.json"
        debias.save_debias_model(model, self.model_path)
        self._pass(self._inputs(rng, "warm", 300, 600))  # warm every code path

    def config_digests(self) -> dict:
        return {"model": _digest(asdict(self.model_cfg)),
                "schema": _digest(tabular.schema_to_jsonable(PEOPLE_SCHEMA))}

    def _pass(self, inputs: dict) -> PassResult:
        paths = inputs["paths"]
        paths["audit.json"].unlink(missing_ok=True)
        t0 = time.perf_counter()
        table = tabular.load_csv(paths["people.csv"], PEOPLE_SCHEMA)
        model = debias.load_debias_model(self.model_path)
        tabular.write_csv(debias.transform(model, table), paths["rewritten.csv"])
        t1 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            code = cli.main([
                "audit", "--estimates", str(paths["estimates.csv"]), "--groups", "group",
                "--strata", "stratum", "--group-pair", ",".join(AUDIT_PAIR),
                "--report", str(paths["audit.json"]),
            ])
        t2 = time.perf_counter()
        report = None
        if paths["audit.json"].is_file():
            report = json.loads(paths["audit.json"].read_text(encoding="utf-8"))
        n_rows, n_audit = inputs["rewrite"]["rows"], inputs["n_estimates"]
        ops = [
            Op(f"rewrite {n_rows} rows", rewrite_failures(inputs["rewrite"], paths["rewritten.csv"])),
            Op(f"audit {n_audit} rows", audit_failures(code, report, inputs["oracle"])),
        ]
        metrics = {
            "rewrite_rows_per_s": (n_rows / (t1 - t0), "rows/s"),
            "audit_rows_per_s": (n_audit / (t2 - t1), "rows/s"),
        }
        return PassResult(t2 - t0, metrics, ops)

    def run_pass(self) -> PassResult:
        return self._pass(self.main)


WORKLOADS = {w.name: w for w in (Studies, SynthScale, RewriteAudit)}
